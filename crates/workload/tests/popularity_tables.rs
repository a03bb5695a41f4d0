//! The catalog-owned popularity tables against the per-draw distribution
//! they replace.
//!
//! Requests and initial placements used to build a fresh
//! [`PowerLawWeights`] for the drawn category on every draw.  The catalog now
//! keeps one shared `rank^-f` table plus a normaliser per category; these
//! tests pin that every draw is **bit-identical** to the rebuild — the same
//! rank for every `u`, the same picks, and the same RNG position afterwards.

use des::DetRng;
use proptest::prelude::*;
use workload::{
    Catalog, CategoryId, ObjectId, PeerInterests, PowerLawWeights, RequestGenerator, Storage,
    WorkloadConfig,
};

/// Uniform draws at the clamped edges of `sample_with`.
const EDGE_DRAWS: [f64; 4] = [-0.5, 0.0, 1.0 - f64::EPSILON, 1.5];

/// A catalog with a single category of exactly `n` objects and factor `f`.
fn one_category(n: u32, f: f64) -> Catalog {
    let config = WorkloadConfig {
        num_categories: 1,
        objects_per_category: (n, n),
        categories_per_peer: (1, 1),
        object_popularity_factor: f,
        ..WorkloadConfig::small()
    };
    Catalog::generate(&config, &mut DetRng::seed_from(u64::from(n)))
}

/// `u` on a regular grid over `[0, 1)` plus the clamped edges.
fn draws() -> Vec<f64> {
    (0..64)
        .map(|i| f64::from(i) / 64.0 + 1.0 / 128.0)
        .chain(EDGE_DRAWS)
        .collect()
}

/// Asserts every category of `catalog` samples exactly like a freshly built
/// distribution over its current length.
fn assert_matches_rebuild(catalog: &Catalog, us: &[f64]) {
    let f = catalog.object_popularity_factor();
    for c in 0..catalog.num_categories() {
        let category = CategoryId::new(c as u32);
        let n = catalog.objects_in_category(category).len();
        let weights = PowerLawWeights::new(n, f);
        for &u in us {
            assert_eq!(
                catalog.sample_rank(category, u),
                weights.sample_with(u),
                "category {c} of {n} objects, f = {f}, u = {u}"
            );
        }
    }
}

#[test]
fn table_draws_equal_rebuilt_distributions_for_every_length() {
    for n in 1..=400 {
        for f in [0.0, 0.2, 0.5, 1.0, 1.5, 2.2, 3.0 - 1e-9] {
            assert_matches_rebuild(&one_category(n, f), &draws());
        }
    }
}

#[test]
fn categories_of_mixed_lengths_share_one_powers_table() {
    for f in [0.0, 0.2, 1.0, 2.5] {
        let config = WorkloadConfig {
            num_categories: 60,
            objects_per_category: (1, 400),
            object_popularity_factor: f,
            ..WorkloadConfig::small()
        };
        let catalog = Catalog::generate(&config, &mut DetRng::seed_from(5));
        assert_matches_rebuild(&catalog, &draws());
    }
}

#[test]
fn releases_grow_the_tables_to_and_past_the_longest_category() {
    let config = WorkloadConfig {
        num_categories: 8,
        objects_per_category: (3, 40),
        object_popularity_factor: 0.7,
        ..WorkloadConfig::small()
    };
    let mut catalog = Catalog::generate(&config, &mut DetRng::seed_from(11));
    let lengths: Vec<usize> = (0..catalog.num_categories())
        .map(|c| catalog.objects_in_category(CategoryId::new(c as u32)).len())
        .collect();
    let longest = *lengths.iter().max().unwrap();
    let (shortest, &short_len) = lengths.iter().enumerate().min_by_key(|(_, n)| **n).unwrap();
    assert!(
        short_len < longest,
        "seed must give unequal category lengths"
    );
    let grown = CategoryId::new(shortest as u32);

    // Up to the longest length: the shared powers table already covers it.
    while catalog.objects_in_category(grown).len() < longest {
        catalog.release_object(grown, 1);
        assert_matches_rebuild(&catalog, &draws());
    }
    // Past it: every release extends the shared table by one rank.
    for _ in 0..25 {
        catalog.release_object(grown, 1);
        assert_matches_rebuild(&catalog, &draws());
    }
    assert_eq!(catalog.objects_in_category(grown).len(), longest + 25);
}

proptest! {
    #[test]
    fn table_draws_equal_rebuilt_distributions(
        n in 1u32..=400,
        f in 0.0f64..3.0,
        u in -0.5f64..1.5,
    ) {
        let catalog = one_category(n, f);
        let weights = PowerLawWeights::new(n as usize, f);
        for u in std::iter::once(u).chain(EDGE_DRAWS) {
            prop_assert_eq!(catalog.sample_rank(CategoryId::new(0), u), weights.sample_with(u));
        }
    }
}

/// The request draw as it was before the catalog owned the tables: a fresh
/// distribution built for every attempt.
fn reference_next_request(
    catalog: &Catalog,
    interests: &PeerInterests,
    rng: &mut DetRng,
    mut reject: impl FnMut(ObjectId) -> bool,
) -> Option<ObjectId> {
    for _ in 0..64 {
        let category = interests.pick_category(rng);
        let objects = catalog.objects_in_category(category);
        if objects.is_empty() {
            continue;
        }
        let weights = PowerLawWeights::new(objects.len(), catalog.object_popularity_factor());
        let candidate = objects[weights.sample_with(rng.gen_unit())];
        if !reject(candidate) {
            return Some(candidate);
        }
    }
    None
}

/// The initial placement as it was before the catalog owned the tables.
fn reference_placement(
    capacity: usize,
    catalog: &Catalog,
    interests: &PeerInterests,
    rng: &mut DetRng,
) -> Storage {
    let mut storage = Storage::new(capacity);
    if capacity == 0 {
        return storage;
    }
    let mut attempts = 0;
    while storage.len() < capacity && attempts < capacity * 16 {
        attempts += 1;
        let category = interests.pick_category(rng);
        let objects = catalog.objects_in_category(category);
        if objects.is_empty() {
            continue;
        }
        let weights = PowerLawWeights::new(objects.len(), catalog.object_popularity_factor());
        storage.insert(objects[weights.sample_with(rng.gen_unit())]);
    }
    storage
}

/// A request filter: `true` rejects the candidate.
type Filter = fn(ObjectId) -> bool;

/// Filters applied to request candidates: accept all, reject all, and a
/// few that reject part of the catalog (forcing retries).
const FILTERS: [(&str, Filter); 4] = [
    ("accept all", |_| false),
    ("reject all", |_| true),
    ("reject two thirds", |o| o.as_usize() % 3 != 0),
    ("reject low ids", |o| o.as_usize() < 5_000),
];

/// Runs the table-backed generator and placement against the references
/// on `config` across several seeds and peers.
fn assert_oracle_agrees(config: &WorkloadConfig) {
    for seed in 1..=4u64 {
        let mut rng = DetRng::seed_from(seed);
        let catalog = Catalog::generate(config, &mut rng);
        let generator = RequestGenerator::new();
        for peer in 0..12 {
            let mut rng = DetRng::seed_from(seed).indexed_stream("peer", peer);
            let interests = PeerInterests::generate(&catalog, config, &mut rng);
            let capacity = [0, 1, 8, 40][peer as usize % 4];

            let mut table_rng = rng.clone();
            let mut reference_rng = rng.clone();
            let placed = Storage::initial_placement(capacity, &catalog, &interests, &mut table_rng);
            let expected = reference_placement(capacity, &catalog, &interests, &mut reference_rng);
            assert_eq!(placed, expected, "placement, seed {seed} peer {peer}");
            assert_eq!(table_rng.gen_unit(), reference_rng.gen_unit());

            for (name, filter) in FILTERS {
                for draw in 0..20 {
                    let mut table_seen = Vec::new();
                    let mut reference_seen = Vec::new();
                    let pick = generator.next_request(&catalog, &interests, &mut table_rng, |o| {
                        table_seen.push(o);
                        filter(o)
                    });
                    let expected =
                        reference_next_request(&catalog, &interests, &mut reference_rng, |o| {
                            reference_seen.push(o);
                            filter(o)
                        });
                    let at = format!("filter {name:?}, seed {seed} peer {peer} draw {draw}");
                    assert_eq!(pick, expected, "{at}");
                    assert_eq!(table_seen, reference_seen, "{at}");
                    assert_eq!(table_rng.gen_unit(), reference_rng.gen_unit(), "{at}");
                }
            }
        }
    }
}

#[test]
fn generator_and_placement_match_the_per_draw_rebuild_on_paper_defaults() {
    assert_oracle_agrees(&WorkloadConfig::paper_defaults());
}

#[test]
fn generator_and_placement_match_the_per_draw_rebuild_on_small() {
    assert_oracle_agrees(&WorkloadConfig::small());
}
