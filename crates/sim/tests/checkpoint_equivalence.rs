//! Resume-equivalence properties for `sim::snapshot` (ISSUE 9).
//!
//! The contract under test: checkpointing a run at time `T/2`, restoring the
//! snapshot, and running to the horizon produces a [`SimReport`] **bit
//! identical** (via `PartialEq`, which compares every `f64` exactly) to the
//! uninterrupted run — including [`sim::RingCacheStats`] — across random
//! schedulers × protections × behavior mixes × churn × shards {1, 4, 8}.
//! A second property chains a checkpoint/restore round trip at *every event
//! boundary* of a small scenario and still demands the identical report.

use proptest::prelude::*;
use sim::{
    BehaviorKind, BehaviorMix, ChurnConfig, ExchangeDiscipline, FlashCrowdConfig, Protection,
    SchedulerKind, SimConfig, SimReport, SimTime, Simulation,
};
use workload::CategoryId;

/// One sampled run shape: indexes into the fixed option sets plus the
/// numeric knobs, kept small enough that 64 cases × 2 runs stay fast.
#[derive(Debug, Clone, Copy)]
struct RunShape {
    peers: usize,
    duration_s: f64,
    scheduler: usize,
    protection: usize,
    mix: usize,
    churn: bool,
    shards: usize,
    seed: u64,
}

fn shape_strategy() -> impl Strategy<Value = RunShape> {
    (
        (
            10usize..28,     // peers
            300.0f64..700.0, // duration_s
            0usize..64,      // scheduler index (wrapped onto the option set)
        ),
        (
            0usize..64, // protection index (wrapped onto the option set)
            0usize..4,  // behavior mix
            proptest::bool::ANY,
        ),
        (
            0usize..3, // shards selector -> {1, 4, 8}
            0u64..1_000,
        ),
    )
        .prop_map(
            |((peers, duration_s, scheduler), (protection, mix, churn), (shards, seed))| RunShape {
                peers,
                duration_s,
                scheduler,
                protection,
                mix,
                churn,
                shards: [1, 4, 8][shards],
                seed,
            },
        )
}

fn config_for(shape: RunShape) -> SimConfig {
    let mut config = SimConfig::quick_test();
    config.num_peers = shape.peers;
    config.sim_duration_s = shape.duration_s;
    config.warmup_s = shape.duration_s / 4.0;
    let schedulers = SchedulerKind::all();
    config.scheduler = schedulers[shape.scheduler % schedulers.len()];
    let protections = Protection::all_basic();
    config.protection = protections[shape.protection % protections.len()];
    config.behaviors = match shape.mix {
        0 => BehaviorMix::honest(),
        1 => BehaviorMix::with_freeriders(0.3),
        2 => BehaviorMix::weighted([
            (BehaviorKind::Honest, 0.7),
            (BehaviorKind::JunkSender, 0.15),
            (BehaviorKind::ParticipationCheater, 0.15),
        ]),
        _ => BehaviorMix::weighted([
            (BehaviorKind::Honest, 0.6),
            (BehaviorKind::FreeRider, 0.2),
            (BehaviorKind::Middleman, 0.2),
        ]),
    };
    config.churn = shape.churn.then(|| ChurnConfig {
        mean_session_s: shape.duration_s / 2.0,
        mean_downtime_s: shape.duration_s / 8.0,
    });
    config.shards = shape.shards;
    config.validate().expect("sampled config is valid");
    config
}

/// Checkpoints `sim` into bytes and restores a fresh simulation from them.
fn round_trip(sim: &Simulation, config: &SimConfig) -> Simulation {
    let mut bytes = Vec::new();
    sim.checkpoint(&mut bytes)
        .expect("serializing into a Vec cannot fail");
    Simulation::restore(&mut &bytes[..], config).expect("a fresh checkpoint restores")
}

/// The uninterrupted report and the checkpoint-at-T/2-resume report.
fn straight_and_resumed(config: &SimConfig, seed: u64) -> (SimReport, SimReport) {
    let straight = Simulation::new(config.clone(), seed).run();
    let mut live = Simulation::new(config.clone(), seed);
    live.run_until(SimTime::from_secs_f64(config.sim_duration_s / 2.0));
    let resumed = round_trip(&live, config).run();
    (straight, resumed)
}

proptest! {
    #[test]
    fn resume_at_half_horizon_is_bit_identical(shape in shape_strategy()) {
        let config = config_for(shape);
        let (straight, resumed) = straight_and_resumed(&config, shape.seed);
        prop_assert!(
            straight.ring_cache_stats() == resumed.ring_cache_stats(),
            "ring-cache stats diverged for {shape:?}"
        );
        prop_assert!(straight == resumed, "reports diverged for {shape:?}");
    }
}

/// Exchange disciplines beyond the quick-test default also resume exactly
/// (the search policy shapes the ring-candidate cache contents).
#[test]
fn every_paper_discipline_resumes_exactly() {
    for discipline in ExchangeDiscipline::paper_set() {
        let mut config = SimConfig::quick_test();
        config.num_peers = 16;
        config.sim_duration_s = 700.0;
        config.discipline = discipline;
        let (straight, resumed) = straight_and_resumed(&config, 11);
        assert_eq!(straight, resumed, "discipline {:?}", config.discipline);
    }
}

/// Checkpoint + restore at **every event boundary**: before each event the
/// simulation is serialized and replaced by its own restored snapshot, so
/// any state the format dropped or mangled would corrupt the very next
/// event.  The final report must still match the straight run exactly.
#[test]
fn checkpoint_at_every_event_matches_straight_run() {
    let mut config = SimConfig::quick_test();
    config.num_peers = 10;
    config.sim_duration_s = 300.0;
    config.warmup_s = 75.0;
    let straight = Simulation::new(config.clone(), 7).run();

    let mut chained = Simulation::new(config.clone(), 7);
    let mut steps = 0u64;
    loop {
        chained = round_trip(&chained, &config);
        if chained.step().is_none() {
            break;
        }
        steps += 1;
    }
    assert!(steps > 100, "scenario too small to be meaningful: {steps}");
    let resumed = chained.run();
    assert_eq!(straight.ring_cache_stats(), resumed.ring_cache_stats());
    assert_eq!(straight, resumed);
}

/// The sharded engine's merged batches also step and resume exactly.
#[test]
fn checkpoint_at_every_event_matches_straight_run_sharded() {
    let mut config = SimConfig::quick_test();
    config.num_peers = 12;
    config.sim_duration_s = 300.0;
    config.warmup_s = 75.0;
    config.shards = 4;
    let straight = Simulation::new(config.clone(), 9).run();

    let mut chained = Simulation::new(config.clone(), 9);
    loop {
        chained = round_trip(&chained, &config);
        if chained.step().is_none() {
            break;
        }
    }
    assert_eq!(straight, chained.run());
}

/// A checkpoint taken after a flash-crowd release resumes exactly.  Restore
/// regenerates the setup catalog and replays the release, the only path that
/// rebuilds a category's popularity normaliser mid-run; with equal category
/// lengths the release also makes category 0 the longest, so the replay
/// extends the catalog's shared powers table too.
#[test]
fn resume_after_a_flash_crowd_release_is_bit_identical() {
    let mut config = SimConfig::quick_test();
    config.num_peers = 24;
    config.sim_duration_s = 1_500.0;
    config.warmup_s = 300.0;
    config.workload.objects_per_category = (6, 6);
    config.flash_crowd = Some(FlashCrowdConfig {
        at_s: 400.0,
        requesters: 10,
        seed_holders: 2,
    });
    for (seed, shards) in [(21, 1), (22, 1), (23, 4)] {
        config.shards = shards;
        let straight = Simulation::new(config.clone(), seed).run();
        let mut live = Simulation::new(config.clone(), seed);
        live.run_until(SimTime::from_secs_f64(700.0));
        let first = CategoryId::new(0);
        assert_eq!(live.catalog().objects_in_category(first).len(), 7);

        let restored = round_trip(&live, &config);
        assert_eq!(restored.catalog(), live.catalog(), "seed {seed}");
        let resumed = restored.run();
        assert_eq!(straight.ring_cache_stats(), resumed.ring_cache_stats());
        assert_eq!(straight, resumed, "seed {seed}, shards {shards}");
    }
}
