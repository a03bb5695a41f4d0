//! The three workloads: their simulated systems, why each was chosen, and
//! which layer metric should move which end-to-end metric on which of them.

use sim::{
    Axis, BehaviorKind, BehaviorMix, CapacityClass, CatastropheConfig, ChurnConfig, ClassMix,
    FlashCrowdConfig, Protection, Scenario, SchedulerKind, SimConfig, SimTime,
};

/// Simulated horizon of the 10⁴-peer workloads, in seconds (a third of it
/// is warm-up).
pub const TENK_HORIZON_S: f64 = 720.0;

/// The 10⁴-peer simulations are stepped through `run_until` in this many
/// equal slices of their horizon (2 simulated seconds each).
pub const TENK_SLICES: u64 = 360;

/// `churn-10k` writes an in-memory checkpoint every this many
/// slices (120 simulated seconds).
pub const CHECKPOINT_EVERY_SLICES: u64 = 60;

/// Slice length of the `paper-sweep` replays: the request-retry interval
/// of Table II, so every slice holds one retry round.
pub const PAPER_SLICE_S: f64 = 300.0;

/// Shards of the sharded run the traced `churn-10k` run compares with the
/// sequential one.  The untimed comparison keeps the shard pool measured
/// without making the end-to-end figures depend on how quickly this host
/// wakes a second CPU (see the benchmark README).
pub const TRACED_SHARDS: usize = 2;

/// Fraction of the paper's 48-hour horizon (and 8-hour warm-up) each
/// `paper-sweep` row simulates.
pub const PAPER_DURATION_SCALE: f64 = 1.0 / 8.0;

/// Worker threads of the `paper-sweep` scenario.
pub const SWEEP_THREADS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Steady10k,
    Churn10k,
    PaperSweep,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Steady10k,
        Workload::Churn10k,
        Workload::PaperSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady10k => "steady-10k",
            Workload::Churn10k => "churn-10k",
            Workload::PaperSweep => "paper-sweep",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Steady10k => {
                "10^4 peers, static population, one shard: scheduling and ring search \
                 dominate the event loop, so this is the workload for streaming ring \
                 formation and ring-cache work"
            }
            Workload::Churn10k => {
                "the same population under churn, a catastrophe, a flash crowd and a \
                 capacity-class mix with in-memory checkpoints: graph mutations and cache \
                 invalidations beside lookups, plus population events and snapshots; its \
                 traced run also measures the shard pool and merge at shards = 2"
            }
            Workload::PaperSweep => {
                "the paper's 200-peer Table II system as a streamed two-thread scenario \
                 grid over all five schedulers and two behaviour settings: request \
                 generation dominates and ring search is minor, and it alone exercises \
                 credit schedulers, behaviours, the sweep engine and metrics export"
            }
        }
    }
}

/// The simulated system of the two 10⁴-peer workloads: Table II with 1 MB
/// objects and the ring search bounded to budget 512 / fanout 8 (the scale
/// tier's parameters), entry-granularity caching, one shard; `churn` adds
/// the full population dynamics.
pub fn tenk_config(churn: bool) -> SimConfig {
    let horizon = TENK_HORIZON_S;
    let mut config = SimConfig::paper_defaults();
    config.num_peers = 10_000;
    config.workload.object_size_bytes = 1024 * 1024;
    config.sim_duration_s = horizon;
    config.warmup_s = horizon / 3.0;
    config.ring_search_budget = 512;
    config.ring_search_fanout = 8;
    if churn {
        config.churn = Some(ChurnConfig {
            mean_session_s: horizon * 2.0 / 3.0,
            mean_downtime_s: horizon / 6.0,
        });
        config.catastrophe = Some(CatastropheConfig {
            at_s: horizon / 2.0,
            top_k: config.num_peers / 200,
        });
        config.flash_crowd = Some(FlashCrowdConfig {
            at_s: horizon / 3.0,
            requesters: config.num_peers / 20,
            seed_holders: 8,
        });
        config.classes = ClassMix::weighted([
            (CapacityClass::Fast, 0.25),
            (CapacityClass::Medium, 0.5),
            (CapacityClass::Slow, 0.25),
        ]);
    }
    config
}

/// The end of slice `k` (1-based) of `slices` equal slices of a run with
/// horizon `horizon_s`.
pub fn slice_end(horizon_s: f64, k: u64, slices: u64) -> SimTime {
    let horizon_us = SimTime::from_secs_f64(horizon_s).as_micros();
    SimTime::from_micros(horizon_us * k / slices)
}

/// Every workload simulates one fixed topology (catalog, interests,
/// initial storage), generated from this seed; the benchmark seed drives
/// the request, lookup, storage and churn streams of the runs on it.  The
/// amount of work then barely depends on the benchmark seed, so a run's
/// figures measure the program rather than the luck of one topology.
pub const TOPOLOGY_SEED: u64 = 0;

/// The seeds every `paper-sweep` grid point runs under for benchmark seed
/// `seed`.  One seed per point keeps a sweep short enough that a run
/// holds several, so `sim_s_per_s` and `first_row_s` are medians.
pub fn sweep_seeds(seed: u64) -> [u64; 1] {
    [2 * seed]
}

/// The seeds every `paper-sweep` grid point is replayed under for
/// `slice_ms_p50`/`p95`: the sweep's seed and one more, because at 200
/// peers the slice times depend on the seed, and pooling two seeds halves
/// that dependence.
pub fn replay_seeds(seed: u64) -> [u64; 2] {
    [2 * seed, 2 * seed + 1]
}

/// The `paper-sweep` grid: every scheduler × {the default free-rider mix
/// unprotected, participation cheaters under mediation},
/// two threads, warm restarts on the fixed topology.
pub fn paper_scenario(seed: u64) -> Scenario {
    let base = SimConfig::paper_defaults().with_duration_scale(PAPER_DURATION_SCALE);
    // Participation cheaters only.  Middlemen, even at 5%, multiply
    // ring-search work thirty-fold (half a minute per row); junk senders
    // make mediation cut sessions short, and the rescheduling lifts ring
    // search above request generation.
    let adversaries = BehaviorMix::weighted([
        (BehaviorKind::Honest, 0.5),
        (BehaviorKind::FreeRider, 0.3),
        (BehaviorKind::ParticipationCheater, 0.2),
    ]);
    let behaviour = Axis::custom("behaviour")
        .with_variant("freeriders-unprotected", |config| {
            config.behaviors = BehaviorMix::with_freeriders(0.5);
            config.protection = Protection::None;
        })
        .with_variant("cheaters-mediated", move |config| {
            config.behaviors = adversaries.clone();
            config.protection = Protection::Mediated;
        });
    Scenario::from(base)
        .schedulers(SchedulerKind::all())
        .vary(behaviour)
        .seeds(sweep_seeds(seed))
        .setup_seed(TOPOLOGY_SEED)
        .threads(SWEEP_THREADS)
        .warm_restarts(true)
}

/// Which end-to-end metric each layer's metrics should move, and on which
/// workload: `(layer, metrics, end-to-end metrics, workload)`.
pub const INTERACTIONS: [(&str, &str, &str, &str); 14] = [
    (
        "exchange",
        "exchange.ring_searches, exchange.ring_search_s, exchange.us_per_search",
        "sim_s_per_s, slice_ms_p95",
        "steady-10k",
    ),
    (
        "sim.ring_cache",
        "sim.ring_cache.hits, .misses, .invalidations, .hit_rate",
        "sim_s_per_s",
        "steady-10k",
    ),
    (
        "sim.scheduling",
        "sim.scheduling.scheduling_s, .self_s, .rings_formed, .rings_per_search, \
         .token_declines, .rings_dissolved",
        "sim_s_per_s",
        "steady-10k",
    ),
    (
        "sim.events",
        "sim.events.generate_requests_s",
        "sim_s_per_s",
        "paper-sweep",
    ),
    (
        "des",
        "des.events, des.event_loop_s, des.dispatch_self_s, des.ns_per_event",
        "sim_s_per_s",
        "paper-sweep",
    ),
    (
        "sim.transfers",
        "sim.transfers.transfers_s, .sessions, .completed_downloads",
        "sim_s_per_s",
        "all",
    ),
    (
        "sim.maintenance",
        "sim.maintenance.maintenance_s",
        "sim_s_per_s",
        "all",
    ),
    (
        "sim.population",
        "sim.population.population_s",
        "slice_ms_p95",
        "churn-10k",
    ),
    (
        "sim.shard",
        "sim.shard.planning_s, .planned_searches, .planned_consumed, .plan_hit_rate, \
         .sequential_run_s, .speedup",
        "sim_s_per_s",
        "churn-10k",
    ),
    (
        "sim.snapshot",
        "sim.snapshot.checkpoint_ms, .checkpoint_bytes, .restore_ms",
        "slice_ms_p95",
        "churn-10k",
    ),
    ("sim.setup", "sim.setup.generate_s", "setup_s", "all"),
    (
        "sim.scenario",
        "sim.scenario.rows, .row_s_sum, .parallel_efficiency",
        "sim_s_per_s, first_row_s",
        "paper-sweep",
    ),
    (
        "metrics",
        "metrics.export_s",
        "sim_s_per_s, first_row_s",
        "paper-sweep",
    ),
    ("trace", "trace.overhead_frac", "-", "all"),
];
