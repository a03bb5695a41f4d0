//! The metrics a run prints: end-to-end figures from untraced runs and
//! per-layer figures from traced ones.

use std::time::Duration;

use sim::{PhaseProfile, RingCacheStats, SimReport};

use crate::check::Gate;
use crate::stats::{median, percentile};

/// Minimum number of samples that must lie beyond a reported percentile.
pub const MIN_BEYOND_PERCENTILE: usize = 10;

/// One printed metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Samples behind the end-to-end metrics of one untraced run.  Times are
/// CPU seconds scaled by the host-speed factor of the unit of work they
/// were measured in (see [`crate::host`]).
#[derive(Default)]
pub struct EndToEnd {
    /// Simulated seconds per scaled CPU second of each unit of work.
    pub unit_rates: Vec<f64>,
    /// Scaled CPU seconds of each timed set-up.
    pub setup_s: Vec<f64>,
    /// Scaled CPU milliseconds per simulated-time slice.
    pub slice_ms: Vec<f64>,
    /// Scaled CPU seconds from the start of each unit of work to its first
    /// result.
    pub first_row_s: Vec<f64>,
    /// Peak resident memory once the first unit finished, so the figure
    /// does not depend on how many units fit in the run.
    pub peak_rss_mb: Option<f64>,
    /// Host-speed factor of each unit of work.
    pub factors: Vec<f64>,
}

impl EndToEnd {
    /// The end-to-end metrics; a percentile with fewer than
    /// [`MIN_BEYOND_PERCENTILE`] samples beyond it fails `gate`.
    pub fn metrics(&self, gate: &mut Gate) -> Vec<Metric> {
        let (p50, _) = percentile(&self.slice_ms, 0.50);
        let (p95, beyond) = percentile(&self.slice_ms, 0.95);
        gate.require(
            beyond >= MIN_BEYOND_PERCENTILE,
            &format!(
                "slice_ms_p95 has {beyond} of {} samples beyond it (need {MIN_BEYOND_PERCENTILE})",
                self.slice_ms.len()
            ),
        );
        gate.require(
            self.peak_rss_mb.is_some(),
            "VmHWM is not readable from /proc/self/status",
        );
        eprintln!(
            "benchmark: medians of {} units, {} set-ups; {} slice samples; host-speed \
             factors {:.4}..{:.4}",
            self.unit_rates.len(),
            self.setup_s.len(),
            self.slice_ms.len(),
            self.factors.iter().copied().fold(f64::INFINITY, f64::min),
            self.factors.iter().copied().fold(0.0, f64::max),
        );
        vec![
            metric("sim_s_per_s", median(&self.unit_rates), "s/s"),
            metric("setup_s", median(&self.setup_s), "s"),
            metric("slice_ms_p50", p50, "ms"),
            metric("slice_ms_p95", p95, "ms"),
            metric("first_row_s", median(&self.first_row_s), "s"),
            metric("peak_rss_mb", self.peak_rss_mb.unwrap_or(0.0), "MB"),
        ]
    }
}

/// Inputs of the per-layer metrics of one traced run.  Layers a workload
/// bypasses keep their zero defaults.
#[derive(Default)]
pub struct Layers {
    /// Phase profile of the sequential profiled run(s), summed over runs.
    pub profile: PhaseProfile,
    /// Phase profile of the sharded comparison run (`churn-10k` only).
    pub sharded: PhaseProfile,
    /// Ring-cache counters of the profiled run(s), summed.
    pub cache: RingCacheStats,
    pub rings: u64,
    pub token_declines: u64,
    pub rings_dissolved: u64,
    pub sessions: u64,
    pub completed_downloads: u64,
    pub sequential_run_s: f64,
    pub speedup: f64,
    pub checkpoint_ms: Vec<f64>,
    pub checkpoint_bytes: Vec<f64>,
    pub restore_ms: Vec<f64>,
    pub generate_s: f64,
    pub rows: u64,
    pub row_s_sum: f64,
    pub parallel_efficiency: f64,
    pub export_s: f64,
    pub overhead_frac: f64,
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

impl Layers {
    /// Adds one sequential profiled run's report and phase profile.
    pub fn add_run(&mut self, report: &SimReport, profile: &PhaseProfile) {
        let cache = report.ring_cache_stats();
        self.cache.hits += cache.hits;
        self.cache.misses += cache.misses;
        self.cache.invalidations += cache.invalidations;
        self.rings += report.total_rings();
        self.token_declines += report.token_declines();
        self.rings_dissolved += report.rings_dissolved_at_activation();
        self.sessions += report.total_sessions();
        self.completed_downloads += report.completed_downloads();

        let p = &mut self.profile;
        p.events += profile.events;
        p.event_loop += profile.event_loop;
        p.generate_requests += profile.generate_requests;
        p.scheduling += profile.scheduling;
        p.ring_search += profile.ring_search;
        p.ring_searches += profile.ring_searches;
        p.transfers += profile.transfers;
        p.maintenance += profile.maintenance;
        p.population += profile.population;
    }

    pub fn metrics(&self, failed_frac: f64) -> Vec<Metric> {
        // `profile` comes from sequential runs, so ring search is part of
        // scheduling and the phases partition the event loop.
        let p = &self.profile;
        let s = &self.sharded;
        let secs = Duration::as_secs_f64;
        let search_s = secs(&p.ring_search);
        let phases_s = secs(&p.generate_requests)
            + secs(&p.scheduling)
            + secs(&p.transfers)
            + secs(&p.maintenance)
            + secs(&p.population);
        let event_loop_s = secs(&p.event_loop);
        let c = &self.cache;
        vec![
            metric("exchange.ring_searches", p.ring_searches as f64, "count"),
            metric("exchange.ring_search_s", search_s, "s"),
            metric(
                "exchange.us_per_search",
                ratio(search_s * 1e6, p.ring_searches as f64),
                "us",
            ),
            metric("sim.ring_cache.hits", c.hits as f64, "count"),
            metric("sim.ring_cache.misses", c.misses as f64, "count"),
            metric(
                "sim.ring_cache.invalidations",
                c.invalidations as f64,
                "count",
            ),
            metric(
                "sim.ring_cache.hit_rate",
                ratio(c.hits as f64, (c.hits + c.misses) as f64),
                "ratio",
            ),
            metric("sim.scheduling.scheduling_s", secs(&p.scheduling), "s"),
            metric(
                "sim.scheduling.self_s",
                (secs(&p.scheduling) - search_s).max(0.0),
                "s",
            ),
            metric("sim.scheduling.rings_formed", self.rings as f64, "count"),
            metric(
                "sim.scheduling.rings_per_search",
                ratio(self.rings as f64, p.ring_searches as f64),
                "ratio",
            ),
            metric(
                "sim.scheduling.token_declines",
                self.token_declines as f64,
                "count",
            ),
            metric(
                "sim.scheduling.rings_dissolved",
                self.rings_dissolved as f64,
                "count",
            ),
            metric(
                "sim.events.generate_requests_s",
                secs(&p.generate_requests),
                "s",
            ),
            metric("des.events", p.events as f64, "count"),
            metric("des.event_loop_s", event_loop_s, "s"),
            metric(
                "des.dispatch_self_s",
                (event_loop_s - phases_s).max(0.0),
                "s",
            ),
            metric(
                "des.ns_per_event",
                ratio(event_loop_s * 1e9, p.events as f64),
                "ns",
            ),
            metric("sim.transfers.transfers_s", secs(&p.transfers), "s"),
            metric("sim.transfers.sessions", self.sessions as f64, "count"),
            metric(
                "sim.transfers.completed_downloads",
                self.completed_downloads as f64,
                "count",
            ),
            metric("sim.maintenance.maintenance_s", secs(&p.maintenance), "s"),
            metric("sim.population.population_s", secs(&p.population), "s"),
            metric("sim.shard.planning_s", secs(&s.shard_planning), "s"),
            metric(
                "sim.shard.planned_searches",
                s.planned_searches as f64,
                "count",
            ),
            metric(
                "sim.shard.planned_consumed",
                s.planned_consumed as f64,
                "count",
            ),
            metric(
                "sim.shard.plan_hit_rate",
                ratio(s.planned_consumed as f64, s.planned_searches as f64),
                "ratio",
            ),
            metric("sim.shard.sequential_run_s", self.sequential_run_s, "s"),
            metric("sim.shard.speedup", self.speedup, "x"),
            metric(
                "sim.snapshot.checkpoint_ms",
                median(&self.checkpoint_ms),
                "ms",
            ),
            metric(
                "sim.snapshot.checkpoint_bytes",
                median(&self.checkpoint_bytes),
                "bytes",
            ),
            metric("sim.snapshot.restore_ms", median(&self.restore_ms), "ms"),
            metric("sim.setup.generate_s", self.generate_s, "s"),
            metric("sim.scenario.rows", self.rows as f64, "count"),
            metric("sim.scenario.row_s_sum", self.row_s_sum, "s"),
            metric(
                "sim.scenario.parallel_efficiency",
                self.parallel_efficiency,
                "ratio",
            ),
            metric("metrics.export_s", self.export_s, "s"),
            metric("trace.overhead_frac", self.overhead_frac, "ratio"),
            metric("failed_frac", failed_frac, "ratio"),
        ]
    }
}
