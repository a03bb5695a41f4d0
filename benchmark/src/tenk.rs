//! The two 10⁴-peer workloads, `steady-10k` and `churn-10k`.
//!
//! A unit of work is one simulation: set up with `SimSetup::generate` and
//! `Simulation::from_setup`, stepped to its horizon in [`TENK_SLICES`] slices
//! through `run_until`, finalised with `run`, and fingerprint-checked.
//! `churn-10k` also writes an in-memory checkpoint every
//! [`CHECKPOINT_EVERY_SLICES`] slices, inside the timed slice.

use std::time::Instant;

use sim::{PhaseProfile, SimConfig, SimReport, SimSetup, Simulation};

use crate::check::{Fingerprint, Gate};
use crate::guarded;
use crate::host::{CpuTimer, HostSpeed};
use crate::results::{EndToEnd, Layers};
use crate::stats::{median, peak_rss_mb};
use crate::trace::{SpanId, Trace, ROOT};
use crate::workloads::{
    slice_end, tenk_config, Workload, CHECKPOINT_EVERY_SLICES, TENK_HORIZON_S, TENK_SLICES,
    TOPOLOGY_SEED, TRACED_SHARDS,
};

/// An untraced unit times a host-speed reference pass before its set-up,
/// after every this many slices, and after its finalisation.
const PROBE_EVERY_SLICES: u64 = 30;

/// Set-ups the traced run times for `sim.setup.generate_s`.
const TRACED_SETUPS: usize = 3;

/// Result key of the single report a 10⁴-peer unit produces.
const KEY: &str = "run";

/// Builds a simulation of the fixed topology for run seed `seed`; returns
/// it with the CPU seconds `generate` took and the CPU seconds the whole
/// set-up took.
fn set_up(
    config: &SimConfig,
    seed: u64,
    trace: &mut Trace,
    parent: SpanId,
) -> (Simulation, f64, f64) {
    let span = trace.open("sim.setup", parent);
    let started = CpuTimer::thread();
    let generate = trace.open("sim.setup.generate", span);
    let setup = SimSetup::generate(config, TOPOLOGY_SEED);
    let generate_s = started.elapsed_s();
    trace.close(generate);
    let from_setup = trace.open("sim.setup.from_setup", span);
    let simulation = Simulation::from_setup(config.clone(), &setup, seed);
    let setup_s = started.elapsed_s();
    trace.close(from_setup);
    trace.close(span);
    (simulation, generate_s, setup_s)
}

/// One simulation stepped slice by slice to its horizon, timed in CPU
/// seconds of the simulating thread.
struct SlicedRun {
    setup_s: f64,
    slice_ms: Vec<f64>,
    /// CPU seconds of the slices plus finalisation.
    run_s: f64,
    report: SimReport,
    checkpoint_ms: Vec<f64>,
    checkpoint_bytes: Vec<f64>,
    restore_ms: Vec<f64>,
}

/// Runs one unit.  With `verify_snapshots`, every checkpoint is restored
/// (the timed `restore_ms`) and checkpointed again, and the two snapshots
/// must be byte-identical; that work lies outside the timed slices.  With
/// `host`, reference passes are interleaved with the unit, outside the
/// timed work.
fn sliced_run(
    config: &SimConfig,
    seed: u64,
    verify_snapshots: bool,
    mut host: Option<&mut HostSpeed>,
    gate: &mut Gate,
    trace: &mut Trace,
    parent: SpanId,
) -> SlicedRun {
    let checkpoints = config.churn.is_some();
    if let Some(host) = host.as_deref_mut() {
        host.probe();
    }
    let (mut simulation, _, setup_s) = set_up(config, seed, trace, parent);
    let run_span = trace.open("sim.run_until", parent);
    let mut run = SlicedRun {
        setup_s,
        slice_ms: Vec::with_capacity(TENK_SLICES as usize),
        run_s: 0.0,
        report: SimReport::new(0),
        checkpoint_ms: Vec::new(),
        checkpoint_bytes: Vec::new(),
        restore_ms: Vec::new(),
    };
    let mut snapshot = Vec::new();
    for k in 1..=TENK_SLICES {
        let span = trace.open("slice", run_span);
        let started = CpuTimer::thread();
        simulation.run_until(slice_end(TENK_HORIZON_S, k, TENK_SLICES));
        let checkpoint_due = checkpoints && k % CHECKPOINT_EVERY_SLICES == 0 && k < TENK_SLICES;
        if checkpoint_due {
            let checkpoint = trace.open("sim.snapshot.checkpoint", span);
            let at = CpuTimer::thread();
            snapshot.clear();
            simulation
                .checkpoint(&mut snapshot)
                .expect("writing a snapshot into memory cannot fail");
            run.checkpoint_ms.push(at.elapsed_s() * 1e3);
            run.checkpoint_bytes.push(snapshot.len() as f64);
            trace.close(checkpoint);
        }
        let slice = started.elapsed_s();
        trace.close(span);
        run.slice_ms.push(slice * 1e3);
        run.run_s += slice;
        if let Some(host) = host.as_deref_mut() {
            if k % PROBE_EVERY_SLICES == 0 {
                host.probe();
            }
        }
        if checkpoint_due && verify_snapshots {
            let restore = trace.open("sim.snapshot.restore", run_span);
            let at = CpuTimer::thread();
            let restored = Simulation::restore(&mut &snapshot[..], config);
            run.restore_ms.push(at.elapsed_s() * 1e3);
            trace.close(restore);
            match restored {
                Ok(restored) => {
                    let mut again = Vec::with_capacity(snapshot.len());
                    restored
                        .checkpoint(&mut again)
                        .expect("writing a snapshot into memory cannot fail");
                    gate.require(
                        again == snapshot,
                        &format!("slice {k}: restore then checkpoint changed the snapshot bytes"),
                    );
                }
                Err(e) => gate.fail(&format!("slice {k}: restoring the checkpoint failed: {e}")),
            }
        }
    }
    let finalize = trace.open("sim.run", run_span);
    let started = CpuTimer::thread();
    run.report = simulation.run();
    run.run_s += started.elapsed_s();
    trace.close(finalize);
    trace.close(run_span);
    if let Some(host) = host {
        host.probe();
    }
    run
}

/// The untraced run: units back to back until the next would end after
/// `seconds` of wall time.  Each unit's CPU times are scaled by the
/// host-speed factor of the reference passes made during it.  Every unit
/// simulates the same system, so slice `k` of each does the same work: the
/// slice figures are taken over the per-slice medians across units, which
/// a burst of host noise in one unit does not move.  `setup_s` is the
/// median of the units' set-ups.
pub fn measure(workload: Workload, seed: u64, seconds: f64, gate: &mut Gate) -> EndToEnd {
    let config = tenk_config(workload == Workload::Churn10k);
    let mut trace = Trace::new(false);
    let mut e2e = EndToEnd::default();
    let mut host = HostSpeed::new();
    let started = Instant::now();
    let mut unit_s = Vec::new();
    let mut slices: Vec<Vec<f64>> = Vec::new();
    loop {
        let unit = Instant::now();
        let outcome = guarded(gate, "simulation", |gate| {
            sliced_run(&config, seed, false, Some(&mut host), gate, &mut trace, ROOT)
        });
        let factor = host.take_factor();
        if let (Some(run), Some(factor)) = (outcome, factor) {
            if gate.check(KEY, Fingerprint::of(&run.report)) {
                e2e.factors.push(factor);
                e2e.unit_rates
                    .push(run.report.sim_seconds() / (run.run_s * factor));
                e2e.setup_s.push(run.setup_s * factor);
                e2e.first_row_s.push((run.setup_s + run.run_s) * factor);
                slices.push(run.slice_ms.iter().map(|ms| ms * factor).collect());
            }
        }
        e2e.peak_rss_mb = e2e.peak_rss_mb.or_else(peak_rss_mb);
        unit_s.push(unit.elapsed().as_secs_f64());
        eprintln!(
            "benchmark: unit {} took {:.3} s; {:.3} s/s scaled, host-speed factor {:.4}",
            unit_s.len(),
            unit_s[unit_s.len() - 1],
            e2e.unit_rates.last().copied().unwrap_or(0.0),
            factor.unwrap_or(0.0),
        );
        if started.elapsed().as_secs_f64() + median(&unit_s) > seconds {
            break;
        }
    }
    if !slices.is_empty() {
        e2e.slice_ms = (0..TENK_SLICES as usize)
            .map(|k| median(&slices.iter().map(|s| s[k]).collect::<Vec<_>>()))
            .collect();
    }
    e2e
}

/// Runs `config` to its horizon under `run_profiled`; returns the report,
/// the profile, and the CPU seconds of the calling thread and the wall
/// seconds the run took (the two differ when shards run on other threads).
fn profiled(
    config: &SimConfig,
    seed: u64,
    trace: &mut Trace,
    name: &'static str,
) -> (SimReport, PhaseProfile, f64, f64) {
    let unit = trace.open(name, ROOT);
    let (simulation, _, _) = set_up(config, seed, trace, unit);
    let span = trace.open("sim.run_profiled", unit);
    let cpu = CpuTimer::thread();
    let wall = Instant::now();
    let (report, profile) = simulation.run_profiled();
    let cpu_s = cpu.elapsed_s();
    let wall_s = wall.elapsed().as_secs_f64();
    trace.close(span);
    trace.close(unit);
    (report, profile, cpu_s, wall_s)
}

/// The traced run: timed set-ups, one stepped unit (verifying every
/// snapshot on `churn-10k`), one profiled unit, and on `churn-10k` a
/// profiled unit with [`TRACED_SHARDS`] shards on the same seed, whose
/// report and ring-search count must equal the sequential ones.
pub fn trace_run(workload: Workload, seed: u64, gate: &mut Gate, trace: &mut Trace) -> Layers {
    let churn = workload == Workload::Churn10k;
    let config = tenk_config(churn);
    let mut layers = Layers::default();

    let mut generate_s = Vec::new();
    for _ in 0..TRACED_SETUPS {
        let (simulation, generate, _) = set_up(&config, seed, trace, ROOT);
        drop(simulation);
        generate_s.push(generate);
    }
    layers.generate_s = median(&generate_s);

    let sliced = guarded(gate, "stepped simulation", |gate| {
        let unit = trace.open("unit.stepped", ROOT);
        let run = sliced_run(&config, seed, churn, None, gate, trace, unit);
        trace.close(unit);
        run
    });
    let Some(sliced) = sliced else {
        return layers;
    };
    gate.check(KEY, Fingerprint::of(&sliced.report));
    layers.checkpoint_ms = sliced.checkpoint_ms;
    layers.checkpoint_bytes = sliced.checkpoint_bytes;
    layers.restore_ms = sliced.restore_ms;

    let Some((report, profile, run_s, wall_s)) = guarded(gate, "profiled simulation", |_| {
        profiled(&config, seed, trace, "unit.profiled")
    }) else {
        return layers;
    };
    gate.check(KEY, Fingerprint::of(&report));
    layers.add_run(&report, &profile);
    layers.overhead_frac = run_s / sliced.run_s - 1.0;

    if churn {
        let mut sharded = config.clone();
        sharded.shards = TRACED_SHARDS;
        if let Some((report_n, profile_n, _, wall_n_s)) = guarded(gate, "sharded simulation", |_| {
            profiled(&sharded, seed, trace, "unit.sharded")
        }) {
            // Equal to every earlier result under the key: the sharded
            // report must be identical to the sequential one.
            gate.check(KEY, Fingerprint::of(&report_n));
            gate.require(
                profile_n.ring_searches == profile.ring_searches,
                &format!(
                    "ring searches: {} with shards = 1, {} with shards = {TRACED_SHARDS}",
                    profile.ring_searches, profile_n.ring_searches
                ),
            );
            layers.sharded = profile_n;
            layers.sequential_run_s = wall_s;
            layers.speedup = wall_s / wall_n_s;
        }
    }
    layers
}
