//! The `paper-sweep` workload: the paper's 200-peer system as a streamed
//! scenario grid.
//!
//! A unit of work is one sweep: `Scenario::run_streamed` into an in-memory
//! row sink, every row fingerprint-checked, the grid exported as JSON and
//! CSV (`SweepGrid::write_json`/`write_csv`) and the export checked against
//! the streamed rows.  Before the sweeps, every grid point is replayed on
//! its own under each of [`replay_seeds`] (the sweep's seed and one more),
//! [`SWEEP_THREADS`] at a time, stepped through `run_until` in
//! [`PAPER_SLICE_S`] slices; each report must equal the sweep's row under
//! the same seed, and the slices give the slice-latency figures.

use std::io::{self, Write};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::{self, ThreadId};
use std::time::Instant;

use sim::{PhaseProfile, ScenarioPoint, SimReport, SimSetup, Simulation, SweepGrid};

use crate::check::{Fingerprint, Gate};
use crate::guarded;
use crate::host::{thread_cpu_s, CpuTimer, HostSpeed};
use crate::results::{EndToEnd, Layers};
use crate::stats::{median, peak_rss_mb};
use crate::trace::{SpanId, Trace, ROOT};
use crate::workloads::{
    paper_scenario, replay_seeds, slice_end, sweep_seeds, PAPER_SLICE_S, SWEEP_THREADS,
    TOPOLOGY_SEED,
};

/// Grid set-ups timed for `setup_s` (and, traced, `sim.setup.generate_s`).
const SETUP_REPEATS: usize = 5;

/// Host-speed reference passes timed before and after each untraced grid
/// set-up.
const PROBES_PER_SETUP_SIDE: usize = 2;

/// An untraced replay times a host-speed reference pass before its first
/// slice and after every this many slices.
const PROBE_EVERY_SLICES: u64 = 12;

/// Result key of one sweep row.
fn key(point: usize, seed: u64) -> String {
    format!("p{point}-s{seed}")
}

/// Collects streamed rows with the thread each completed on, the instant,
/// and the CPU seconds that thread had run by then.  The sweep's worker
/// threads are created for the sweep and write their own rows, so the CPU
/// seconds count from the sweep's start.  With `host`, the worker that
/// wrote a row then times a reference pass.
struct RowSink {
    pending: Vec<u8>,
    lines: Vec<String>,
    completions: Vec<(ThreadId, Instant, f64)>,
    host: Option<HostSpeed>,
}

impl Write for RowSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.pending.extend_from_slice(buf);
        while let Some(end) = self.pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.pending.drain(..=end).collect();
            self.lines
                .push(String::from_utf8_lossy(&line[..line.len() - 1]).into_owned());
            self.completions
                .push((thread::current().id(), Instant::now(), thread_cpu_s()));
            if let Some(host) = &mut self.host {
                host.probe();
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One sweep with its streamed rows and timings.
struct Sweep {
    grid: SweepGrid,
    wall_s: f64,
    /// CPU seconds of all the process's threads during the sweep, less the
    /// reference passes.
    cpu_s: f64,
    /// Host-speed factor of the reference passes made after the rows.
    factor: Option<f64>,
    sink: RowSink,
    export_s: f64,
}

/// Runs the grid for `seed`, checks every row and the export, and records
/// the sweep's spans (rows included) under `parent`.  With `host`, a
/// reference pass follows every row.
fn sweep(
    seed: u64,
    host: Option<HostSpeed>,
    gate: &mut Gate,
    trace: &mut Trace,
    parent: SpanId,
) -> Option<Sweep> {
    let mut sink = RowSink {
        pending: Vec::new(),
        lines: Vec::new(),
        completions: Vec::new(),
        host,
    };
    let span = trace.open("scenario.run_streamed", parent);
    let started = Instant::now();
    let cpu = CpuTimer::process();
    let streamed = guarded(gate, "sweep", |_| {
        paper_scenario(seed).run_streamed(&mut sink)
    });
    let probes_s = sink.host.as_ref().map_or(0.0, HostSpeed::spent_s);
    let cpu_s = cpu.elapsed_s() - probes_s;
    let wall_s = started.elapsed().as_secs_f64();
    let factor = sink.host.as_mut().and_then(HostSpeed::take_factor);
    trace.close(span);
    let grid = match streamed? {
        Ok(grid) => grid,
        Err(e) => {
            gate.fail(&format!("streaming rows failed: {e}"));
            return None;
        }
    };
    // A row's span runs from its worker's previous row (or the sweep's
    // start) to its arrival at the sink.
    let mut last: Vec<(ThreadId, Instant)> = Vec::new();
    for &(thread, end, _) in &sink.completions {
        let start = match last.iter_mut().find(|(t, _)| *t == thread) {
            Some((_, previous)) => std::mem::replace(previous, end),
            None => {
                last.push((thread, end));
                started
            }
        };
        trace.record("scenario.row", span, start, end);
    }
    for row in grid.rows() {
        gate.check(&key(row.point, row.seed), Fingerprint::of(&row.report));
    }

    let export = trace.open("metrics.export", parent);
    let at = Instant::now();
    let mut json = Vec::new();
    let mut csv = Vec::new();
    let exported = grid
        .write_json(&mut json)
        .and_then(|()| grid.write_csv(&mut csv));
    let export_s = at.elapsed().as_secs_f64();
    trace.close(export);
    let json = String::from_utf8_lossy(&json);
    let csv_lines = String::from_utf8_lossy(&csv).lines().count();
    gate.require(
        exported.is_ok()
            && sink.lines.len() == grid.rows().len()
            && csv_lines == grid.rows().len() + 1
            && sink.lines.iter().all(|line| json.contains(line.as_str())),
        "the exported grid does not hold exactly the streamed rows",
    );
    Some(Sweep {
        grid,
        wall_s,
        cpu_s,
        factor,
        sink,
        export_s,
    })
}

/// Builds grid point `point`'s simulation for `seed` the way the sweep's
/// warm restarts do: from the point's setup of the fixed topology.
fn build(point: &ScenarioPoint, setup: &SimSetup, seed: u64) -> Simulation {
    Simulation::from_setup(point.config.clone(), setup, seed)
}

/// Replays one row stepped slice by slice, with reference passes
/// interleaved; returns its report and the CPU milliseconds of its slices.
fn replay(point: &ScenarioPoint, seed: u64, host: &mut HostSpeed) -> (SimReport, Vec<f64>) {
    let setup = SimSetup::generate(&point.config, TOPOLOGY_SEED);
    let mut simulation = build(point, &setup, seed);
    let horizon = point.config.sim_duration_s;
    let slices = (horizon / PAPER_SLICE_S).ceil() as u64;
    let mut slice_ms = Vec::with_capacity(slices as usize);
    host.probe();
    for k in 1..=slices {
        let started = CpuTimer::thread();
        simulation.run_until(slice_end(horizon, k, slices));
        slice_ms.push(started.elapsed_s() * 1e3);
        if k % PROBE_EVERY_SLICES == 0 {
            host.probe();
        }
    }
    let report = simulation.run();
    host.probe();
    (report, slice_ms)
}

/// Replays every grid point under every seed of `seeds` on its own,
/// [`SWEEP_THREADS`] rows at a time, checks each report, and returns the
/// slice times of the rows that passed, each scaled by the host-speed
/// factor of all the reference passes its worker made.  A row's slices
/// take a few milliseconds each, too few passes fit in one row to give it
/// a steady factor of its own.
fn replay_all(points: &[ScenarioPoint], seeds: &[u64], gate: &mut Gate) -> Vec<f64> {
    let jobs: Vec<(&ScenarioPoint, u64)> = points
        .iter()
        .flat_map(|point| seeds.iter().map(move |&seed| (point, seed)))
        .collect();
    let next = AtomicUsize::new(0);
    let replayed: Vec<_> = thread::scope(|scope| {
        let workers: Vec<_> = (0..SWEEP_THREADS)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    let mut host = HostSpeed::new();
                    while let Some(&(point, seed)) = jobs.get(next.fetch_add(1, Ordering::Relaxed))
                    {
                        let outcome =
                            panic::catch_unwind(AssertUnwindSafe(|| replay(point, seed, &mut host)));
                        done.push((point.index, seed, outcome.ok()));
                    }
                    let factor = host.take_factor().unwrap_or(1.0);
                    for (_, _, outcome) in &mut done {
                        if let Some((_, slices)) = outcome {
                            slices.iter_mut().for_each(|ms| *ms *= factor);
                        }
                    }
                    done
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("replay workers catch their panics"))
            .collect()
    });
    let mut slice_ms = Vec::new();
    for (point, seed, outcome) in replayed {
        match outcome {
            Some((report, slices)) => {
                if gate.check(&key(point, seed), Fingerprint::of(&report)) {
                    slice_ms.extend(slices);
                }
            }
            None => gate.fail(&format!("replaying {} panicked", key(point, seed))),
        }
    }
    slice_ms
}

/// CPU seconds to generate every grid point's setup and build its first
/// simulation, and the part `SimSetup::generate` took.
fn grid_setup(points: &[ScenarioPoint], seed: u64) -> (f64, f64) {
    let started = CpuTimer::thread();
    let mut generate_s = 0.0;
    for point in points {
        let at = CpuTimer::thread();
        let setup = SimSetup::generate(&point.config, TOPOLOGY_SEED);
        generate_s += at.elapsed_s();
        drop(build(point, &setup, seed));
    }
    (started.elapsed_s(), generate_s)
}

/// CPU seconds to a sweep's first row: the least CPU time any worker had
/// used when it finished its first row.  Which worker reports first in
/// wall time depends on how the host schedules the two; in CPU time the
/// cheaper of the first rows is first.
fn first_row_cpu_s(completions: &[(ThreadId, Instant, f64)]) -> Option<f64> {
    let mut seen = Vec::new();
    let mut first: Option<f64> = None;
    for &(thread, _, cpu_s) in completions {
        if !seen.contains(&thread) {
            seen.push(thread);
            first = Some(first.map_or(cpu_s, |f| f.min(cpu_s)));
        }
    }
    first
}

/// The untraced run: timed grid set-ups, the replays, then sweeps back to
/// back until the next would end after `seconds` of wall time.  A sweep's
/// rate is its simulated seconds over the CPU seconds of both workers; its
/// first row's time is [`first_row_cpu_s`].
/// Every time is scaled by the host-speed factor of the reference passes
/// made around the set-up, during the replay or after the sweep's rows.
pub fn measure(seed: u64, seconds: f64, gate: &mut Gate) -> EndToEnd {
    let points = paper_scenario(seed).points();
    let seeds = sweep_seeds(seed);
    let mut e2e = EndToEnd::default();
    let mut host = HostSpeed::new();
    for _ in 0..SETUP_REPEATS {
        (0..PROBES_PER_SETUP_SIDE).for_each(|_| host.probe());
        let setup_s = grid_setup(&points, seeds[0]).0;
        (0..PROBES_PER_SETUP_SIDE).for_each(|_| host.probe());
        if let Some(factor) = host.take_factor() {
            e2e.setup_s.push(setup_s * factor);
        }
    }
    let started = Instant::now();
    e2e.slice_ms = replay_all(&points, &replay_seeds(seed), gate);
    eprintln!(
        "benchmark: replays took {:.3} s",
        started.elapsed().as_secs_f64()
    );
    let mut trace = Trace::new(false);
    let mut unit_s = Vec::new();
    loop {
        let at = Instant::now();
        let done = sweep(seed, Some(HostSpeed::new()), gate, &mut trace, ROOT);
        let factor = done.as_ref().and_then(|done| done.factor);
        if let (Some(done), Some(factor)) = (done, factor) {
            let sim_seconds: f64 = done
                .grid
                .rows()
                .iter()
                .map(|r| r.report.sim_seconds())
                .sum();
            e2e.factors.push(factor);
            e2e.unit_rates.push(sim_seconds / (done.cpu_s * factor));
            if let Some(first_cpu_s) = first_row_cpu_s(&done.sink.completions) {
                e2e.first_row_s.push(first_cpu_s * factor);
            }
        }
        e2e.peak_rss_mb = e2e.peak_rss_mb.or_else(peak_rss_mb);
        unit_s.push(at.elapsed().as_secs_f64());
        eprintln!(
            "benchmark: sweep {} took {:.3} s; {:.3} s/s scaled, host-speed factor {:.4}",
            unit_s.len(),
            unit_s[unit_s.len() - 1],
            e2e.unit_rates.last().copied().unwrap_or(0.0),
            factor.unwrap_or(0.0),
        );
        if started.elapsed().as_secs_f64() + median(&unit_s) > seconds {
            break;
        }
    }
    e2e
}

/// The traced run: timed grid set-ups, one sweep with row and export
/// spans, then every row alone, plainly and under `run_profiled`; both
/// standalone reports must equal the sweep's row.
pub fn trace_run(seed: u64, gate: &mut Gate, trace: &mut Trace) -> Layers {
    let points = paper_scenario(seed).points();
    let seeds = sweep_seeds(seed);
    let mut layers = Layers::default();

    let mut generate_s = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let span = trace.open("sim.setup", ROOT);
        generate_s.push(grid_setup(&points, seeds[0]).1);
        trace.close(span);
    }
    layers.generate_s = median(&generate_s);

    let unit = trace.open("unit.sweep", ROOT);
    let done = sweep(seed, None, gate, trace, unit);
    trace.close(unit);
    let Some(done) = done else {
        return layers;
    };
    layers.export_s = done.export_s;
    layers.rows = done.grid.rows().len() as u64;

    let unit = trace.open("unit.rows_alone", ROOT);
    let mut plain_s = 0.0;
    for (index, point) in done.grid.points().iter().enumerate() {
        let setup = SimSetup::generate(&point.config, TOPOLOGY_SEED);
        for row in done.grid.rows().iter().filter(|r| r.point == index) {
            let key = key(row.point, row.seed);
            let span = trace.open("sim.run", unit);
            let at = Instant::now();
            let plain = guarded(gate, "standalone row", |_| {
                build(point, &setup, row.seed).run()
            });
            plain_s += at.elapsed().as_secs_f64();
            trace.close(span);
            if let Some(report) = plain {
                gate.check(&key, Fingerprint::of(&report));
            }

            let span = trace.open("sim.run_profiled", unit);
            let at = Instant::now();
            let profiled: Option<(SimReport, PhaseProfile)> = guarded(gate, "profiled row", |_| {
                build(point, &setup, row.seed).run_profiled()
            });
            layers.row_s_sum += at.elapsed().as_secs_f64();
            trace.close(span);
            if let Some((report, profile)) = profiled {
                gate.check(&key, Fingerprint::of(&report));
                layers.add_run(&report, &profile);
            }
        }
    }
    trace.close(unit);
    layers.parallel_efficiency = layers.row_s_sum / (SWEEP_THREADS as f64 * done.wall_s);
    layers.overhead_frac = layers.row_s_sum / plain_s - 1.0;
    layers
}
