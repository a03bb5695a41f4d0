//! The repository benchmark: seeded, fingerprint-checked workloads timed
//! from outside the simulator through its public API.
//!
//! ```text
//! repo-benchmark --workload <steady-10k|churn-10k|paper-sweep>
//!     --seed <n> --seconds <s> --trace <0|1> [--tamper-fingerprint] [--record]
//! ```
//!
//! * `--trace 0` runs units of the workload back to back for `--seconds`
//!   and prints the end-to-end metrics: `sim_s_per_s`, `setup_s`,
//!   `slice_ms_p50`, `slice_ms_p95`, `first_row_s` and `peak_rss_mb`.
//! * `--trace 1` is the separate traced run: spans around every call into
//!   the simulator plus `run_profiled`'s phase profile give the per-layer
//!   metrics, written with the spans to
//!   `$CARGO_TARGET_DIR/trace/<workload>-seed<n>.json` (default target
//!   directory `.bench_build`).
//! * Every result is checked: reports against the fingerprints recorded in
//!   `fingerprints.txt` and against each other, snapshots, sharded against
//!   sequential, and the sweep export against its streamed rows.  A
//!   mismatch or a panic counts as a failed result and the run goes on;
//!   the exit code is 1 if anything failed.
//! * `--tamper-fingerprint` alters every expected fingerprint, so the run
//!   must fail (the gate's self-test); `--record` runs one unit and prints
//!   its fingerprint lines in the `fingerprints.txt` format.
//!
//! The last line of standard output is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}`.

mod check;
mod host;
mod results;
mod stats;
mod sweep;
mod tenk;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;

use check::Gate;
use results::Metric;
use trace::Trace;
use workloads::{Workload, INTERACTIONS};

const USAGE: &str = "usage: repo-benchmark --workload <steady-10k|churn-10k|paper-sweep> \
                     --seed <n> --seconds <s> --trace <0|1> \
                     [--tamper-fingerprint] [--record]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tamper: bool,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut tamper = false;
    let mut record = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload '{name}'"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds >= 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
                }
            }
            "--tamper-fingerprint" => tamper = true,
            "--record" => record = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        tamper,
        record,
    })
}

/// Runs `f`, counting a panic as a failed result of `what` in `gate`.
pub(crate) fn guarded<T>(gate: &mut Gate, what: &str, f: impl FnOnce(&mut Gate) -> T) -> Option<T> {
    match panic::catch_unwind(AssertUnwindSafe(|| f(&mut *gate))) {
        Ok(value) => Some(value),
        Err(_) => {
            gate.fail(&format!("{what} panicked"));
            None
        }
    }
}

/// Writes the traced run's spans, per-layer metrics, the workload's reason
/// and the interaction table to `$CARGO_TARGET_DIR/trace/<workload>-seed<n>.json`.
fn write_trace(args: &Args, trace: &Trace, metrics: &[Metric]) -> std::io::Result<PathBuf> {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\":\"{}\",\"why\":\"{}\",\"seed\":{},\"host_parallelism\":{},\
         \"interactions\":[",
        args.workload.name(),
        args.workload.why(),
        args.seed,
        std::thread::available_parallelism().map_or(1, usize::from),
    );
    for (i, (layer, layer_metrics, moves, workload)) in INTERACTIONS.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"layer\":\"{layer}\",\"metrics\":\"{layer_metrics}\",\
             \"should_move\":\"{moves}\",\"on_workload\":\"{workload}\"}}"
        );
    }
    let _ = write!(
        out,
        "],{},\"metrics\":{}}}",
        trace.to_json_fields(),
        metrics_json(metrics)
    );
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    let dir = PathBuf::from(target).join("trace");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.json", args.workload.name(), args.seed));
    std::fs::write(&path, out)?;
    Ok(path)
}

fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push('}');
    out
}

/// `--record`: one unit of the workload, printed as fingerprint lines.
fn record(args: &Args) -> ExitCode {
    let mut gate = Gate::recording();
    match args.workload {
        Workload::PaperSweep => drop(sweep::measure(args.seed, 0.0, &mut gate)),
        w => drop(tenk::measure(w, args.seed, 0.0, &mut gate)),
    }
    for (key, fingerprint) in gate.seen() {
        println!("{} {} {key} {fingerprint}", args.workload.name(), args.seed);
    }
    if gate.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.record {
        return record(&args);
    }
    let mut gate = match Gate::new(args.workload.name(), args.seed, args.tamper) {
        Ok(gate) => gate,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "benchmark: {} seed {} ({}), {} s, trace {}",
        args.workload.name(),
        args.seed,
        if gate.has_recorded() {
            "checked against recorded fingerprints"
        } else {
            "no recorded fingerprints for this seed: results checked against each other"
        },
        args.seconds,
        u8::from(args.trace)
    );

    let metrics = if args.trace {
        let mut trace = Trace::new(true);
        let layers = match args.workload {
            Workload::PaperSweep => sweep::trace_run(args.seed, &mut gate, &mut trace),
            w => tenk::trace_run(w, args.seed, &mut gate, &mut trace),
        };
        let failed_frac = gate.failed as f64 / gate.attempted.max(1) as f64;
        let metrics = layers.metrics(failed_frac);
        match write_trace(&args, &trace, &metrics) {
            Ok(path) => eprintln!("benchmark: trace written to {}", path.display()),
            Err(e) => gate.fail(&format!("writing the trace failed: {e}")),
        }
        metrics
    } else {
        let e2e = match args.workload {
            Workload::PaperSweep => sweep::measure(args.seed, args.seconds, &mut gate),
            w => tenk::measure(w, args.seed, args.seconds, &mut gate),
        };
        e2e.metrics(&mut gate)
    };
    for m in &metrics {
        if !m.value.is_finite() {
            gate.fail(&format!("{} is not a finite number", m.name));
        }
    }
    let metrics: Vec<Metric> = metrics
        .into_iter()
        .map(|m| Metric {
            value: if m.value.is_finite() { m.value } else { 0.0 },
            ..m
        })
        .collect();
    let correct = gate.failed == 0 && gate.attempted > 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        gate.attempted.max(1),
        gate.failed,
        metrics_json(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
