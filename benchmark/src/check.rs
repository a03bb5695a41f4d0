//! The correctness gate: report fingerprints compared exactly against the
//! recorded expectations in `fingerprints.txt` and against every earlier
//! result of the same run.

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

use sim::SimReport;

/// The recorded fingerprints, one line per `(workload, seed, result key)`.
const RECORDED: &str = include_str!("../fingerprints.txt");

/// The headline outputs of one simulation report; equal reports have equal
/// fingerprints, and any change to the simulated outcome moves at least one
/// of these in practice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub completed_downloads: u64,
    pub total_sessions: u64,
    pub total_rings: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_invalidations: u64,
    /// `exchange_session_fraction` as raw bits, so equality is exact.
    pub exchange_fraction_bits: u64,
}

impl Fingerprint {
    pub fn of(report: &SimReport) -> Self {
        let cache = report.ring_cache_stats();
        Fingerprint {
            completed_downloads: report.completed_downloads(),
            total_sessions: report.total_sessions(),
            total_rings: report.total_rings(),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_invalidations: cache.invalidations,
            exchange_fraction_bits: report.exchange_session_fraction().to_bits(),
        }
    }

    /// A fingerprint that differs from `self` (for the gate's self-test).
    fn altered(self) -> Self {
        Fingerprint {
            completed_downloads: self.completed_downloads ^ 1,
            ..self
        }
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "completed={} sessions={} rings={} hits={} misses={} invalidations={} \
             exchange_fraction={}",
            self.completed_downloads,
            self.total_sessions,
            self.total_rings,
            self.cache_hits,
            self.cache_misses,
            self.cache_invalidations,
            f64::from_bits(self.exchange_fraction_bits),
        )
    }
}

impl FromStr for Fingerprint {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut fields = BTreeMap::new();
        for field in s.split_whitespace() {
            let (key, value) = field
                .split_once('=')
                .ok_or_else(|| format!("field '{field}' is not key=value"))?;
            fields.insert(key, value);
        }
        let count = |key: &str| -> Result<u64, String> {
            fields
                .get(key)
                .ok_or_else(|| format!("missing '{key}'"))?
                .parse()
                .map_err(|e| format!("bad '{key}': {e}"))
        };
        let fraction: f64 = fields
            .get("exchange_fraction")
            .ok_or("missing 'exchange_fraction'")?
            .parse()
            .map_err(|e| format!("bad 'exchange_fraction': {e}"))?;
        Ok(Fingerprint {
            completed_downloads: count("completed")?,
            total_sessions: count("sessions")?,
            total_rings: count("rings")?,
            cache_hits: count("hits")?,
            cache_misses: count("misses")?,
            cache_invalidations: count("invalidations")?,
            exchange_fraction_bits: fraction.to_bits(),
        })
    }
}

/// Parses the recorded fingerprints of `workload` under `seed`, keyed by
/// result key.  Lines are `<workload> <seed> <key> <fingerprint fields>`;
/// blank lines and `#` comments are skipped.
fn recorded(
    text: &str,
    workload: &str,
    seed: u64,
) -> Result<BTreeMap<String, Fingerprint>, String> {
    let mut out = BTreeMap::new();
    for (number, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(4, ' ');
        let (Some(w), Some(s), Some(key), Some(rest)) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(format!("fingerprints.txt:{}: too few fields", number + 1));
        };
        let s: u64 = s
            .parse()
            .map_err(|e| format!("fingerprints.txt:{}: bad seed: {e}", number + 1))?;
        if w == workload && s == seed {
            let fingerprint = rest
                .parse()
                .map_err(|e| format!("fingerprints.txt:{}: {e}", number + 1))?;
            out.insert(key.to_string(), fingerprint);
        }
    }
    Ok(out)
}

/// Tallies checked results and failures for one run.
pub struct Gate {
    expected: BTreeMap<String, Fingerprint>,
    seen: BTreeMap<String, Fingerprint>,
    tamper: bool,
    pub attempted: u64,
    pub failed: u64,
}

impl Gate {
    /// The gate of `workload` under `seed`.  With `tamper`, every expected
    /// fingerprint is deliberately altered, so every check must fail.
    pub fn new(workload: &str, seed: u64, tamper: bool) -> Result<Self, String> {
        Ok(Gate {
            expected: recorded(RECORDED, workload, seed)?,
            tamper,
            ..Gate::recording()
        })
    }

    /// A gate with no recorded expectations, for recording fresh ones.
    pub fn recording() -> Self {
        Gate {
            expected: BTreeMap::new(),
            seen: BTreeMap::new(),
            tamper: false,
            attempted: 0,
            failed: 0,
        }
    }

    /// Whether `fingerprints.txt` holds results for this workload and seed.
    pub fn has_recorded(&self) -> bool {
        !self.expected.is_empty()
    }

    /// The first result seen under each key, in key order.
    pub fn seen(&self) -> impl Iterator<Item = (&String, &Fingerprint)> {
        self.seen.iter()
    }

    /// Checks one result: it must equal the recorded fingerprint (when
    /// there is one) and every earlier result under the same key, and it
    /// must show the system did some work.
    pub fn check(&mut self, key: &str, fingerprint: Fingerprint) -> bool {
        let expected = match (self.expected.get(key), self.tamper) {
            (Some(&e), false) => Some(e),
            (Some(&e), true) => Some(e.altered()),
            (None, true) => Some(fingerprint.altered()),
            (None, false) => None,
        };
        let mut problems = Vec::new();
        if let Some(e) = expected.filter(|e| *e != fingerprint) {
            problems.push(format!("expected {e}"));
        }
        if let Some(earlier) = self.seen.get(key) {
            if *earlier != fingerprint {
                problems.push(format!("an earlier result in this run was {earlier}"));
            }
        } else {
            self.seen.insert(key.to_string(), fingerprint);
        }
        if fingerprint.total_sessions == 0 {
            problems.push("the report has no sessions".to_string());
        }
        if problems.is_empty() {
            self.attempted += 1;
            true
        } else {
            self.fail(&format!(
                "{key}: got {fingerprint}; {}",
                problems.join("; ")
            ));
            false
        }
    }

    /// Counts one attempted result that failed (a mismatch, a broken
    /// invariant or a panic).
    pub fn fail(&mut self, why: &str) {
        eprintln!("benchmark: CHECK FAILED: {why}");
        self.attempted += 1;
        self.failed += 1;
    }

    /// Checks a condition that is not a fingerprint (byte-identical
    /// snapshots, sharded against sequential, export contents).
    pub fn require(&mut self, ok: bool, what: &str) {
        if ok {
            self.attempted += 1;
        } else {
            self.fail(what);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Fingerprint {
        Fingerprint {
            completed_downloads: 10,
            total_sessions: 20,
            total_rings: 3,
            cache_hits: 4,
            cache_misses: 5,
            cache_invalidations: 6,
            exchange_fraction_bits: 0.1f64.to_bits(),
        }
    }

    #[test]
    fn fingerprint_round_trips_through_text() {
        let text = sample().to_string();
        assert_eq!(text.parse::<Fingerprint>(), Ok(sample()));
    }

    #[test]
    fn recorded_lines_are_selected_by_workload_and_seed() {
        let text = format!("# comment\n\nw 1 run {}\nw 2 run {}\n", sample(), sample());
        assert_eq!(recorded(&text, "w", 1).expect("parses").len(), 1);
        assert!(recorded(&text, "x", 1).expect("parses").is_empty());
        assert!(recorded("w one run x=1", "w", 1).is_err());
    }

    #[test]
    fn recorded_file_covers_the_default_and_held_out_seeds() {
        for workload in ["steady-10k", "churn-10k", "paper-sweep"] {
            for seed in [1, 1009] {
                let lines = recorded(RECORDED, workload, seed).expect("fingerprints.txt parses");
                assert!(!lines.is_empty(), "{workload} seed {seed} is not recorded");
            }
        }
    }

    #[test]
    fn a_tampered_gate_fails_every_check() {
        let mut gate = Gate::new("no-such-workload", 1, true).expect("file parses");
        assert!(!gate.check("run", sample()));
        assert_eq!((gate.attempted, gate.failed), (1, 1));
    }

    #[test]
    fn repeated_results_must_agree() {
        let mut gate = Gate::new("no-such-workload", 1, false).expect("file parses");
        assert!(gate.check("run", sample()));
        let other = Fingerprint {
            total_rings: 4,
            ..sample()
        };
        assert!(!gate.check("run", other));
        assert_eq!((gate.attempted, gate.failed), (2, 1));
    }
}
