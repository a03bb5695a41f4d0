//! In-memory spans recorded around the benchmark's calls into the
//! simulator, written out as JSON when a traced run ends.
//!
//! A span has a name, a start, an end and the span that caused it.  Spans
//! are recorded only in traced runs; in untraced runs every call is a no-op
//! returning the root id, so the end-to-end timings carry no tracing cost.

use std::fmt::Write as _;
use std::time::Instant;

/// Identifier of a recorded span; [`ROOT`] is the run itself.
pub type SpanId = usize;

/// The parent of top-level spans: the benchmark run as a whole.
pub const ROOT: SpanId = 0;

struct Span {
    name: &'static str,
    parent: SpanId,
    start: Instant,
    end: Option<Instant>,
}

/// The span recorder of one benchmark run.
pub struct Trace {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(enabled: bool) -> Self {
        Trace {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span starting now; returns [`ROOT`] when tracing is off.
    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        if !self.enabled {
            return ROOT;
        }
        self.spans.push(Span {
            name,
            parent,
            start: Instant::now(),
            end: None,
        });
        self.spans.len()
    }

    /// Closes a span opened by [`open`](Self::open).
    pub fn close(&mut self, id: SpanId) {
        if id != ROOT {
            self.spans[id - 1].end = Some(Instant::now());
        }
    }

    /// Records a span whose interval was measured elsewhere (on a sweep
    /// worker thread, say).
    pub fn record(&mut self, name: &'static str, parent: SpanId, start: Instant, end: Instant) {
        if self.enabled {
            self.spans.push(Span {
                name,
                parent,
                start,
                end: Some(end),
            });
        }
    }

    fn micros(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_nanos() as f64 / 1e3
    }

    /// Closed spans as `(id, parent, name, start µs, end µs)`.
    fn closed(&self) -> Vec<(SpanId, SpanId, &'static str, f64, f64)> {
        self.spans
            .iter()
            .enumerate()
            .filter_map(|(index, span)| {
                let end = span.end?;
                Some((
                    index + 1,
                    span.parent,
                    span.name,
                    self.micros(span.start),
                    self.micros(end),
                ))
            })
            .collect()
    }

    /// Per span name: the count, the total duration and the self time (the
    /// duration minus the part of it the span's children cover), in
    /// seconds, in order of first appearance.
    pub fn totals(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let spans = self.closed();
        let mut totals: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for &(id, _, name, start, end) in &spans {
            let mut children: Vec<(f64, f64)> = spans
                .iter()
                .filter(|s| s.1 == id)
                .map(|s| (s.3.max(start), s.4.min(end)))
                .filter(|(s, e)| e > s)
                .collect();
            children.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = start;
            for (s, e) in children {
                if e > reach {
                    covered += e - s.max(reach);
                    reach = e;
                }
            }
            let duration = (end - start) / 1e6;
            let own = (end - start - covered) / 1e6;
            match totals.iter_mut().find(|t| t.0 == name) {
                Some(t) => {
                    t.1 += 1;
                    t.2 += duration;
                    t.3 += own;
                }
                None => totals.push((name, 1, duration, own)),
            }
        }
        totals
    }

    /// The spans and their per-name totals as two JSON arrays
    /// (`"spans":[...],"span_totals":[...]`).
    pub fn to_json_fields(&self) -> String {
        let mut out = String::from("\"spans\":[");
        for (i, (id, parent, name, start, end)) in self.closed().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{name}\",\
                 \"start_us\":{start:.3},\"end_us\":{end:.3}}}"
            );
        }
        out.push_str("],\"span_totals\":[");
        for (i, (name, count, total, own)) in self.totals().into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"count\":{count},\"total_s\":{total},\"self_s\":{own}}}"
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let mut trace = Trace::new(true);
        let t0 = trace.origin;
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        trace.record("parent", ROOT, at(0), at(100));
        trace.record("child", 1, at(10), at(50));
        trace.record("child", 1, at(30), at(70));
        let totals = trace.totals();
        let parent = totals.iter().find(|t| t.0 == "parent").expect("recorded");
        assert!((parent.3 - 0.040).abs() < 1e-9, "self time {}", parent.3);
        let child = totals.iter().find(|t| t.0 == "child").expect("recorded");
        assert_eq!(child.1, 2);
        assert!((child.2 - 0.080).abs() < 1e-9);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut trace = Trace::new(false);
        let id = trace.open("x", ROOT);
        trace.close(id);
        assert_eq!(id, ROOT);
        assert!(trace.totals().is_empty());
    }
}
