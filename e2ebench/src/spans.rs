//! Benchmark-side spans for the traced run.
//!
//! A span is recorded around each call the benchmark makes into a layer:
//! name, start, end, the name of the span that caused it and the request
//! it belongs to. Spans of one request share `req`; a span's parent is the
//! span of the same request whose name is `parent`. Recorders are per
//! thread (no locks on the hot path) and merged when the run ends.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span buffer, timed from the run's trace epoch. Without
/// an epoch (an untraced run) it records nothing and costs one branch per
/// call.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Option<Vec<Span>>,
}

impl Recorder {
    pub fn new(trace: Option<Instant>) -> Self {
        Recorder {
            epoch: trace.unwrap_or_else(Instant::now),
            spans: trace.map(|_| Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    /// Records a span that ran from `start` to `end`.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        if let Some(spans) = &mut self.spans {
            let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
            spans.push(Span {
                name,
                parent,
                req,
                start_ns: at(start),
                end_ns: at(end),
            });
        }
    }

    /// Times `f` as a span and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<&'static str>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled() {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, parent, req, start, Instant::now());
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.unwrap_or_default()
    }
}

/// Per span name: count, median duration and median self time (duration
/// minus the children that ran inside it), in microseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTime {
    pub name: &'static str,
    pub count: usize,
    pub p50_us: f64,
    pub self_p50_us: f64,
}

pub fn self_times(spans: &[Span]) -> Vec<SelfTime> {
    let mut children: HashMap<(u64, &'static str), u64> = HashMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            *children.entry((s.req, parent)).or_default() += s.ns();
        }
    }
    let mut by_name: HashMap<&'static str, (Vec<f64>, Vec<f64>)> = HashMap::new();
    for s in spans {
        let inner = children.get(&(s.req, s.name)).copied().unwrap_or(0);
        let entry = by_name.entry(s.name).or_default();
        entry.0.push(s.ns() as f64 / 1e3);
        entry.1.push(s.ns().saturating_sub(inner) as f64 / 1e3);
    }
    let mut out: Vec<SelfTime> = by_name
        .into_iter()
        .map(|(name, (total, own))| SelfTime {
            name,
            count: total.len(),
            p50_us: crate::stats::median(&total),
            self_p50_us: crate::stats::median(&own),
        })
        .collect();
    out.sort_by_key(|s| s.name);
    out
}

/// Tab-separated dump: one header line, then one line per span.
pub fn to_tsv(spans: &[Span]) -> String {
    let mut out = String::from("name\tparent\treq\tstart_ns\tend_ns\n");
    for s in spans {
        let _ = writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            s.name,
            s.parent.unwrap_or("-"),
            s.req,
            s.start_ns,
            s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_of_the_same_request() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut r = Recorder::new(Some(t0));
        r.record("call", None, 1, at(0), at(100));
        r.record("encode", Some("call"), 1, at(0), at(10));
        r.record("decode", Some("call"), 1, at(80), at(100));
        // Another request's child must not reduce request 1's self time.
        r.record("encode", Some("call"), 2, at(0), at(50));
        let st = self_times(&r.into_spans());
        let call = st.iter().find(|s| s.name == "call").unwrap();
        assert_eq!(
            (call.count, call.p50_us, call.self_p50_us),
            (1, 100.0, 70.0)
        );
        let enc = st.iter().find(|s| s.name == "encode").unwrap();
        assert_eq!((enc.count, enc.p50_us), (2, 30.0));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(None);
        assert_eq!(r.time("x", None, 0, || 7), 7);
        assert!(r.into_spans().is_empty());
    }
}
