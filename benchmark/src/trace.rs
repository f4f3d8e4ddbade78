//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded from the benchmark's own code only — around public
//! calls — and written out when the run ends: a Chrome-trace file
//! (`chrome://tracing`, Perfetto) and a per-name table of total and self
//! time, self time being a span's duration minus what its child spans cover.
//! With recording off the same calls only read the clock.

use dvs_json::{Json, ObjBuilder};
use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
}

/// An open span: the clock reading, plus its slot when it is being recorded.
pub struct Open {
    started: Instant,
    slot: Option<usize>,
}

pub struct Tracer {
    origin: Instant,
    /// Whether `begin` records spans. The traced run flips this between reps
    /// to measure what recording costs.
    pub recording: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Total and self seconds and the number of spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

impl Tracer {
    pub fn new(recording: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            recording,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Open a span named `name`, a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let started = Instant::now();
        let slot = self.recording.then(|| {
            let at = (started - self.origin).as_secs_f64() * 1e6;
            self.spans.push(Span {
                name,
                start_us: at,
                end_us: at,
                parent: self.stack.last().copied(),
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { started, slot }
    }

    /// Close `open` and return its duration in seconds. Spans close in the
    /// reverse order of their opening.
    pub fn end(&mut self, open: Open) -> f64 {
        let now = Instant::now();
        if let Some(slot) = open.slot {
            assert_eq!(self.stack.pop(), Some(slot), "spans must nest");
            self.spans[slot].end_us = (now - self.origin).as_secs_f64() * 1e6;
        }
        (now - open.started).as_secs_f64()
    }

    /// Run `f` inside a span and return its result and duration in seconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name);
        let out = f();
        (out, self.end(open))
    }

    /// Per-name totals over the recorded spans.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_us = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_us) {
            let t = out.entry(s.name).or_default();
            let dur = s.end_us - s.start_us;
            t.count += 1;
            t.total_s += dur / 1e6;
            t.self_s += (dur - children) / 1e6;
        }
        out
    }

    /// The spans as a Chrome-trace document; every event carries the
    /// workload it belongs to and the index of the span that caused it.
    pub fn chrome_trace(&self, workload: &str) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let parent = s.parent.map_or(Json::Null, |p| Json::Int(p as i64));
                ObjBuilder::new()
                    .str("name", s.name)
                    .str("cat", s.name.split('.').next().unwrap_or(s.name))
                    .str("ph", "X")
                    .float("ts", s.start_us)
                    .float("dur", s.end_us - s.start_us)
                    .int("pid", 1)
                    .int("tid", 1)
                    .field(
                        "args",
                        ObjBuilder::new()
                            .str("workload", workload)
                            .int("span", i as i64)
                            .field("parent", parent)
                            .build(),
                    )
                    .build()
            })
            .collect();
        ObjBuilder::new()
            .array("traceEvents", events)
            .str("displayTimeUnit", "ms")
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut tr = Tracer::new(true);
        let outer = tr.begin("outer");
        let (_, a) = tr.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        let (_, b) = tr.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        let whole = tr.end(outer);
        let totals = tr.totals();
        assert_eq!(totals["inner"].count, 2);
        assert_eq!(totals["outer"].count, 1);
        assert!((totals["inner"].total_s - (a + b)).abs() < 1e-3);
        assert!((totals["outer"].total_s - whole).abs() < 1e-3);
        let expected_self = whole - (a + b);
        assert!((totals["outer"].self_s - expected_self).abs() < 1e-3);
        assert!(totals["inner"].self_s >= 0.009);
    }

    #[test]
    fn nothing_is_recorded_while_recording_is_off() {
        let mut tr = Tracer::new(false);
        let (v, secs) = tr.time("quiet", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(tr.totals().is_empty());
        tr.recording = true;
        tr.time("loud", || ());
        assert_eq!(tr.totals()["loud"].count, 1);
    }

    #[test]
    fn chrome_trace_parses_back_and_names_parents() {
        let mut tr = Tracer::new(true);
        let outer = tr.begin("sim.outer");
        tr.time("sim.inner", || ());
        tr.end(outer);
        let text = tr.chrome_trace("w").emit().expect("finite times");
        let doc = Json::parse(&text).expect("valid JSON");
        let events = doc.field("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        let inner = &events[1];
        assert_eq!(inner.field("name").unwrap().as_str().unwrap(), "sim.inner");
        assert_eq!(inner.field("cat").unwrap().as_str().unwrap(), "sim");
        let args = inner.field("args").unwrap();
        assert_eq!(args.field("parent").unwrap().as_i64().unwrap(), 0);
        assert_eq!(args.field("workload").unwrap().as_str().unwrap(), "w");
        assert_eq!(
            events[0].field("args").unwrap().field("parent").unwrap(),
            &Json::Null
        );
    }
}
