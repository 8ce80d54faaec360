//! The benchmark's own span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's calls into each layer's
//! public function, kept in memory, and written out once at exit as
//! Chrome trace events (`chrome://tracing`, Perfetto). Each span carries
//! its name, start, end, parent and run id (one run per K rung, design
//! or service job). A layer's self time is its duration minus the time
//! its child spans cover; allocation is attributed the same way from
//! the counting allocator's monotone byte total.

use casyn_obs::alloc;
use casyn_obs::json::JsonValue;
use std::collections::BTreeMap;
use std::time::Instant;

struct Span {
    name: &'static str,
    run: u32,
    parent: Option<usize>,
    start_us: f64,
    end_us: f64,
    /// Bytes allocated while the span was open, children included.
    alloc_bytes: u64,
}

/// Self time and self allocation summed over every span of one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotals {
    pub self_ms: f64,
    pub self_alloc_mb: f64,
}

/// An in-memory span recorder for a single-threaded traced run.
pub struct Tracer {
    t0: Instant,
    run: u32,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { t0: Instant::now(), run: 0, stack: Vec::new(), spans: Vec::new() }
    }
}

impl Tracer {
    /// Sets the run id stamped on spans opened from now on.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` through
    /// the tracer it receives become children of this one.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let alloc0 = alloc::allocated_bytes();
        self.spans.push(Span {
            name,
            run: self.run,
            parent: self.stack.last().copied(),
            start_us: self.now_us(),
            end_us: 0.0,
            alloc_bytes: 0,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        let end = self.now_us();
        let span = &mut self.spans[id];
        span.end_us = end;
        span.alloc_bytes = alloc::allocated_bytes() - alloc0;
        out
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Per-name totals of self time and self allocation.
    pub fn layer_totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut child_us = vec![0.0; self.spans.len()];
        let mut child_alloc = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
                child_alloc[p] += s.alloc_bytes;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let t = out.entry(s.name).or_default();
            t.self_ms += (s.end_us - s.start_us - child_us[i]) / 1e3;
            t.self_alloc_mb += s.alloc_bytes.saturating_sub(child_alloc[i]) as f64 / 1e6;
        }
        out
    }

    /// Sum of self times over the named layers (ms).
    pub fn self_ms(&self, names: &[&str]) -> f64 {
        let totals = self.layer_totals();
        names.iter().filter_map(|n| totals.get(n)).map(|t| t.self_ms).sum()
    }

    /// The spans as a Chrome trace-event document: one complete (`X`)
    /// event per span on the timeline row of its run.
    pub fn chrome_json(&self) -> String {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let parent = s.parent.map_or(JsonValue::Null, |p| JsonValue::Number(p as f64));
                JsonValue::object(vec![
                    ("name".into(), JsonValue::Str(s.name.into())),
                    ("ph".into(), JsonValue::Str("X".into())),
                    ("ts".into(), JsonValue::Number(s.start_us)),
                    ("dur".into(), JsonValue::Number(s.end_us - s.start_us)),
                    ("pid".into(), JsonValue::Number(1.0)),
                    ("tid".into(), JsonValue::Number(s.run as f64)),
                    (
                        "args".into(),
                        JsonValue::object(vec![
                            ("id".into(), JsonValue::Number(i as f64)),
                            ("parent".into(), parent),
                            ("run".into(), JsonValue::Number(s.run as f64)),
                            ("alloc_bytes".into(), JsonValue::Number(s.alloc_bytes as f64)),
                        ]),
                    ),
                ])
            })
            .collect();
        JsonValue::object(vec![("traceEvents".into(), JsonValue::Array(events))])
            .to_string_compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        t.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(std::time::Duration::from_millis(20)));
        });
        let totals = t.layer_totals();
        let outer = totals["outer"];
        let inner = totals["inner"];
        assert!(inner.self_ms >= 20.0);
        assert!(outer.self_ms < inner.self_ms, "{outer:?} vs {inner:?}");
        let doc = JsonValue::parse(&t.chrome_json()).expect("chrome trace parses");
        let events = doc.get("traceEvents").and_then(JsonValue::as_array).expect("events");
        assert_eq!(
            events[1].get("args").and_then(|a| a.get("parent")),
            Some(&JsonValue::Number(0.0))
        );
    }
}
