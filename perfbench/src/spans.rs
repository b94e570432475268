//! In-memory span recorder for the traced mode.
//!
//! A span is one timed call into a layer: its name, start and end (host
//! nanoseconds since the recorder was created), its parent span and the
//! id of the workload item it belongs to. Spans stay in memory while the
//! workload runs and are written once, at exit. Self time is a span's
//! duration minus the durations of its direct children.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub item: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Records nested spans when enabled; every call is a no-op when not.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle returned by [`Spans::begin`]; pass it back to [`Spans::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span named `name` for `item`, nested in the innermost open
    /// span.
    pub fn begin(&mut self, name: &'static str, item: usize) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            item,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Close the span `open` (which must be the innermost open one).
    pub fn end(&mut self, open: Open) {
        if let Some(id) = open.0 {
            let end_ns = self.ns(Instant::now());
            self.spans[id].end_ns = end_ns;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
        }
    }

    /// Record an already-finished child span of the innermost open span,
    /// for a layer boundary observed from inside a call (the first
    /// simulation event of a kernel run ends its build).
    pub fn record(&mut self, name: &'static str, item: usize, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            item,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
        });
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total and self seconds per span name, in name order.
    pub fn self_times(&self) -> BTreeMap<&'static str, (f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += total as f64 * 1e-9;
            e.1 += total.saturating_sub(child) as f64 * 1e-9;
        }
        out
    }

    /// The spans as one JSON document (derived self times included).
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(64 * self.spans.len() + 256);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"self_s\":{{"
        );
        for (i, (name, (_, self_s))) in self.self_times().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{name}\":{self_s:.9}");
        }
        out.push_str("},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}\n{{\"id\":{i},\"name\":\"{}\",\"item\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.item, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut s = Spans::new(true);
        let outer = s.begin("outer", 0);
        let inner = s.begin("inner", 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        s.end(inner);
        s.end(outer);
        let t = s.self_times();
        let (outer_total, outer_self) = t["outer"];
        let (inner_total, _) = t["inner"];
        assert!(inner_total >= 0.002);
        assert!((outer_total - inner_total - outer_self).abs() < 1e-9);
        assert_eq!(s.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut s = Spans::new(false);
        let o = s.begin("x", 0);
        s.end(o);
        assert!(s.spans().is_empty());
    }
}
