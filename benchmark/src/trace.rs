//! Spans recorded from outside the program, around each call into a layer.
//!
//! Every timed call goes through [`Tracer::begin`]/[`Tracer::end`] whether
//! tracing is on or not: `end` always returns the elapsed time (that is
//! how the untraced run gets its latencies), and records a [`Span`] only
//! while the tracer is on. Spans stay in memory until the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// Spans kept per tracer; beyond it spans are counted as dropped, so a
/// very fast workload cannot grow the trace without bound.
const MAX_SPANS: usize = 400_000;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// Shared by all spans of one cycle / churn iteration / wire command.
    pub request: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An open span: hand it back to [`Tracer::end`].
pub struct Open {
    start: Instant,
    slot: Option<usize>,
}

pub struct Tracer {
    epoch: Instant,
    /// Added to span ids and request ids so tracers of several client
    /// threads can be merged without clashes.
    id_base: u64,
    on: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
    dropped: u64,
}

impl Tracer {
    /// A tracer that is off: it times calls and records nothing.
    pub fn new(epoch: Instant, id_base: u64) -> Tracer {
        Tracer {
            epoch,
            id_base,
            on: false,
            spans: Vec::new(),
            stack: Vec::new(),
            request: id_base,
            dropped: 0,
        }
    }

    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggle only between requests");
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Start the next request: spans opened from now on carry its id.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    pub fn begin(&mut self, layer: &'static str, name: &'static str) -> Open {
        let start = Instant::now();
        if !self.on {
            return Open { start, slot: None };
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return Open { start, slot: None };
        }
        let slot = self.spans.len();
        self.spans.push(Span {
            id: self.id_base + slot as u64,
            parent: self.stack.last().map(|&p| self.spans[p].id),
            request: self.request,
            layer,
            name,
            start_ns: start.duration_since(self.epoch).as_nanos() as u64,
            end_ns: 0,
        });
        self.stack.push(slot);
        Open {
            start,
            slot: Some(slot),
        }
    }

    pub fn end(&mut self, open: Open) -> Duration {
        let dt = open.start.elapsed();
        if let Some(slot) = open.slot {
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(slot), "spans must close innermost first");
            self.spans[slot].end_ns = self.spans[slot].start_ns + dt.as_nanos() as u64;
        }
        dt
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                // Sweep the children left to right, clipped to the parent.
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(reach);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
            }
            (s.id, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// Self time summed per layer, in seconds.
pub fn self_seconds_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let own = self_times(spans);
    let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        *by_layer.entry(s.layer).or_default() += own[&s.id] as f64 / 1e9;
    }
    by_layer
}

/// One JSON object per line, in recording order.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{parent},\"request\":{},\"layer\":\"{}\",\"name\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.request, s.layer, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, layer: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            layer,
            name: "t",
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let spans = vec![
            span(1, None, "session", 0, 100),
            // Two children overlapping on [30, 40), one reaching past the
            // parent's end, one nested grandchild.
            span(2, Some(1), "sim", 10, 40),
            span(3, Some(1), "sim", 30, 60),
            span(4, Some(1), "sim", 90, 120),
            span(5, Some(2), "query", 15, 20),
        ];
        let own = self_times(&spans);
        // Covered: [10,60) and [90,100) = 60.
        assert_eq!(own[&1], 40);
        assert_eq!(own[&2], 25);
        assert_eq!(own[&3], 30);
        assert_eq!(own[&4], 30);
        assert_eq!(own[&5], 5);
        let by_layer = self_seconds_by_layer(&spans);
        assert!((by_layer["sim"] - 85e-9).abs() < 1e-15);
    }

    #[test]
    fn tracer_records_nesting_only_while_on() {
        let mut tr = Tracer::new(Instant::now(), 1000);
        let o = tr.begin("sim", "off");
        tr.end(o);
        tr.set_on(true);
        tr.next_request();
        let outer = tr.begin("session", "outer");
        let inner = tr.begin("sim", "inner");
        tr.end(inner);
        tr.end(outer);
        let spans = tr.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].id, 1000);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(1000));
        assert_eq!(spans[1].request, 1001);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
