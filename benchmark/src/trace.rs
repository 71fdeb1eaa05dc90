//! Spans recorded by the harness around its calls into each crate.
//!
//! The product is not instrumented (that is a later change): every
//! span here brackets a call the harness itself makes through a public
//! function. Spans live in memory and are written once, at exit.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    /// A standalone layer probe rather than a step of the traced run.
    pub probe: bool,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Handle returned by [`Tracer::begin`]. It has no span id when tracing
/// is off, so the untraced pass runs the same code minus the
/// bookkeeping; the clock reading is kept either way, so the caller
/// always gets its duration back from [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
#[must_use = "pass the handle to Tracer::end"]
pub struct Open {
    id: Option<u32>,
    start: Instant,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn open(&mut self, name: &'static str, probe: bool) -> Open {
        let start = Instant::now();
        if !self.enabled {
            return Open { id: None, start };
        }
        let id = self.spans.len() as u32;
        let start_us = (start - self.origin).as_secs_f64() * 1e6;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name,
            probe,
            start_us,
            end_us: start_us,
        });
        self.stack.push(id);
        Open {
            id: Some(id),
            start,
        }
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        self.open(name, false)
    }

    /// Open a root span tagged `probe`.
    pub fn begin_probe(&mut self, name: &'static str) -> Open {
        debug_assert!(self.stack.is_empty(), "probes are root spans");
        self.open(name, true)
    }

    /// Close the span; returns its duration in µs.
    pub fn end(&mut self, open: Open) -> f64 {
        let now = Instant::now();
        if let Some(id) = open.id {
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
            self.spans[id as usize].end_us = (now - self.origin).as_secs_f64() * 1e6;
        }
        (now - open.start).as_secs_f64() * 1e6
    }

    /// Add a span timed elsewhere (a client thread) under the innermost
    /// open span. Such spans may overlap their siblings.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        self.spans.push(Span {
            id: self.spans.len() as u32,
            parent: self.stack.last().copied(),
            name,
            probe: false,
            start_us: us(start),
            end_us: us(end),
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span called `name`, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_us)
            .collect()
    }

    /// One JSON object per line: `{id, parent, name, workload, probe,
    /// start_us, end_us}`.
    pub fn write_jsonl(&self, workload: &str, out: &mut String) {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"workload\":\"{workload}\",\"probe\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.id, s.name, s.probe, s.start_us, s.end_us
            );
        }
    }
}

/// Self time per span name (µs): each span's duration minus the part
/// of that interval its direct children cover. Children recorded by one
/// thread never overlap, so "cover" is the plain sum.
pub fn self_times_us(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_cover = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_cover[p as usize] += s.duration_us();
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0.0) += s.duration_us() - child_cover[s.id as usize];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name,
            probe: false,
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(0, None, "run", 0.0, 100.0),
            span(1, Some(0), "parse", 5.0, 15.0),
            span(2, Some(0), "step", 20.0, 50.0),
            span(3, Some(0), "step", 50.0, 90.0),
            span(4, Some(3), "ckpt", 80.0, 90.0),
        ];
        let st = self_times_us(&spans);
        assert_eq!(st["run"], 100.0 - 10.0 - 30.0 - 40.0);
        assert_eq!(st["parse"], 10.0);
        assert_eq!(st["step"], 30.0 + 40.0 - 10.0);
        assert_eq!(st["ckpt"], 10.0);
        // Self times partition the root's interval.
        assert_eq!(st.values().sum::<f64>(), 100.0);
    }

    #[test]
    fn tracer_nests_and_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(true);
        let root = tr.begin("run");
        let inner = tr.begin("parse");
        let inner_us = tr.end(inner);
        let root_us = tr.end(root);
        assert!(root_us >= inner_us && inner_us >= 0.0);
        let probe = tr.begin_probe("util.crc32");
        let _ = tr.end(probe);
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), None)
        );
        assert!(s[2].probe && !s[0].probe);
        assert!(s[0].end_us >= s[1].end_us && s[1].end_us >= s[1].start_us);
        assert_eq!(tr.durations_us("parse").len(), 1);
        let mut text = String::new();
        tr.write_jsonl("w", &mut text);
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().all(|l| l.contains("\"workload\":\"w\"")));

        let mut off = Tracer::new(false);
        let h = off.begin("run");
        assert!(off.end(h) >= 0.0);
        assert!(off.spans().is_empty());
    }
}
