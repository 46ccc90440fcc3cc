//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span holds its name, its layer, its start and end, the span that
//! caused it and the request or session it belongs to. Spans stay in
//! memory and are summarised when the run ends. Every call is timed
//! whether or not tracing is on (the latencies feed the end-to-end
//! metrics); tracing only adds the span records.

use std::collections::BTreeMap;
use std::time::Instant;

/// No parent.
const ROOT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub req: u64,
}

/// An open span: its start, and its record index when tracing.
pub struct Open {
    start: Instant,
    idx: u32,
}

/// Records spans when on; always measures.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, layer: &'static str, req: u64) -> Open {
        let start = Instant::now();
        if !self.on {
            return Open { start, idx: ROOT };
        }
        let idx = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            name,
            layer,
            start_ns: self.ns(start),
            end_ns: 0,
            parent: self.stack.last().copied().unwrap_or(ROOT),
            req,
        });
        self.stack.push(idx);
        Open { start, idx }
    }

    /// Closes a span; returns its length in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let now = Instant::now();
        if self.on && open.idx != ROOT {
            let end_ns = self.ns(now);
            self.spans[open.idx as usize].end_ns = end_ns;
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(open.idx), "spans close innermost first");
        }
        (now - open.start).as_secs_f64()
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from((t - self.epoch).as_nanos()).expect("run shorter than 584 years")
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span, in nanoseconds: its length minus the part
/// of its interval that its child spans cover. Overlapping children are
/// counted once; a child reaching past its parent counts only inside it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let len = s.end_ns.saturating_sub(s.start_ns);
            len - covered(kids, s.start_ns, s.end_ns).min(len)
        })
        .collect()
}

/// Span count and self time in seconds per `(layer, name)`.
pub fn by_name(spans: &[Span]) -> BTreeMap<(&'static str, &'static str), (u64, f64)> {
    let mut out: BTreeMap<_, (u64, f64)> = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times(spans)) {
        let e = out.entry((s.layer, s.name)).or_default();
        e.0 += 1;
        e.1 += ns as f64 / 1e9;
    }
    out
}

/// Self time per layer, in seconds.
pub fn layer_self_secs(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for ((layer, _), (_, secs)) in by_name(spans) {
        *out.entry(layer).or_default() += secs;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: u32, layer: &'static str) -> Span {
        Span {
            name: "t",
            layer,
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        // root [0,100) ⊃ a [10,40) ⊃ b [20,30); root ⊃ c [50,60).
        let spans = vec![
            span(0, 100, ROOT, "bench"),
            span(10, 40, 0, "x"),
            span(20, 30, 1, "y"),
            span(50, 60, 0, "y"),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
        let by_layer = layer_self_secs(&spans);
        assert_eq!(by_layer["bench"], 60e-9);
        assert_eq!(by_layer["x"], 20e-9);
        assert_eq!(by_layer["y"], 20e-9);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Children [10,50) and [30,70) overlap on [30,50): union 60.
        // A third child [90,130) sticks out of the parent: 10 inside.
        let spans = vec![
            span(0, 100, ROOT, "bench"),
            span(10, 50, 0, "x"),
            span(30, 70, 0, "x"),
            span(90, 130, 0, "x"),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn children_covering_the_parent_leave_zero_not_underflow() {
        let spans = vec![
            span(10, 20, ROOT, "bench"),
            span(0, 30, 0, "x"),
            span(5, 25, 0, "x"),
        ];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn tracer_links_parents_and_measures_when_off() {
        let mut tr = Tracer::new(true);
        let root = tr.begin("req", "bench", 7);
        let child = tr.begin("compose", "core.bcp", 7);
        tr.end(child);
        tr.end(root);
        assert_eq!(tr.spans().len(), 2);
        assert_eq!(tr.spans()[1].parent, 0);
        assert_eq!(tr.spans()[1].req, 7);
        assert!(tr.spans()[0].end_ns >= tr.spans()[1].end_ns);

        let mut off = Tracer::new(false);
        let o = off.begin("req", "bench", 1);
        assert!(off.end(o) >= 0.0);
        assert!(off.spans().is_empty());
    }
}
