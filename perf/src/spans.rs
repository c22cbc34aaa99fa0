//! In-memory spans around the calls the benchmark makes into a layer.
//!
//! A span is (name, start, end, parent); all spans of one process share the
//! workload as their identifier. Nothing is written until the run ends.
//! With recording off, `enter`/`exit` do nothing, so the untraced reps pay
//! one branch per layer call.

use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Handle returned by [`Spans::enter`]; `None` when recording is off.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Self {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = end_ns;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// How many spans are named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Total duration of the closed spans named `name`, in seconds.
    pub fn total_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }
}

/// Self time of every span, in nanoseconds: its duration minus the part of
/// it its direct children cover. Children of one parent never overlap (they
/// are opened and closed in stack order), so the cover is their sum.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.end_ns - s.start_ns;
        }
    }
    own
}

/// Self time summed per span name, in first-seen order, in seconds.
pub fn self_times_by_name(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        let secs = own as f64 / 1e9;
        match out.iter_mut().find(|(name, _)| *name == s.name) {
            Some(entry) => entry.1 += secs,
            None => out.push((s.name, secs)),
        }
    }
    out
}

/// Chrome-trace JSON (complete events, microseconds), loadable in Perfetto
/// or `chrome://tracing`. `workload` is the identifier all spans share.
pub fn chrome_trace(spans: &[Span], workload: &str) -> String {
    let mut out = String::from("{\"traceEvents\": [\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "  {{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
             \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}, \"workload\": \"{workload}\"}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root 0..100 { a 10..60 { a1 20..30, a2 30..50 }, b 70..90 }
        let tree = [
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("a1", 20, 30, Some(1)),
            span("a2", 30, 50, Some(1)),
            span("b", 70, 90, Some(0)),
        ];
        let own = self_times_ns(&tree);
        assert_eq!(own, vec![30, 20, 10, 20, 20]);
        // Self times partition the root: nothing counted twice or lost.
        assert_eq!(own.iter().sum::<u64>(), 100);
        let by_name = self_times_by_name(&tree);
        assert_eq!(by_name[0], ("root", 30e-9));
        assert_eq!(by_name.len(), 5);
    }

    #[test]
    fn recorder_nests_and_off_records_nothing() {
        let mut on = Spans::new(true);
        let root = on.enter("root");
        let child = on.enter("child");
        on.exit(child);
        let again = on.enter("child");
        on.exit(again);
        on.exit(root);
        assert_eq!(on.spans().len(), 3);
        assert_eq!(on.spans()[1].parent, Some(0));
        assert_eq!(on.spans()[2].parent, Some(0));
        let own = self_times_ns(on.spans());
        let root_ns = on.spans()[0].end_ns - on.spans()[0].start_ns;
        assert_eq!(own.iter().sum::<u64>(), root_ns);
        assert!(on.total_secs("child") <= on.spans()[0].secs());

        let mut off = Spans::new(false);
        let id = off.enter("root");
        off.exit(id);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_json_with_one_event_per_span() {
        let tree = [
            span("root", 0, 2_000, None),
            span("leaf", 500, 1_500, Some(0)),
        ];
        let json = chrome_trace(&tree, "sim-dense");
        let parsed = socialtube_obs::json::parse(&json).expect("valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("array");
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("name").and_then(|v| v.as_str()), Some("leaf"));
        assert_eq!(events[1].get("dur").and_then(|v| v.as_f64()), Some(1.0));
        let args = events[1].get("args").expect("args");
        assert_eq!(args.get("parent").and_then(|v| v.as_u64()), Some(0));
        assert_eq!(
            args.get("workload").and_then(|v| v.as_str()),
            Some("sim-dense")
        );
    }
}
