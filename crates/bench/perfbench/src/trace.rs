//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded around calls into each crate's public functions
//! from this package (never inside the program) and kept in memory; the
//! benchmark writes them out once the run ends. A layer's self time is its
//! span's duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary name, `crate.layer` (e.g. `raidsim.write`).
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by the spans of one unit of work (a cell).
    pub group: u64,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans against one clock origin.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    group: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), group: 0 }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the group id stamped on spans opened from now on.
    pub fn set_group(&mut self, group: u64) {
        self.group = group;
    }

    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, parent, group: self.group, start_ns, end_ns: start_ns });
        self.open.push(idx);
        idx
    }

    /// Closes the span `idx` (and any child left open inside it).
    pub fn exit(&mut self, idx: usize) {
        let end = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end;
            if top == idx {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let s = self.enter(name);
        let r = f();
        self.exit(s);
        r
    }

    /// Records a child of the innermost open span that was measured by
    /// the program itself (e.g. fs-lint's phase timings): children are laid
    /// end to end from the parent's start.
    pub fn record_child(&mut self, name: &'static str, offset_ns: u64, dur_ns: u64) {
        let parent = self.open.last().copied();
        let base = parent.map_or(0, |p| self.spans[p].start_ns);
        let start_ns = base + offset_ns;
        self.spans.push(Span {
            name,
            parent,
            group: self.group,
            start_ns,
            end_ns: start_ns + dur_ns,
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time in seconds per span name over the spans from `from` on.
    pub fn self_secs(&self, from: usize) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans[from..] {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().skip(from) {
            let own = s.dur_ns().saturating_sub(child_ns[i]);
            *out.entry(s.name).or_default() += own as f64 * 1e-9;
        }
        out
    }

    /// Renders the spans from index `from` on (one traced pass, say) as a
    /// JSON document, one object per span; ids and parents count from
    /// `from`.
    pub fn to_json(&self, from: usize) -> String {
        let spans = self.spans.get(from..).unwrap_or_default();
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in spans.iter().enumerate() {
            let parent = s
                .parent
                .and_then(|p| p.checked_sub(from))
                .map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"group\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}}}{}",
                s.name,
                s.group,
                s.start_ns,
                s.end_ns,
                if i + 1 < spans.len() { "," } else { "" }
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let root = t.enter("root");
        t.record_child("a", 0, 300);
        t.record_child("b", 300, 200);
        t.exit(root);
        // Force a known root duration.
        t.spans[root].end_ns = t.spans[root].start_ns + 1_000;
        let s = t.self_secs(0);
        assert!((s["root"] - 500e-9).abs() < 1e-15);
        assert!((s["a"] - 300e-9).abs() < 1e-15);
        assert!(t.to_json(0).contains("\"parent\": 0"));
        assert!(t
            .to_json(1)
            .starts_with("{\"spans\": [\n  {\"id\": 0, \"name\": \"a\", \"parent\": null"));
    }

    #[test]
    fn exit_closes_children_left_open() {
        let mut t = Tracer::new();
        let root = t.enter("root");
        let _child = t.enter("child");
        t.exit(root);
        assert!(t.open.is_empty());
        assert_eq!(t.spans()[1].parent, Some(0));
    }
}
