//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's own calls into each layer
//! (name, start, end, parent, run id), kept in memory and written out as
//! one JSON document when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval. Times are nanoseconds since the recorder's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: u32,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Span recorder. `begin`/`end` nest: a span begun while another is open
/// becomes its child.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    /// Nanoseconds since the recorder's origin.
    fn now_ns(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Open a root span for a new optimizer run; later spans until the
    /// matching `end` share its run id.
    pub fn begin_run(&mut self, name: &str, run: u32) -> usize {
        assert!(self.open.is_empty(), "a root span opens only at top level");
        self.run = run;
        self.begin(name)
    }

    pub fn begin(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        let start = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: start,
            end_ns: start,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost-first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Record an already-measured interval as a child of the open span.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.ns_at(start),
            end_ns: self.ns_at(end),
            parent: self.open.last().copied(),
            run: self.run,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the part of its interval covered by its
    /// direct children, in seconds.
    pub fn self_seconds(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
            .filter(|(a, b)| a < b)
            .collect();
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = s.start_ns;
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        ((s.end_ns - s.start_ns) - covered) as f64 * 1e-9
    }

    /// All spans as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"run\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_s\": {}}}",
                s.name,
                s.run,
                s.start_ns,
                s.end_ns,
                self.self_seconds(i)
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_excludes_the_union_of_child_intervals() {
        let mut t = Tracer::new();
        t.spans = vec![
            span("phase", 0, 1_000, None),
            span("store", 100, 300, Some(0)),
            span("store", 200, 400, Some(0)), // overlaps the first child
            span("store", 900, 1_200, Some(0)), // clipped to the parent
            span("grandchild", 120, 130, Some(1)),
        ];
        // Covered: [100, 400) + [900, 1000) = 400 ns.
        assert!((t.self_seconds(0) - 600e-9).abs() < 1e-15);
        assert!((t.self_seconds(1) - 190e-9).abs() < 1e-15);
    }

    #[test]
    fn spans_nest_under_the_open_parent_and_share_the_run_id() {
        let mut t = Tracer::new();
        let root = t.begin_run("run", 7);
        let child = t.begin("phase");
        t.end(child);
        t.end(root);
        assert_eq!(t.spans()[child].parent, Some(root));
        assert_eq!(t.spans()[child].run, 7);
        assert!(t.spans()[root].end_ns >= t.spans()[child].end_ns);
        assert!(t.to_json().contains("\"name\": \"phase\""));
    }
}
