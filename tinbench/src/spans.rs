//! The benchmark's span recorder: named intervals around calls into each
//! layer, kept in memory and written out once the run ends.
//!
//! Spans nest: a span begun while another is open records it as its
//! parent, and spans of one fleet session share that session's id.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
pub struct Span {
    /// Layer-qualified name, e.g. `core.run_app`.
    pub name: &'static str,
    /// Session (or kernel pass) the span belongs to.
    pub session: u64,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created; 0 while open.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// The span's length in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder for one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Tracer {
        Tracer::starting_at(Instant::now())
    }

    /// An empty recorder whose clock starts at `origin`, so recorders of
    /// several threads share one time base and can be merged.
    pub fn starting_at(origin: Instant) -> Tracer {
        Tracer { origin, spans: Vec::new(), open: Vec::new() }
    }

    /// Appends every span of `other` (same origin, nothing open), keeping
    /// its parent links.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "absorb a recorder whose spans are all closed");
        let base = self.spans.len();
        self.spans.extend(
            other.spans.into_iter().map(|s| Span { parent: s.parent.map(|p| p + base), ..s }),
        );
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; its parent is the innermost span still open.
    pub fn begin(&mut self, name: &'static str, session: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, session, start_ns, end_ns: 0, parent });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, session: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, session);
        let out = f();
        self.end(id);
        out
    }

    /// Every recorded span, in the order they were begun.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::ns).collect()
    }

    /// Summed duration (ns) of the direct children of span `id`.
    pub fn children_ns(&self, id: usize) -> u64 {
        self.spans.iter().filter(|s| s.parent == Some(id)).map(Span::ns).sum()
    }

    /// The spans as JSON lines: `id`, `name`, `session`, `start_ns`,
    /// `end_ns`, `parent`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"session\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.session, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Cost of recording one span (begin + end), in nanoseconds, measured on
/// a scratch recorder: multiplied by the span count it gives the time
/// tracing itself added to a traced pass.
pub fn span_cost_ns() -> f64 {
    const N: usize = 20_000;
    let mut scratch = Tracer::new();
    let t0 = Instant::now();
    for i in 0..N {
        let id = scratch.begin("calibration", i as u64);
        scratch.end(id);
    }
    std::hint::black_box(scratch.spans().len());
    t0.elapsed().as_nanos() as f64 / N as f64
}
