//! In-memory span recorder for the traced run.
//!
//! A span has a name, a start and an end (nanoseconds since the tracer
//! was created), the span that caused it, and the id of the request it
//! belongs to. Spans are kept in memory and written out once, when the
//! run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
pub struct Span {
    pub request: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The recorder.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn span(
        &mut self,
        request: u64,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            request,
            name,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span whose end is set later by [`Tracer::end`].
    pub fn open(
        &mut self,
        request: u64,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
    ) -> usize {
        self.span(request, name, parent, start, start)
    }

    /// Sets the end of an opened span.
    pub fn end(&mut self, id: usize, end: Instant) {
        let end_ns = self.ns(end);
        self.spans[id].end_ns = end_ns;
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"request\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.request, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}
