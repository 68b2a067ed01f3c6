//! In-memory span and counter recorder for the traced run.
//!
//! Every call into a layer is wrapped in a span carrying its name, start
//! and end (nanoseconds since the recorder was created), the index of
//! the enclosing span and the window or request id it served. Counters
//! record how much work a call did (edge changes, dirty subjects, WAL
//! bytes) at the same boundaries. Nothing is written until
//! [`Tracer::write_jsonl`] runs at the end of the benchmark, so the
//! recording cost is one `Instant::now` pair and a `Vec` push per call.
//!
//! A disabled recorder still runs the wrapped call and records nothing,
//! which is how the same composition yields the untraced baseline used
//! to report the tracing overhead.

use std::io::{self, Write};
use std::time::Instant;

const NO_PARENT: usize = usize::MAX;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.tier.advance`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The window or request the call served.
    pub id: u64,
}

/// One recorded count.
#[derive(Debug, Clone)]
pub struct Counter {
    /// Layer-qualified name, e.g. `graph.windower.changes`.
    pub name: &'static str,
    /// The window or request the count belongs to.
    pub id: u64,
    /// The value.
    pub value: f64,
}

/// The recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    counters: Vec<Counter>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder that records (`enabled`) or only runs the calls.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            counters: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; pair with [`Tracer::exit`]. Use this form when the
    /// spanned region itself records nested spans.
    pub fn enter(&mut self, name: &'static str, id: u64) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: (parent != NO_PARENT).then_some(parent),
            id,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = end;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, id);
        let out = f();
        self.exit();
        out
    }

    /// Records a count.
    pub fn count(&mut self, name: &'static str, id: u64, value: f64) {
        if self.enabled {
            self.counters.push(Counter { name, id, value });
        }
    }

    /// The recorded spans, in opening order.
    #[cfg(test)]
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span and counter as one JSON object per line.
    ///
    /// # Errors
    /// Propagates write failures.
    pub fn write_jsonl(&self, mut out: impl Write) -> io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.id
            )?;
        }
        for c in &self.counters {
            writeln!(
                out,
                "{{\"counter\":\"{}\",\"id\":{},\"value\":{}}}",
                c.name, c.id, c.value
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_to_their_parent() {
        let mut t = Tracer::new(true);
        t.enter("window", 3);
        let x = t.span("core.tier.advance", 3, || 7);
        t.exit();
        assert_eq!(x, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn disabled_recorder_runs_calls_and_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", 0, || 5), 5);
        t.count("y", 0, 1.0);
        let mut buf = Vec::new();
        t.write_jsonl(&mut buf).unwrap();
        assert!(buf.is_empty());
    }
}
