//! Span recording around the calls the benchmark makes into each layer.
//!
//! A span has a name, a start and an end (nanoseconds since the
//! tracer's origin), the span open on the same thread when it started
//! (its parent), the thread it ran on and a request id that ties the
//! spans of one request together. Spans are kept in memory and written
//! out as JSON lines when the run ends. A disabled tracer records
//! nothing and never reads the clock, so the untraced run pays only a
//! branch per boundary.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Id of the span open on this thread when this one started; 0 for
    /// a thread's outermost span.
    pub parent: u64,
    /// Layer boundary name, e.g. `crawler.step`.
    pub name: &'static str,
    /// Request id shared by the spans of one request (0 when the span
    /// belongs to no request).
    pub request: u64,
    /// Small per-thread number, in order of first use.
    pub thread: u64,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// The span recorder of one benchmark run. Shared by reference across
/// the run's threads.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records spans when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// True when spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a span that ends when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        self.span_for(name, 0)
    }

    /// Open a span belonging to request `request`.
    pub fn span_for(&self, name: &'static str, request: u64) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard { open: None };
        }
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied().unwrap_or(0);
            open.push(id);
            parent
        });
        SpanGuard {
            open: Some(OpenSpan {
                tracer: self,
                id,
                parent,
                name,
                request,
                start_ns: self.now_ns(),
            }),
        }
    }

    /// Record a span whose bounds were measured by the caller (used for
    /// intervals that do not nest inside one call, such as an open-loop
    /// client's idle wait).
    pub fn record(&self, name: &'static str, request: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let parent = OPEN.with(|open| open.borrow().last().copied().unwrap_or(0));
        let span = Span {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            request,
            thread: THREAD.with(|t| *t),
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.origin).as_nanos() as u64,
        };
        self.spans.lock().expect("span list poisoned").push(span);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Every span finished so far, in finishing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Write the spans as JSON lines to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span list poisoned").iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"thread\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.request, s.thread, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

struct OpenSpan<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: u64,
    name: &'static str,
    request: u64,
    start_ns: u64,
}

/// Ends its span on drop.
pub struct SpanGuard<'t> {
    open: Option<OpenSpan<'t>>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        let end_ns = open.tracer.now_ns();
        OPEN.with(|stack| {
            let mut stack = stack.borrow_mut();
            if stack.last() == Some(&open.id) {
                stack.pop();
            }
        });
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            request: open.request,
            thread: THREAD.with(|t| *t),
            start_ns: open.start_ns,
            end_ns,
        };
        // Drop must not panic: a poisoned list only loses this span.
        if let Ok(mut spans) = open.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent() {
        let tracer = Tracer::new(true);
        {
            let _outer = tracer.span("outer");
            let _inner = tracer.span_for("inner", 7);
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.request, 7);
        assert_eq!(outer.parent, 0);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        drop(tracer.span("x"));
        tracer.record("y", 0, Instant::now(), Instant::now());
        assert!(tracer.spans().is_empty());
    }
}
