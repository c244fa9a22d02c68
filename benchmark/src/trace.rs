//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls it
//! makes into each layer, on the thread that makes them; nothing is written
//! until the run ends. When no recorder is armed, [`span`] is one
//! thread-local check.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

use crate::sys;

/// One recorded call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// 1-based identifier, unique within a recording.
    pub id: u32,
    /// The span that was open when this one started (0 = none).
    pub parent: u32,
    /// The request this span belongs to.
    pub request: u32,
    /// `layer.operation`.
    pub name: &'static str,
    /// Nanoseconds since the recording started.
    pub start_ns: u64,
    /// Nanoseconds since the recording started.
    pub end_ns: u64,
    /// Heap allocations made by this thread while the span was open.
    pub allocs: u64,
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    /// Indices into `spans` of the spans still open, innermost last.
    open: Vec<usize>,
    request: u32,
    suspended: bool,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Arms a recorder on this thread with room for `capacity` spans, so that
/// recording itself does not allocate inside the spans it measures.
pub fn start(capacity: usize) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(16),
            request: 0,
            suspended: false,
        })
    });
}

/// Disarms this thread's recorder and returns what it recorded.
pub fn finish() -> Vec<Span> {
    RECORDER
        .with(|r| r.borrow_mut().take())
        .map_or_else(Vec::new, |rec| rec.spans)
}

/// Whether a recorder is armed on this thread and not suspended.
pub fn armed() -> bool {
    RECORDER.with(|r| r.borrow().as_ref().is_some_and(|rec| !rec.suspended))
}

/// Makes this thread's recorder (if any) skip spans until resumed. Call
/// between spans, not inside one.
pub fn suspend(on: bool) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.suspended = on;
        }
    });
}

/// Tags the spans that follow with request `id`.
pub fn set_request(id: u32) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.request = id;
        }
    });
}

/// Runs `f` inside a span named `name` when a recorder is armed on this
/// thread, and plainly otherwise.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let opened = RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let rec = guard.as_mut().filter(|rec| !rec.suspended)?;
        let index = rec.spans.len();
        let parent = rec.open.last().map_or(0, |&p| rec.spans[p].id);
        rec.spans.push(Span {
            id: index as u32 + 1,
            parent,
            request: rec.request,
            name,
            start_ns: 0,
            end_ns: 0,
            allocs: sys::thread_allocs().0,
        });
        rec.open.push(index);
        rec.spans[index].start_ns = rec.epoch.elapsed().as_nanos() as u64;
        Some(index)
    });
    let out = f();
    if let Some(index) = opened {
        RECORDER.with(|r| {
            let mut guard = r.borrow_mut();
            let rec = guard.as_mut().expect("recorder stays armed inside a span");
            let end = rec.epoch.elapsed().as_nanos() as u64;
            let span = &mut rec.spans[index];
            span.end_ns = end;
            span.allocs = sys::thread_allocs().0 - span.allocs;
            rec.open.pop();
        });
    }
    out
}

/// Totals of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their durations minus the part their child spans cover.
    pub self_ns: u64,
    /// Allocations made while they were open (children included).
    pub allocs: u64,
}

/// Per-name totals with self time (span minus children).
pub fn summarise(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children_ns = vec![0u64; spans.len() + 1];
    for s in spans {
        children_ns[s.parent as usize] += s.end_ns - s.start_ns;
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(children_ns[s.id as usize]);
        t.allocs += s.allocs;
    }
    out
}

/// Writes `spans` as one JSON array of objects.
pub fn write_json(spans: &[Span], out: &mut impl Write) -> io::Result<()> {
    out.write_all(b"[")?;
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.write_all(b",")?;
        }
        write!(
            out,
            "\n{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{},\"allocs\":{}}}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns, s.allocs
        )?;
    }
    out.write_all(b"\n]\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        start(8);
        set_request(7);
        span("outer", || {
            span("inner", || std::hint::black_box(1 + 1));
            span("inner", || std::hint::black_box(2 + 2));
        });
        let spans = finish();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].id, spans[0].parent), (1, 0));
        assert_eq!((spans[1].parent, spans[2].parent), (1, 1));
        assert!(spans.iter().all(|s| s.request == 7));
        let totals = summarise(&spans);
        let (outer, inner) = (totals["outer"], totals["inner"]);
        assert_eq!(inner.count, 2);
        assert_eq!(inner.self_ns, inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
    }

    #[test]
    fn dark_and_suspended_spans_run_the_closure_and_record_nothing() {
        assert_eq!(span("dark", || 41 + 1), 42);
        assert!(finish().is_empty());
        start(4);
        suspend(true);
        assert!(!armed());
        assert_eq!(span("suspended", || 1), 1);
        suspend(false);
        span("recorded", || ());
        let spans = finish();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].name, "recorded");
    }
}
