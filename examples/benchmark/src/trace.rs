//! The harness's span recorder.
//!
//! Spans are recorded from the benchmark's own files, around the calls it
//! makes into each crate (spans inside the program are a later change). The
//! whole benchmark is one thread, so a span stack gives every span its
//! parent; spans stay in memory until the iteration ends. A span's *self*
//! time is its duration minus the durations of its direct children.
//!
//! Recording is off unless [`start`] was called, in which case [`span`] costs
//! two clock reads and one `Vec` push; off, it costs one thread-local flag
//! check, so the untraced runs that produce the end-to-end metrics share the
//! traced runs' code path.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One finished (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `store.publish`.
    pub name: &'static str,
    /// Nanoseconds since [`start`].
    pub start_ns: u64,
    /// Nanoseconds since [`start`]; equals `start_ns` while open.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// The operation the span belongs to: `round << 32 | participant`.
    pub op: u64,
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u64,
    counts: BTreeMap<&'static str, u64>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Everything one traced iteration recorded.
#[derive(Debug, Default)]
pub struct Recording {
    /// Spans in start order.
    pub spans: Vec<Span>,
    /// Counters added with [`count`].
    pub counts: BTreeMap<&'static str, u64>,
}

/// Starts recording on this thread, discarding any previous recording.
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            counts: BTreeMap::new(),
        });
    });
}

/// Stops recording and returns what was recorded (empty if recording was off).
pub fn finish() -> Recording {
    RECORDER.with(|r| match r.borrow_mut().take() {
        Some(rec) => {
            debug_assert!(rec.stack.is_empty(), "finish() with open spans");
            Recording { spans: rec.spans, counts: rec.counts }
        }
        None => Recording::default(),
    })
}

/// Names the operation (participant × round) that spans opened from now on
/// belong to.
pub fn set_op(round: usize, participant: u32) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.op = (round as u64) << 32 | u64::from(participant);
        }
    });
}

/// Adds to a named counter of the recording (no-op when recording is off).
pub fn count(name: &'static str, n: u64) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            *rec.counts.entry(name).or_insert(0) += n;
        }
    });
}

/// Closes its span when dropped.
#[must_use = "a span covers the scope its guard lives in"]
pub struct SpanGuard(Option<u32>);

/// Opens a span under the innermost open span; it closes when the guard drops.
pub fn span(name: &'static str) -> SpanGuard {
    RECORDER.with(|r| {
        let mut slot = r.borrow_mut();
        let Some(rec) = slot.as_mut() else {
            return SpanGuard(None);
        };
        let index = rec.spans.len() as u32;
        let now = rec.origin.elapsed().as_nanos() as u64;
        let parent = rec.stack.last().copied();
        rec.spans.push(Span { name, start_ns: now, end_ns: now, parent, op: rec.op });
        rec.stack.push(index);
        SpanGuard(Some(index))
    })
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(index) = self.0 else {
            return;
        };
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                let popped = rec.stack.pop();
                debug_assert_eq!(popped, Some(index), "spans must close innermost first");
                rec.spans[index as usize].end_ns = rec.origin.elapsed().as_nanos() as u64;
            }
        });
    }
}

/// Per-name totals of a recording.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans with this name.
    pub calls: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times (duration minus direct children).
    pub self_ns: u64,
}

/// Self time of every span, in span order. A child never outlives its parent
/// (stack discipline), so the subtraction cannot underflow; `saturating_sub`
/// only guards against a clock that steps backwards.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            let parent = parent as usize;
            own[parent] = own[parent].saturating_sub(span.end_ns - span.start_ns);
        }
    }
    own
}

/// Aggregates a recording by span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (span, own) in spans.iter().zip(own) {
        let entry = out.entry(span.name).or_default();
        entry.calls += 1;
        entry.total_ns += span.end_ns - span.start_ns;
        entry.self_ns += own;
    }
    out
}

/// The recording as a JSON document (`trace.<workload>.json`).
pub fn to_json(workload: &str, seed: u64, recording: &Recording) -> String {
    let mut out = String::with_capacity(64 + recording.spans.len() * 96);
    out.push_str(&format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"clock\":\"wall_ns\",\"spans\":["
    ));
    for (index, span) in recording.spans.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "\n{{\"id\":{index},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
             \"round\":{},\"participant\":{}}}",
            span.name,
            span.start_ns,
            span.end_ns,
            span.op >> 32,
            span.op & 0xffff_ffff,
        ));
    }
    out.push_str("\n],\"counts\":{");
    for (index, (name, value)) in recording.counts.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{name}\":{value}"));
    }
    out.push_str("}}\n");
    out
}
