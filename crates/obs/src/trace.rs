//! Hierarchical spans and instant events with pluggable timestamps.
//!
//! A [`Tracer`] buffers [`TraceEvent`]s in order under one mutex; on the
//! single-threaded virtual-clock executor this makes captured traces fully
//! deterministic (same schedule → byte-identical export). Timestamps come
//! from the tracer's [`TimeSource`]: wall-clock micros since the tracer was
//! created, or — after [`Tracer::bind_virtual`] — the shared virtual-clock
//! cell published by `orchestra_rt::VirtualClock::shared_now`, so tracing
//! simulated work costs no simulated time.
//!
//! A disabled tracer ([`Tracer::disabled`]) carries no buffer at all: every
//! span/event call is a single `Option` check.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Where timestamps come from.
#[derive(Clone, Debug)]
pub enum TimeSource {
    /// Wall clock: microseconds since the source was created.
    Wall(Instant),
    /// Virtual clock: the shared now-cell a `VirtualClock` publishes.
    Virtual(Arc<AtomicU64>),
}

impl TimeSource {
    /// A wall-clock source anchored at "now".
    fn wall() -> Self {
        TimeSource::Wall(Instant::now())
    }

    /// The current timestamp in microseconds.
    pub fn now_us(&self) -> u64 {
        match self {
            TimeSource::Wall(base) => base.elapsed().as_micros() as u64,
            TimeSource::Virtual(cell) => cell.load(Ordering::Relaxed),
        }
    }
}

/// What a [`TraceEvent`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (`span` is the new span's id).
    Open,
    /// A span closed.
    Close,
    /// An instant event inside `span` (0 = root).
    Instant,
}

impl EventKind {
    /// Stable lowercase name used by the text export.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Open => "open",
            EventKind::Close => "close",
            EventKind::Instant => "event",
        }
    }
}

/// One record in a trace. Field values are `u64` (ids, counts, micros) so
/// events stay allocation-light and the export format stays trivial.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Timestamp in microseconds (virtual or wall, per the tracer's source).
    pub at_us: u64,
    /// What happened.
    pub kind: EventKind,
    /// The span this record belongs to (its own id for `Open`/`Close`, the
    /// enclosing span for `Instant`; 0 = root).
    pub span: u64,
    /// The enclosing span (0 = root).
    pub parent: u64,
    /// Event name, e.g. `session.begin`.
    pub name: &'static str,
    /// Typed fields, e.g. `[("participant", 3), ("shard", 0)]`.
    pub fields: Vec<(&'static str, u64)>,
}

#[derive(Debug)]
struct TraceState {
    time: TimeSource,
    events: Vec<TraceEvent>,
    next_span: u64,
}

/// A trace sink. Cloning shares the buffer; [`Tracer::default`] is
/// disabled.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    inner: Option<Arc<Mutex<TraceState>>>,
}

impl Tracer {
    /// An enabled tracer stamping events with wall-clock micros.
    pub fn new() -> Self {
        Tracer {
            inner: Some(Arc::new(Mutex::new(TraceState {
                time: TimeSource::wall(),
                events: Vec::new(),
                next_span: 1,
            }))),
        }
    }

    /// A disabled tracer: records nothing, every call is one branch.
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// True when this tracer records events.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Stamps subsequent events from the given virtual-clock cell (see
    /// `orchestra_rt::VirtualClock::shared_now`). No-op when disabled.
    pub fn bind_virtual(&self, cell: Arc<AtomicU64>) {
        if let Some(inner) = &self.inner {
            inner.lock().expect("trace lock poisoned").time = TimeSource::Virtual(cell);
        }
    }

    fn record(
        inner: &Arc<Mutex<TraceState>>,
        kind: EventKind,
        span: u64,
        parent: u64,
        name: &'static str,
        fields: &[(&'static str, u64)],
    ) -> u64 {
        let mut state = inner.lock().expect("trace lock poisoned");
        let at_us = state.time.now_us();
        let span = if kind == EventKind::Open {
            let id = state.next_span;
            state.next_span += 1;
            id
        } else {
            span
        };
        state.events.push(TraceEvent { at_us, kind, span, parent, name, fields: fields.to_vec() });
        span
    }

    /// Opens a root span. The span closes (records a `Close` event) when the
    /// returned guard drops; [`Span::child`] nests spans under it.
    #[inline]
    pub fn span(&self, name: &'static str, fields: &[(&'static str, u64)]) -> Span {
        match &self.inner {
            None => Span::default(),
            Some(inner) => {
                let id = Self::record(inner, EventKind::Open, 0, 0, name, fields);
                Span { inner: Some(Arc::clone(inner)), id, name, parent: 0 }
            }
        }
    }

    /// Records a root-level instant event.
    #[inline]
    pub fn event(&self, name: &'static str, fields: &[(&'static str, u64)]) {
        if let Some(inner) = &self.inner {
            Self::record(inner, EventKind::Instant, 0, 0, name, fields);
        }
    }

    /// A copy of the events recorded so far.
    pub fn events(&self) -> Vec<TraceEvent> {
        match &self.inner {
            None => Vec::new(),
            Some(inner) => inner.lock().expect("trace lock poisoned").events.clone(),
        }
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        match &self.inner {
            None => 0,
            Some(inner) => inner.lock().expect("trace lock poisoned").events.len(),
        }
    }

    /// True when no events have been recorded (always true when disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all recorded events and resets span ids.
    pub fn clear(&self) {
        if let Some(inner) = &self.inner {
            let mut state = inner.lock().expect("trace lock poisoned");
            state.events.clear();
            state.next_span = 1;
        }
    }

    /// Serialises the trace in the line-oriented text format
    /// ([`crate::export::export_text`]).
    pub fn export(&self) -> String {
        crate::export::export_text(&self.events())
    }
}

/// An open span; records a `Close` event when dropped. Disabled-tracer
/// spans are inert, and so is [`Span::default`]: the span a caller with no
/// tracer in reach hands to code that takes one.
#[derive(Debug, Default)]
pub struct Span {
    inner: Option<Arc<Mutex<TraceState>>>,
    id: u64,
    name: &'static str,
    parent: u64,
}

impl Span {
    /// The span's id (0 when the tracer is disabled).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Opens a child span.
    #[inline]
    pub fn child(&self, name: &'static str, fields: &[(&'static str, u64)]) -> Span {
        match &self.inner {
            None => Span::default(),
            Some(inner) => {
                let id = Tracer::record(inner, EventKind::Open, 0, self.id, name, fields);
                Span { inner: Some(Arc::clone(inner)), id, name, parent: self.id }
            }
        }
    }

    /// Records an instant event inside this span.
    #[inline]
    pub fn event(&self, name: &'static str, fields: &[(&'static str, u64)]) {
        if let Some(inner) = &self.inner {
            Tracer::record(inner, EventKind::Instant, self.id, self.id, name, fields);
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = &self.inner {
            Tracer::record(inner, EventKind::Close, self.id, self.parent, self.name, &[]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        let span = tracer.span("a", &[("x", 1)]);
        span.event("b", &[]);
        let child = span.child("c", &[]);
        drop(child);
        drop(span);
        tracer.event("d", &[]);
        assert!(!tracer.is_enabled());
        assert!(tracer.is_empty());
        assert!(tracer.export().lines().count() <= 1);
    }

    #[test]
    fn spans_nest_and_close_in_order() {
        let tracer = Tracer::new();
        let root = tracer.span("round", &[("n", 2)]);
        let child = root.child("phase", &[]);
        child.event("tick", &[("i", 7)]);
        drop(child);
        drop(root);
        let events = tracer.events();
        assert_eq!(events.len(), 5);
        assert_eq!(events[0].kind, EventKind::Open);
        assert_eq!(events[0].span, 1);
        assert_eq!(events[1].parent, 1);
        assert_eq!(events[1].span, 2);
        assert_eq!(
            events[2],
            TraceEvent {
                at_us: events[2].at_us,
                kind: EventKind::Instant,
                span: 2,
                parent: 2,
                name: "tick",
                fields: vec![("i", 7)],
            }
        );
        assert_eq!(events[3].kind, EventKind::Close);
        assert_eq!(events[3].span, 2);
        assert_eq!(events[4].kind, EventKind::Close);
        assert_eq!(events[4].span, 1);
    }

    #[test]
    fn virtual_binding_stamps_from_the_shared_cell() {
        let tracer = Tracer::new();
        let cell = Arc::new(AtomicU64::new(0));
        tracer.bind_virtual(Arc::clone(&cell));
        tracer.event("a", &[]);
        cell.store(1500, Ordering::Relaxed);
        tracer.event("b", &[]);
        let events = tracer.events();
        assert_eq!(events[0].at_us, 0);
        assert_eq!(events[1].at_us, 1500);
        tracer.clear();
        assert!(tracer.is_empty());
        assert_eq!(tracer.span("s", &[]).id(), 1);
    }
}
