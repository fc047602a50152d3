//! Lightweight spans and events.
//!
//! A [`SpanRecord`] is a completed, timed region of work with string
//! attributes; an [`Event`] is a point-in-time observation. Both are
//! delivered to a [`Subscriber`] — the runtime holds an optional `Arc<dyn
//! Subscriber>` and, when one is attached, calls into it from the request
//! hot path, so implementations must be cheap and `Send + Sync`.
//!
//! There is deliberately no thread-local "current span" machinery: TTLG's
//! request lifecycle is short and fully owned by one worker, so the
//! service constructs the span explicitly and reports it once, finished.

use std::sync::OnceLock;
use std::time::Instant;

/// Attribute value attached to a span or event.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned counter-like values.
    U64(u64),
    /// Signed values (residuals).
    I64(i64),
    /// Continuous values (times, rates).
    F64(f64),
    /// Labels.
    Str(String),
    /// Flags.
    Bool(bool),
}

impl std::fmt::Display for AttrValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrValue::U64(v) => write!(f, "{v}"),
            AttrValue::I64(v) => write!(f, "{v}"),
            AttrValue::F64(v) => write!(f, "{v}"),
            AttrValue::Str(v) => write!(f, "{v}"),
            AttrValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// A completed, timed region of work.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Static name, e.g. `"request"`, `"plan-fetch"`, `"execute"`.
    pub name: &'static str,
    /// Process-relative start time, ns (see [`clock_ns`]).
    pub start_ns: u64,
    /// Duration, ns.
    pub duration_ns: u64,
    /// Attributes (schema, cache outcome, counters, ...).
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl SpanRecord {
    /// Look up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// A point-in-time observation.
#[derive(Debug, Clone)]
pub struct Event {
    /// Static name, e.g. `"plan-failure"`.
    pub name: &'static str,
    /// Process-relative timestamp, ns.
    pub at_ns: u64,
    /// Attributes.
    pub attrs: Vec<(&'static str, AttrValue)>,
}

/// Receiver for spans and events. Implementations must be cheap: they run
/// on the request hot path.
pub trait Subscriber: Send + Sync {
    /// A span finished.
    fn on_span(&self, span: &SpanRecord);
    /// An event occurred.
    fn on_event(&self, event: &Event);
}

/// Collects everything under a mutex — for tests and ad-hoc debugging,
/// not production traffic.
#[derive(Debug, Default)]
pub struct CollectingSubscriber {
    spans: std::sync::Mutex<Vec<SpanRecord>>,
    events: std::sync::Mutex<Vec<Event>>,
}

impl CollectingSubscriber {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copy of every span seen so far.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("collector poisoned").clone()
    }

    /// Copy of every event seen so far.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("collector poisoned").clone()
    }
}

impl Subscriber for CollectingSubscriber {
    fn on_span(&self, span: &SpanRecord) {
        self.spans
            .lock()
            .expect("collector poisoned")
            .push(span.clone());
    }
    fn on_event(&self, event: &Event) {
        self.events
            .lock()
            .expect("collector poisoned")
            .push(event.clone());
    }
}

/// Monotonic nanoseconds since the first call in this process. Anchoring
/// to a process-local epoch keeps timestamps small, strictly comparable,
/// and independent of wall-clock adjustments.
pub fn clock_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let a = clock_ns();
        let b = clock_ns();
        assert!(b >= a);
    }

    #[test]
    fn collector_records_spans_and_events() {
        let c = CollectingSubscriber::new();
        c.on_span(&SpanRecord {
            name: "request",
            start_ns: 1,
            duration_ns: 10,
            attrs: vec![("schema", AttrValue::Str("Copy".into()))],
        });
        c.on_event(&Event {
            name: "plan-failure",
            at_ns: 5,
            attrs: vec![("reason", AttrValue::Str("rank mismatch".into()))],
        });
        let spans = c.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(
            spans[0].attr("schema"),
            Some(&AttrValue::Str("Copy".into()))
        );
        assert!(spans[0].attr("missing").is_none());
        assert_eq!(c.events().len(), 1);
    }

    #[test]
    fn attr_value_displays() {
        assert_eq!(AttrValue::U64(3).to_string(), "3");
        assert_eq!(AttrValue::I64(-3).to_string(), "-3");
        assert_eq!(AttrValue::Bool(true).to_string(), "true");
        assert_eq!(AttrValue::Str("hi".into()).to_string(), "hi");
    }
}
