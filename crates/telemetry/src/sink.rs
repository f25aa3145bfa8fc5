//! The cheap instrumentation handle held by instrumented components.

use std::sync::Arc;
use std::time::Instant;

use crate::histogram::Histogram;
use crate::registry::Inner;

/// A cloneable handle through which instrumented code records metrics.
///
/// A sink is either *enabled* (cloned from a
/// [`Registry`](crate::Registry) via
/// [`Registry::sink`](crate::Registry::sink)) or *disabled* (the default).
/// Every operation on a disabled sink is a single `Option` test and an
/// immediate return — no atomics, no locks, no allocation — so
/// instrumentation can stay compiled into hot paths unconditionally.
#[derive(Debug, Clone, Default)]
pub struct TelemetrySink {
    inner: Option<Arc<Inner>>,
}

impl TelemetrySink {
    pub(crate) fn from_inner(inner: Arc<Inner>) -> TelemetrySink {
        TelemetrySink { inner: Some(inner) }
    }

    /// A sink that records nothing. Equivalent to `TelemetrySink::default()`.
    pub fn disabled() -> TelemetrySink {
        TelemetrySink { inner: None }
    }

    /// Whether this sink records into a registry.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds one to the named counter.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Adds `n` to the named counter.
    pub fn add(&self, name: &str, n: u64) {
        if let Some(inner) = &self.inner {
            inner.counter(name).add(n);
        }
    }

    /// Records `value` into the named histogram.
    pub fn observe(&self, name: &str, value: u64) {
        if let Some(inner) = &self.inner {
            inner.histogram(name).observe(value);
        }
    }

    /// Records a structured event. `detail` is only evaluated when the
    /// sink is enabled, so callers can format lazily.
    pub fn event(&self, kind: &str, detail: impl FnOnce() -> String) {
        if let Some(inner) = &self.inner {
            inner.events().push(kind, detail());
        }
    }

    /// Starts a timer that records its elapsed nanoseconds into the named
    /// histogram when the returned [`Span`] is dropped. On a disabled sink
    /// the span is inert.
    pub fn span(&self, name: &str) -> Span {
        Span {
            target: self
                .inner
                .as_ref()
                .map(|inner| (inner.histogram(name), Instant::now())),
        }
    }
}

/// A guard returned by [`TelemetrySink::span`]; records the elapsed time
/// since creation into its histogram when dropped.
#[derive(Debug)]
pub struct Span {
    target: Option<(Arc<Histogram>, Instant)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((histogram, started)) = self.target.take() {
            histogram.observe(started.elapsed().as_nanos() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    impl Span {
        /// Drops the span without recording anything.
        fn cancel(mut self) {
            self.target = None;
        }
    }

    #[test]
    fn disabled_sink_records_nothing_and_skips_detail() {
        let sink = TelemetrySink::disabled();
        assert!(!sink.is_enabled());
        sink.incr("x");
        sink.observe("y", 1);
        sink.event("z", || panic!("detail must not be evaluated"));
        drop(sink.span("w"));
    }

    #[test]
    fn span_records_on_drop() {
        let registry = Registry::new();
        let sink = registry.sink();
        {
            let _span = sink.span("work_ns");
        }
        assert_eq!(registry.snapshot().histogram("work_ns").unwrap().count, 1);
    }

    #[test]
    fn cancelled_span_records_nothing() {
        let registry = Registry::new();
        let sink = registry.sink();
        sink.span("work_ns").cancel();
        assert!(
            registry.snapshot().histogram("work_ns").is_none() || {
                registry.snapshot().histogram("work_ns").unwrap().count == 0
            }
        );
    }

    #[test]
    fn clones_share_the_registry() {
        let registry = Registry::new();
        let sink = registry.sink();
        let clone = sink.clone();
        sink.incr("n");
        clone.incr("n");
        assert_eq!(registry.snapshot().counter("n"), Some(2));
    }
}
