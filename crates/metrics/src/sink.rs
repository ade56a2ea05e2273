//! The span sink: where finished spans and timed backend operations go.
//!
//! [`SpanSink`] is the one destination of span traffic. It has two
//! optional parts, switched on independently:
//!
//! * the **aggregating part** folds every finished span into per-kind
//!   aggregates (count, latency histogram, I/O totals), keeps
//!   per-backend-operation latency histograms, and retains the most
//!   recent spans verbatim in a bounded ring buffer for event-level
//!   inspection; [`SpanSink::report`] snapshots it;
//! * the **plane** is an [`ObservabilityPlane`]: it folds each span's I/O
//!   into live registry counters and journals derived events.
//!
//! Holders keep the sink as an `Option<Arc<SpanSink>>` that is `None`
//! when both parts are off. [`Span::enter`](crate::Span::enter) then
//! returns an inert guard and [`charge`](crate::charge) finds an empty
//! stack, so instrumented code stays on a single predictable branch.

use crate::export::TelemetryReport;
use crate::histogram::Histogram;
use crate::plane::ObservabilityPlane;
use crate::span::{IoStats, SpanKind, SpanRecord};
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};

/// Default number of raw span events the aggregating part retains.
pub const DEFAULT_EVENT_CAPACITY: usize = 4096;

/// Per-span-kind aggregate.
#[derive(Debug, Clone, Default)]
pub(crate) struct KindAgg {
    pub count: u64,
    pub total_ns: u64,
    pub latency: Histogram,
    pub io: IoStats,
}

/// Per-(backend, operation) aggregate.
#[derive(Debug, Clone, Default)]
pub(crate) struct OpAgg {
    pub count: u64,
    pub total_ns: u64,
    pub bytes: u64,
    pub latency: Histogram,
}

#[derive(Debug, Default)]
pub(crate) struct Inner {
    pub spans: BTreeMap<SpanKind, KindAgg>,
    pub backend_ops: BTreeMap<(&'static str, &'static str), OpAgg>,
    pub events: VecDeque<SpanRecord>,
    pub events_dropped: u64,
}

/// The aggregating part. One mutex guards the aggregates; spans finish
/// at operation granularity (not per byte or per record), so contention
/// stays negligible next to the I/O being measured.
#[derive(Debug)]
struct Aggregate {
    inner: Mutex<Inner>,
    event_capacity: usize,
}

/// The span sink. See the module docs.
#[derive(Debug)]
pub struct SpanSink {
    aggregate: Option<Aggregate>,
    plane: Option<ObservabilityPlane>,
}

impl SpanSink {
    /// A sink whose aggregating part is on when `aggregate` is `Some`
    /// (holding the raw-event ring capacity; 0 keeps aggregates only)
    /// and whose plane is `plane`.
    pub fn new(aggregate: Option<usize>, plane: Option<ObservabilityPlane>) -> SpanSink {
        SpanSink {
            aggregate: aggregate.map(|event_capacity| Aggregate {
                inner: Mutex::new(Inner::default()),
                event_capacity,
            }),
            plane,
        }
    }

    /// An aggregated report of everything recorded so far, when the
    /// aggregating part is on.
    pub fn report(&self) -> Option<TelemetryReport> {
        let agg = self.aggregate.as_ref()?;
        Some(TelemetryReport::from_inner(&agg.inner.lock()))
    }

    /// The observability plane, when that part is on.
    pub fn plane(&self) -> Option<&ObservabilityPlane> {
        self.plane.as_ref()
    }

    /// Accept one finished span.
    pub fn record_span(&self, record: &SpanRecord) {
        if let Some(agg) = &self.aggregate {
            let mut inner = agg.inner.lock();
            let kind = inner.spans.entry(record.kind).or_default();
            kind.count = kind.count.saturating_add(1);
            kind.total_ns = kind.total_ns.saturating_add(record.dur_ns);
            kind.latency.record(record.dur_ns);
            kind.io.merge(&record.io);
            if agg.event_capacity > 0 {
                if inner.events.len() >= agg.event_capacity {
                    inner.events.pop_front();
                    inner.events_dropped = inner.events_dropped.saturating_add(1);
                }
                inner.events.push_back(record.clone());
            }
        }
        if let Some(plane) = &self.plane {
            plane.observe_span(record);
        }
    }

    /// Accept one timed backend operation (`backend` is the backend kind
    /// name — `fs`, `mem`, `sim`, `striped` — and `op` the method name).
    /// Only the aggregating part keeps these.
    pub fn record_backend_op(
        &self,
        backend: &'static str,
        op: &'static str,
        dur_ns: u64,
        bytes: u64,
    ) {
        let Some(agg) = &self.aggregate else { return };
        let mut inner = agg.inner.lock();
        let op = inner.backend_ops.entry((backend, op)).or_default();
        op.count = op.count.saturating_add(1);
        op.total_ns = op.total_ns.saturating_add(dur_ns);
        op.bytes = op.bytes.saturating_add(bytes);
        op.latency.record(dur_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{charge, Span};
    use std::sync::Arc;

    fn aggregating(capacity: usize) -> Arc<SpanSink> {
        Arc::new(SpanSink::new(Some(capacity), None))
    }

    #[test]
    fn a_sink_without_aggregation_has_no_report() {
        let plane_only = SpanSink::new(None, Some(ObservabilityPlane::new(8, 0)));
        plane_only.record_backend_op("sim", "get_range", 1_000, 64);
        assert!(plane_only.report().is_none());
        assert!(plane_only.plane().is_some());
    }

    #[test]
    fn aggregates_fold_spans_by_kind() {
        let t = aggregating(DEFAULT_EVENT_CAPACITY);
        for _ in 0..3 {
            let _s = Span::enter(Some(&t), SpanKind::ReadFetch);
            charge(|io| {
                io.requests += 1;
                io.bytes_fetched += 100;
            });
        }
        let report = t.report().unwrap();
        let fetch = report.span(SpanKind::ReadFetch).unwrap();
        assert_eq!(fetch.count, 3);
        assert_eq!(fetch.io.requests, 3);
        assert_eq!(fetch.io.bytes_fetched, 300);
        assert_eq!(fetch.latency.count(), 3);
        assert_eq!(report.events.len(), 3);
    }

    #[test]
    fn backend_ops_fold_by_backend_and_op() {
        let t = aggregating(DEFAULT_EVENT_CAPACITY);
        t.record_backend_op("sim", "get_range", 1_000, 64);
        t.record_backend_op("sim", "get_range", 3_000, 128);
        t.record_backend_op("fs", "put", 500, 32);
        let report = t.report().unwrap();
        let sim = report.backend_op("sim", "get_range").unwrap();
        assert_eq!(sim.count, 2);
        assert_eq!(sim.bytes, 192);
        assert_eq!(sim.total_ns, 4_000);
        assert_eq!(report.backend_op("fs", "put").unwrap().count, 1);
        assert!(report.backend_op("fs", "get_range").is_none());
    }

    #[test]
    fn event_ring_is_bounded_and_counts_drops() {
        let t = aggregating(2);
        for _ in 0..5 {
            let _s = Span::enter(Some(&t), SpanKind::Write);
        }
        let report = t.report().unwrap();
        assert_eq!(report.events.len(), 2);
        assert_eq!(report.events_dropped, 3);
        // Aggregates still saw every span.
        assert_eq!(report.span(SpanKind::Write).unwrap().count, 5);
    }
}
