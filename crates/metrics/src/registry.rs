//! Live metrics registry: named counters, gauges, and histograms with
//! snapshot + delta semantics.
//!
//! The span system answers "what happened during this operation"; the
//! registry answers "what is the store doing *right now*". The engine
//! registers named metrics once and then updates them through lock-free
//! handles ([`Counter`], [`Gauge`]) — an update is one atomic store, so
//! hot paths pay nothing for observability beyond that. Periodically
//! (the exporter's tick, a `stats()` call, a test) the registry is asked
//! for a [`RegistrySnapshot`]: a point-in-time reading of every metric
//! plus its **delta since the previous snapshot**, which turns free
//! monotonic counters into per-interval rates without the registry ever
//! storing history.
//!
//! Metric names follow the Prometheus convention (`artsparse_wal_bytes`,
//! snake case, unit-suffixed) because snapshots are rendered verbatim
//! into exposition text by [`crate::exposition`].

use crate::histogram::Histogram;
use parking_lot::Mutex;
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What kind of metric a registry entry is (Prometheus `# TYPE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically non-decreasing count.
    Counter,
    /// Point-in-time value that can move both ways.
    Gauge,
    /// Log₂-bucket distribution ([`Histogram`]).
    Histogram,
}

impl MetricKind {
    /// The Prometheus type name (`counter`, `gauge`, `histogram`).
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Lock-free handle to a registered counter. Cloning shares the cell.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add to the counter.
    #[inline]
    pub fn add(&self, v: u64) {
        if v != 0 {
            self.0.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Ratchet the counter up to an externally-tracked running total
    /// (no-op when `total` is not ahead; counters never move backwards).
    #[inline]
    pub fn record_total(&self, total: u64) {
        self.0.fetch_max(total, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Lock-free handle to a registered gauge (an `f64` stored as bits).
/// Cloning shares the cell.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

struct Entry {
    help: String,
    kind: MetricKind,
    cell: Arc<AtomicU64>,
    histogram: Option<Histogram>,
}

impl Entry {
    fn value(&self) -> f64 {
        match self.kind {
            MetricKind::Counter => self.cell.load(Ordering::Relaxed) as f64,
            MetricKind::Gauge => f64::from_bits(self.cell.load(Ordering::Relaxed)),
            MetricKind::Histogram => self
                .histogram
                .as_ref()
                .map(|h| h.count() as f64)
                .unwrap_or(0.0),
        }
    }
}

#[derive(Default)]
struct RegInner {
    entries: BTreeMap<String, Entry>,
    /// Per-metric value at the previous snapshot (the delta baseline).
    last: BTreeMap<String, f64>,
    /// Snapshots taken so far; stamped into each snapshot as `seq`.
    snapshots: u64,
}

/// The live metrics registry. See the module docs.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegInner>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("MetricsRegistry")
            .field("metrics", &inner.entries.len())
            .field("snapshots", &inner.snapshots)
            .finish()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Register (or re-fetch) a counter. Registering the same name twice
    /// returns a handle to the same cell; the first registration's help
    /// text wins. Registering a name that exists with a different kind
    /// panics — that is a naming bug, not a runtime condition.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        Counter(self.cell(name, help, MetricKind::Counter))
    }

    /// Register (or re-fetch) a gauge. Same sharing rules as
    /// [`MetricsRegistry::counter`].
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        Gauge(self.cell(name, help, MetricKind::Gauge))
    }

    fn cell(&self, name: &str, help: &str, kind: MetricKind) -> Arc<AtomicU64> {
        let mut inner = self.inner.lock();
        let entry = inner.entries.entry(name.to_string()).or_insert_with(|| {
            let init = match kind {
                MetricKind::Gauge => 0f64.to_bits(),
                _ => 0,
            };
            Entry {
                help: help.to_string(),
                kind,
                cell: Arc::new(AtomicU64::new(init)),
                histogram: None,
            }
        });
        assert_eq!(
            entry.kind,
            kind,
            "metric {name:?} registered as {} and {}",
            entry.kind.name(),
            kind.name()
        );
        Arc::clone(&entry.cell)
    }

    /// Publish (replace) a histogram metric. Histograms are sampled
    /// whole — the engine rebuilds e.g. the fragment size-tier histogram
    /// from the catalog on each observation — so there is no incremental
    /// handle; the latest published distribution is what snapshots see.
    pub fn set_histogram(&self, name: &str, help: &str, h: Histogram) {
        let mut inner = self.inner.lock();
        let entry = inner
            .entries
            .entry(name.to_string())
            .or_insert_with(|| Entry {
                help: help.to_string(),
                kind: MetricKind::Histogram,
                cell: Arc::new(AtomicU64::new(0)),
                histogram: None,
            });
        assert_eq!(
            entry.kind,
            MetricKind::Histogram,
            "metric {name:?} registered as {} and histogram",
            entry.kind.name()
        );
        entry.histogram = Some(h);
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// Whether no metrics are registered.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().entries.is_empty()
    }

    /// Read every metric and compute its delta since the previous
    /// snapshot, then advance the delta baseline. The first snapshot's
    /// deltas equal the values (baseline zero).
    pub fn snapshot(&self) -> RegistrySnapshot {
        let mut inner = self.inner.lock();
        inner.snapshots += 1;
        let seq = inner.snapshots;
        let mut samples = Vec::with_capacity(inner.entries.len());
        let mut next_last = BTreeMap::new();
        for (name, entry) in &inner.entries {
            let value = entry.value();
            let prev = inner.last.get(name).copied().unwrap_or(0.0);
            samples.push(MetricSample {
                name: name.clone(),
                help: entry.help.clone(),
                kind: entry.kind,
                value,
                delta: value - prev,
                histogram: entry.histogram.clone(),
            });
            next_last.insert(name.clone(), value);
        }
        inner.last = next_last;
        RegistrySnapshot {
            seq,
            at_ns: crate::span::now_ns(),
            samples,
        }
    }
}

/// One metric reading inside a [`RegistrySnapshot`].
#[derive(Debug, Clone)]
pub struct MetricSample {
    /// Metric name (Prometheus conventions, `artsparse_` prefix).
    pub name: String,
    /// One-line human description (`# HELP`).
    pub help: String,
    /// Counter, gauge, or histogram.
    pub kind: MetricKind,
    /// Current value (histograms report their sample count).
    pub value: f64,
    /// Change since the previous snapshot (equals `value` on the first).
    pub delta: f64,
    /// The full distribution, for histogram metrics.
    pub histogram: Option<Histogram>,
}

/// A point-in-time reading of the whole registry.
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    /// 1-based snapshot sequence number.
    pub seq: u64,
    /// When the snapshot was taken (ns since the process telemetry
    /// epoch, same clock as span records).
    pub at_ns: u64,
    /// Every registered metric, in name order.
    pub samples: Vec<MetricSample>,
}

impl RegistrySnapshot {
    /// The sample for `name`, if registered.
    pub fn sample(&self, name: &str) -> Option<&MetricSample> {
        self.samples.iter().find(|s| s.name == name)
    }
}

fn f64_value(v: f64) -> Value {
    // Integral readings (the common case: counters, byte gauges) export
    // as JSON integers; only genuinely fractional values need a float.
    if v.fract() == 0.0 && v.abs() < (1u64 << 53) as f64 && v >= 0.0 {
        Value::U64(v as u64)
    } else {
        Value::F64(v)
    }
}

impl Serialize for MetricSample {
    fn to_json_value(&self) -> Value {
        let mut m = serde::Map::new();
        m.insert("name".to_string(), Value::String(self.name.clone()));
        m.insert("help".to_string(), Value::String(self.help.clone()));
        m.insert(
            "kind".to_string(),
            Value::String(self.kind.name().to_string()),
        );
        m.insert("value".to_string(), f64_value(self.value));
        m.insert("delta".to_string(), f64_value(self.delta));
        if let Some(h) = &self.histogram {
            m.insert("histogram".to_string(), h.to_json_value());
        }
        Value::Object(m)
    }
}

impl Serialize for RegistrySnapshot {
    /// The registry-snapshot JSONL document (one line per exporter tick;
    /// telemetry schema v6).
    fn to_json_value(&self) -> Value {
        let mut m = serde::Map::new();
        m.insert("seq".to_string(), Value::U64(self.seq));
        m.insert("at_ns".to_string(), Value::U64(self.at_ns));
        m.insert(
            "samples".to_string(),
            Value::Array(self.samples.iter().map(|s| s.to_json_value()).collect()),
        );
        Value::Object(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_share_cells_by_name() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("artsparse_ops_total", "Ops.");
        let b = reg.counter("artsparse_ops_total", "ignored");
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        assert_eq!(reg.len(), 1);
        let g = reg.gauge("artsparse_depth", "Queue depth.");
        g.set(2.5);
        assert_eq!(reg.gauge("artsparse_depth", "x").get(), 2.5);
    }

    #[test]
    #[should_panic(expected = "registered as")]
    fn kind_conflicts_panic() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("artsparse_x", "a counter");
        let _ = reg.gauge("artsparse_x", "now a gauge?");
    }

    #[test]
    fn record_total_ratchets_monotonically() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("artsparse_runs_total", "Runs.");
        c.record_total(10);
        c.record_total(7); // stale reading: ignored
        assert_eq!(c.get(), 10);
        c.record_total(12);
        assert_eq!(c.get(), 12);
    }

    #[test]
    fn snapshots_report_deltas_since_previous() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("artsparse_bytes_total", "Bytes.");
        let g = reg.gauge("artsparse_buffered_bytes", "Buffered.");
        c.add(100);
        g.set(40.0);
        let s1 = reg.snapshot();
        assert_eq!(s1.seq, 1);
        let b = s1.sample("artsparse_bytes_total").unwrap();
        assert_eq!((b.value, b.delta), (100.0, 100.0));
        c.add(50);
        g.set(10.0);
        let s2 = reg.snapshot();
        assert_eq!(s2.seq, 2);
        let b = s2.sample("artsparse_bytes_total").unwrap();
        assert_eq!((b.value, b.delta), (150.0, 50.0));
        let b = s2.sample("artsparse_buffered_bytes").unwrap();
        assert_eq!((b.value, b.delta), (10.0, -30.0));
        // Unchanged between snapshots → delta 0.
        let s3 = reg.snapshot();
        assert_eq!(s3.sample("artsparse_bytes_total").unwrap().delta, 0.0);
    }

    #[test]
    fn histograms_are_published_whole() {
        let reg = MetricsRegistry::new();
        let mut h = Histogram::new();
        h.record(10);
        h.record(1000);
        reg.set_histogram("artsparse_fragment_bytes", "Fragment sizes.", h.clone());
        let snap = reg.snapshot();
        let s = snap.sample("artsparse_fragment_bytes").unwrap();
        assert_eq!(s.kind, MetricKind::Histogram);
        assert_eq!(s.value, 2.0);
        assert_eq!(s.histogram.as_ref().unwrap(), &h);
        // Replacement, not accumulation.
        reg.set_histogram("artsparse_fragment_bytes", "x", Histogram::new());
        let snap = reg.snapshot();
        let s = snap.sample("artsparse_fragment_bytes").unwrap();
        assert_eq!(s.value, 0.0);
        assert_eq!(s.delta, -2.0);
    }

    #[test]
    fn snapshot_serializes_to_the_v6_document() {
        let reg = MetricsRegistry::new();
        reg.counter("artsparse_ops_total", "Ops.").add(7);
        reg.gauge("artsparse_read_amplification", "Amp.").set(1.5);
        let v = reg.snapshot().to_json_value();
        assert_eq!(v["seq"].as_u64(), Some(1));
        assert!(v["at_ns"].as_u64().is_some());
        let samples = v["samples"].as_array().unwrap();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0]["name"].as_str(), Some("artsparse_ops_total"));
        assert_eq!(samples[0]["kind"].as_str(), Some("counter"));
        assert_eq!(samples[0]["value"].as_u64(), Some(7));
        assert_eq!(
            samples[1]["name"].as_str(),
            Some("artsparse_read_amplification")
        );
        assert_eq!(samples[1]["value"].as_f64(), Some(1.5));
    }
}
