//! The fragment storage engine — Algorithm 3's WRITE and READ.
//!
//! WRITE packages a coordinate buffer with the configured organization,
//! reorganizes the value payload by the build's `map`, concatenates
//! `index ∥ values` into a fragment, and writes it to the backend —
//! accumulating the Build / Reorg. / Write / Others phase breakdown of
//! Table III as it goes.
//!
//! READ runs a layered pipeline:
//!
//! 1. **catalog** — fragment metadata lives in the in-engine
//!    [`FragmentCatalog`], built once at open and maintained by
//!    write/consolidate/delete, so discovery costs no device traffic;
//! 2. **plan** — bounding-box pruning against the query box is a pure
//!    in-memory step ([`FragmentCatalog::plan`]);
//! 3. **fetch** — each planned fragment's index section is range-fetched
//!    first; only the value records its matched slots need follow
//!    (whole sections when compressed, coalesced record runs otherwise);
//! 4. **decode** — sections are decompressed and handed to the
//!    organization-specific read; decoded fragments can be kept resident
//!    in a bytes-bounded LRU ([`FragmentCache`]) for repeat reads;
//! 5. **merge** — per-fragment hits are gathered (in parallel across
//!    fragments) and merged sorted by linear address (Algorithm 3
//!    line 12), ties broken by fragment write order.
//!
//! Consolidate and export run over the same catalog/fetch/decode layers
//! through one shared fragment-scan path, so precedence rules cannot
//! drift between the three.

use crate::backend::StorageBackend;
use crate::cache::{DecodedFragment, FragmentCache};
use crate::catalog::{CatalogEntry, FragmentCatalog};
use crate::codec::Codec;
use crate::config::EngineConfig;
use crate::error::{FragmentSection, Result, StorageError};
use crate::fragment::{
    decode_fragment, decode_index_section, decode_meta, decode_value_section, encode_fragment,
    verify_section_checksum, FragmentMeta,
};
use crate::observe::{par_map_traced, RecordingBackend};
use artsparse_core::advisor::recommend_from_stats;
use artsparse_core::stats::SparsityStatsBuilder;
use artsparse_core::{convert, FormatKind};
use artsparse_metrics::{
    charge, current_trace_id, now_ns, IoStats, ObservabilityPlane, OpCounter, PhaseTimer, Severity,
    Span, SpanKind, SpanRecord, SpanSink, TelemetryReport, WriteBreakdown, WritePhase,
    DEFAULT_EVENT_CAPACITY,
};
use artsparse_tensor::par;
use artsparse_tensor::value::Element;
use artsparse_tensor::{CoordBuffer, Region, Shape};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Prefix + suffix of fragment blob names.
const FRAG_PREFIX: &str = "frag-";
const FRAG_SUFFIX: &str = ".asf";

/// Suffix of staged (not yet committed) blobs. Staged names never parse
/// as fragment names, so `list`-based discovery, catalog reloads, and
/// recovery all treat them as invisible until the rename-commit.
const STAGING_SUFFIX: &str = ".tmp";

/// Prefix + suffix of consolidation tombstones: a durable record of the
/// delete set, written before the consolidated fragment commits so a
/// crash mid-consolidation is replayed (sources deleted) or discarded
/// (commit never happened) at the next open/refresh.
const TOMB_PREFIX: &str = "tomb-";
const TOMB_SUFFIX: &str = ".tsn";

/// Prefix + suffix of epoch claim markers. Each engine claims a unique
/// epoch at open with a create-exclusive put, and stamps it into every
/// fragment name it writes — two engines over one directory can race but
/// can never silently overwrite each other's fragments.
const EPOCH_PREFIX: &str = "epoch-";
const EPOCH_SUFFIX: &str = ".lck";

/// How many times a read re-plans when a planned fragment vanished
/// mid-flight (deleted or consolidated away by a concurrent writer)
/// before settling for skipping the vanished fragments.
const MAX_READ_REPLANS: usize = 3;

/// Identity of a fragment, encoded in (and recovered from) its name.
///
/// Names are fixed-width decimal, so lexicographic blob-name order — the
/// catalog's iteration order and therefore the engine's cross-fragment
/// precedence — equals `(seq, epoch, cgen)` order:
///
/// * `seq` is the per-store write sequence;
/// * `epoch` is the per-engine claim, disambiguating two engines that
///   allocate the same `seq` concurrently;
/// * `cgen` is the consolidation generation: a consolidated fragment
///   keeps the *highest sequence number of its sources* (it contains no
///   newer data than that), with `cgen` breaking the tie just above
///   them. A fragment written while consolidation was running gets a
///   higher `seq` and so keeps precedence over the consolidated output —
///   the TileDB-style rule that makes consolidation safe to race.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct FragmentId {
    seq: u64,
    epoch: u64,
    cgen: u32,
}

/// When range-fetching uncompressed value records, adjacent runs whose
/// gap is at most this many bytes are fetched as one request — each
/// request pays the device's per-operation latency, so small gaps are
/// cheaper to transfer than to split around.
const RUN_COALESCE_GAP_BYTES: u64 = 256;

/// Ceiling on ranged value requests per fragment. Past this, matched
/// slots are so scattered that one whole-section fetch is cheaper than
/// paying per-request latency for every little run.
const MAX_VALUE_RUNS: usize = 16;

/// Background-scheduler health the engine tracks on behalf of
/// [`IngestScheduler`](crate::scheduler::IngestScheduler): pass and
/// error counts, when the last pass ran, and the text + wall-clock time
/// of the most recent failure — so swallowed scheduler errors surface
/// through [`StorageEngine::stats`] and the live registry instead of
/// vanishing into a bare counter.
#[derive(Default)]
struct SchedulerHealth {
    runs: AtomicU64,
    errors: AtomicU64,
    /// Telemetry-clock nanoseconds of the most recent pass (0: never).
    last_run_ns: AtomicU64,
    /// Most recent failure: error chain text + unix milliseconds.
    last_error: parking_lot::Mutex<Option<(String, u64)>>,
}

/// Write-path health of the engine, driven by consecutive write
/// failures (see [`HealthConfig`](crate::config::HealthConfig)).
///
/// The ladder is `Healthy → Degraded → ReadOnly`; any successful write
/// (including a recovery probe) climbs straight back to `Healthy`. In
/// `ReadOnly` the engine refuses new writes with a typed
/// [`ReadOnly`](crate::error::StorageError::ReadOnly) error while reads
/// and every previously acked batch keep working; recovery probes test
/// the device so the engine heals automatically once the fault clears.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum HealthState {
    /// Writes are succeeding (or none have been attempted).
    #[default]
    Healthy,
    /// Recent writes failed past their retry budget; writes are still
    /// admitted but the engine is one step from read-only.
    Degraded,
    /// Too many consecutive write failures: new writes are refused,
    /// reads and acked batches are preserved, probes drive recovery.
    ReadOnly,
}

impl HealthState {
    /// Stable lowercase name (used in journal events and dashboards).
    pub fn name(self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::ReadOnly => "read-only",
        }
    }

    /// Numeric encoding of the state for the `artsparse_health_state`
    /// gauge (0 healthy, 1 degraded, 2 read-only).
    pub fn gauge_value(self) -> u8 {
        match self {
            HealthState::Healthy => 0,
            HealthState::Degraded => 1,
            HealthState::ReadOnly => 2,
        }
    }

    fn from_u32(v: u32) -> HealthState {
        match v {
            0 => HealthState::Healthy,
            1 => HealthState::Degraded,
            _ => HealthState::ReadOnly,
        }
    }
}

impl std::fmt::Display for HealthState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Live write-path health counters: the state machine's current rung,
/// the consecutive-failure count driving it, admission hysteresis flags,
/// and how many writes were shed.
#[derive(Default)]
struct WriteHealth {
    /// Encoded [`HealthState`] (0 healthy, 1 degraded, 2 read-only).
    state: std::sync::atomic::AtomicU32,
    /// Write failures since the last successful write.
    consecutive_failures: std::sync::atomic::AtomicU32,
    /// Writes refused with `Backpressure` or `ReadOnly`.
    rejections: AtomicU64,
    /// Admission hysteresis: once the buffer cap trips, stays set until
    /// occupancy drains below the low watermark.
    shed_buffer: std::sync::atomic::AtomicBool,
    /// Same, for the WAL backlog cap.
    shed_wal: std::sync::atomic::AtomicBool,
    /// Telemetry-clock nanoseconds of the last recovery probe (0:
    /// never) — rate limits probing to `probe_interval_ms`.
    last_probe_ns: AtomicU64,
}

/// Byte accounting of live WAL blobs this engine acked: per-name sizes
/// plus their running total, mutated under one lock so admission checks
/// and charges are atomic. Blobs discovered at open are replayed (and
/// deleted) before ingest starts, so they never appear here.
#[derive(Default)]
struct WalBacklog {
    sizes: HashMap<String, u64>,
    total: u64,
}

/// What the recovery pass found and fixed, plus the epoch markers alive
/// on the store — the commit-protocol health counters
/// [`StorageEngine::stats`] reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Epoch claim markers on the store (including this engine's own
    /// claim at open).
    pub epoch_markers: u64,
    /// Consolidation tombstones whose fragment had committed: their
    /// recorded deletions were replayed.
    pub tombstones_replayed: u64,
    /// Tombstones whose fragment never committed: discarded.
    pub tombstones_discarded: u64,
    /// Orphaned staging (`.tmp`) blobs swept.
    pub orphans_swept: u64,
}

/// A sparse tensor stored as fragments on a backend.
pub struct StorageEngine<B: StorageBackend> {
    backend: RecordingBackend<B>,
    kind: FormatKind,
    shape: Shape,
    elem_size: u32,
    next_id: AtomicU64,
    /// Epoch claimed at open, stamped into every fragment this engine
    /// writes so concurrent engines over one store never collide.
    epoch: u64,
    /// Staging blobs this engine is mid-commit on. [`StorageEngine::refresh`]
    /// runs the recovery sweep, which must not reap a commit that is
    /// still in flight in this very process.
    inflight: parking_lot::Mutex<std::collections::HashSet<String>>,
    /// Serializes consolidation passes on this engine: two concurrent
    /// passes would derive the same consolidated name from the same
    /// snapshot and rename-commit over each other.
    consolidate_lock: parking_lot::Mutex<()>,
    counter: OpCounter,
    index_codec: Codec,
    value_codec: Codec,
    config: EngineConfig,
    catalog: FragmentCatalog,
    cache: FragmentCache,
    /// Span/IO sink: aggregating when `config.telemetry` is on (behind
    /// [`StorageEngine::telemetry_report`]), with the live observability
    /// plane (registry + journal, behind
    /// [`StorageEngine::observability`]) when `config.observability` is
    /// set. `None` when both are off: then no span opens and no registry
    /// or journal call happens on any engine path.
    sink: Option<Arc<SpanSink>>,
    /// What the most recent recovery pass (open or refresh) found.
    recovery: parking_lot::Mutex<RecoveryReport>,
    /// The streaming-ingest write buffer: acked batches awaiting a group
    /// commit, readable through an atomically swappable snapshot.
    buffer: crate::buffer::WriteBuffer,
    /// Serializes group commits: two concurrent flushes would encode
    /// overlapping snapshots into two fragments and double-drain the
    /// buffer.
    flush_lock: parking_lot::Mutex<()>,
    /// WAL blobs whose batches are committed but whose delete failed.
    /// Retried on later flushes; a blob that never gets deleted is safe
    /// (replay is order-preserving, see [`StorageEngine::replay_wal`]),
    /// it just wastes device bytes until retirement succeeds.
    wal_retire_queue: parking_lot::Mutex<Vec<String>>,
    /// Health of the background ingest scheduler, reported into
    /// [`StorageEngine::stats`] and the live registry.
    sched_health: SchedulerHealth,
    /// Write-path health state machine + admission-control counters.
    health: WriteHealth,
    /// Byte accounting of live WAL blobs, for the
    /// [`max_wal_backlog_bytes`](crate::config::IngestConfig) cap.
    wal_backlog: parking_lot::Mutex<WalBacklog>,
}

/// Sentinel fragment name a [`ReadHit`] carries when the hit was served
/// from the streaming-ingest write buffer rather than a committed
/// fragment. Never collides with a real name (real names start with
/// `frag-`).
pub const BUFFER_FRAGMENT: &str = "<buffer>";

/// Outcome of one WRITE call.
#[derive(Debug, Clone)]
pub struct WriteReport {
    /// Name of the fragment written.
    pub fragment: String,
    /// Phase breakdown (one Table III column).
    pub breakdown: WriteBreakdown,
    /// Bytes of encoded index.
    pub index_bytes: usize,
    /// Bytes of value payload.
    pub value_bytes: usize,
    /// Total fragment size (what Fig. 4 reports).
    pub total_bytes: usize,
    /// Points written.
    pub n_points: usize,
}

/// One matched point from a READ.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadHit {
    /// Index into the query buffer.
    pub query_index: usize,
    /// Row-major linear address (the merge key of Algorithm 3 line 12).
    pub addr: u64,
    /// The coordinate.
    pub coord: Vec<u64>,
    /// The raw value record.
    pub value: Vec<u8>,
    /// Which fragment supplied it.
    pub fragment: String,
}

/// Whether a READ saw the whole store or had to route around damage.
///
/// With `strict_reads` (the default) a read either fails or returns a
/// complete outcome, so callers that never disable strictness can ignore
/// this. With `strict_reads = false`, `complete == false` means one or
/// more overlapping fragments were quarantined (this read or earlier)
/// and their points are missing from the result — the caller chooses
/// between using the partial answer and escalating.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadOutcome {
    /// Whether every fragment the plan wanted was actually readable.
    pub complete: bool,
    /// Quarantined fragments whose bounding box overlapped the query
    /// (sorted, deduplicated) — the data the result may be missing.
    pub quarantined: Vec<String>,
}

impl Default for ReadOutcome {
    fn default() -> Self {
        ReadOutcome {
            complete: true,
            quarantined: Vec::new(),
        }
    }
}

/// Per-fragment outcome inside one read attempt.
#[derive(Debug)]
enum FragmentOutcome {
    /// The fragment was read; here are its matching points.
    Hits(Vec<ReadHit>),
    /// A concurrent delete/consolidation removed it — re-plan.
    Vanished,
    /// The fragment is damaged and was quarantined (degraded mode).
    Quarantined(String),
}

/// Whether a read failure proves the fragment itself is damaged (and so
/// quarantinable under degraded reads) rather than the engine being
/// misconfigured or the device being wholly unreachable. Checksum
/// mismatches and structural corruption are positive evidence of damage;
/// retry exhaustion means the fragment kept failing past the budget.
fn quarantines(e: &StorageError) -> bool {
    matches!(
        e,
        StorageError::ChecksumMismatch { .. }
            | StorageError::CorruptFragment { .. }
            | StorageError::RetriesExhausted { .. }
    )
}

/// Outcome of one READ call.
#[derive(Debug, Clone, Default)]
pub struct ReadResult {
    /// Hits sorted by linear address (ties: fragment write order).
    pub hits: Vec<ReadHit>,
    /// Fragments whose metadata was examined.
    pub fragments_scanned: usize,
    /// Fragments whose bounding box overlapped the query.
    pub fragments_matched: usize,
    /// Completeness of the result under degraded reads.
    pub outcome: ReadOutcome,
}

impl ReadResult {
    /// Align hits with the query buffer: one `Option<V>` per query, the
    /// most recently written fragment winning on coordinate collisions.
    ///
    /// A hit whose record length differs from `V::SIZE` is store
    /// corruption (or a type confusion — reading `f64` from a store of
    /// `u32` records) and surfaces as [`StorageError::CorruptFragment`]
    /// rather than being silently dropped.
    pub fn to_values<V: Element>(&self, n_queries: usize) -> Result<Vec<Option<V>>> {
        let mut out: Vec<Option<V>> = vec![None; n_queries];
        // Hits are sorted by (addr, fragment order); iterating in order and
        // overwriting leaves the latest fragment's value in place.
        for hit in &self.hits {
            if hit.value.len() != V::SIZE {
                return Err(StorageError::corrupt(
                    &hit.fragment,
                    format!(
                        "value record is {} bytes but the element type takes {}",
                        hit.value.len(),
                        V::SIZE
                    ),
                ));
            }
            let slot = out.get_mut(hit.query_index).ok_or_else(|| {
                StorageError::corrupt(
                    &hit.fragment,
                    format!(
                        "hit for query {} but only {n_queries} queries were made",
                        hit.query_index
                    ),
                )
            })?;
            *slot = Some(V::read_le(&hit.value));
        }
        Ok(out)
    }
}

impl<B: StorageBackend> StorageEngine<B> {
    /// Open an engine over a backend with the default pipeline
    /// configuration. Existing fragments are cataloged (one header peek
    /// each); new fragments continue the id sequence.
    pub fn open(backend: B, kind: FormatKind, shape: Shape, elem_size: u32) -> Result<Self> {
        Self::open_with(backend, kind, shape, elem_size, EngineConfig::default())
    }

    /// Open an engine with an explicit pipeline configuration.
    ///
    /// Opening first recovers the store — consolidation tombstones are
    /// replayed or discarded, orphaned staging blobs are swept — then
    /// claims a fresh epoch, so the catalog is built over a clean store
    /// and this engine's fragment names cannot collide with any other
    /// engine's, past or concurrent.
    pub fn open_with(
        backend: B,
        kind: FormatKind,
        shape: Shape,
        elem_size: u32,
        config: EngineConfig,
    ) -> Result<Self> {
        let plane = config.observability.as_ref().map(|oc| {
            ObservabilityPlane::new(oc.journal_events, oc.slow_span_ms.saturating_mul(1_000_000))
        });
        let sink = (config.telemetry || plane.is_some()).then(|| {
            let aggregate = config.telemetry.then_some(DEFAULT_EVENT_CAPACITY);
            Arc::new(SpanSink::new(aggregate, plane))
        });
        let backend = RecordingBackend::new(backend, sink.clone());

        let span = Span::enter(sink.as_ref(), SpanKind::Recover);
        let mut recovery = recover_store(&backend, None)?;
        let epoch = claim_epoch(&backend)?;
        // Count this engine's own claim among the live markers.
        recovery.epoch_markers += 1;
        let catalog = FragmentCatalog::load(&backend, shape.ndim(), |name| {
            parse_fragment_name(name).is_some()
        })?;
        drop(span);

        let mut max_seq = 0u64;
        for name in catalog.names() {
            if let Some(id) = parse_fragment_name(&name) {
                max_seq = max_seq.max(id.seq);
            }
        }
        let cache = FragmentCache::new(config.cache_capacity_bytes);
        let engine = StorageEngine {
            backend,
            kind,
            shape,
            elem_size,
            next_id: AtomicU64::new(max_seq + 1),
            epoch,
            inflight: parking_lot::Mutex::new(std::collections::HashSet::new()),
            consolidate_lock: parking_lot::Mutex::new(()),
            counter: OpCounter::new(),
            index_codec: Codec::None,
            value_codec: Codec::None,
            config,
            catalog,
            cache,
            sink,
            recovery: parking_lot::Mutex::new(recovery),
            buffer: crate::buffer::WriteBuffer::new(),
            flush_lock: parking_lot::Mutex::new(()),
            wal_retire_queue: parking_lot::Mutex::new(Vec::new()),
            sched_health: SchedulerHealth::default(),
            health: WriteHealth::default(),
            wal_backlog: parking_lot::Mutex::new(WalBacklog::default()),
        };
        // WAL blobs left behind by a crashed engine hold acked ingest
        // batches that never reached a fragment: replay them now (and
        // sweep torn ones) so the catalog alone equals everything that
        // was ever acked.
        engine.replay_wal()?;
        Ok(engine)
    }

    /// Replace the pipeline configuration (drops any cached fragments).
    pub fn with_config(mut self, config: EngineConfig) -> Self {
        self.cache = FragmentCache::new(config.cache_capacity_bytes);
        self.config = config;
        self
    }

    /// Apply compression codecs to new fragments (§II: organizations are
    /// orthogonal to compression — pick the organization first, compress
    /// second). Reads handle any codec regardless of this setting, since
    /// fragments self-describe.
    pub fn with_compression(mut self, index_codec: Codec, value_codec: Codec) -> Self {
        self.index_codec = index_codec;
        self.value_codec = value_codec;
        self
    }

    /// The organization used for new fragments.
    pub fn kind(&self) -> FormatKind {
        self.kind
    }

    /// The global tensor shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The backend (e.g. to inspect simulated-disk statistics).
    pub fn backend(&self) -> &B {
        self.backend.inner()
    }

    /// The active pipeline configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The epoch this engine claimed at open (stamped into its fragment
    /// names).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The decoded-fragment cache (e.g. to inspect hit rates).
    pub fn cache(&self) -> &FragmentCache {
        &self.cache
    }

    /// Consume the engine, recovering the backend (e.g. to reopen it under
    /// a different organization — fragments self-describe, so mixed-format
    /// stores read fine).
    pub fn into_backend(self) -> B {
        self.backend.into_inner()
    }

    /// Open a span of `kind` on this engine's sink (inert without one).
    pub(crate) fn span(&self, kind: SpanKind) -> Span {
        Span::enter(self.sink.as_ref(), kind)
    }

    /// Snapshot the aggregated telemetry (spans, histograms, I/O totals,
    /// per-backend op timings). `None` unless the engine was opened with
    /// `config.telemetry` on.
    pub fn telemetry_report(&self) -> Option<TelemetryReport> {
        self.sink.as_ref()?.report()
    }

    /// What the most recent recovery pass (open or refresh) found on the
    /// store.
    pub fn recovery_report(&self) -> RecoveryReport {
        *self.recovery.lock()
    }

    /// The live observability plane, when `config.observability` was set
    /// at open. `None` means the plane is off and nothing is collected.
    pub fn observability(&self) -> Option<&ObservabilityPlane> {
        self.sink.as_ref()?.plane()
    }

    /// Sample every live gauge into the observability registry: write
    /// buffer occupancy, WAL backlog, fragment population and size tiers,
    /// cache occupancy, quarantine count, scheduler health, and the
    /// derived read-amplification ratio. A no-op when the plane is off.
    ///
    /// The [`MetricsExporter`](crate::exporter::MetricsExporter) calls
    /// this before each snapshot; callers polling the registry directly
    /// should too — counters update live from span traffic, but gauges
    /// are point-in-time readings only this method refreshes.
    pub fn observe(&self) {
        let Some(plane) = self.observability() else {
            return;
        };
        let reg = plane.registry();

        let buf = self.buffer.stats();
        reg.gauge(
            "artsparse_write_buffer_bytes",
            "Value bytes currently buffered for group commit.",
        )
        .set(buf.value_bytes as f64);
        reg.gauge(
            "artsparse_write_buffer_points",
            "Points currently buffered for group commit.",
        )
        .set(buf.points as f64);
        reg.gauge(
            "artsparse_write_buffer_batches",
            "Acked ingest batches awaiting group commit.",
        )
        .set(buf.batches as f64);
        reg.gauge(
            "artsparse_wal_backlog_blobs",
            "Live WAL blobs: buffered batches not yet committed plus \
             retired blobs whose delete is being retried.",
        )
        .set((self.buffer.wal_backlog() + self.wal_retire_queue.lock().len()) as f64);
        reg.gauge(
            "artsparse_wal_retire_queue",
            "WAL blobs whose deletion failed and awaits retry.",
        )
        .set(self.wal_retire_queue.lock().len() as f64);

        let sizes = self.fragment_sizes();
        reg.gauge("artsparse_fragments", "Live fragments in the catalog.")
            .set(sizes.len() as f64);
        let mut tiers = artsparse_metrics::Histogram::new();
        for &size in &sizes {
            tiers.record(size);
        }
        reg.set_histogram(
            "artsparse_fragment_bytes",
            "Size distribution of live fragments (bytes, log2 buckets).",
            tiers,
        );
        reg.gauge(
            "artsparse_quarantined_fragments",
            "Fragments currently quarantined after integrity failures.",
        )
        .set(self.catalog.quarantined().len() as f64);

        reg.gauge(
            "artsparse_cache_bytes",
            "Decoded payload bytes resident in the fragment cache.",
        )
        .set(self.cache.held_bytes() as f64);
        reg.gauge(
            "artsparse_cache_capacity_bytes",
            "Configured fragment-cache capacity (0: disabled).",
        )
        .set(self.cache.capacity_bytes() as f64);
        reg.gauge(
            "artsparse_cache_fragments",
            "Decoded fragments resident in the cache.",
        )
        .set(self.cache.len() as f64);

        reg.counter(
            "artsparse_scheduler_runs_total",
            "Background scheduler passes executed.",
        )
        .record_total(self.sched_health.runs.load(Ordering::Relaxed));
        reg.counter(
            "artsparse_scheduler_errors_total",
            "Background scheduler passes that failed.",
        )
        .record_total(self.sched_health.errors.load(Ordering::Relaxed));
        let last_run = self.sched_health.last_run_ns.load(Ordering::Relaxed);
        reg.gauge(
            "artsparse_scheduler_last_run_age_seconds",
            "Seconds since the last scheduler pass (-1: never ran).",
        )
        .set(if last_run == 0 {
            -1.0
        } else {
            now_ns().saturating_sub(last_run) as f64 / 1e9
        });

        reg.gauge(
            "artsparse_health_state",
            "Write-path health state (0: healthy, 1: degraded, 2: read-only).",
        )
        .set(self.health().gauge_value() as f64);
        reg.gauge(
            "artsparse_consecutive_write_failures",
            "Consecutive write failures driving the health state machine.",
        )
        .set(self.health.consecutive_failures.load(Ordering::SeqCst) as f64);
        reg.gauge(
            "artsparse_wal_backlog_bytes",
            "Bytes of acked, unretired WAL blobs (bounded by max_wal_backlog_bytes).",
        )
        .set(self.wal_backlog.lock().total as f64);
        reg.counter(
            "artsparse_backpressure_rejections_total",
            "Writes refused with a typed Backpressure or ReadOnly rejection.",
        )
        .record_total(self.health.rejections.load(Ordering::Relaxed));

        if let Some(ratio) = plane.read_amplification() {
            reg.gauge(
                "artsparse_read_amplification",
                "Bytes fetched from the backend per value byte returned.",
            )
            .set(ratio);
        }
    }

    /// Record a completed scheduler pass (called by
    /// [`IngestScheduler`](crate::scheduler::IngestScheduler)).
    pub(crate) fn note_scheduler_run(&self) {
        self.sched_health.runs.fetch_add(1, Ordering::Relaxed);
        self.sched_health
            .last_run_ns
            .store(now_ns(), Ordering::Relaxed);
    }

    /// Record a failed scheduler pass: count it, retain the error text
    /// and wall-clock time for [`StorageEngine::stats`], and journal a
    /// `scheduler_error` event when the plane is on.
    pub(crate) fn note_scheduler_error(&self, error: &StorageError) {
        let message = error.chain_string();
        self.sched_health.errors.fetch_add(1, Ordering::Relaxed);
        let at_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        *self.sched_health.last_error.lock() = Some((message.clone(), at_ms));
        if let Some(plane) = self.observability() {
            plane.event(
                Severity::Error,
                "scheduler_error",
                message,
                current_trace_id(),
            );
        }
    }

    /// The most recent scheduler failure, as `(error chain, unix ms)`.
    pub fn scheduler_last_error(&self) -> Option<(String, u64)> {
        self.sched_health.last_error.lock().clone()
    }

    /// The write path's current [`HealthState`].
    pub fn health(&self) -> HealthState {
        HealthState::from_u32(self.health.state.load(Ordering::SeqCst))
    }

    /// Bytes of live WAL blobs this engine acked and has not yet retired
    /// (what the [`max_wal_backlog_bytes`] cap bounds).
    ///
    /// [`max_wal_backlog_bytes`]: crate::config::IngestConfig::max_wal_backlog_bytes
    pub fn wal_backlog_bytes(&self) -> u64 {
        self.wal_backlog.lock().total
    }

    /// Writes refused so far with a typed `Backpressure` or `ReadOnly`
    /// rejection (load the engine shed by design, not failures).
    pub fn write_rejections(&self) -> u64 {
        self.health.rejections.load(Ordering::Relaxed)
    }

    /// Record one successful backend write: the consecutive-failure
    /// count resets, and an engine that had walked down the health
    /// ladder climbs straight back to `Healthy` (journaling the
    /// recovery).
    fn note_write_success(&self) {
        self.health.consecutive_failures.store(0, Ordering::SeqCst);
        let prev = self.health.state.swap(0, Ordering::SeqCst);
        if prev != 0 {
            if let Some(plane) = self.observability() {
                plane.event(
                    Severity::Info,
                    "health_transition",
                    format!(
                        "write path recovered: {} -> healthy",
                        HealthState::from_u32(prev)
                    ),
                    current_trace_id(),
                );
            }
        }
    }

    /// Record one write that failed past its retry budget and walk the
    /// health ladder when the consecutive-failure count crosses a
    /// threshold (journaling every transition). Overload rejections are
    /// not failures and never come through here.
    fn note_write_failure(&self, error: &StorageError) {
        let failures = self
            .health
            .consecutive_failures
            .fetch_add(1, Ordering::SeqCst)
            .saturating_add(1);
        let hc = &self.config.health;
        let target = if failures >= hc.read_only_after.max(1) {
            HealthState::ReadOnly
        } else if failures >= hc.degrade_after.max(1) {
            HealthState::Degraded
        } else {
            HealthState::Healthy
        };
        let prev = self.health();
        if target > prev {
            self.health
                .state
                .store(target.gauge_value() as u32, Ordering::SeqCst);
            if let Some(plane) = self.observability() {
                let severity = match target {
                    HealthState::ReadOnly => Severity::Error,
                    _ => Severity::Warn,
                };
                plane.event(
                    severity,
                    "health_transition",
                    format!(
                        "write path {prev} -> {target} after {failures} consecutive \
                         write failure(s): {}",
                        error.chain_string()
                    ),
                    current_trace_id(),
                );
            }
        }
    }

    /// Test the device with one probe write when the engine is not
    /// `Healthy`, rate-limited to
    /// [`probe_interval_ms`](crate::config::HealthConfig::probe_interval_ms).
    /// A probe that lands resets the engine to `Healthy` (recovery is
    /// automatic); one that fails walks the ladder further down. The
    /// background scheduler calls this every tick; engines without a
    /// scheduler can call it directly. Returns the state after the
    /// probe.
    pub fn probe_health(&self) -> HealthState {
        let state = self.health();
        if state == HealthState::Healthy {
            return state;
        }
        let interval_ns = self
            .config
            .health
            .probe_interval_ms
            .saturating_mul(1_000_000);
        let now = now_ns();
        let last = self.health.last_probe_ns.load(Ordering::SeqCst);
        if last != 0 && now.saturating_sub(last) < interval_ns {
            return state;
        }
        self.health.last_probe_ns.store(now, Ordering::SeqCst);
        // The probe blob uses the staging suffix: invisible to fragment
        // discovery, and recovery sweeps it should this process die
        // between the put and the delete.
        let name = format!("probe-{:08}{STAGING_SUFFIX}", self.epoch);
        match self.backend.put_atomic(&name, b"artsparse write probe") {
            Ok(()) => {
                let _ = self.backend.delete(&name);
                self.note_write_success();
            }
            Err(e) => self.note_write_failure(&e),
        }
        self.health()
    }

    /// Reject callers outright while the engine is `ReadOnly`.
    fn check_writable(&self) -> Result<()> {
        if self.health() == HealthState::ReadOnly {
            self.health.rejections.fetch_add(1, Ordering::Relaxed);
            return Err(StorageError::ReadOnly {
                consecutive_failures: self.health.consecutive_failures.load(Ordering::SeqCst),
            });
        }
        Ok(())
    }

    /// The low watermark for a tripped cap: admission reopens only below
    /// this occupancy.
    fn low_watermark(&self, cap: u64) -> u64 {
        cap.saturating_mul(self.config.ingest.backpressure_resume_pct.min(100) as u64) / 100
    }

    /// Admit `incoming` value bytes against the buffer byte cap,
    /// reserving them in the buffer on success (consumed by the append,
    /// cancelled if the WAL ack fails). Applies shed hysteresis: once
    /// the cap trips, admission stays closed until occupancy drains to
    /// the low watermark.
    fn admit_buffer(&self, incoming: usize) -> Result<()> {
        let cap = self.config.ingest.max_buffered_bytes;
        if cap == 0 {
            self.buffer.try_reserve(incoming, 0);
            return Ok(());
        }
        let occupancy = self.buffer.stats().value_bytes as u64;
        if self.health.shed_buffer.load(Ordering::SeqCst) {
            if occupancy <= self.low_watermark(cap as u64) {
                self.health.shed_buffer.store(false, Ordering::SeqCst);
            } else {
                self.health.rejections.fetch_add(1, Ordering::Relaxed);
                return Err(StorageError::Backpressure {
                    resource: "buffer",
                    occupancy,
                    limit: cap as u64,
                });
            }
        }
        if !self.buffer.try_reserve(incoming, cap) {
            if !self.health.shed_buffer.swap(true, Ordering::SeqCst) {
                if let Some(plane) = self.observability() {
                    plane.event(
                        Severity::Warn,
                        "backpressure",
                        format!(
                            "ingest buffer holds {occupancy} of {cap} bytes: shedding \
                             until it drains below {}",
                            self.low_watermark(cap as u64)
                        ),
                        current_trace_id(),
                    );
                }
            }
            self.health.rejections.fetch_add(1, Ordering::Relaxed);
            return Err(StorageError::Backpressure {
                resource: "buffer",
                occupancy,
                limit: cap as u64,
            });
        }
        Ok(())
    }

    /// Admit (and atomically charge) one WAL blob of `len` bytes against
    /// the WAL backlog cap, under the same shed hysteresis as the buffer
    /// cap. The charge is reversed by [`uncharge_wal`] when the put
    /// fails, or on retirement.
    ///
    /// [`uncharge_wal`]: StorageEngine::uncharge_wal
    fn admit_wal(&self, name: &str, len: u64) -> Result<()> {
        let cap = self.config.ingest.max_wal_backlog_bytes;
        let mut backlog = self.wal_backlog.lock();
        if cap > 0 {
            if self.health.shed_wal.load(Ordering::SeqCst) {
                if backlog.total <= self.low_watermark(cap) {
                    self.health.shed_wal.store(false, Ordering::SeqCst);
                } else {
                    self.health.rejections.fetch_add(1, Ordering::Relaxed);
                    return Err(StorageError::Backpressure {
                        resource: "wal",
                        occupancy: backlog.total,
                        limit: cap,
                    });
                }
            }
            if backlog.total.saturating_add(len) > cap {
                if !self.health.shed_wal.swap(true, Ordering::SeqCst) {
                    if let Some(plane) = self.observability() {
                        plane.event(
                            Severity::Warn,
                            "backpressure",
                            format!(
                                "WAL backlog holds {} of {cap} bytes: shedding until \
                                 it drains below {}",
                                backlog.total,
                                self.low_watermark(cap)
                            ),
                            current_trace_id(),
                        );
                    }
                }
                self.health.rejections.fetch_add(1, Ordering::Relaxed);
                return Err(StorageError::Backpressure {
                    resource: "wal",
                    occupancy: backlog.total,
                    limit: cap,
                });
            }
        }
        backlog.sizes.insert(name.to_string(), len);
        backlog.total += len;
        Ok(())
    }

    /// Reverse a WAL backlog charge (the put failed, or the blob was
    /// retired). Unknown names — blobs replayed at open, which were
    /// never charged — are a no-op.
    fn uncharge_wal(&self, name: &str) {
        let mut backlog = self.wal_backlog.lock();
        if let Some(len) = backlog.sizes.remove(name) {
            backlog.total = backlog.total.saturating_sub(len);
        }
    }

    /// Operation counter shared by all builds/reads on this engine.
    pub fn counter(&self) -> &OpCounter {
        &self.counter
    }

    /// Names of all fragments, in write order (served from the catalog).
    pub fn fragments(&self) -> Result<Vec<String>> {
        Ok(self.catalog.names())
    }

    /// Total bytes stored across all fragments (Fig. 4's metric), served
    /// from the catalog without touching the device.
    pub fn total_stored_bytes(&self) -> Result<u64> {
        Ok(self.catalog.total_bytes())
    }

    /// Delete one fragment: catalog entry, any cached decode, and the
    /// device blob — in that order, so a read racing this delete that
    /// hits NotFound on the blob finds the catalog already updated and
    /// treats the fragment as vanished (skip/re-plan) instead of failing.
    pub fn delete_fragment(&self, name: &str) -> Result<()> {
        let entry = self.catalog.remove(name);
        self.cache.invalidate(name);
        match self.backend.delete(name) {
            // Tolerate a blob already gone if we did know the fragment —
            // the racing deleter finished first; the outcome stands.
            Err(e) if e.is_not_found() && entry.is_some() => Ok(()),
            other => other,
        }
    }

    /// Resynchronize the catalog with the device (after an external
    /// writer changed it) and drop the cache. Runs the same recovery as
    /// open first — an external writer may have crashed mid-commit —
    /// while sparing staging blobs of commits in flight in this engine.
    /// The id sequence advances past any newly discovered fragments.
    pub fn refresh(&self) -> Result<()> {
        let span = self.span(SpanKind::Recover);
        let keep = self.inflight.lock().clone();
        // The listing already contains this engine's own epoch marker.
        let recovery = recover_store(&self.backend, Some(&keep))?;
        *self.recovery.lock() = recovery;
        self.catalog
            .reload(&self.backend, self.shape.ndim(), |name| {
                parse_fragment_name(name).is_some()
            })?;
        drop(span);
        self.cache.clear();
        for name in self.catalog.names() {
            if let Some(id) = parse_fragment_name(&name) {
                self.next_id.fetch_max(id.seq + 1, Ordering::SeqCst);
            }
        }
        Ok(())
    }

    /// Run `f` under the configured compute [`Parallelism`], then feed the
    /// observation back into telemetry: spawned worker counts are charged
    /// to the innermost open span and each worker shard becomes one
    /// synthesized `engine.par.shard` span. Sequential runs (threads = 1,
    /// or inputs below the cutoff) observe nothing and record nothing.
    ///
    /// [`Parallelism`]: artsparse_tensor::par::Parallelism
    fn observed_parallel<R>(&self, f: impl FnOnce() -> R) -> R {
        let op_start = now_ns();
        let (out, report) = par::observed(self.config.parallelism(), f);
        if report.tasks_spawned > 0 {
            charge(|io| io.par_tasks_spawned += report.tasks_spawned);
        }
        if let Some(sink) = &self.sink {
            for shard in &report.shards {
                sink.record_span(&SpanRecord {
                    kind: SpanKind::ParShard,
                    trace_id: current_trace_id(),
                    start_ns: op_start + shard.start_offset_ns,
                    dur_ns: shard.dur_ns,
                    depth: 0,
                    io: IoStats::default(),
                });
            }
        }
        out
    }

    /// Algorithm 3 WRITE: package `coords`/`values` into a new fragment.
    ///
    /// `values` is an opaque payload of `elem_size`-byte records, one per
    /// point, in the same order as `coords`.
    ///
    /// Publication is crash-safe under the configured
    /// [`CommitMode`](crate::config::CommitMode):
    /// with the default staged mode a fragment either commits whole (one
    /// rename) or leaves only an invisible staging blob that recovery
    /// sweeps — readers, catalog reloads, and concurrent engines never
    /// observe a torn fragment.
    pub fn write(&self, coords: &CoordBuffer, values: &[u8]) -> Result<WriteReport> {
        self.check_writable()?;
        // A plain write is strictly newer than everything buffered:
        // group-commit the buffer first so its fragment takes a lower
        // sequence number and this write keeps last-write-wins
        // precedence over any buffered duplicate.
        self.flush()?;
        self.write_with(self.kind, coords, values, None, None, false)
    }

    /// WRITE, optionally on behalf of a consolidation or WAL-replay pass:
    /// `kind` is the organization to encode (the engine's configured
    /// format for plain writes; adaptive consolidation passes the advised
    /// one), `identity` is a precomputed fragment identity (consolidation
    /// derives it from the sources, replay reuses the WAL's own; `None`
    /// allocates the next id), `sources` names the fragments the new one
    /// replaces (recorded in a tombstone before commit — consolidation
    /// only), and `presorted` promises the coordinates arrive in
    /// nondecreasing linear-address order — the order the consolidation
    /// merge scan emits — so sorting builds route through
    /// [`convert::build_from_address_sorted`] and elide their sort.
    fn write_with(
        &self,
        kind: FormatKind,
        coords: &CoordBuffer,
        values: &[u8],
        identity: Option<FragmentId>,
        sources: Option<&[String]>,
        presorted: bool,
    ) -> Result<WriteReport> {
        let _span = self.span(SpanKind::Write);
        let mut timer = PhaseTimer::new();

        // -- Others: validation and metadata ---------------------------
        timer.enter(WritePhase::Others);
        coords.check_against(&self.shape)?;
        if values.len() != coords.len() * self.elem_size as usize {
            return Err(StorageError::Mismatch {
                reason: format!(
                    "{} value bytes for {} points of {} bytes each",
                    values.len(),
                    coords.len(),
                    self.elem_size
                ),
            });
        }
        let bbox = coords.bounding_box();

        let encode_span = self.span(SpanKind::WriteEncode);

        // -- Build: construct the organization -------------------------
        let built = timer.time(WritePhase::Build, || {
            self.observed_parallel(|| {
                if presorted {
                    let (built, direct) = convert::build_from_address_sorted(
                        kind,
                        coords,
                        &self.shape,
                        &self.counter,
                    )?;
                    charge(|io| {
                        if direct {
                            io.conversions_direct += 1;
                        } else {
                            io.conversions_fallback += 1;
                        }
                    });
                    Ok(built)
                } else {
                    kind.create().build(coords, &self.shape, &self.counter)
                }
            })
        })?;

        // -- Reorg: permute values by the map ---------------------------
        let values_reorg = timer.time(WritePhase::Reorg, || {
            built.reorganize_values(values, self.elem_size as usize)
        });

        // -- Others: concatenate (and optionally compress) b_frag -------
        timer.enter(WritePhase::Others);
        let frag = encode_fragment(
            kind,
            &self.shape,
            coords.len() as u64,
            self.elem_size,
            bbox.as_ref(),
            &built.index,
            &values_reorg,
            self.index_codec,
            self.value_codec,
        );
        drop(encode_span);
        let id = identity.unwrap_or_else(|| FragmentId {
            seq: self.next_id.fetch_add(1, Ordering::SeqCst),
            epoch: self.epoch,
            cgen: 0,
        });
        let name = format_fragment_name(id);
        let tombstone = sources.map(|sources| {
            let mut body = String::new();
            for src in sources {
                body.push_str(src);
                body.push('\n');
            }
            body
        });

        // -- Write: persist the fragment (line 7) -----------------------
        timer.time(WritePhase::Write, || {
            self.commit_fragment(&name, &frag, tombstone.as_deref(), sources.is_some())
        })?;

        // Catalog maintenance: decode the header we just encoded (pure
        // memory) so discovery never needs to ask the device about it.
        let meta = decode_meta(&name, &frag)?;
        self.catalog.insert(CatalogEntry {
            name: name.clone(),
            meta,
            size: frag.len() as u64,
        });

        Ok(WriteReport {
            fragment: name,
            breakdown: timer.finish(),
            index_bytes: built.index.len(),
            value_bytes: values_reorg.len(),
            total_bytes: frag.len(),
            n_points: coords.len(),
        })
    }

    /// Publish an encoded fragment under `name`.
    ///
    /// Staged mode (and every consolidation, which passes `force_staged`)
    /// runs the two-phase protocol: stage the bytes under a `.tmp` name
    /// invisible to discovery, durably record the delete set (tombstone)
    /// if consolidating, then rename-commit. The commit point is the
    /// rename — until it lands, a crash leaves only blobs that recovery
    /// reaps; after it, a crash leaves a tombstone recovery replays.
    /// Direct mode publishes with one `put_atomic` and no staging.
    fn commit_fragment(
        &self,
        name: &str,
        frag: &[u8],
        tombstone: Option<&str>,
        force_staged: bool,
    ) -> Result<()> {
        if self.config.commit_mode == crate::config::CommitMode::Direct && !force_staged {
            let _commit = self.span(SpanKind::WriteCommit);
            let outcome = self.with_write_retries(name, || self.backend.put_atomic(name, frag));
            match &outcome {
                Ok(()) => self.note_write_success(),
                Err(e) => self.note_write_failure(e),
            }
            return outcome;
        }
        let staged = staged_name(name);
        self.inflight.lock().insert(staged.clone());
        let commit = (|| -> Result<()> {
            {
                let _stage = self.span(SpanKind::WriteStage);
                self.with_write_retries(&staged, || self.backend.put(&staged, frag))?;
            }
            if let Some(body) = tombstone {
                // The delete set must be durable *before* the commit:
                // a crash right after the rename must still delete the
                // sources, or the store doubles its points.
                let _tomb = self.span(SpanKind::ConsolidateTombstone);
                let tomb = tombstone_name(name);
                self.with_write_retries(&tomb, || self.backend.put_atomic(&tomb, body.as_bytes()))?;
            }
            let _commit = self.span(if force_staged {
                SpanKind::ConsolidateCommit
            } else {
                SpanKind::WriteCommit
            });
            self.with_write_retries(name, || self.backend.rename(&staged, name))
        })();
        self.inflight.lock().remove(&staged);
        if commit.is_err() {
            // Best effort: the orphan is invisible either way, and the
            // recovery sweep will reap it if this delete also fails.
            let _ = self.backend.delete(&staged);
            if tombstone.is_some() {
                let _ = self.backend.delete(&tombstone_name(name));
            }
        }
        match &commit {
            Ok(()) => self.note_write_success(),
            Err(e) => self.note_write_failure(e),
        }
        commit
    }

    /// Typed WRITE convenience.
    pub fn write_points<V: Element>(
        &self,
        coords: &CoordBuffer,
        values: &[V],
    ) -> Result<WriteReport> {
        self.check_elem_size::<V>()?;
        self.write(coords, &artsparse_tensor::value::pack(values))
    }

    /// Reject a typed call whose element size disagrees with the record
    /// size this store holds — type confusion (`f32` against an `f64`
    /// store) fails with a typed error in every build, not just under
    /// debug assertions.
    fn check_elem_size<V: Element>(&self) -> Result<()> {
        if V::SIZE != self.elem_size as usize {
            return Err(StorageError::ElementSizeMismatch {
                expected: self.elem_size as usize,
                found: V::SIZE,
            });
        }
        Ok(())
    }

    /// Streaming ingest: append a batch of points to the in-memory write
    /// buffer, durably WAL-protected first (one `put_atomic` blob per
    /// acked batch, see [`crate::wal`]) so a crash after the ack never
    /// loses it. The batch is immediately readable — buffered points
    /// overlay fragment hits with last-write-wins precedence — and a
    /// group commit folds the buffer into one ordinary fragment when the
    /// configured thresholds trip
    /// ([`IngestConfig`](crate::config::IngestConfig)) or
    /// [`StorageEngine::flush`] is called explicitly.
    ///
    /// Returns the number of points acked. `values` is an opaque payload
    /// of `elem_size`-byte records, one per point, like
    /// [`StorageEngine::write`].
    pub fn ingest(&self, coords: &CoordBuffer, values: &[u8]) -> Result<usize> {
        let _span = self.span(SpanKind::Ingest);
        coords.check_against(&self.shape)?;
        if values.len() != coords.len() * self.elem_size as usize {
            return Err(StorageError::Mismatch {
                reason: format!(
                    "{} value bytes for {} points of {} bytes each",
                    values.len(),
                    coords.len(),
                    self.elem_size
                ),
            });
        }
        if coords.is_empty() {
            return Ok(0);
        }
        self.check_writable()?;
        let n = coords.len();
        let mut addrs = Vec::with_capacity(n);
        let mut flat = Vec::with_capacity(n * self.shape.ndim());
        for p in coords.iter() {
            addrs.push(self.shape.linearize(p)?);
            flat.extend_from_slice(p);
        }
        // Admission control: reserve the batch's value bytes against the
        // buffer cap *before* the WAL put, so two racing overweight
        // batches cannot both slip under it. The reservation converts
        // into real occupancy at the append below, or is cancelled if
        // the WAL ack fails.
        self.admit_buffer(values.len())?;
        let wal = match self.wal_append(&flat, values) {
            Ok(wal) => wal,
            Err(e) => {
                self.buffer.cancel_reservation(values.len());
                return Err(e);
            }
        };
        self.buffer.append(addrs, flat, values.to_vec(), wal);
        let stats = self.buffer.stats();
        if stats.points >= self.config.ingest.flush_points
            || stats.value_bytes >= self.config.ingest.flush_bytes
        {
            self.flush()?;
        }
        Ok(n)
    }

    /// Durably ack one ingest batch: encode the WAL record, admit it
    /// against the backlog cap, and land it with write retries. Returns
    /// the blob name (`None` when the WAL is disabled).
    fn wal_append(&self, flat: &[u64], values: &[u8]) -> Result<Option<String>> {
        if !self.config.ingest.wal {
            return Ok(None);
        }
        let _wal_span = self.span(SpanKind::IngestWal);
        let blob =
            crate::wal::encode_record(self.shape.ndim(), self.elem_size as usize, flat, values)?;
        // The WAL draws from the same id sequence as fragments, so
        // the name fixes the batch's place in the store's total
        // (seq, epoch, cgen) precedence order at ack time. Replay
        // commits the batch as a fragment under that very identity,
        // which is what keeps replay safe no matter who performs it
        // or when (see [`StorageEngine::replay_wal`]).
        let name = crate::wal::wal_name(self.next_id.fetch_add(1, Ordering::SeqCst), self.epoch);
        self.admit_wal(&name, blob.len() as u64)?;
        // The ack point: the batch is durable once this atomic put
        // lands (re-attempted through the write retry policy for
        // transient device faults). A put that dies mid-write persists
        // nothing (or a torn prefix the CRC framing rejects at replay),
        // and the error propagates before anything reaches the buffer.
        match self.with_write_retries(&name, || self.backend.put_atomic(&name, &blob)) {
            Ok(()) => {
                self.note_write_success();
                charge(|io| io.wal_bytes += blob.len() as u64);
                Ok(Some(name))
            }
            Err(e) => {
                self.uncharge_wal(&name);
                self.note_write_failure(&e);
                Err(e)
            }
        }
    }

    /// Typed streaming-ingest convenience.
    pub fn ingest_points<V: Element>(&self, coords: &CoordBuffer, values: &[V]) -> Result<usize> {
        self.check_elem_size::<V>()?;
        self.ingest(coords, &artsparse_tensor::value::pack(values))
    }

    /// Group commit: flush the write buffer into one ordinary fragment
    /// and retire the WAL blobs it covered. Batches acked while the flush
    /// runs stay buffered for the next one. An empty buffer returns
    /// `Ok(None)` without touching the device.
    pub fn flush(&self) -> Result<Option<WriteReport>> {
        let _guard = self.flush_lock.lock();
        // Retry WAL deletions a previous flush failed (device hiccup)
        // before anything else — even when the buffer is empty, so a
        // quiet engine still sheds its orphans.
        self.retire_wals(Vec::new());
        let snapshot = self.buffer.snapshot();
        if snapshot.is_empty() {
            return Ok(None);
        }
        let _span = self.span(SpanKind::IngestFlush);
        let mut coords = CoordBuffer::with_capacity(self.shape.ndim(), snapshot.len());
        let mut payload = Vec::with_capacity(snapshot.len() * self.elem_size as usize);
        // The snapshot is deduplicated (the latest append per address
        // survives) and iterates in address order — exactly what the
        // within-fragment precedence rule needs (reads take the first
        // matching slot) and what the sort-eliding builders accept.
        for (coord, record) in snapshot.points.values() {
            coords.push(coord)?;
            payload.extend_from_slice(record);
        }
        let report = self.write_with(self.kind, &coords, &payload, None, None, true)?;
        // The fragment is committed: retire the covered batches and their
        // WAL blobs. Retirement is cleanup, not correctness — a blob that
        // survives (crash, or a delete failure queued for retry) replays
        // under its original identity, ranked below the fragment just
        // committed, so it can never resurrect old values.
        self.retire_wals(self.buffer.drain(snapshot.raw_points));
        charge(|io| io.group_commits += 1);
        Ok(Some(report))
    }

    /// Delete retired WAL blobs plus any whose deletion failed earlier.
    /// A failure re-queues the name for the next flush instead of
    /// failing the caller: the covering fragment is already committed,
    /// and an orphaned blob is harmless under order-preserving replay —
    /// it costs device bytes until a retry lands, never stale reads.
    fn retire_wals(&self, names: Vec<String>) {
        let mut queue = self.wal_retire_queue.lock();
        if names.is_empty() && queue.is_empty() {
            return;
        }
        let pending: Vec<String> = queue.drain(..).chain(names).collect();
        for name in pending {
            match self.backend.delete(&name) {
                Err(e) if !e.is_not_found() => queue.push(name),
                // Gone (or never there): the blob no longer counts
                // against the WAL backlog cap.
                _ => self.uncharge_wal(&name),
            }
        }
    }

    /// Retry retiring WAL blobs whose deletion failed earlier, without
    /// flushing anything. The background scheduler calls this every tick
    /// and once more on shutdown, so orphans from a failed flush-time
    /// delete drain even when no further flush ever runs (previously
    /// they waited for the *next* flush, indefinitely on a quiet
    /// engine).
    pub fn retire_pending_wals(&self) {
        self.retire_wals(Vec::new());
    }

    /// Orderly shutdown for engines without a scheduler: group-commit
    /// whatever is buffered and retry any queued WAL retirements. Safe
    /// to call more than once; the engine stays usable afterwards.
    pub fn shutdown(&self) -> Result<()> {
        let report = self.flush();
        self.retire_pending_wals();
        report.map(|_| ())
    }

    /// Occupancy of the streaming-ingest write buffer.
    pub fn buffer_stats(&self) -> crate::buffer::BufferStats {
        self.buffer.stats()
    }

    /// Age of the oldest buffered ingest batch (`None` when the buffer is
    /// empty) — what the scheduler's staleness flush keys off.
    pub fn buffer_age(&self) -> Option<std::time::Duration> {
        self.buffer.age()
    }

    /// Sizes of all live fragments, served from the catalog — the input
    /// to the scheduler's size-tiered consolidation trigger.
    pub fn fragment_sizes(&self) -> Vec<u64> {
        self.catalog.snapshot().iter().map(|e| e.size).collect()
    }

    /// Replay surviving WAL blobs at open. Replay is *order-preserving*:
    /// WAL names draw their sequence numbers from the same id sequence as
    /// fragments, and each acked batch is committed as a fragment under
    /// the WAL's own `(seq, epoch)` identity — it materializes at exactly
    /// the precedence slot its ack was given, never at the top of the
    /// order. That single invariant makes replay safe in every window the
    /// protocol admits:
    ///
    /// * a blob whose batch already reached a fragment (the flush died —
    ///   or a delete failed — between commit and retirement) replays
    ///   *below* that fragment and everything written since: a harmless
    ///   duplicate the next consolidation folds away, never a
    ///   resurrection of overwritten values;
    /// * a blob owned by a concurrently-live engine replays below
    ///   anything that engine flushes afterwards (its ids are all
    ///   higher), so claiming it early is safe — the owner still holds
    ///   the batch in its buffer and tolerates the retired blob.
    ///
    /// Torn or corrupt blobs — atomic puts that died mid-write on a
    /// device that tears — are swept without replaying a byte.
    fn replay_wal(&self) -> Result<()> {
        let mut wals: Vec<(u64, u64, String)> = Vec::new();
        let mut torn: Vec<String> = Vec::new();
        for name in self.backend.list()? {
            if !crate::wal::is_wal_name(&name) {
                continue;
            }
            match crate::wal::parse_wal_name(&name) {
                Some((seq, epoch)) => wals.push((epoch, seq, name)),
                None => torn.push(name),
            }
        }
        if wals.is_empty() && torn.is_empty() {
            return Ok(());
        }
        let _span = self.span(SpanKind::IngestReplay);
        // Ack order: epoch-major (each crash/reopen cycle claims a fresh
        // epoch), sequence-minor within one engine's run.
        wals.sort();
        for (epoch, seq, name) in &wals {
            // This engine's own writes must outrank every replayed batch.
            self.next_id.fetch_max(seq + 1, Ordering::SeqCst);
            let bytes = self.backend.get(name)?;
            let rec = match crate::wal::decode_record(name, &bytes) {
                Ok(rec) => rec,
                Err(_) => {
                    // Fails the CRC framing: the put tore, the batch was
                    // never acked, nothing to replay.
                    torn.push(name.clone());
                    continue;
                }
            };
            if rec.ndim != self.shape.ndim() || rec.elem_size != self.elem_size as usize {
                return Err(StorageError::Mismatch {
                    reason: format!(
                        "WAL record {name} holds rank-{} points of {}-byte records, \
                         engine stores rank-{} of {}",
                        rec.ndim,
                        rec.elem_size,
                        self.shape.ndim(),
                        self.elem_size
                    ),
                });
            }
            let id = FragmentId {
                seq: *seq,
                epoch: *epoch,
                cgen: 0,
            };
            // Idempotency: a previous replay that died between commit
            // and WAL deletion left the fragment behind under this very
            // name — nothing to re-commit, just finish the retirement.
            if self.catalog.get(&format_fragment_name(id)).is_none() && !rec.is_empty() {
                // Dedup within the batch (last append wins) and emit in
                // address order, matching a group commit's snapshot.
                let mut points: std::collections::BTreeMap<u64, usize> =
                    std::collections::BTreeMap::new();
                for (i, point) in rec.coords.chunks_exact(rec.ndim).enumerate() {
                    points.insert(self.shape.linearize(point)?, i);
                }
                let mut coords = CoordBuffer::with_capacity(self.shape.ndim(), points.len());
                let mut payload = Vec::with_capacity(points.len() * rec.elem_size);
                for i in points.into_values() {
                    coords.push(&rec.coords[i * rec.ndim..(i + 1) * rec.ndim])?;
                    payload
                        .extend_from_slice(&rec.values[i * rec.elem_size..(i + 1) * rec.elem_size]);
                }
                self.write_with(self.kind, &coords, &payload, Some(id), None, true)?;
            }
            match self.backend.delete(name) {
                Err(e) if !e.is_not_found() => return Err(e),
                _ => {}
            }
        }
        // Sweep the torn blobs — never acked, never replayed.
        for name in &torn {
            match self.backend.delete(name) {
                Err(e) if !e.is_not_found() => return Err(e),
                _ => {}
            }
        }
        Ok(())
    }

    /// Algorithm 3 READ as the layered pipeline: plan against the
    /// catalog, fetch/decode matched fragments (in parallel), merge hits
    /// by linear address.
    pub fn read(&self, queries: &CoordBuffer) -> Result<ReadResult> {
        let mut result = ReadResult::default();
        if queries.is_empty() {
            return Ok(result);
        }
        let _span = self.span(SpanKind::Read);
        // Snapshot the write buffer BEFORE the catalog plan. A group
        // commit racing this read moves buffered points into a fragment
        // and drains the buffer; snapshotting first means such points
        // are covered either way — by the overlay (the flush happened
        // after, the fragment's identical records are shadowed) or by
        // the planned fragment (the flush happened before). The reverse
        // order loses acked, previously-visible points: the plan misses
        // the fragment and the late snapshot finds the buffer drained.
        let buffered = self.buffer.snapshot();
        let qbbox = queries
            .bounding_box()
            .expect("non-empty queries have a bbox");

        // A planned fragment can vanish mid-read when a concurrent
        // delete or consolidation removes it between plan and fetch.
        // That is not an error: its points live on in whatever replaced
        // it, so the read re-plans against the refreshed catalog. If
        // fragments keep vanishing (a pathological churn of writers),
        // the final attempt skips them — they are gone from the catalog,
        // so skipping matches what a fresh plan would read anyway.
        for attempt in 0..=MAX_READ_REPLANS {
            // Plan: in-memory discovery + bbox pruning. Every scanned
            // fragment must describe the same tensor this engine stores.
            let plan = {
                let _plan_span = self.span(SpanKind::ReadPlan);
                for entry in self.catalog.snapshot() {
                    self.check_entry_shape(&entry)?;
                }
                let plan = self.catalog.plan(&qbbox);
                charge(|io| {
                    io.fragments_skipped_bbox += (plan.scanned - plan.fragments.len()) as u64;
                });
                plan
            };
            // Fail closed: a strict read over a query that touches a
            // quarantined fragment cannot silently return a partial
            // answer — the missing points would be indistinguishable
            // from absent points.
            if self.config.strict_reads {
                if let Some(name) = plan.quarantined.first() {
                    let reason = self
                        .catalog
                        .quarantined()
                        .into_iter()
                        .find(|(n, _)| n == name)
                        .map(|(_, r)| r)
                        .unwrap_or_default();
                    return Err(StorageError::corrupt(
                        name,
                        format!("fragment is quarantined ({reason})"),
                    ));
                }
            }

            // Fetch → decode → per-fragment read, in parallel; outcomes
            // come back in fragment (write) order.
            let per_fragment = self.execute_plan(&plan.fragments, queries)?;
            let vanished = per_fragment
                .iter()
                .filter(|o| matches!(o, FragmentOutcome::Vanished))
                .count();
            if vanished > 0 {
                charge(|io| io.fragments_replanned += vanished as u64);
            }
            if attempt < MAX_READ_REPLANS && vanished > 0 {
                continue;
            }
            result.fragments_scanned = plan.scanned;
            result.fragments_matched = plan.fragments.len();

            // Merge: sort by linear address (stable: fragment order on
            // ties).
            let _merge_span = self.span(SpanKind::ReadMerge);
            let mut quarantined = plan.quarantined.clone();
            for outcome in per_fragment {
                match outcome {
                    FragmentOutcome::Hits(batch) => result.hits.extend(batch),
                    FragmentOutcome::Quarantined(name) => quarantined.push(name),
                    FragmentOutcome::Vanished => {}
                }
            }
            quarantined.sort_unstable();
            quarantined.dedup();
            result.outcome = ReadOutcome {
                complete: quarantined.is_empty(),
                quarantined,
            };
            // Overlay the streaming-ingest buffer snapshot taken at the
            // start of the read: buffered points were strictly newer
            // than every committed fragment at that instant (a plain
            // write group-commits the buffer first), so on a shared
            // address the buffer's record replaces the fragments' hits.
            if !buffered.is_empty() {
                let mut overlay: Vec<ReadHit> = Vec::new();
                for qi in 0..queries.len() {
                    let addr = self.shape.linearize(queries.point(qi))?;
                    if let Some((coord, record)) = buffered.points.get(&addr) {
                        overlay.push(ReadHit {
                            query_index: qi,
                            addr,
                            coord: coord.clone(),
                            value: record.clone(),
                            fragment: BUFFER_FRAGMENT.to_string(),
                        });
                    }
                }
                if !overlay.is_empty() {
                    let shadowed: std::collections::HashSet<u64> =
                        overlay.iter().map(|h| h.addr).collect();
                    result.hits.retain(|h| !shadowed.contains(&h.addr));
                    result.hits.extend(overlay);
                }
            }
            result.hits.sort_by_key(|a| a.addr);
            break;
        }
        if let Some(plane) = self.observability() {
            // Denominator of the derived read-amplification gauge.
            plane.note_read_returned(result.hits.iter().map(|h| h.value.len() as u64).sum());
        }
        Ok(result)
    }

    /// Typed READ aligned with the query buffer.
    pub fn read_values<V: Element>(&self, queries: &CoordBuffer) -> Result<Vec<Option<V>>> {
        self.check_elem_size::<V>()?;
        self.read(queries)?.to_values(queries.len())
    }

    /// Read every stored point in `region` (the §III evaluation read: the
    /// query enumerates all cells of the region).
    pub fn read_region(&self, region: &Region) -> Result<ReadResult> {
        self.read(&region.to_coords())
    }

    /// Run `read_fragment` over the planned fragments on the shared
    /// parallel executor (`EngineConfig::threads` wide), and return each
    /// fragment's outcome in plan (write) order. Errors surface
    /// deterministically: the first failed fragment in plan order wins
    /// regardless of thread timing.
    fn execute_plan(
        &self,
        fragments: &[Arc<CatalogEntry>],
        queries: &CoordBuffer,
    ) -> Result<Vec<FragmentOutcome>> {
        // Each item is a whole fragment read: two already pay for a worker.
        let p = par::Parallelism::with_threads(self.config.threads).with_cutoff(2);
        par_map_traced(fragments.len(), p, |i| {
            self.read_fragment_or_skip(&fragments[i], queries)
        })
        .into_iter()
        .collect()
    }

    /// [`Self::read_fragment`], downgrading two kinds of failure:
    ///
    /// * a NotFound on a fragment that a concurrent delete or
    ///   consolidation removed from the catalog becomes `Vanished` (the
    ///   read re-plans); a NotFound on a fragment the catalog still lists
    ///   is real store corruption and stays an error;
    /// * with `strict_reads` off, a fragment whose bytes are provably
    ///   damaged (checksum mismatch, structural corruption) or that kept
    ///   failing past the retry budget is quarantined and the read
    ///   proceeds over the survivors, reporting the gap in
    ///   [`ReadOutcome`].
    fn read_fragment_or_skip(
        &self,
        entry: &CatalogEntry,
        queries: &CoordBuffer,
    ) -> Result<FragmentOutcome> {
        match self.read_fragment(entry, queries) {
            Ok(hits) => Ok(FragmentOutcome::Hits(hits)),
            Err(e) if e.is_not_found() && self.catalog.get(&entry.name).is_none() => {
                Ok(FragmentOutcome::Vanished)
            }
            Err(e) if !self.config.strict_reads && quarantines(&e) => {
                self.quarantine_fragment(&entry.name, &e);
                Ok(FragmentOutcome::Quarantined(entry.name.clone()))
            }
            Err(e) => Err(e),
        }
    }

    /// Record a fragment as damaged: catalog quarantine (sticky across
    /// reloads, excluded from future plans and consolidation), cache
    /// invalidation, and the telemetry counter — charged only when this
    /// call is the one that quarantined it. Returns whether it was newly
    /// quarantined.
    fn quarantine_fragment(&self, name: &str, error: &StorageError) -> bool {
        let newly = self.catalog.quarantine(name, error.chain_string());
        if newly {
            charge(|io| io.fragments_quarantined += 1);
        }
        self.cache.invalidate(name);
        newly
    }

    /// Fetch, decode, and query one fragment. Chooses among the cached,
    /// whole-fragment, and section/range fetch paths.
    fn read_fragment(&self, entry: &CatalogEntry, queries: &CoordBuffer) -> Result<Vec<ReadHit>> {
        let name = &entry.name;
        let cached = {
            let _fetch = self.span(SpanKind::ReadFetch);
            self.cache.get(name)
        };
        if let Some(decoded) = cached {
            let _decode = self.span(SpanKind::ReadDecode);
            return self.hits_from_payload(
                name,
                &decoded.meta,
                &decoded.index,
                &decoded.values,
                queries,
            );
        }
        if self.cache.is_enabled() {
            // Decode the whole fragment once so the next read is free.
            let decoded = {
                let _fetch = self.span(SpanKind::ReadFetch);
                self.fetch_decoded(entry)?
            };
            let _decode = self.span(SpanKind::ReadDecode);
            return self.hits_from_payload(
                name,
                &decoded.meta,
                &decoded.index,
                &decoded.values,
                queries,
            );
        }
        if !self.config.range_fetch {
            // Fetch and decode are one retry unit: a checksum mismatch
            // may be a torn or flaky transfer, so the re-attempt must
            // re-fetch the bytes, not re-decode the same buffer.
            let (meta, index, values) = {
                let _fetch = self.span(SpanKind::ReadFetch);
                self.with_read_retries(name, || {
                    let bytes = self.backend.get(name)?;
                    decode_fragment(name, &bytes)
                })?
            };
            let _decode = self.span(SpanKind::ReadDecode);
            return self.hits_from_payload(name, &meta, &index, &values, queries);
        }

        // Range path: header + index section first; values only if slots
        // matched.
        let meta = &entry.meta;
        let index = {
            let _fetch = self.span(SpanKind::ReadFetch);
            self.fetch_validated_index(entry)?
        };
        let matched: Vec<(usize, u64)> = {
            let _decode = self.span(SpanKind::ReadDecode);
            let org = meta.kind.create();
            let slots = self.observed_parallel(|| org.read(&index, queries, &self.counter))?;
            slots
                .into_iter()
                .enumerate()
                .filter_map(|(qi, slot)| slot.map(|s| (qi, s)))
                .collect()
        };
        if matched.is_empty() {
            return Ok(Vec::new());
        }
        let elem = meta.elem_size as usize;
        for &(_, slot) in &matched {
            if (slot + 1)
                .checked_mul(elem as u64)
                .is_none_or(|end| end > meta.value_raw_len)
            {
                return Err(StorageError::corrupt(
                    name,
                    format!("value slot {slot} beyond payload"),
                ));
            }
        }
        let records = {
            let _fetch = self.span(SpanKind::ReadFetch);
            self.fetch_value_records(entry, &matched)?
        };
        let mut hits = Vec::with_capacity(matched.len());
        for (qi, slot) in matched {
            let record = records
                .get(&slot)
                .expect("fetch_value_records covers every matched slot")
                .clone();
            let coord = queries.point(qi).to_vec();
            let addr = self.shape.linearize(&coord)?;
            hits.push(ReadHit {
                query_index: qi,
                addr,
                coord,
                value: record,
                fragment: name.clone(),
            });
        }
        Ok(hits)
    }

    /// Fetch the value records for the matched slots of one fragment,
    /// transferring as little of the value section as possible:
    /// compressed sections are fetched whole (they cannot be sliced);
    /// uncompressed slots are coalesced into runs, falling back to the
    /// whole section when the matched runs cover most of it anyway.
    fn fetch_value_records(
        &self,
        entry: &CatalogEntry,
        matched: &[(usize, u64)],
    ) -> Result<HashMap<u64, Vec<u8>>> {
        let name = &entry.name;
        let meta = &entry.meta;
        let elem = meta.elem_size as usize;
        let mut slots: Vec<u64> = matched.iter().map(|&(_, slot)| slot).collect();
        slots.sort_unstable();
        slots.dedup();

        let whole_section = |records: &mut HashMap<u64, Vec<u8>>| -> Result<()> {
            let values = self.with_read_retries(name, || {
                let section =
                    self.backend
                        .get_range(name, meta.value_offset(), meta.value_len as usize)?;
                decode_value_section(name, meta, &section)
            })?;
            for &slot in &slots {
                let start = slot as usize * elem;
                records.insert(slot, values[start..start + elem].to_vec());
            }
            Ok(())
        };

        let mut records = HashMap::with_capacity(slots.len());
        if meta.value_codec != Codec::None {
            whole_section(&mut records)?;
            return Ok(records);
        }

        // Coalesce matched slots into byte runs over the (uncompressed)
        // value section.
        let mut runs: Vec<(u64, u64)> = Vec::new(); // [start_byte, end_byte)
        for &slot in &slots {
            let lo = slot * elem as u64;
            let hi = lo + elem as u64;
            match runs.last_mut() {
                Some((_, end)) if lo <= *end + RUN_COALESCE_GAP_BYTES => *end = hi.max(*end),
                _ => runs.push((lo, hi)),
            }
        }
        charge(|io| io.ranges_coalesced += (slots.len() - runs.len()) as u64);
        let run_bytes: u64 = runs.iter().map(|(lo, hi)| hi - lo).sum();
        if runs.len() > MAX_VALUE_RUNS || run_bytes * 2 >= meta.value_len {
            // Badly scattered slots: one whole-section request beats
            // paying per-request latency dozens of times.
            charge(|io| io.whole_section_fallbacks += 1);
            whole_section(&mut records)?;
            return Ok(records);
        }

        let mut fetched: Vec<(u64, Vec<u8>)> = Vec::with_capacity(runs.len());
        for &(lo, hi) in &runs {
            let bytes = self.with_read_retries(name, || {
                let bytes =
                    self.backend
                        .get_range(name, meta.value_offset() + lo, (hi - lo) as usize)?;
                if bytes.len() != (hi - lo) as usize {
                    return Err(StorageError::corrupt(
                        name,
                        format!(
                            "value records at {lo}..{hi} truncated ({} bytes returned)",
                            bytes.len()
                        ),
                    ));
                }
                Ok(bytes)
            })?;
            fetched.push((lo, bytes));
        }
        for &slot in &slots {
            let lo = slot * elem as u64;
            let (run_lo, bytes) = fetched
                .iter()
                .rev()
                .find(|(run_lo, _)| *run_lo <= lo)
                .expect("every slot falls inside a coalesced run");
            let at = (lo - run_lo) as usize;
            records.insert(slot, bytes[at..at + elem].to_vec());
        }
        Ok(records)
    }

    /// The decode layer shared by the cached and whole-fragment paths:
    /// run the organization's read over a decoded payload and gather
    /// hits.
    fn hits_from_payload(
        &self,
        name: &str,
        meta: &FragmentMeta,
        index: &[u8],
        values: &[u8],
        queries: &CoordBuffer,
    ) -> Result<Vec<ReadHit>> {
        let org = meta.kind.create();
        let slots = self.observed_parallel(|| org.read(index, queries, &self.counter))?;
        let elem = meta.elem_size as usize;
        let mut hits = Vec::new();
        for (qi, slot) in slots.into_iter().enumerate() {
            let Some(slot) = slot else { continue };
            let start = slot as usize * elem;
            let Some(record) = values.get(start..start + elem) else {
                return Err(StorageError::corrupt(
                    name,
                    format!("value slot {slot} beyond payload"),
                ));
            };
            let coord = queries.point(qi).to_vec();
            let addr = self.shape.linearize(&coord)?;
            hits.push(ReadHit {
                query_index: qi,
                addr,
                coord,
                value: record.to_vec(),
                fragment: name.to_string(),
            });
        }
        Ok(hits)
    }

    /// Fetch the fragment's header and index section in one range
    /// request, re-validating the on-device header against the catalog —
    /// a blob mutated behind the engine's back (corruption, an external
    /// rewrite) must fail the read, not silently serve stale or garbage
    /// metadata.
    fn fetch_validated_index(&self, entry: &CatalogEntry) -> Result<Vec<u8>> {
        let name = &entry.name;
        let meta = &entry.meta;
        let head_len = meta.index_offset() + meta.index_len;
        self.with_read_retries(name, || {
            let head = self.backend.get_range(name, 0, head_len as usize)?;
            let on_device = decode_meta(name, &head)?;
            if on_device != *meta {
                return Err(StorageError::corrupt(
                    name,
                    "header on device no longer matches the catalog",
                ));
            }
            let section = head.get(meta.index_offset() as usize..).ok_or_else(|| {
                StorageError::corrupt(name, "fragment truncated inside the header")
            })?;
            decode_index_section(name, meta, section)
        })
    }

    /// Fetch and decode a whole fragment through the cache: a hit costs
    /// nothing, a miss transfers both sections and makes the decode
    /// resident (if the cache is enabled and it fits).
    fn fetch_decoded(&self, entry: &CatalogEntry) -> Result<Arc<DecodedFragment>> {
        let name = &entry.name;
        if let Some(decoded) = self.cache.get(name) {
            return Ok(decoded);
        }
        let decoded = if self.config.range_fetch {
            let meta = &entry.meta;
            let index = self.fetch_validated_index(entry)?;
            let values = self.with_read_retries(name, || {
                let vsec =
                    self.backend
                        .get_range(name, meta.value_offset(), meta.value_len as usize)?;
                decode_value_section(name, meta, &vsec)
            })?;
            DecodedFragment {
                index,
                values,
                meta: meta.clone(),
            }
        } else {
            let (meta, index, values) = self.with_read_retries(name, || {
                let bytes = self.backend.get(name)?;
                decode_fragment(name, &bytes)
            })?;
            DecodedFragment {
                meta,
                index,
                values,
            }
        };
        let decoded = Arc::new(decoded);
        self.cache.insert(name, decoded.clone());
        Ok(decoded)
    }

    /// Run one fragment-fetch unit under the configured
    /// [`RetryPolicy`](crate::config::RetryPolicy): transient failures
    /// (flaky I/O, checksum mismatches — a re-fetch gets fresh bytes)
    /// are retried with bounded exponential backoff, charging one
    /// `retries` tick per re-attempt. On exhaustion a checksum mismatch
    /// surfaces as itself (the caller cares *what* is damaged), while a
    /// transient I/O error is wrapped in
    /// [`StorageError::RetriesExhausted`] with the final error as its
    /// source. Permanent errors (NotFound, corruption, …) return
    /// immediately, so vanished-fragment detection and fail-fast
    /// semantics are unchanged.
    fn with_read_retries<T>(&self, name: &str, mut op: impl FnMut() -> Result<T>) -> Result<T> {
        let policy = &self.config.retry;
        let attempts = policy.attempts();
        let seed = fnv1a(name.as_bytes());
        let mut attempt = 0u32;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if attempt + 1 < attempts && e.is_transient() => {
                    charge(|io| io.retries += 1);
                    let pause = policy.backoff(attempt, seed);
                    if !pause.is_zero() {
                        std::thread::sleep(pause);
                    }
                    attempt += 1;
                }
                Err(e @ StorageError::ChecksumMismatch { .. }) => return Err(e),
                Err(e) if attempt > 0 && e.is_transient() => {
                    return Err(StorageError::RetriesExhausted {
                        attempts: attempt + 1,
                        source: Box::new(e),
                    })
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Run a mutating backend call under the write-side
    /// [`RetryPolicy`](crate::config::RetryPolicy). The same
    /// transient/permanent split as the read path applies — a flaking
    /// put or rename is re-attempted with backoff (deterministic jitter
    /// seeded by the blob name), while a permanent fault (no space,
    /// corruption) surfaces immediately. Exhausted transient faults wrap
    /// in [`StorageError::RetriesExhausted`].
    fn with_write_retries<T>(&self, name: &str, mut op: impl FnMut() -> Result<T>) -> Result<T> {
        let policy = &self.config.write_retry;
        let attempts = policy.attempts();
        let seed = fnv1a(name.as_bytes());
        let mut attempt = 0u32;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if attempt + 1 < attempts && e.is_transient() => {
                    charge(|io| io.retries += 1);
                    let pause = policy.backoff(attempt, seed);
                    if !pause.is_zero() {
                        std::thread::sleep(pause);
                    }
                    attempt += 1;
                }
                Err(e) if attempt > 0 && e.is_transient() => {
                    return Err(StorageError::RetriesExhausted {
                        attempts: attempt + 1,
                        source: Box::new(e),
                    })
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Every scanned fragment must store the same tensor: same shape
    /// (which implies same dimensionality) as this engine.
    fn check_entry_shape(&self, entry: &CatalogEntry) -> Result<()> {
        if entry.meta.shape != self.shape {
            return Err(StorageError::Mismatch {
                reason: format!(
                    "fragment {} has shape {}, engine has {}",
                    entry.name, entry.meta.shape, self.shape
                ),
            });
        }
        Ok(())
    }
}

/// Aggregate statistics over a fragment store (served entirely from the
/// catalog — no device traffic).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StoreStats {
    /// Number of fragments.
    pub fragments: usize,
    /// Total stored points (before cross-fragment dedup).
    pub total_points: u64,
    /// Total bytes on the device.
    pub total_bytes: u64,
    /// Fragments per organization name.
    pub by_format: std::collections::BTreeMap<String, usize>,
    /// Fragments with a compression codec on either payload.
    pub compressed_fragments: usize,
    /// Sum of stored (possibly compressed) index bytes.
    pub index_bytes: u64,
    /// Sum of uncompressed index bytes.
    pub index_raw_bytes: u64,
    /// Epoch claim markers alive at the last recovery pass (including
    /// this engine's own claim).
    pub epoch_markers: u64,
    /// Consolidation tombstones the last recovery replayed (their
    /// fragment had committed).
    pub tombstones_replayed: u64,
    /// Tombstones the last recovery discarded (commit never happened).
    pub tombstones_discarded: u64,
    /// Orphaned `.tmp` staging blobs the last recovery swept.
    pub orphans_swept: u64,
    /// Fragments currently quarantined (counted in `fragments` and
    /// `total_bytes` — their blobs are retained for forensics — but
    /// excluded from reads and consolidation).
    pub quarantined_fragments: usize,
    /// Background scheduler passes executed against this engine.
    pub scheduler_runs: u64,
    /// Scheduler passes that failed (kept out of the ingest path; each
    /// failure is retried on the next tick).
    pub scheduler_errors: u64,
    /// Error chain of the most recent scheduler failure, if any.
    pub scheduler_last_error: Option<String>,
    /// Unix milliseconds of that failure.
    pub scheduler_last_error_at_ms: Option<u64>,
    /// Write-path health state (`Healthy`, `Degraded`, or `ReadOnly`).
    pub health: HealthState,
    /// Consecutive write failures driving the health state machine.
    pub consecutive_write_failures: u32,
    /// Writes refused so far with a typed `Backpressure` or `ReadOnly`
    /// rejection.
    pub backpressure_rejections: u64,
    /// Bytes of acked, unretired WAL blobs counted against
    /// [`max_wal_backlog_bytes`](crate::config::IngestConfig::max_wal_backlog_bytes).
    pub wal_backlog_bytes: u64,
}

impl<B: StorageBackend> StorageEngine<B> {
    /// Summarize the store from the catalog, plus the commit-protocol
    /// artifacts the last recovery pass (open or refresh) observed.
    /// Quarantined fragments are included in the totals — they still
    /// occupy the device — and counted separately.
    pub fn stats(&self) -> Result<StoreStats> {
        let mut stats = StoreStats::default();
        let recovery = *self.recovery.lock();
        stats.epoch_markers = recovery.epoch_markers;
        stats.tombstones_replayed = recovery.tombstones_replayed;
        stats.tombstones_discarded = recovery.tombstones_discarded;
        stats.orphans_swept = recovery.orphans_swept;
        stats.quarantined_fragments = self.catalog.quarantined().len();
        stats.scheduler_runs = self.sched_health.runs.load(Ordering::Relaxed);
        stats.scheduler_errors = self.sched_health.errors.load(Ordering::Relaxed);
        if let Some((message, at_ms)) = self.scheduler_last_error() {
            stats.scheduler_last_error = Some(message);
            stats.scheduler_last_error_at_ms = Some(at_ms);
        }
        stats.health = self.health();
        stats.consecutive_write_failures = self.health.consecutive_failures.load(Ordering::SeqCst);
        stats.backpressure_rejections = self.health.rejections.load(Ordering::Relaxed);
        stats.wal_backlog_bytes = self.wal_backlog.lock().total;
        for entry in self.catalog.snapshot_all() {
            let meta = &entry.meta;
            stats.fragments += 1;
            stats.total_points += meta.n;
            stats.total_bytes += entry.size;
            *stats
                .by_format
                .entry(meta.kind.name().to_string())
                .or_default() += 1;
            if meta.index_codec != Codec::None || meta.value_codec != Codec::None {
                stats.compressed_fragments += 1;
            }
            stats.index_bytes += meta.index_len;
            stats.index_raw_bytes += meta.index_raw_len;
        }
        Ok(stats)
    }

    /// Fragments currently quarantined, with the reason each was benched
    /// (sorted by name).
    pub fn quarantined(&self) -> Vec<(String, String)> {
        self.catalog.quarantined()
    }

    /// Verify the integrity of every cataloged fragment's stored bytes —
    /// headers, sizes, and section checksums — without decoding any
    /// organization or decompressing any payload (checksums cover the
    /// *stored* bytes), so a scrub is pure sequential I/O plus CRC.
    ///
    /// Damaged fragments are quarantined (regardless of `strict_reads`;
    /// scrubbing is diagnosis, not serving) and reported as findings.
    /// Already-quarantined fragments are re-checked too: a finding with
    /// `newly_quarantined == false` confirms known damage. Transient
    /// fetch failures retry under the engine's
    /// [`RetryPolicy`](crate::config::RetryPolicy)
    /// (crate::config::RetryPolicy) before a fragment is declared
    /// damaged; fragments that vanish mid-scrub (concurrent delete or
    /// consolidation) are skipped.
    pub fn scrub(&self) -> Result<ScrubReport> {
        let _span = self.span(SpanKind::Scrub);
        let mut report = ScrubReport::default();
        for entry in self.catalog.snapshot_all() {
            let _frag = self.span(SpanKind::ScrubFragment);
            match self.scrub_fragment(&entry) {
                Ok(Some(legacy)) => {
                    report.fragments_checked += 1;
                    report.healthy += 1;
                    report.bytes_verified += entry.size;
                    if legacy {
                        report.legacy_unverified += 1;
                    }
                }
                Ok(None) => {} // vanished under the scrub
                Err(e) => {
                    report.fragments_checked += 1;
                    let section = match &e {
                        StorageError::ChecksumMismatch { section, .. } => Some(*section),
                        _ => None,
                    };
                    let newly = self.quarantine_fragment(&entry.name, &e);
                    report.findings.push(ScrubFinding {
                        fragment: entry.name.clone(),
                        section,
                        error: e.chain_string(),
                        newly_quarantined: newly,
                    });
                }
            }
        }
        Ok(report)
    }

    /// Verify one fragment's stored bytes: decode the on-device header
    /// (v3 headers self-verify their CRC), require it to match the
    /// catalog, require the blob's exact size, then CRC each section's
    /// stored bytes in place. `Ok(Some(legacy))` when healthy (`legacy`:
    /// a pre-checksum v2 fragment whose sections could only be
    /// length-checked), `Ok(None)` when the fragment vanished mid-scrub.
    fn scrub_fragment(&self, entry: &CatalogEntry) -> Result<Option<bool>> {
        let name = &entry.name;
        let meta = &entry.meta;
        let outcome = (|| -> Result<bool> {
            let on_device = self.with_read_retries(name, || {
                let head = self.backend.get_range(name, 0, meta.own_header_len())?;
                decode_meta(name, &head)
            })?;
            if on_device != *meta {
                return Err(StorageError::corrupt(
                    name,
                    "header on device no longer matches the catalog",
                ));
            }
            let size = self.backend.size(name)?;
            if size != meta.total_len() {
                return Err(StorageError::corrupt(
                    name,
                    format!(
                        "fragment is {size} bytes on the device, header says {}",
                        meta.total_len()
                    ),
                ));
            }
            self.with_read_retries(name, || {
                let section =
                    self.backend
                        .get_range(name, meta.index_offset(), meta.index_len as usize)?;
                verify_section_checksum(name, meta, FragmentSection::Index, &section)
            })?;
            self.with_read_retries(name, || {
                let section =
                    self.backend
                        .get_range(name, meta.value_offset(), meta.value_len as usize)?;
                verify_section_checksum(name, meta, FragmentSection::Value, &section)
            })?;
            Ok(meta.checksums.is_none())
        })();
        match outcome {
            Ok(legacy) => Ok(Some(legacy)),
            Err(e) if e.is_not_found() && self.catalog.get(name).is_none() => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// Outcome of a scrub pass over the whole store.
#[derive(Debug, Clone, Default)]
pub struct ScrubReport {
    /// Fragments examined (healthy + damaged; vanished ones excluded).
    pub fragments_checked: usize,
    /// Fragments whose stored bytes verified clean.
    pub healthy: usize,
    /// Healthy fragments written before checksums existed (format v2):
    /// their sections could only be length-checked, not CRC-verified.
    pub legacy_unverified: usize,
    /// Stored bytes whose integrity was confirmed.
    pub bytes_verified: u64,
    /// The damaged fragments, one finding each.
    pub findings: Vec<ScrubFinding>,
}

impl ScrubReport {
    /// Whether the scrub found no damage at all.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// One damaged fragment a scrub pass found (and quarantined).
#[derive(Debug, Clone)]
pub struct ScrubFinding {
    /// The fragment's blob name.
    pub fragment: String,
    /// Which section's checksum failed, when the damage was a checksum
    /// mismatch (`None` for structural damage: truncation, a header
    /// that no longer matches the catalog, an unreadable blob).
    pub section: Option<FragmentSection>,
    /// The full error chain, as text.
    pub error: String,
    /// Whether this scrub quarantined it (false: it already was).
    pub newly_quarantined: bool,
}

/// Outcome of a consolidation pass.
#[derive(Debug, Clone)]
pub struct ConsolidateReport {
    /// Fragments merged (and deleted).
    pub merged_fragments: usize,
    /// Points in the consolidated fragment (after dedup).
    pub n_points: usize,
    /// Store size before.
    pub before_bytes: u64,
    /// Store size after.
    pub after_bytes: u64,
    /// Name of the new fragment (`None` if nothing needed merging).
    pub fragment: Option<String>,
}

/// The merged view of a store: linear address → (coordinate, record),
/// in canonical address order.
type MergedPoints = std::collections::BTreeMap<u64, (Vec<u64>, Vec<u8>)>;

impl<B: StorageBackend> StorageEngine<B> {
    /// The shared fragment-scan layer: decode every cataloged fragment
    /// (through the cache) and merge its points with the engine's exact
    /// read precedence — within a fragment the *lowest* slot wins (every
    /// format's read scans/searches to the first matching record); across
    /// fragments the most recently written one wins. The BTreeMap gives
    /// canonical linear-address order.
    fn merged_points_from(&self, entries: &[Arc<CatalogEntry>]) -> Result<MergedPoints> {
        let mut merged = MergedPoints::new();
        for entry in entries {
            let name = &entry.name;
            self.check_entry_shape(entry)?;
            if entry.meta.elem_size != self.elem_size {
                return Err(StorageError::Mismatch {
                    reason: format!(
                        "fragment {name} stores {}-byte records, engine {}",
                        entry.meta.elem_size, self.elem_size
                    ),
                });
            }
            let decoded = self.fetch_decoded(entry)?;
            let org = decoded.meta.kind.create();
            let coords = org.enumerate(&decoded.index, &self.counter)?;
            let elem = decoded.meta.elem_size as usize;
            let mut this_fragment = MergedPoints::new();
            for (slot, p) in coords.iter().enumerate() {
                let addr = self.shape.linearize(p)?;
                let record = decoded
                    .values
                    .get(slot * elem..(slot + 1) * elem)
                    .ok_or_else(|| {
                        StorageError::corrupt(name, "enumerated more slots than records")
                    })?
                    .to_vec();
                // First (lowest) slot wins within the fragment.
                this_fragment.entry(addr).or_insert((p.to_vec(), record));
            }
            // Later fragments override earlier ones.
            merged.extend(this_fragment);
        }
        Ok(merged)
    }

    /// Merge every fragment into one (TileDB-style consolidation).
    ///
    /// Runs over the same scan layer as [`StorageEngine::export`]: each
    /// fragment's index is enumerated back into coordinates, values are
    /// deduplicated with the same last-writer-wins rule as
    /// [`StorageEngine::read`], and one new fragment is written under the
    /// engine's current organization and codecs; the source fragments are
    /// deleted (and their cache entries invalidated).
    ///
    /// With [`EngineConfig::adaptive_reorg`](crate::config::EngineConfig)
    /// set, the pass additionally characterizes the merged region's
    /// sparsity during that same scan (no extra pass over the points),
    /// runs the advisor's cost model over the measured statistics, and
    /// encodes the output in the winning organization instead of the
    /// engine's configured one — and a store already consolidated down to
    /// a single fragment is *migrated* in place when the advisor (or the
    /// policy's pin) disagrees with its current organization, converging
    /// to a no-op once they agree.
    ///
    /// The pass is transactional: one catalog snapshot drives both the
    /// merge and the delete set; the delete set is recorded in a tombstone
    /// that commits (atomically) before the consolidated fragment does, so
    /// a crash in any window either discards the whole pass or replays the
    /// deletions at the next open/refresh — never a store with both the
    /// merged fragment and a partial set of its sources counted twice.
    /// The consolidated fragment takes the *highest source* sequence
    /// number (with a consolidation-generation tiebreaker just above the
    /// sources), so a fragment written concurrently while the pass ran
    /// keeps precedence over the merged output instead of being shadowed.
    pub fn consolidate(&self) -> Result<ConsolidateReport> {
        let _span = self.span(SpanKind::Consolidate);
        // Buffered ingests belong in the merge: group-commit them first
        // so the pass sees them as an ordinary source fragment (a no-op
        // when the buffer is empty).
        self.flush()?;
        let _guard = self.consolidate_lock.lock();
        // ONE snapshot drives everything below: the merge input, the new
        // fragment's identity, and the delete set. Fragments written
        // after this point are untouched and outrank the merged output.
        let snapshot_span = self.span(SpanKind::ConsolidateSnapshot);
        let snapshot = self.catalog.snapshot();
        let before_bytes: u64 = snapshot.iter().map(|e| e.size).sum();
        if snapshot.len() <= 1 {
            drop(snapshot_span);
            if let (Some(ad), [entry]) = (self.config.adaptive_reorg.as_ref(), &snapshot[..]) {
                if let Some(report) = self.migrate_single(entry, ad, before_bytes)? {
                    return Ok(report);
                }
            }
            return Ok(ConsolidateReport {
                merged_fragments: snapshot.len(),
                n_points: 0,
                before_bytes,
                after_bytes: before_bytes,
                fragment: None,
            });
        }
        let sources: Vec<String> = snapshot.iter().map(|e| e.name.clone()).collect();
        let mut id = FragmentId {
            seq: 0,
            epoch: self.epoch,
            cgen: 0,
        };
        for src in &sources {
            let sid = parse_fragment_name(src)
                .ok_or_else(|| StorageError::corrupt(src, "cataloged name does not parse"))?;
            id.seq = id.seq.max(sid.seq);
            id.cgen = id.cgen.max(sid.cgen);
        }
        id.cgen += 1;
        drop(snapshot_span);

        let merge_span = self.span(SpanKind::ConsolidateMerge);
        let merged = self.merged_points_from(&snapshot)?;
        let mut coords = CoordBuffer::with_capacity(self.shape.ndim(), merged.len());
        let mut payload = Vec::with_capacity(merged.len() * self.elem_size as usize);
        // Characterization rides the merge scan: the stats accumulate on
        // the points the loop already visits, so adaptive mode adds no
        // extra pass over the data.
        let mut characterize = self
            .config
            .adaptive_reorg
            .as_ref()
            .map(|_| SparsityStatsBuilder::new(self.shape.clone()));
        for (coord, record) in merged.values() {
            coords.push(coord)?;
            payload.extend_from_slice(record);
            if let Some(builder) = characterize.as_mut() {
                builder.push(coord);
            }
        }
        drop(merge_span);

        let target = match (self.config.adaptive_reorg.as_ref(), characterize) {
            (Some(ad), Some(builder)) => {
                let _advise = self.span(SpanKind::ConsolidateAdvise);
                let target = ad.pin.unwrap_or_else(|| {
                    recommend_from_stats(
                        &builder.finish(),
                        &ad.profile.access_profile(),
                        &ad.candidates,
                    )
                    .best()
                });
                let migrating = snapshot.iter().filter(|e| e.meta.kind != target).count() as u64;
                charge(|io| io.fragments_migrated += migrating);
                target
            }
            _ => self.kind,
        };

        // The merged scan is in linear-address order, so the re-encode
        // goes through the direct-conversion builders (sorts elided).
        let convert_span = self
            .config
            .adaptive_reorg
            .as_ref()
            .map(|_| self.span(SpanKind::ConsolidateConvert));
        let report = self.write_with(target, &coords, &payload, Some(id), Some(&sources), true)?;
        drop(convert_span);

        let _sweep_span = self.span(SpanKind::ConsolidateSweep);
        // The commit landed: from here the tombstone guarantees the
        // deletions happen even if this process dies mid-loop. A source
        // already gone (racing deleter, replayed tombstone) is fine.
        for name in &sources {
            // Catalog first: a read racing these deletions then treats
            // the source as vanished instead of failing on NotFound.
            self.catalog.remove(name);
            self.cache.invalidate(name);
            match self.with_write_retries(name, || self.backend.delete(name)) {
                Err(e) if !e.is_not_found() => return Err(e),
                _ => {}
            }
        }
        // The deletions are done; the tombstone is spent. Best effort —
        // recovery replays a leftover as a no-op.
        let _ = self.backend.delete(&tombstone_name(&report.fragment));
        Ok(ConsolidateReport {
            merged_fragments: sources.len(),
            n_points: coords.len(),
            before_bytes,
            after_bytes: self.catalog.total_bytes(),
            fragment: Some(report.fragment),
        })
    }

    /// Adaptive re-organization of a store already consolidated down to
    /// one fragment: characterize it, ask the advisor (or honor the
    /// policy's pin), and when the verdict differs from the fragment's
    /// current organization, re-encode it through the direct conversion
    /// layer — under the same staged, tombstone-protected commit protocol
    /// as a full consolidation, so a crash in any window leaves the store
    /// readable in the old organization. Returns `None` when the fragment
    /// already has the advised organization: repeated passes converge to
    /// a no-op.
    fn migrate_single(
        &self,
        entry: &CatalogEntry,
        ad: &crate::config::AdaptiveReorg,
        before_bytes: u64,
    ) -> Result<Option<ConsolidateReport>> {
        self.check_entry_shape(entry)?;
        if entry.meta.elem_size != self.elem_size {
            return Err(StorageError::Mismatch {
                reason: format!(
                    "fragment {} stores {}-byte records, engine {}",
                    entry.name, entry.meta.elem_size, self.elem_size
                ),
            });
        }
        let decoded = self.fetch_decoded(entry)?;

        let advise_span = self.span(SpanKind::ConsolidateAdvise);
        let target = match ad.pin {
            Some(pin) => pin,
            None => {
                let coords = decoded
                    .meta
                    .kind
                    .create()
                    .enumerate(&decoded.index, &self.counter)?;
                let mut builder = SparsityStatsBuilder::new(self.shape.clone());
                for p in coords.iter() {
                    builder.push(p);
                }
                recommend_from_stats(
                    &builder.finish(),
                    &ad.profile.access_profile(),
                    &ad.candidates,
                )
                .best()
            }
        };
        drop(advise_span);
        if target == decoded.meta.kind {
            return Ok(None);
        }

        let sid = parse_fragment_name(&entry.name)
            .ok_or_else(|| StorageError::corrupt(&entry.name, "cataloged name does not parse"))?;
        // Same identity rule as a full pass: keep the source's sequence
        // number (the data is no newer than that), bump the
        // consolidation generation to outrank it.
        let id = FragmentId {
            seq: sid.seq,
            epoch: self.epoch,
            cgen: sid.cgen + 1,
        };
        let name = format_fragment_name(id);

        let convert_span = self.span(SpanKind::ConsolidateConvert);
        let conv = self.observed_parallel(|| {
            convert::convert(
                decoded.meta.kind,
                &decoded.index,
                target,
                &self.shape,
                &self.counter,
            )
        })?;
        let values = match &conv.map {
            Some(map) => artsparse_tensor::permute::scatter_bytes(
                &decoded.values,
                self.elem_size as usize,
                map,
            ),
            None => decoded.values.clone(),
        };
        charge(|io| {
            io.fragments_migrated += 1;
            if conv.direct {
                io.conversions_direct += 1;
            } else {
                io.conversions_fallback += 1;
            }
        });
        let frag = encode_fragment(
            target,
            &self.shape,
            conv.n_points as u64,
            self.elem_size,
            decoded.meta.bbox.as_ref(),
            &conv.index,
            &values,
            self.index_codec,
            self.value_codec,
        );
        drop(convert_span);

        let tombstone = format!("{}\n", entry.name);
        self.commit_fragment(&name, &frag, Some(&tombstone), true)?;
        let meta = decode_meta(&name, &frag)?;
        self.catalog.insert(CatalogEntry {
            name: name.clone(),
            meta,
            size: frag.len() as u64,
        });

        let _sweep = self.span(SpanKind::ConsolidateSweep);
        self.catalog.remove(&entry.name);
        self.cache.invalidate(&entry.name);
        match self.with_write_retries(&entry.name, || self.backend.delete(&entry.name)) {
            Err(e) if !e.is_not_found() => return Err(e),
            _ => {}
        }
        let _ = self.backend.delete(&tombstone_name(&name));
        Ok(Some(ConsolidateReport {
            merged_fragments: 1,
            n_points: conv.n_points,
            before_bytes,
            after_bytes: self.catalog.total_bytes(),
            fragment: Some(name),
        }))
    }

    /// Enumerate every stored point across all fragments (post-dedup), in
    /// linear-address order, with its value record. Runs over the same
    /// scan layer as [`StorageEngine::consolidate`].
    pub fn export(&self) -> Result<(CoordBuffer, Vec<u8>)> {
        // Buffered ingests are part of the store: group-commit them so
        // the scan layer sees them (a no-op when the buffer is empty).
        self.flush()?;
        let merged = self.merged_points_from(&self.catalog.snapshot())?;
        let mut coords = CoordBuffer::with_capacity(self.shape.ndim(), merged.len());
        let mut payload = Vec::new();
        for (coord, record) in merged.values() {
            coords.push(coord)?;
            payload.extend_from_slice(record);
        }
        Ok((coords, payload))
    }
}

/// FNV-1a over the fragment name: a stable per-fragment jitter seed, so
/// backoff schedules decorrelate across fragments yet replay identically
/// for the same name (deterministic tests, reproducible chaos runs).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn format_fragment_name(id: FragmentId) -> String {
    let FragmentId { seq, epoch, cgen } = id;
    if cgen == 0 {
        format!("{FRAG_PREFIX}{seq:08}-{epoch:08}{FRAG_SUFFIX}")
    } else {
        format!("{FRAG_PREFIX}{seq:08}-{epoch:08}c{cgen:06}{FRAG_SUFFIX}")
    }
}

/// Strict fixed-base decimal (rejects signs/whitespace that `parse`
/// would accept, keeping name parsing a bijection with formatting).
fn parse_decimal(s: &str) -> Option<u64> {
    if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    s.parse().ok()
}

fn parse_fragment_name(name: &str) -> Option<FragmentId> {
    let body = name.strip_prefix(FRAG_PREFIX)?.strip_suffix(FRAG_SUFFIX)?;
    let Some((seq, rest)) = body.split_once('-') else {
        // Legacy pre-epoch name `frag-NNNNNNNN.asf`.
        return Some(FragmentId {
            seq: parse_decimal(body)?,
            epoch: 0,
            cgen: 0,
        });
    };
    let seq = parse_decimal(seq)?;
    match rest.split_once('c') {
        None => Some(FragmentId {
            seq,
            epoch: parse_decimal(rest)?,
            cgen: 0,
        }),
        Some((epoch, cgen)) => {
            let cgen = parse_decimal(cgen)?;
            // `c000000` would alias the plain name; reject it.
            if cgen == 0 || cgen > u32::MAX as u64 {
                return None;
            }
            Some(FragmentId {
                seq,
                epoch: parse_decimal(epoch)?,
                cgen: cgen as u32,
            })
        }
    }
}

fn staged_name(name: &str) -> String {
    format!("{name}{STAGING_SUFFIX}")
}

fn tombstone_name(target: &str) -> String {
    format!("{TOMB_PREFIX}{target}{TOMB_SUFFIX}")
}

/// The fragment a tombstone protects, if the blob name is a tombstone.
fn parse_tombstone_name(name: &str) -> Option<&str> {
    let target = name.strip_prefix(TOMB_PREFIX)?.strip_suffix(TOMB_SUFFIX)?;
    parse_fragment_name(target).map(|_| target)
}

fn epoch_marker_name(epoch: u64) -> String {
    format!("{EPOCH_PREFIX}{epoch:08}{EPOCH_SUFFIX}")
}

fn parse_epoch_marker(name: &str) -> Option<u64> {
    parse_decimal(
        name.strip_prefix(EPOCH_PREFIX)?
            .strip_suffix(EPOCH_SUFFIX)?,
    )
}

/// Claim a fresh epoch: start past every epoch already visible (markers
/// and fragment names), then race create-exclusive puts until one wins.
fn claim_epoch<B: StorageBackend>(backend: &B) -> Result<u64> {
    let mut epoch: u64 = 1;
    for name in backend.list()? {
        if let Some(e) = parse_epoch_marker(&name) {
            epoch = epoch.max(e + 1);
        } else if let Some(id) = parse_fragment_name(&name) {
            epoch = epoch.max(id.epoch + 1);
        }
    }
    loop {
        match backend.put_exclusive(&epoch_marker_name(epoch), &[]) {
            Ok(()) => return Ok(epoch),
            Err(e) if e.is_already_exists() => epoch += 1,
            Err(e) => return Err(e),
        }
    }
}

/// Crash recovery over a store: replay or discard consolidation
/// tombstones, then sweep orphaned staging blobs. Runs before the
/// catalog is (re)built so recovered state is what gets cataloged.
///
/// `keep` names staging blobs that belong to commits in flight *in this
/// process* and must survive the sweep; at open there are none.
fn recover_store<B: StorageBackend>(
    backend: &B,
    keep: Option<&std::collections::HashSet<String>>,
) -> Result<RecoveryReport> {
    let mut report = RecoveryReport::default();
    let names = backend.list()?;
    for name in &names {
        if parse_epoch_marker(name).is_some() {
            report.epoch_markers += 1;
            continue;
        }
        let Some(target) = parse_tombstone_name(name) else {
            continue;
        };
        if backend.exists(target) {
            // The consolidated fragment committed: finish the deletions
            // it recorded. Idempotent — already-deleted sources are fine.
            let content = backend.get(name)?;
            for src in String::from_utf8_lossy(&content)
                .lines()
                .filter(|l| !l.is_empty())
            {
                match backend.delete(src) {
                    Err(e) if !e.is_not_found() => return Err(e),
                    _ => {}
                }
            }
            report.tombstones_replayed += 1;
        } else {
            report.tombstones_discarded += 1;
        }
        // Committed-and-replayed or never-committed: either way the
        // tombstone is spent.
        match backend.delete(name) {
            Err(e) if !e.is_not_found() => return Err(e),
            _ => {}
        }
    }
    for name in &names {
        if !name.ends_with(STAGING_SUFFIX) || keep.is_some_and(|k| k.contains(name)) {
            continue;
        }
        match backend.delete(name) {
            Err(e) if !e.is_not_found() => return Err(e),
            _ => {}
        }
        report.orphans_swept += 1;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{MemBackend, SimulatedDisk};
    use std::time::Duration;

    fn engine(kind: FormatKind) -> StorageEngine<MemBackend> {
        StorageEngine::open(
            MemBackend::new(),
            kind,
            Shape::new(vec![16, 16]).unwrap(),
            8,
        )
        .unwrap()
    }

    fn coords(pts: &[[u64; 2]]) -> CoordBuffer {
        CoordBuffer::from_points(2, pts).unwrap()
    }

    #[test]
    fn write_then_read_roundtrip_every_format() {
        for kind in FormatKind::ALL {
            let e = engine(kind);
            let c = coords(&[[1, 2], [5, 5], [15, 0]]);
            let report = e.write_points::<f64>(&c, &[1.0, 2.0, 3.0]).unwrap();
            assert_eq!(report.n_points, 3);
            assert!(report.total_bytes > 0);
            let q = coords(&[[5, 5], [0, 0], [1, 2]]);
            let vals = e.read_values::<f64>(&q).unwrap();
            assert_eq!(vals, vec![Some(2.0), None, Some(1.0)], "{kind}");
        }
    }

    #[test]
    fn multi_fragment_merge_sorted_by_linear_address() {
        let e = engine(FormatKind::Linear);
        e.write_points::<f64>(&coords(&[[3, 3], [0, 1]]), &[33.0, 1.0])
            .unwrap();
        e.write_points::<f64>(&coords(&[[1, 0], [9, 9]]), &[16.0, 99.0])
            .unwrap();
        let q = coords(&[[9, 9], [0, 1], [1, 0], [3, 3]]);
        let r = e.read(&q).unwrap();
        assert_eq!(r.fragments_matched, 2);
        let addrs: Vec<u64> = r.hits.iter().map(|h| h.addr).collect();
        assert_eq!(addrs, vec![1, 16, 51, 153]);
    }

    #[test]
    fn later_fragment_wins_on_collision() {
        let e = engine(FormatKind::Csf);
        e.write_points::<f64>(&coords(&[[4, 4]]), &[1.0]).unwrap();
        e.write_points::<f64>(&coords(&[[4, 4]]), &[2.0]).unwrap();
        let vals = e.read_values::<f64>(&coords(&[[4, 4]])).unwrap();
        assert_eq!(vals, vec![Some(2.0)]);
    }

    #[test]
    fn typed_calls_reject_mismatched_element_sizes() {
        let e = engine(FormatKind::Coo); // stores 8-byte records
        let c = coords(&[[1, 1]]);
        // Write path: f32 against an f64-sized store.
        let err = e.write_points::<f32>(&c, &[1.0]).unwrap_err();
        assert!(matches!(
            err,
            StorageError::ElementSizeMismatch {
                expected: 8,
                found: 4
            }
        ));
        // Read path: same confusion, same typed error.
        e.write_points::<f64>(&c, &[1.0]).unwrap();
        let err = e.read_values::<f32>(&c).unwrap_err();
        assert!(matches!(
            err,
            StorageError::ElementSizeMismatch {
                expected: 8,
                found: 4
            }
        ));
        // Ingest path too.
        let err = e.ingest_points::<f32>(&c, &[1.0]).unwrap_err();
        assert!(matches!(err, StorageError::ElementSizeMismatch { .. }));
        // Matching sizes still work.
        assert_eq!(e.read_values::<f64>(&c).unwrap(), vec![Some(1.0)]);
    }

    #[test]
    fn ingest_is_readable_before_and_after_flush() {
        let e = engine(FormatKind::Linear);
        assert_eq!(
            e.ingest_points::<f64>(&coords(&[[1, 2], [3, 4]]), &[12.0, 34.0])
                .unwrap(),
            2
        );
        // Buffered, not yet a fragment.
        assert_eq!(e.fragments().unwrap().len(), 0);
        assert_eq!(e.buffer_stats().points, 2);
        assert!(e.buffer_age().is_some());
        let q = coords(&[[3, 4], [0, 0], [1, 2]]);
        let r = e.read(&q).unwrap();
        assert_eq!(r.hits.len(), 2);
        assert!(r.hits.iter().all(|h| h.fragment == BUFFER_FRAGMENT));
        assert_eq!(
            e.read_values::<f64>(&q).unwrap(),
            vec![Some(34.0), None, Some(12.0)]
        );
        // Group commit: same answers, now from a fragment.
        let report = e.flush().unwrap().expect("non-empty buffer flushes");
        assert_eq!(report.n_points, 2);
        assert_eq!(e.buffer_stats().points, 0);
        assert_eq!(e.fragments().unwrap().len(), 1);
        let r = e.read(&q).unwrap();
        assert!(r.hits.iter().all(|h| h.fragment != BUFFER_FRAGMENT));
        assert_eq!(
            e.read_values::<f64>(&q).unwrap(),
            vec![Some(34.0), None, Some(12.0)]
        );
        // Empty flush is a no-op.
        assert!(e.flush().unwrap().is_none());
    }

    #[test]
    fn buffered_point_wins_over_committed_duplicate() {
        let e = engine(FormatKind::Csf);
        e.write_points::<f64>(&coords(&[[4, 4], [2, 2]]), &[1.0, 5.0])
            .unwrap();
        // Newer buffered write of the same coordinate wins unflushed...
        e.ingest_points::<f64>(&coords(&[[4, 4]]), &[2.0]).unwrap();
        let q = coords(&[[4, 4], [2, 2]]);
        assert_eq!(
            e.read_values::<f64>(&q).unwrap(),
            vec![Some(2.0), Some(5.0)]
        );
        // ...and flushed (fresh sequence number outranks the old one).
        e.flush().unwrap();
        assert_eq!(
            e.read_values::<f64>(&q).unwrap(),
            vec![Some(2.0), Some(5.0)]
        );
        // A plain write after an ingest of the same coordinate wins:
        // write() group-commits the buffer before taking its own seq.
        e.ingest_points::<f64>(&coords(&[[2, 2]]), &[6.0]).unwrap();
        e.write_points::<f64>(&coords(&[[2, 2]]), &[7.0]).unwrap();
        assert_eq!(
            e.read_values::<f64>(&coords(&[[2, 2]])).unwrap(),
            vec![Some(7.0)]
        );
    }

    #[test]
    fn ingest_within_buffer_duplicates_last_write_wins() {
        let e = engine(FormatKind::Coo);
        e.ingest_points::<f64>(&coords(&[[3, 3]]), &[1.0]).unwrap();
        e.ingest_points::<f64>(&coords(&[[3, 3]]), &[2.0]).unwrap();
        let q = coords(&[[3, 3]]);
        assert_eq!(e.read_values::<f64>(&q).unwrap(), vec![Some(2.0)]);
        // The flush dedups before encoding: one point in the fragment,
        // the later record.
        let report = e.flush().unwrap().unwrap();
        assert_eq!(report.n_points, 1);
        assert_eq!(e.read_values::<f64>(&q).unwrap(), vec![Some(2.0)]);
    }

    #[test]
    fn ingest_flushes_at_point_threshold() {
        let config = EngineConfig::default().with_ingest(crate::config::IngestConfig {
            flush_points: 3,
            ..Default::default()
        });
        let e = StorageEngine::open_with(
            MemBackend::new(),
            FormatKind::Linear,
            Shape::new(vec![16, 16]).unwrap(),
            8,
            config,
        )
        .unwrap();
        e.ingest_points::<f64>(&coords(&[[0, 1], [0, 2]]), &[1.0, 2.0])
            .unwrap();
        assert_eq!(e.fragments().unwrap().len(), 0);
        e.ingest_points::<f64>(&coords(&[[0, 3]]), &[3.0]).unwrap();
        // Threshold tripped: the buffer group-committed itself.
        assert_eq!(e.fragments().unwrap().len(), 1);
        assert_eq!(e.buffer_stats().points, 0);
        // WAL blobs were retired with the flush.
        let wals = e
            .backend()
            .list()
            .unwrap()
            .into_iter()
            .filter(|n| crate::wal::is_wal_name(n))
            .count();
        assert_eq!(wals, 0);
    }

    #[test]
    fn wal_blobs_cover_exactly_the_buffered_batches() {
        let e = engine(FormatKind::Coo);
        e.ingest_points::<f64>(&coords(&[[1, 1]]), &[1.0]).unwrap();
        e.ingest_points::<f64>(&coords(&[[2, 2]]), &[2.0]).unwrap();
        let wals: Vec<String> = e
            .backend()
            .list()
            .unwrap()
            .into_iter()
            .filter(|n| crate::wal::is_wal_name(n))
            .collect();
        assert_eq!(wals.len(), 2);
        e.flush().unwrap();
        let wals = e
            .backend()
            .list()
            .unwrap()
            .into_iter()
            .filter(|n| crate::wal::is_wal_name(n))
            .count();
        assert_eq!(wals, 0);
    }

    #[test]
    fn unflushed_ingest_survives_reopen_via_wal_replay() {
        let backend = MemBackend::new();
        let shape = Shape::new(vec![8, 8]).unwrap();
        let e1 = StorageEngine::open(backend, FormatKind::Coo, shape.clone(), 8).unwrap();
        e1.write_points::<f64>(&coords(&[[1, 1]]), &[1.0]).unwrap();
        e1.ingest_points::<f64>(&coords(&[[2, 2]]), &[2.0]).unwrap();
        // Simulate a crash: drop the engine without flushing.
        let backend = e1.into_backend();
        let e2 = StorageEngine::open(backend, FormatKind::Coo, shape, 8).unwrap();
        // Replay committed the WAL batch as a fragment under its own id.
        assert_eq!(e2.buffer_stats().points, 0);
        assert_eq!(
            e2.read_values::<f64>(&coords(&[[1, 1], [2, 2]])).unwrap(),
            vec![Some(1.0), Some(2.0)]
        );
        let wals = e2
            .backend()
            .list()
            .unwrap()
            .into_iter()
            .filter(|n| crate::wal::is_wal_name(n))
            .count();
        assert_eq!(wals, 0, "replayed WAL blobs are retired");
    }

    #[test]
    fn consolidate_folds_buffered_points_in() {
        let e = engine(FormatKind::Linear);
        e.write_points::<f64>(&coords(&[[1, 1]]), &[1.0]).unwrap();
        e.write_points::<f64>(&coords(&[[1, 1]]), &[2.0]).unwrap();
        e.ingest_points::<f64>(&coords(&[[1, 1]]), &[3.0]).unwrap();
        let report = e.consolidate().unwrap();
        // The buffered point was group-committed and merged: one
        // fragment, one point, the newest record.
        assert_eq!(report.merged_fragments, 3);
        assert_eq!(report.n_points, 1);
        assert_eq!(e.fragments().unwrap().len(), 1);
        assert_eq!(
            e.read_values::<f64>(&coords(&[[1, 1]])).unwrap(),
            vec![Some(3.0)]
        );
    }

    #[test]
    fn export_includes_buffered_points() {
        let e = engine(FormatKind::Coo);
        e.write_points::<f64>(&coords(&[[1, 1]]), &[1.0]).unwrap();
        e.ingest_points::<f64>(&coords(&[[0, 5]]), &[5.0]).unwrap();
        let (c, payload) = e.export().unwrap();
        assert_eq!(c.len(), 2);
        // Address order: [0,5] (addr 5) before [1,1] (addr 17).
        assert_eq!(c.point(0).to_vec(), vec![0, 5]);
        assert_eq!(c.point(1).to_vec(), vec![1, 1]);
        assert_eq!(payload.len(), 16);
    }

    #[test]
    fn ingest_without_wal_still_reads_and_flushes() {
        let config = EngineConfig::default().with_ingest(crate::config::IngestConfig {
            wal: false,
            ..Default::default()
        });
        let e = StorageEngine::open_with(
            MemBackend::new(),
            FormatKind::Coo,
            Shape::new(vec![16, 16]).unwrap(),
            8,
            config,
        )
        .unwrap();
        e.ingest_points::<f64>(&coords(&[[9, 9]]), &[9.0]).unwrap();
        let wals = e
            .backend()
            .list()
            .unwrap()
            .into_iter()
            .filter(|n| crate::wal::is_wal_name(n))
            .count();
        assert_eq!(wals, 0, "wal off: nothing hits the device before flush");
        assert_eq!(
            e.read_values::<f64>(&coords(&[[9, 9]])).unwrap(),
            vec![Some(9.0)]
        );
        e.flush().unwrap().unwrap();
        assert_eq!(
            e.read_values::<f64>(&coords(&[[9, 9]])).unwrap(),
            vec![Some(9.0)]
        );
    }

    #[test]
    fn bbox_pruning_skips_disjoint_fragments() {
        let e = engine(FormatKind::GcsrPP);
        e.write_points::<f64>(&coords(&[[0, 0], [1, 1]]), &[1.0, 2.0])
            .unwrap();
        e.write_points::<f64>(&coords(&[[14, 14], [15, 15]]), &[3.0, 4.0])
            .unwrap();
        let r = e.read(&coords(&[[0, 1], [1, 1]])).unwrap();
        assert_eq!(r.fragments_scanned, 2);
        assert_eq!(r.fragments_matched, 1);
    }

    #[test]
    fn region_read_matches_paper_semantics() {
        let e = engine(FormatKind::GcscPP);
        e.write_points::<f64>(&coords(&[[2, 2], [3, 9], [8, 8]]), &[1.0, 2.0, 3.0])
            .unwrap();
        let region = Region::from_corners(&[2, 2], &[4, 9]).unwrap();
        let r = e.read_region(&region).unwrap();
        let found: Vec<Vec<u64>> = r.hits.iter().map(|h| h.coord.clone()).collect();
        assert_eq!(found, vec![vec![2, 2], vec![3, 9]]);
    }

    #[test]
    fn write_breakdown_phases_are_populated() {
        let e = engine(FormatKind::GcsrPP);
        let pts: Vec<[u64; 2]> = (0..16).flat_map(|r| (0..16).map(move |c| [r, c])).collect();
        let vals: Vec<f64> = (0..256).map(|i| i as f64).collect();
        let report = e
            .write_points::<f64>(&CoordBuffer::from_points(2, &pts).unwrap(), &vals)
            .unwrap();
        let b = report.breakdown;
        assert!(b.build > 0.0);
        assert!(b.sum() >= b.build + b.write);
        assert!(report.index_bytes > 0 && report.value_bytes == 2048);
    }

    #[test]
    fn rejects_mismatched_values() {
        let e = engine(FormatKind::Coo);
        let c = coords(&[[1, 1]]);
        assert!(matches!(
            e.write(&c, &[0u8; 4]),
            Err(StorageError::Mismatch { .. })
        ));
    }

    #[test]
    fn rejects_out_of_shape_coords() {
        let e = engine(FormatKind::Coo);
        let c = coords(&[[99, 1]]);
        assert!(e.write(&c, &[0u8; 8]).is_err());
    }

    #[test]
    fn empty_write_and_empty_read() {
        let e = engine(FormatKind::Linear);
        let report = e.write_points::<f64>(&CoordBuffer::new(2), &[]).unwrap();
        assert_eq!(report.n_points, 0);
        // Empty fragment has no bbox, so reads never match it.
        let r = e.read(&coords(&[[1, 1]])).unwrap();
        assert_eq!(r.fragments_matched, 0);
        // Empty query short-circuits.
        let r = e.read(&CoordBuffer::new(2)).unwrap();
        assert!(r.hits.is_empty());
    }

    #[test]
    fn id_sequence_continues_after_reopen() {
        let backend = MemBackend::new();
        let shape = Shape::new(vec![8, 8]).unwrap();
        let e1 = StorageEngine::open(backend, FormatKind::Coo, shape.clone(), 8).unwrap();
        let r1 = e1.write_points::<f64>(&coords(&[[1, 1]]), &[1.0]).unwrap();
        let backend = e1.backend; // move out (MemBackend owns the blobs)
        let e2 = StorageEngine::open(backend, FormatKind::Coo, shape, 8).unwrap();
        let r2 = e2.write_points::<f64>(&coords(&[[2, 2]]), &[2.0]).unwrap();
        assert!(r2.fragment > r1.fragment);
        assert_eq!(e2.fragments().unwrap().len(), 2);
        assert!(e2.total_stored_bytes().unwrap() > 0);
    }

    #[test]
    fn corrupt_fragment_surfaces_as_error() {
        let e = engine(FormatKind::Linear);
        e.write_points::<f64>(&coords(&[[1, 1]]), &[1.0]).unwrap();
        let name = e.fragments().unwrap()[0].clone();
        let mut bytes = e.backend().get(&name).unwrap();
        bytes.truncate(bytes.len() - 3);
        e.backend().put(&name, &bytes).unwrap();
        assert!(e.read(&coords(&[[1, 1]])).is_err());
    }

    #[test]
    fn corrupt_fragment_surfaces_without_range_fetch_too() {
        let e =
            engine(FormatKind::Linear).with_config(EngineConfig::default().with_range_fetch(false));
        e.write_points::<f64>(&coords(&[[1, 1]]), &[1.0]).unwrap();
        let name = e.fragments().unwrap()[0].clone();
        let mut bytes = e.backend().get(&name).unwrap();
        bytes.truncate(bytes.len() - 3);
        e.backend().put(&name, &bytes).unwrap();
        assert!(e.read(&coords(&[[1, 1]])).is_err());
    }

    #[test]
    fn transient_read_faults_are_retried_to_success() {
        use crate::config::RetryPolicy;
        use crate::faults::FailingBackend;
        let e = StorageEngine::open_with(
            FailingBackend::new(MemBackend::new()),
            FormatKind::Linear,
            Shape::new(vec![16, 16]).unwrap(),
            8,
            EngineConfig::default()
                .with_telemetry(true)
                .with_retry(RetryPolicy {
                    max_attempts: 4,
                    base_backoff: Duration::ZERO,
                    max_backoff: Duration::ZERO,
                    jitter_pct: 0,
                }),
        )
        .unwrap();
        e.write_points::<f64>(&coords(&[[1, 1]]), &[1.0]).unwrap();
        e.backend().fail_next_reads(2);
        let vals = e.read_values::<f64>(&coords(&[[1, 1]])).unwrap();
        assert_eq!(vals, vec![Some(1.0)]);
        assert_eq!(e.backend().read_faults_remaining(), 0);
        // Three attempts total: the two re-attempts are the retries.
        let report = e.telemetry_report().unwrap();
        assert_eq!(report.totals.retries, 2);
        assert_eq!(report.totals.fragments_quarantined, 0);
    }

    #[test]
    fn exhausted_retries_surface_with_attempt_count() {
        use crate::config::RetryPolicy;
        use crate::faults::FailingBackend;
        let e = StorageEngine::open_with(
            FailingBackend::new(MemBackend::new()),
            FormatKind::Linear,
            Shape::new(vec![16, 16]).unwrap(),
            8,
            EngineConfig::default().with_retry(RetryPolicy {
                max_attempts: 2,
                base_backoff: Duration::ZERO,
                max_backoff: Duration::ZERO,
                jitter_pct: 0,
            }),
        )
        .unwrap();
        e.write_points::<f64>(&coords(&[[1, 1]]), &[1.0]).unwrap();
        e.backend().fail_next_reads(10);
        let err = e.read(&coords(&[[1, 1]])).unwrap_err();
        assert!(
            matches!(err, StorageError::RetriesExhausted { attempts: 2, .. }),
            "{err}"
        );
        // The typed payload survives the wrapping.
        assert!(crate::faults::injected_fault(&err).is_some());
    }

    #[test]
    fn bit_flip_fails_strict_read_with_checksum_mismatch() {
        let e = engine(FormatKind::Linear);
        e.write_points::<f64>(&coords(&[[1, 1], [2, 2]]), &[1.0, 2.0])
            .unwrap();
        let name = e.fragments().unwrap()[0].clone();
        let mut bytes = e.backend().get(&name).unwrap();
        let at = bytes.len() - 1; // value section
        bytes[at] ^= 0x01;
        e.backend().put(&name, &bytes).unwrap();
        let err = e.read(&coords(&[[1, 1]])).unwrap_err();
        match &err {
            StorageError::ChecksumMismatch {
                name: n, section, ..
            } => {
                assert_eq!(n, &name);
                assert_eq!(*section, FragmentSection::Value);
            }
            other => panic!("expected a checksum mismatch, got {other}"),
        }
        assert!(err.to_string().contains(&name));
    }

    #[test]
    fn degraded_read_quarantines_and_reports_the_damaged_fragment() {
        let e = engine(FormatKind::Linear)
            .with_config(EngineConfig::default().with_strict_reads(false));
        e.write_points::<f64>(&coords(&[[1, 1]]), &[1.0]).unwrap();
        e.write_points::<f64>(&coords(&[[2, 2]]), &[2.0]).unwrap();
        let victim = e.fragments().unwrap()[0].clone();
        let mut bytes = e.backend().get(&victim).unwrap();
        let at = bytes.len() - 1;
        bytes[at] ^= 0x80;
        e.backend().put(&victim, &bytes).unwrap();

        let r = e.read(&coords(&[[1, 1], [2, 2]])).unwrap();
        assert!(!r.outcome.complete);
        assert_eq!(r.outcome.quarantined, vec![victim.clone()]);
        assert_eq!(r.to_values::<f64>(2).unwrap(), vec![None, Some(2.0)]);

        // Sticky: the next plan skips it up front and still reports it.
        let r2 = e.read(&coords(&[[1, 1], [2, 2]])).unwrap();
        assert!(!r2.outcome.complete);
        assert_eq!(r2.outcome.quarantined, vec![victim.clone()]);

        // Consolidation refuses it: one healthy fragment left → no-op,
        // and the damaged blob stays on the device for forensics.
        let c = e.consolidate().unwrap();
        assert!(c.fragment.is_none());
        assert!(e.backend().exists(&victim));
        assert_eq!(e.stats().unwrap().quarantined_fragments, 1);
        assert_eq!(e.quarantined().len(), 1);
    }

    #[test]
    fn strict_read_fails_closed_on_a_previously_quarantined_fragment() {
        let e = engine(FormatKind::Linear);
        e.write_points::<f64>(&coords(&[[1, 1]]), &[1.0]).unwrap();
        let name = e.fragments().unwrap()[0].clone();
        let mut bytes = e.backend().get(&name).unwrap();
        let at = bytes.len() - 1;
        bytes[at] ^= 0x02;
        e.backend().put(&name, &bytes).unwrap();
        e.scrub().unwrap();
        let err = e.read(&coords(&[[1, 1]])).unwrap_err();
        assert!(err.to_string().contains("quarantined"), "{err}");
    }

    #[test]
    fn scrub_detects_damage_without_decoding_organizations() {
        let e = engine(FormatKind::Csf);
        for (i, v) in [1.0, 2.0, 3.0].iter().enumerate() {
            let p = (i + 1) as u64;
            e.write_points::<f64>(&coords(&[[p, p]]), &[*v]).unwrap();
        }
        let clean = e.scrub().unwrap();
        assert!(clean.is_clean());
        assert_eq!((clean.fragments_checked, clean.healthy), (3, 3));
        assert!(clean.bytes_verified > 0);

        let victim = e.fragments().unwrap()[1].clone();
        let mut bytes = e.backend().get(&victim).unwrap();
        let at = bytes.len() - 1;
        bytes[at] ^= 0x04;
        e.backend().put(&victim, &bytes).unwrap();
        let ops_before = e.counter().snapshot().total();
        let report = e.scrub().unwrap();
        // Scrub never decodes an organization: the op counter is idle.
        assert_eq!(e.counter().snapshot().total(), ops_before);
        assert_eq!((report.fragments_checked, report.healthy), (3, 2));
        assert_eq!(report.findings.len(), 1);
        let f = &report.findings[0];
        assert_eq!(f.fragment, victim);
        assert_eq!(f.section, Some(FragmentSection::Value));
        assert!(f.newly_quarantined);

        // Re-scrub: still damaged, but no longer *newly* quarantined.
        let again = e.scrub().unwrap();
        assert_eq!(again.findings.len(), 1);
        assert!(!again.findings[0].newly_quarantined);
    }

    #[test]
    fn scrub_flags_a_truncated_fragment_as_structural_damage() {
        let e = engine(FormatKind::Linear);
        e.write_points::<f64>(&coords(&[[1, 1]]), &[1.0]).unwrap();
        let name = e.fragments().unwrap()[0].clone();
        let mut bytes = e.backend().get(&name).unwrap();
        bytes.truncate(bytes.len() - 3);
        e.backend().put(&name, &bytes).unwrap();
        let report = e.scrub().unwrap();
        assert_eq!(report.findings.len(), 1);
        assert!(report.findings[0].error.contains("bytes"));
    }

    #[test]
    fn stats_summarize_the_store() {
        let backend = MemBackend::new();
        let shape = Shape::new(vec![16, 16]).unwrap();
        let e1 = StorageEngine::open(backend, FormatKind::Coo, shape.clone(), 8).unwrap();
        e1.write_points::<f64>(&coords(&[[1, 1], [2, 2]]), &[1.0, 2.0])
            .unwrap();
        let e2 = StorageEngine::open(e1.into_backend(), FormatKind::Csf, shape, 8)
            .unwrap()
            .with_compression(Codec::DeltaVarint, Codec::None);
        e2.write_points::<f64>(&coords(&[[3, 3]]), &[3.0]).unwrap();
        let s = e2.stats().unwrap();
        assert_eq!(s.fragments, 2);
        assert_eq!(s.total_points, 3);
        assert_eq!(s.by_format["COO"], 1);
        assert_eq!(s.by_format["CSF"], 1);
        assert_eq!(s.compressed_fragments, 1);
        assert!(s.total_bytes > 0);
        assert!(s.index_bytes <= s.index_raw_bytes + s.index_bytes);
        assert_eq!(s.total_bytes, e2.total_stored_bytes().unwrap());
    }

    #[test]
    fn fragment_names_roundtrip() {
        for id in [
            FragmentId {
                seq: 42,
                epoch: 7,
                cgen: 0,
            },
            FragmentId {
                seq: 42,
                epoch: 7,
                cgen: 3,
            },
            FragmentId {
                seq: u64::MAX,
                epoch: u64::MAX,
                cgen: u32::MAX,
            },
        ] {
            let n = format_fragment_name(id);
            assert_eq!(parse_fragment_name(&n), Some(id), "{n}");
        }
        // Legacy pre-epoch names still parse (epoch 0, plain).
        assert_eq!(
            parse_fragment_name("frag-00000042.asf"),
            Some(FragmentId {
                seq: 42,
                epoch: 0,
                cgen: 0
            })
        );
        for bad in [
            "other.bin",
            "frag-xx.asf",
            "frag-00000001-xx.asf",
            "frag-00000001-00000001c000000.asf", // cgen 0 aliases the plain name
            "frag-00000001-00000001cxx.asf",
            "frag--1.asf",
            "frag-+1.asf",
            "frag-00000001-00000001.asf.tmp", // staged: invisible
            "tomb-frag-00000001-00000001.asf.tsn",
            "epoch-00000001.lck",
        ] {
            assert_eq!(parse_fragment_name(bad), None, "{bad}");
        }
    }

    #[test]
    fn name_order_is_precedence_order() {
        // Lexicographic blob-name order must equal (seq, epoch, cgen)
        // order — it is what the catalog sorts by and what cross-fragment
        // last-writer-wins precedence runs on.
        let ids = [
            FragmentId {
                seq: 1,
                epoch: 2,
                cgen: 0,
            },
            FragmentId {
                seq: 1,
                epoch: 2,
                cgen: 1,
            },
            FragmentId {
                seq: 1,
                epoch: 3,
                cgen: 0,
            },
            FragmentId {
                seq: 2,
                epoch: 1,
                cgen: 0,
            },
            FragmentId {
                seq: 100,
                epoch: 1,
                cgen: 0,
            },
        ];
        let names: Vec<String> = ids.iter().map(|&id| format_fragment_name(id)).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn auxiliary_names_roundtrip() {
        let frag = "frag-00000003-00000001.asf";
        assert_eq!(staged_name(frag), "frag-00000003-00000001.asf.tmp");
        let tomb = tombstone_name(frag);
        assert_eq!(parse_tombstone_name(&tomb), Some(frag));
        assert_eq!(parse_tombstone_name("tomb-junk.tsn"), None);
        assert_eq!(parse_tombstone_name(frag), None);
        assert_eq!(parse_epoch_marker(&epoch_marker_name(9)), Some(9));
        assert_eq!(parse_epoch_marker(frag), None);
    }

    #[test]
    fn epochs_are_claimed_exclusively() {
        let backend = MemBackend::new();
        assert_eq!(claim_epoch(&backend).unwrap(), 1);
        assert_eq!(claim_epoch(&backend).unwrap(), 2);
        // A fragment from a crashed engine whose marker was never written
        // still pushes the claim past its epoch.
        backend.put("frag-00000001-00000009.asf", &[0]).unwrap();
        assert_eq!(claim_epoch(&backend).unwrap(), 10);
    }

    #[test]
    fn recovery_discards_uncommitted_and_replays_committed_tombstones() {
        let backend = MemBackend::new();
        let frag = "frag-00000002-00000001c000001.asf";
        // Uncommitted: tombstone exists, target never renamed in.
        backend.put("frag-00000001-00000001.asf", &[1]).unwrap();
        backend
            .put(&tombstone_name(frag), b"frag-00000001-00000001.asf\n")
            .unwrap();
        backend.put(&staged_name(frag), &[9]).unwrap();
        recover_store(&backend, None).unwrap();
        assert!(backend.exists("frag-00000001-00000001.asf"));
        assert!(!backend.exists(&tombstone_name(frag)));
        assert!(!backend.exists(&staged_name(frag)));

        // Committed: target present → sources deleted, tombstone spent.
        backend.put(frag, &[2]).unwrap();
        backend
            .put(&tombstone_name(frag), b"frag-00000001-00000001.asf\n")
            .unwrap();
        recover_store(&backend, None).unwrap();
        assert!(backend.exists(frag));
        assert!(!backend.exists("frag-00000001-00000001.asf"));
        assert!(!backend.exists(&tombstone_name(frag)));

        // `keep` protects an in-flight staging blob from the sweep.
        let inflight = staged_name("frag-00000005-00000001.asf");
        backend.put(&inflight, &[3]).unwrap();
        let keep: std::collections::HashSet<String> = [inflight.clone()].into();
        recover_store(&backend, Some(&keep)).unwrap();
        assert!(backend.exists(&inflight));
    }

    #[test]
    fn mixed_format_fragments_read_together() {
        // Fragments self-describe: an engine can read fragments written
        // under a different organization.
        let backend = MemBackend::new();
        let shape = Shape::new(vec![16, 16]).unwrap();
        let e_coo = StorageEngine::open(backend, FormatKind::Coo, shape.clone(), 8).unwrap();
        e_coo
            .write_points::<f64>(&coords(&[[1, 1]]), &[1.0])
            .unwrap();
        let e_csf = StorageEngine::open(e_coo.backend, FormatKind::Csf, shape, 8).unwrap();
        e_csf
            .write_points::<f64>(&coords(&[[2, 2]]), &[2.0])
            .unwrap();
        let vals = e_csf
            .read_values::<f64>(&coords(&[[1, 1], [2, 2]]))
            .unwrap();
        assert_eq!(vals, vec![Some(1.0), Some(2.0)]);
    }

    // ---- layered-pipeline behavior --------------------------------------

    #[test]
    fn read_rejects_fragments_with_a_different_shape() {
        // Same dimensionality, different extents: the old ndim-only check
        // would silently accept this store.
        let backend = MemBackend::new();
        let e1 = StorageEngine::open(
            backend,
            FormatKind::Linear,
            Shape::new(vec![16, 16]).unwrap(),
            8,
        )
        .unwrap();
        e1.write_points::<f64>(&coords(&[[1, 1]]), &[1.0]).unwrap();
        let e2 = StorageEngine::open(
            e1.into_backend(),
            FormatKind::Linear,
            Shape::new(vec![16, 32]).unwrap(),
            8,
        )
        .unwrap();
        let err = e2.read(&coords(&[[1, 1]])).unwrap_err();
        assert!(matches!(err, StorageError::Mismatch { .. }), "{err}");
    }

    #[test]
    fn to_values_rejects_record_size_mismatch() {
        let e = engine(FormatKind::Linear); // stores 8-byte records
        e.write_points::<f64>(&coords(&[[1, 1]]), &[1.0]).unwrap();
        let r = e.read(&coords(&[[1, 1]])).unwrap();
        assert_eq!(r.hits.len(), 1);
        // Asking for 4-byte elements from an 8-byte store is corruption
        // (or type confusion), not an empty result.
        let err = r.to_values::<f32>(1).unwrap_err();
        assert!(matches!(err, StorageError::CorruptFragment { .. }), "{err}");
        // The aligned type still works.
        assert_eq!(r.to_values::<f64>(1).unwrap(), vec![Some(1.0)]);
    }

    #[test]
    fn read_transfers_only_matched_sections() {
        // One fragment of 64 points; a one-point query must not transfer
        // the whole value section, and discovery must not touch the
        // device at all (the catalog already knows the store).
        let disk = SimulatedDisk::new(1e12, Duration::ZERO);
        let e = StorageEngine::open(
            disk,
            FormatKind::Linear,
            Shape::new(vec![64, 64]).unwrap(),
            8,
        )
        .unwrap();
        let pts: Vec<[u64; 2]> = (0..64).map(|i| [i, i]).collect();
        let vals: Vec<f64> = (0..64).map(|i| i as f64).collect();
        e.write_points::<f64>(&CoordBuffer::from_points(2, &pts).unwrap(), &vals)
            .unwrap();
        let frag_size = e.total_stored_bytes().unwrap();

        let before = e.backend().bytes_read();
        let got = e.read_values::<f64>(&coords(&[[7, 7]])).unwrap();
        assert_eq!(got, vec![Some(7.0)]);
        let transferred = e.backend().bytes_read() - before;
        assert!(
            transferred < frag_size,
            "read transferred {transferred} of a {frag_size}-byte fragment"
        );
        // The value section is 512 bytes; a single 8-byte record must not
        // drag in more than the header + index section + one coalesced run.
        let meta = &e.catalog.get(&e.fragments().unwrap()[0]).unwrap().meta;
        assert!(
            transferred <= meta.index_offset() + meta.index_len + 8 + RUN_COALESCE_GAP_BYTES,
            "transferred {transferred}, header+index {}",
            meta.index_offset() + meta.index_len
        );
    }

    #[test]
    fn cache_makes_repeat_reads_free_of_device_traffic() {
        let disk = SimulatedDisk::new(1e12, Duration::ZERO);
        let e = StorageEngine::open_with(
            disk,
            FormatKind::GcsrPP,
            Shape::new(vec![16, 16]).unwrap(),
            8,
            EngineConfig::default().with_cache_capacity(1 << 20),
        )
        .unwrap();
        e.write_points::<f64>(&coords(&[[1, 2], [5, 5]]), &[1.0, 2.0])
            .unwrap();
        let q = coords(&[[5, 5], [1, 2]]);
        let first = e.read_values::<f64>(&q).unwrap();
        let after_first = e.backend().bytes_read();
        let second = e.read_values::<f64>(&q).unwrap();
        assert_eq!(first, second);
        assert_eq!(
            e.backend().bytes_read(),
            after_first,
            "second read should be served from the cache"
        );
        let stats = e.cache().stats();
        assert!(stats.hits >= 1, "{stats:?}");
    }

    #[test]
    fn consolidate_and_delete_invalidate_the_cache() {
        let e = StorageEngine::open_with(
            MemBackend::new(),
            FormatKind::Linear,
            Shape::new(vec![16, 16]).unwrap(),
            8,
            EngineConfig::default().with_cache_capacity(1 << 20),
        )
        .unwrap();
        e.write_points::<f64>(&coords(&[[1, 1]]), &[1.0]).unwrap();
        e.write_points::<f64>(&coords(&[[2, 2]]), &[2.0]).unwrap();
        e.read(&coords(&[[1, 1], [2, 2]])).unwrap();
        assert!(!e.cache().is_empty());
        let report = e.consolidate().unwrap();
        assert_eq!(report.merged_fragments, 2);
        // The merged fragment is the only cacheable thing left; the two
        // deleted fragments must be gone from the cache.
        assert!(e.cache().len() <= 1);
        assert_eq!(e.fragments().unwrap().len(), 1);
        assert_eq!(
            e.read_values::<f64>(&coords(&[[1, 1], [2, 2]])).unwrap(),
            vec![Some(1.0), Some(2.0)]
        );
    }

    #[test]
    fn delete_fragment_and_refresh_track_the_device() {
        let e = engine(FormatKind::Coo);
        let r1 = e.write_points::<f64>(&coords(&[[1, 1]]), &[1.0]).unwrap();
        e.write_points::<f64>(&coords(&[[2, 2]]), &[2.0]).unwrap();
        e.delete_fragment(&r1.fragment).unwrap();
        assert_eq!(e.fragments().unwrap().len(), 1);
        assert_eq!(
            e.read_values::<f64>(&coords(&[[1, 1], [2, 2]])).unwrap(),
            vec![None, Some(2.0)]
        );

        // An external writer adds a blob behind the engine's back: the
        // catalog only sees it after refresh.
        let other = engine(FormatKind::Coo);
        other
            .write_points::<f64>(&coords(&[[3, 3]]), &[3.0])
            .unwrap();
        let blob = other.backend().get(&other.fragments().unwrap()[0]).unwrap();
        e.backend().put("frag-00000099.asf", &blob).unwrap();
        assert_eq!(e.fragments().unwrap().len(), 1);
        e.refresh().unwrap();
        assert_eq!(e.fragments().unwrap().len(), 2);
        // The id sequence moved past the discovered fragment.
        let r = e.write_points::<f64>(&coords(&[[4, 4]]), &[4.0]).unwrap();
        assert!(r.fragment.as_str() > "frag-00000099.asf");
    }

    #[test]
    fn parallel_and_sequential_reads_agree() {
        let shape = Shape::new(vec![32, 32]).unwrap();
        let e =
            StorageEngine::open(MemBackend::new(), FormatKind::Linear, shape.clone(), 8).unwrap();
        for base in 0..6u64 {
            let pts: Vec<[u64; 2]> = (0..8).map(|i| [(base * 4 + i) % 32, i]).collect();
            let vals: Vec<f64> = (0..8).map(|i| (base * 100 + i) as f64).collect();
            e.write_points::<f64>(&CoordBuffer::from_points(2, &pts).unwrap(), &vals)
                .unwrap();
        }
        let q = Region::from_corners(&[0, 0], &[31, 7]).unwrap().to_coords();
        let parallel = e.read(&q).unwrap();

        let seq = StorageEngine::open_with(
            e.into_backend(),
            FormatKind::Linear,
            shape,
            8,
            EngineConfig::default()
                .with_threads(1)
                .with_range_fetch(false),
        )
        .unwrap();
        let sequential = seq.read(&q).unwrap();
        assert_eq!(parallel.hits, sequential.hits);
        assert_eq!(parallel.fragments_matched, sequential.fragments_matched);
    }

    fn observed_engine() -> StorageEngine<MemBackend> {
        StorageEngine::open_with(
            MemBackend::new(),
            FormatKind::Coo,
            Shape::new(vec![16, 16]).unwrap(),
            8,
            EngineConfig::default()
                .with_observability(crate::config::ObservabilityConfig::default()),
        )
        .unwrap()
    }

    #[test]
    fn plane_is_absent_by_default_and_present_when_configured() {
        let plain = engine(FormatKind::Coo);
        assert!(plain.observability().is_none());
        plain.observe(); // must be a strict no-op
        let e = observed_engine();
        let plane = e.observability().expect("configured plane is on");
        // Span traffic feeds live counters without any explicit call.
        e.ingest_points::<f64>(&coords(&[[1, 1]]), &[1.0]).unwrap();
        let snap = plane.registry().snapshot();
        assert!(snap.sample("artsparse_wal_bytes_total").unwrap().value > 0.0);
    }

    #[test]
    fn observe_samples_live_gauges() {
        let e = observed_engine();
        e.write_points::<f64>(&coords(&[[1, 1], [2, 2]]), &[1.0, 2.0])
            .unwrap();
        e.ingest_points::<f64>(&coords(&[[3, 3]]), &[3.0]).unwrap();
        e.observe();
        let snap = e.observability().unwrap().registry().snapshot();
        let value = |name: &str| snap.sample(name).unwrap().value;
        assert_eq!(value("artsparse_fragments"), 1.0);
        assert_eq!(value("artsparse_write_buffer_points"), 1.0);
        assert_eq!(value("artsparse_write_buffer_batches"), 1.0);
        assert_eq!(value("artsparse_wal_backlog_blobs"), 1.0);
        assert_eq!(value("artsparse_quarantined_fragments"), 0.0);
        assert_eq!(value("artsparse_scheduler_last_run_age_seconds"), -1.0);
        let tiers = snap.sample("artsparse_fragment_bytes").unwrap();
        assert_eq!(tiers.histogram.as_ref().unwrap().count(), 1);
        // Flush and re-observe: the gauges move.
        e.flush().unwrap();
        e.observe();
        let snap = e.observability().unwrap().registry().snapshot();
        let value = |name: &str| snap.sample(name).unwrap().value;
        assert_eq!(value("artsparse_write_buffer_points"), 0.0);
        assert_eq!(value("artsparse_wal_backlog_blobs"), 0.0);
        assert_eq!(value("artsparse_fragments"), 2.0);
    }

    #[test]
    fn read_amplification_gauge_derives_from_reads() {
        let e = observed_engine();
        e.write_points::<f64>(&coords(&[[1, 1]]), &[1.0]).unwrap();
        let plane = e.observability().unwrap();
        assert_eq!(plane.read_amplification(), None, "no read returned yet");
        e.read_values::<f64>(&coords(&[[1, 1]])).unwrap();
        // A cold point read fetches index + value sections to return one
        // 8-byte record: amplification is well above 1.
        let ratio = plane.read_amplification().unwrap();
        assert!(ratio > 1.0, "got {ratio}");
        e.observe();
        let snap = plane.registry().snapshot();
        assert_eq!(
            snap.sample("artsparse_read_amplification").unwrap().value,
            ratio
        );
    }

    #[test]
    fn engine_op_span_trees_share_one_trace_id() {
        // Both switches on: the aggregated report keeps the raw events.
        let e = StorageEngine::open_with(
            MemBackend::new(),
            FormatKind::Coo,
            Shape::new(vec![16, 16]).unwrap(),
            8,
            EngineConfig::default()
                .with_telemetry(true)
                .with_observability(crate::config::ObservabilityConfig::default()),
        )
        .unwrap();
        e.ingest_points::<f64>(&coords(&[[1, 1]]), &[1.0]).unwrap();
        let events = e.telemetry_report().unwrap().events;
        // ingest → WAL append: one tree, one trace.
        let ingest: Vec<_> = events
            .iter()
            .filter(|ev| matches!(ev.kind, SpanKind::Ingest | SpanKind::IngestWal))
            .collect();
        assert_eq!(ingest.len(), 2);
        assert!(ingest.iter().all(|ev| ev.trace_id == ingest[0].trace_id));
        assert_ne!(ingest[0].trace_id, 0);

        e.write_points::<f64>(&coords(&[[2, 2]]), &[2.0]).unwrap();
        e.consolidate().unwrap();
        let events = e.telemetry_report().unwrap().events;
        // The consolidate tree (snapshot/merge/write/commit/sweep all
        // nested under engine.consolidate) shares the root's trace id,
        // and it differs from the ingest trace.
        let root = events
            .iter()
            .find(|ev| ev.kind == SpanKind::Consolidate)
            .expect("consolidate root span");
        assert_ne!(root.trace_id, ingest[0].trace_id);
        for kind in [
            SpanKind::ConsolidateSnapshot,
            SpanKind::ConsolidateMerge,
            SpanKind::ConsolidateSweep,
        ] {
            let child = events.iter().find(|ev| ev.kind == kind).unwrap();
            assert_eq!(child.trace_id, root.trace_id, "{kind:?}");
        }
    }

    #[test]
    fn stats_surface_scheduler_health() {
        let e = observed_engine();
        let s = e.stats().unwrap();
        assert_eq!((s.scheduler_runs, s.scheduler_errors), (0, 0));
        assert!(s.scheduler_last_error.is_none());
        e.note_scheduler_run();
        e.note_scheduler_error(&StorageError::Mismatch {
            reason: "synthetic failure".to_string(),
        });
        let s = e.stats().unwrap();
        assert_eq!((s.scheduler_runs, s.scheduler_errors), (1, 1));
        assert!(s
            .scheduler_last_error
            .unwrap()
            .contains("synthetic failure"));
        assert!(s.scheduler_last_error_at_ms.unwrap() > 0);
        // The failure also reached the journal, trace-correlated.
        let plane = e.observability().unwrap();
        let events = plane.journal().drain_new();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].code, "scheduler_error");
        assert!(events[0].message.contains("synthetic failure"));
    }

    #[test]
    fn transient_write_faults_are_retried_to_success() {
        use crate::config::RetryPolicy;
        use crate::faults::FailingBackend;
        let e = StorageEngine::open_with(
            FailingBackend::new(MemBackend::new()),
            FormatKind::Linear,
            Shape::new(vec![16, 16]).unwrap(),
            8,
            EngineConfig::default().with_write_retry(RetryPolicy {
                max_attempts: 4,
                base_backoff: Duration::ZERO,
                max_backoff: Duration::ZERO,
                jitter_pct: 0,
            }),
        )
        .unwrap();
        // Two flaky puts, then the device heals: the WAL append lands on
        // the third attempt and the batch is acked normally.
        e.backend().fail_next_writes(2);
        e.ingest_points::<f64>(&coords(&[[1, 1]]), &[1.0]).unwrap();
        assert_eq!(e.backend().write_faults_remaining(), 0);
        assert_eq!(e.health(), HealthState::Healthy);
        assert_eq!(
            e.read_values::<f64>(&coords(&[[1, 1]])).unwrap(),
            vec![Some(1.0)]
        );
        // Plain writes retry through commit_fragment too.
        e.backend().fail_next_writes(2);
        e.write_points::<f64>(&coords(&[[2, 2]]), &[2.0]).unwrap();
        assert_eq!(e.health(), HealthState::Healthy);
    }

    #[test]
    fn write_failures_walk_the_health_ladder_and_probes_recover_it() {
        use crate::config::{HealthConfig, RetryPolicy};
        use crate::faults::FailingBackend;
        let e = StorageEngine::open_with(
            FailingBackend::new(MemBackend::new()),
            FormatKind::Linear,
            Shape::new(vec![16, 16]).unwrap(),
            8,
            EngineConfig::default()
                .with_write_retry(RetryPolicy::none())
                .with_health(HealthConfig {
                    degrade_after: 1,
                    read_only_after: 2,
                    probe_interval_ms: 0,
                })
                .with_observability(crate::config::ObservabilityConfig::default()),
        )
        .unwrap();
        // One acked batch before the device breaks.
        e.ingest_points::<f64>(&coords(&[[1, 1]]), &[1.0]).unwrap();

        e.backend().fail_next_writes(u64::MAX);
        // First failed WAL append: Healthy -> Degraded. The batch was
        // never acked, so it must not be visible.
        assert!(e.ingest_points::<f64>(&coords(&[[2, 2]]), &[2.0]).is_err());
        assert_eq!(e.health(), HealthState::Degraded);
        assert_eq!(
            e.read_values::<f64>(&coords(&[[2, 2]])).unwrap(),
            vec![None]
        );
        // Second: Degraded -> ReadOnly.
        assert!(e.ingest_points::<f64>(&coords(&[[3, 3]]), &[3.0]).is_err());
        assert_eq!(e.health(), HealthState::ReadOnly);

        // ReadOnly refuses new writes with a typed, permanent rejection
        // without touching the device...
        e.backend().disarm();
        let err = e
            .ingest_points::<f64>(&coords(&[[4, 4]]), &[4.0])
            .unwrap_err();
        assert!(matches!(err, StorageError::ReadOnly { .. }), "{err}");
        assert!(err.is_rejection() && !err.is_transient());
        let err = e
            .write_points::<f64>(&coords(&[[4, 4]]), &[4.0])
            .unwrap_err();
        assert!(matches!(err, StorageError::ReadOnly { .. }), "{err}");
        // ...but keeps serving reads, including the acked batch.
        assert_eq!(
            e.read_values::<f64>(&coords(&[[1, 1]])).unwrap(),
            vec![Some(1.0)]
        );

        // The device healed (disarm above): one probe recovers the
        // engine, and writes flow again.
        assert_eq!(e.probe_health(), HealthState::Healthy);
        e.ingest_points::<f64>(&coords(&[[5, 5]]), &[5.0]).unwrap();
        let s = e.stats().unwrap();
        assert_eq!(s.health, HealthState::Healthy);
        assert_eq!(s.consecutive_write_failures, 0);
        assert!(s.backpressure_rejections >= 2);

        // Every transition was journaled.
        let events = e.observability().unwrap().journal().drain_new();
        let transitions: Vec<&str> = events
            .iter()
            .filter(|ev| ev.code == "health_transition")
            .map(|ev| ev.message.as_str())
            .collect();
        assert!(
            transitions.iter().any(|m| m.contains("degraded")),
            "{transitions:?}"
        );
        assert!(
            transitions.iter().any(|m| m.contains("read-only")),
            "{transitions:?}"
        );
        assert!(
            transitions.iter().any(|m| m.contains("recovered")),
            "{transitions:?}"
        );
    }

    #[test]
    fn out_of_space_is_permanent_and_parks_the_engine_read_only() {
        use crate::config::{HealthConfig, RetryPolicy};
        use crate::faults::FailingBackend;
        let e = StorageEngine::open_with(
            FailingBackend::new(MemBackend::new()),
            FormatKind::Linear,
            Shape::new(vec![16, 16]).unwrap(),
            8,
            EngineConfig::default()
                // A generous retry budget must NOT spin on ENOSPC: the
                // fault is permanent, so each ingest fails in one attempt.
                .with_write_retry(RetryPolicy::default())
                .with_health(HealthConfig {
                    degrade_after: 1,
                    read_only_after: 2,
                    probe_interval_ms: 0,
                }),
        )
        .unwrap();
        e.backend().set_out_of_space(true);
        assert!(e.ingest_points::<f64>(&coords(&[[1, 1]]), &[1.0]).is_err());
        assert!(e.ingest_points::<f64>(&coords(&[[2, 2]]), &[2.0]).is_err());
        assert_eq!(e.health(), HealthState::ReadOnly);
        // Probes keep failing while the device is full...
        assert_eq!(e.probe_health(), HealthState::ReadOnly);
        // ...and recover the engine once space frees up.
        e.backend().set_out_of_space(false);
        assert_eq!(e.probe_health(), HealthState::Healthy);
        e.ingest_points::<f64>(&coords(&[[3, 3]]), &[3.0]).unwrap();
    }

    #[test]
    fn buffer_cap_backpressure_trips_and_resumes_after_a_flush() {
        use crate::config::IngestConfig;
        let e = engine(FormatKind::Linear).with_config(EngineConfig::default().with_ingest(
            IngestConfig {
                flush_points: usize::MAX,
                flush_bytes: usize::MAX,
                wal: false,
                max_buffered_bytes: 64, // eight f64 records
                backpressure_resume_pct: 50,
                ..Default::default()
            },
        ));
        let pts: Vec<[u64; 2]> = (0..8).map(|i| [i, i]).collect();
        let vals: Vec<f64> = (0..8).map(|i| i as f64).collect();
        e.ingest_points::<f64>(&coords(&pts), &vals).unwrap();
        // The buffer is exactly at the cap: one more byte is refused
        // with a typed Backpressure naming the resource and occupancy.
        let err = e
            .ingest_points::<f64>(&coords(&[[9, 9]]), &[9.0])
            .unwrap_err();
        match &err {
            StorageError::Backpressure {
                resource,
                occupancy,
                limit,
            } => {
                assert_eq!(*resource, "buffer");
                assert_eq!((*occupancy, *limit), (64, 64));
            }
            other => panic!("expected backpressure, got {other}"),
        }
        assert!(err.is_rejection() && !err.is_transient());
        assert!(e.stats().unwrap().backpressure_rejections >= 1);
        // Nothing from the rejected batch leaked in.
        assert_eq!(e.buffer_stats().value_bytes, 64);
        // Draining the buffer reopens admission (occupancy 0 is under
        // the 50% resume watermark).
        e.flush().unwrap();
        e.ingest_points::<f64>(&coords(&[[9, 9]]), &[9.0]).unwrap();
        assert_eq!(
            e.read_values::<f64>(&coords(&[[9, 9]])).unwrap(),
            vec![Some(9.0)]
        );
    }

    #[test]
    fn wal_backlog_cap_rejects_until_blobs_retire() {
        use crate::config::IngestConfig;
        // Size one WAL blob exactly, then cap the backlog at 1.5 blobs:
        // the first batch is admitted, the second refused.
        let one_blob = crate::wal::encode_record(2, 8, &[1, 1], &1.0f64.to_le_bytes())
            .unwrap()
            .len() as u64;
        let e = engine(FormatKind::Linear).with_config(EngineConfig::default().with_ingest(
            IngestConfig {
                flush_points: usize::MAX,
                flush_bytes: usize::MAX,
                wal: true,
                max_wal_backlog_bytes: one_blob + one_blob / 2,
                backpressure_resume_pct: 50,
                ..Default::default()
            },
        ));
        e.ingest_points::<f64>(&coords(&[[1, 1]]), &[1.0]).unwrap();
        assert_eq!(e.wal_backlog_bytes(), one_blob);
        let err = e
            .ingest_points::<f64>(&coords(&[[2, 2]]), &[2.0])
            .unwrap_err();
        assert!(
            matches!(
                &err,
                StorageError::Backpressure {
                    resource: "wal",
                    ..
                }
            ),
            "{err}"
        );
        // A group commit retires the blob; the backlog drains to zero
        // and admission reopens.
        e.flush().unwrap();
        assert_eq!(e.wal_backlog_bytes(), 0);
        e.ingest_points::<f64>(&coords(&[[2, 2]]), &[2.0]).unwrap();
        assert_eq!(e.wal_backlog_bytes(), one_blob);
        // The rejected batch was never acked and never became visible.
        assert_eq!(
            e.read_values::<f64>(&coords(&[[2, 2]])).unwrap(),
            vec![Some(2.0)]
        );
    }

    #[test]
    fn engine_shutdown_flushes_and_retires() {
        use crate::faults::FailingBackend;
        let e = StorageEngine::open_with(
            FailingBackend::new(MemBackend::new()),
            FormatKind::Linear,
            Shape::new(vec![16, 16]).unwrap(),
            8,
            EngineConfig::default(),
        )
        .unwrap();
        e.ingest_points::<f64>(&coords(&[[1, 1]]), &[1.0]).unwrap();
        // Strand the WAL blob: the flush commits but cannot delete it.
        e.backend().fail_deletes(true);
        e.flush().unwrap();
        let wals = |e: &StorageEngine<FailingBackend<MemBackend>>| {
            e.backend()
                .list()
                .unwrap()
                .into_iter()
                .filter(|n| n.ends_with(".wal"))
                .count()
        };
        assert_eq!(wals(&e), 1);
        e.backend().disarm();
        // Shutdown drains the orphan without another flush trigger.
        e.shutdown().unwrap();
        assert_eq!(wals(&e), 0);
        assert_eq!(e.wal_backlog_bytes(), 0);
    }
}
