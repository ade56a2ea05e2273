//! End-to-end telemetry: the engine's span-attributed I/O accounting
//! must agree byte-for-byte with the device's own counters, an engine
//! with telemetry off must have no span sink, the report must agree with
//! `StoreStats`/`CacheStats`, and the exported per-cell document must
//! validate against the checked-in schema.

use artsparse::metrics::SpanKind;
use artsparse::storage::{
    EngineConfig, MemBackend, ObservabilityConfig, SimulatedDisk, StorageEngine,
};
use artsparse::{CoordBuffer, FormatKind, Region, Shape};
use std::time::Duration;

/// A fast simulated device: real byte accounting, negligible sleeps.
fn fast_disk() -> SimulatedDisk {
    SimulatedDisk::new(1e15, Duration::ZERO)
}

fn pts(p: &[[u64; 2]]) -> CoordBuffer {
    CoordBuffer::from_points(2, p).unwrap()
}

/// Write `fragments` fragments of 32 points each (fragment `f` fills
/// row `f`).
fn seed_fragments(engine: &StorageEngine<SimulatedDisk>, fragments: u64) {
    for f in 0..fragments {
        let coords: Vec<[u64; 2]> = (0..32).map(|k| [f, k]).collect();
        let values: Vec<f64> = (0..32).map(|k| (f * 100 + k) as f64).collect();
        engine.write_points::<f64>(&pts(&coords), &values).unwrap();
    }
}

#[test]
fn telemetry_bytes_agree_with_simulated_disk() {
    // Totals must not depend on which thread read a fragment.
    for threads in [1, 4] {
        telemetry_bytes_agree_at_width(threads);
    }
}

fn telemetry_bytes_agree_at_width(threads: usize) {
    let engine = StorageEngine::open_with(
        fast_disk(),
        FormatKind::GcsrPP,
        Shape::new(vec![64, 64]).unwrap(),
        8,
        EngineConfig::default()
            .with_telemetry(true)
            .with_threads(threads),
    )
    .unwrap();

    seed_fragments(&engine, 6);

    // A multi-fragment region read plus point lookups.
    let region = Region::from_corners(&[0, 0], &[5, 31]).unwrap();
    let result = engine.read_region(&region).unwrap();
    assert_eq!(result.hits.len(), 6 * 32);
    assert!(result.fragments_matched >= 6);
    let vals = engine
        .read_values::<f64>(&pts(&[[0, 0], [3, 7], [5, 31], [63, 63]]))
        .unwrap();
    assert_eq!(vals[1], Some(307.0));
    assert_eq!(vals[3], None);

    // Consolidation reads every source fragment and writes the merged one.
    engine.consolidate().unwrap();
    engine.read_region(&region).unwrap();

    let report = engine.telemetry_report().expect("telemetry enabled");
    let disk = engine.backend();
    assert_eq!(
        report.totals.bytes_fetched,
        disk.bytes_read(),
        "span-attributed fetched bytes must equal the device's read counter"
    );
    assert_eq!(
        report.totals.bytes_written,
        disk.bytes_written(),
        "span-attributed written bytes must equal the device's write counter"
    );
    assert!(report.totals.bytes_fetched > 0);
    assert!(report.totals.bytes_written > 0);

    // Self-IO accounting: per-kind sums reassemble the totals exactly.
    let span_sum: u64 = report.spans.iter().map(|s| s.io.bytes_fetched).sum();
    assert_eq!(span_sum, report.totals.bytes_fetched);

    // The taxonomy was exercised. Consolidation commits its merged
    // fragment through the write path, hence the 7th write span.
    assert_eq!(report.span(SpanKind::Write).unwrap().count, 7);
    assert_eq!(report.span(SpanKind::Read).unwrap().count, 3);
    assert_eq!(report.span(SpanKind::Consolidate).unwrap().count, 1);
    assert!(report.span(SpanKind::Recover).unwrap().count >= 1);
    assert!(
        report.backend_op("sim", "put").is_some()
            || report.backend_op("sim", "put_atomic").is_some()
    );
}

/// Per-fragment read workers join the read's trace: at width 4 over six
/// fragments, every fetch and decode span carries the trace id of the
/// `engine.read` span that fanned out, and sits one level below it.
#[test]
fn read_workers_share_the_trace_of_their_read() {
    let engine = StorageEngine::open_with(
        fast_disk(),
        FormatKind::Coo,
        Shape::new(vec![64, 64]).unwrap(),
        8,
        EngineConfig::default().with_telemetry(true).with_threads(4),
    )
    .unwrap();
    seed_fragments(&engine, 6);
    for region in [
        Region::from_corners(&[0, 0], &[5, 31]).unwrap(),
        Region::from_corners(&[2, 0], &[3, 7]).unwrap(),
    ] {
        let result = engine.read_region(&region).unwrap();
        assert!(result.fragments_matched >= 2);
    }

    let report = engine.telemetry_report().unwrap();
    let reads: Vec<_> = report
        .events
        .iter()
        .filter(|e| e.kind == SpanKind::Read)
        .collect();
    assert_eq!(reads.len(), 2);
    let mut workers = 0;
    for e in &report.events {
        if !matches!(e.kind, SpanKind::ReadFetch | SpanKind::ReadDecode) {
            continue;
        }
        // The read that was open when this worker span ran.
        let read = reads
            .iter()
            .find(|r| r.start_ns <= e.start_ns && e.start_ns <= r.start_ns + r.dur_ns)
            .expect("worker span inside a read");
        assert_eq!(
            e.trace_id, read.trace_id,
            "{:?} left its read's trace",
            e.kind
        );
        assert_eq!(e.depth, read.depth + 1);
        workers += 1;
    }
    // Six fragments, then two: at least one fetch and one decode each.
    assert!(workers >= 2 * (6 + 2), "{workers} worker spans");
}

/// With telemetry and the plane both off the engine has no span sink:
/// nothing aggregates and no registry or journal exists.
#[test]
fn disabled_recorder_is_never_called() {
    let engine = StorageEngine::open(
        MemBackend::new(),
        FormatKind::Linear,
        Shape::new(vec![32, 32]).unwrap(),
        8,
    )
    .unwrap();

    engine
        .write_points::<f64>(&pts(&[[1, 2], [3, 4]]), &[1.0, 2.0])
        .unwrap();
    engine.read_values::<f64>(&pts(&[[1, 2], [9, 9]])).unwrap();
    engine.consolidate().unwrap();

    assert!(engine.telemetry_report().is_none());
    assert!(engine.observability().is_none());
}

/// With both switches on, one sink feeds the aggregated report and the
/// live registry from the same spans, so their byte totals agree.
#[test]
fn report_and_registry_agree_with_both_switches_on() {
    let engine = StorageEngine::open_with(
        fast_disk(),
        FormatKind::Coo,
        Shape::new(vec![64, 64]).unwrap(),
        8,
        EngineConfig::default()
            .with_telemetry(true)
            .with_observability(ObservabilityConfig::default())
            .with_threads(4),
    )
    .unwrap();
    seed_fragments(&engine, 3);
    engine
        .ingest_points::<f64>(&pts(&[[10, 1], [10, 2]]), &[1.0, 2.0])
        .unwrap();
    engine.flush().unwrap();
    engine
        .read_region(&Region::from_corners(&[0, 0], &[10, 31]).unwrap())
        .unwrap();

    let totals = engine.telemetry_report().unwrap().totals;
    let snapshot = engine.observability().unwrap().registry().snapshot();
    let counter = |name: &str| snapshot.sample(name).unwrap().value as u64;
    assert!(totals.bytes_fetched > 0 && totals.wal_bytes > 0);
    assert_eq!(
        counter("artsparse_bytes_fetched_total"),
        totals.bytes_fetched
    );
    assert_eq!(
        counter("artsparse_bytes_written_total"),
        totals.bytes_written
    );
    assert_eq!(counter("artsparse_wal_bytes_total"), totals.wal_bytes);
}

#[test]
fn telemetry_agrees_with_engine_stats() {
    for threads in [1, 4] {
        telemetry_agrees_with_engine_stats_at_width(threads);
    }
}

fn telemetry_agrees_with_engine_stats_at_width(threads: usize) {
    let engine = StorageEngine::open_with(
        fast_disk(),
        FormatKind::Csf,
        Shape::new(vec![64, 64]).unwrap(),
        8,
        EngineConfig::default()
            .with_telemetry(true)
            .with_cache_capacity(1 << 20)
            .with_threads(threads),
    )
    .unwrap();

    seed_fragments(&engine, 4);
    let region = Region::from_corners(&[0, 0], &[3, 31]).unwrap();
    engine.read_region(&region).unwrap(); // cold: misses
    engine.read_region(&region).unwrap(); // warm: hits

    let report = engine.telemetry_report().unwrap();
    let cache = engine.cache().stats();
    assert!(cache.hits > 0 && cache.misses > 0);
    assert_eq!(report.totals.cache_hits, cache.hits);
    assert_eq!(report.totals.cache_misses, cache.misses);
    assert_eq!(report.totals.cache_evictions, cache.evictions);
    assert_eq!(report.totals.cache_evicted_bytes, cache.evicted_bytes);

    let stats = engine.stats().unwrap();
    let recovery = engine.recovery_report();
    assert_eq!(stats.epoch_markers, recovery.epoch_markers);
    assert!(stats.epoch_markers >= 1, "own epoch claim is counted");
    assert_eq!(stats.orphans_swept, recovery.orphans_swept);
}

#[test]
fn harness_writes_schema_valid_documents() {
    use artsparse::harness::telemetry::validate_file;
    use artsparse::harness::Config;
    use artsparse::{Pattern, Scale};

    let dir = tempfile::tempdir().unwrap();
    let mut cfg = Config::smoke();
    cfg.scale = Scale::Smoke;
    cfg.formats = vec![FormatKind::Coo];
    cfg.patterns = vec![Pattern::Tsp];
    cfg.ndims = vec![2];
    cfg.telemetry_out = Some(dir.path().to_path_buf());

    let (matrix, reports) = artsparse::harness::run_matrix_with_telemetry(&cfg).unwrap();
    assert_eq!(matrix.cells.len(), 1);
    assert_eq!(reports.len(), 1);

    let doc = dir.path().join("telemetry-coo-tsp-2D.json");
    assert!(doc.exists(), "per-cell document written");
    // Integration tests run from the workspace root, where the schema lives.
    let errors =
        validate_file(&doc, std::path::Path::new("schemas/telemetry.schema.json")).unwrap();
    assert!(errors.is_empty(), "{errors:?}");
}
