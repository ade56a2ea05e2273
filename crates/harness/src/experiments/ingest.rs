//! Streaming ingest — sustained writes under concurrent reads.
//!
//! Two phases per pattern (MSP and GSP at 3D):
//!
//! 1. **Deterministic group-commit accounting.** The dataset is ingested
//!    in fixed `--ingest-batch` point batches through the WAL-protected
//!    buffer with `--ingest-flush-points` as the only self-flush trigger,
//!    then flushed and consolidated. On the in-memory backend every byte
//!    count — WAL bytes, group commits, final store size — is a pure
//!    function of the dataset, so these land in `BENCH_ingest.json` for
//!    the CI `compare_bench.py` gate (`--stat bytes`).
//! 2. **Sustained ingest under concurrent reads.** A fresh store runs the
//!    background [`IngestScheduler`] while the main thread re-ingests the
//!    dataset and a reader thread hammers point queries the whole time.
//!    Writes/sec, reads served, and the scheduler's flush/consolidation
//!    counters are reported (informational — wall-clock, not gated).

use crate::config::Config;
use crate::experiments::{write_bench, Bench, ExperimentOutput};
use crate::Result;
use artsparse_core::FormatKind;
use artsparse_metrics::Table;
use artsparse_patterns::{Dataset, Pattern};
use artsparse_storage::{
    EngineConfig, IngestScheduler, MemBackend, SchedulerConfig, StorageEngine,
};
use artsparse_tensor::CoordBuffer;
use serde::Serialize;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Serialize)]
struct Row {
    pattern: String,
    n_points: usize,
    batches: usize,
    group_commits: u64,
    wal_bytes: u64,
    fragments_before_consolidate: usize,
    final_fragments: usize,
    total_bytes: u64,
    ingest_ns: u64,
    writes_per_sec: u64,
    readback_verified: bool,
    concurrent_writes_per_sec: u64,
    concurrent_reads: u64,
    scheduler_runs: u64,
    scheduler_flushes: u64,
    scheduler_consolidations: u64,
    scheduler_errors: u64,
    scheduler_last_error: Option<String>,
}

/// Slice the dataset into `batch`-point [`CoordBuffer`]s plus their
/// value slices.
fn batches(ds: &Dataset, values: &[f64], batch: usize) -> Result<Vec<(CoordBuffer, Vec<f64>)>> {
    let n = ds.nnz();
    let mut out = Vec::with_capacity(n.div_ceil(batch));
    let mut lo = 0usize;
    while lo < n {
        let hi = (lo + batch).min(n);
        let mut coords = CoordBuffer::with_capacity(ds.shape.ndim(), hi - lo);
        for coord in ds.coords.iter().skip(lo).take(hi - lo) {
            coords.push(coord)?;
        }
        out.push((coords, values[lo..hi].to_vec()));
        lo = hi;
    }
    Ok(out)
}

/// Phase 1: deterministic ingest → flush → consolidate with telemetry.
fn run_deterministic(cfg: &Config, pattern: Pattern) -> Result<(Row, Bench)> {
    let ndim = 3;
    let ds = Dataset::for_scale(pattern, ndim, cfg.scale, cfg.params);
    let values = ds.values();
    let work = batches(&ds, &values, cfg.ingest_batch.max(1))?;

    let engine = StorageEngine::open_with(
        MemBackend::new(),
        FormatKind::Coo,
        ds.shape.clone(),
        8,
        EngineConfig::default()
            .with_ingest(cfg.ingest_config())
            .with_telemetry(true),
    )?;

    let start = Instant::now();
    let mut batch_ns = Vec::with_capacity(work.len());
    for (coords, vals) in &work {
        let batch_start = Instant::now();
        engine.ingest_points::<f64>(coords, vals)?;
        batch_ns.push(batch_start.elapsed().as_nanos() as u64);
    }
    engine.flush()?;
    let ingest_ns = start.elapsed().as_nanos() as u64;
    let fragments_before = engine.fragments()?.len();
    engine.consolidate()?;

    // Read-back: the consolidated store returns every ingested point
    // (later duplicates having won).
    let (coords, _) = engine.export()?;
    let mut expected = std::collections::BTreeSet::new();
    for coord in ds.coords.iter() {
        expected.insert(coord.to_vec());
    }
    let readback_verified =
        coords.len() == expected.len() && coords.iter().all(|c| expected.contains(c));

    let stats = engine.stats()?;
    let telemetry = engine.telemetry_report();
    let totals = telemetry.as_ref().map(|t| t.totals).unwrap_or_default();
    if let (Some(dir), Some(report)) = (&cfg.telemetry_out, &telemetry) {
        let path = crate::telemetry::write_cell_document(
            dir,
            cfg,
            "INGEST",
            pattern.name(),
            ndim,
            report,
        )?;
        eprintln!("[ingest] telemetry -> {}", path.display());
    } else if cfg.telemetry {
        if let Some(report) = &telemetry {
            eprintln!("{}", report.to_ascii());
        }
    }

    let n = ds.nnz();
    let writes_per_sec = if ingest_ns == 0 {
        0
    } else {
        (n as u128 * 1_000_000_000 / ingest_ns as u128) as u64
    };
    let row = Row {
        pattern: pattern.name().to_string(),
        n_points: n,
        batches: work.len(),
        group_commits: totals.group_commits,
        wal_bytes: totals.wal_bytes,
        fragments_before_consolidate: fragments_before,
        final_fragments: engine.fragments()?.len(),
        total_bytes: stats.total_bytes,
        ingest_ns,
        writes_per_sec,
        readback_verified,
        concurrent_writes_per_sec: 0, // filled by phase 2
        concurrent_reads: 0,
        scheduler_runs: 0,
        scheduler_flushes: 0,
        scheduler_consolidations: 0,
        scheduler_errors: 0,
        scheduler_last_error: None,
    };
    let slug = pattern.name().to_ascii_lowercase();
    // One sample per ingest batch. The gated statistic: WAL bytes +
    // final store size, both pure functions of the dataset and the flush
    // threshold.
    let bench = Bench::new(
        format!("ingest-{slug}"),
        &batch_ns,
        totals.wal_bytes + stats.total_bytes,
    );
    Ok((row, bench))
}

/// Phase 2: the same dataset under the background scheduler with a
/// concurrent point-query reader; fills the row's concurrency columns.
fn run_concurrent(cfg: &Config, pattern: Pattern, row: &mut Row) -> Result<()> {
    let ndim = 3;
    let ds = Dataset::for_scale(pattern, ndim, cfg.scale, cfg.params);
    let values = ds.values();
    let work = batches(&ds, &values, cfg.ingest_batch.max(1))?;

    let engine = Arc::new(StorageEngine::open_with(
        MemBackend::new(),
        FormatKind::Coo,
        ds.shape.clone(),
        8,
        EngineConfig::default().with_ingest(cfg.ingest_config()),
    )?);
    let mut scheduler = IngestScheduler::spawn(
        Arc::clone(&engine),
        SchedulerConfig {
            tick_ms: 1,
            ..SchedulerConfig::default()
        },
    );

    // Reader thread: point queries over a fixed sample until the writer
    // finishes. Every read must succeed; hit counts vary with timing.
    let stop = Arc::new(AtomicBool::new(false));
    let reads = Arc::new(AtomicU64::new(0));
    let reader = {
        let engine = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        let reads = Arc::clone(&reads);
        let stride = ds.nnz().div_ceil(256).max(1);
        let mut sample = CoordBuffer::new(ndim);
        for coord in ds.coords.iter().step_by(stride) {
            sample.push(coord)?;
        }
        std::thread::spawn(move || -> Result<()> {
            while !stop.load(Ordering::Relaxed) {
                engine.read(&sample)?;
                reads.fetch_add(1, Ordering::Relaxed);
            }
            Ok(())
        })
    };

    let start = Instant::now();
    let mut batch_ns = Vec::with_capacity(work.len());
    for (coords, vals) in &work {
        let batch_start = Instant::now();
        engine.ingest_points::<f64>(coords, vals)?;
        batch_ns.push(batch_start.elapsed().as_nanos() as u64);
    }
    engine.flush()?;
    let elapsed_ns = start.elapsed().as_nanos().max(1) as u64;
    stop.store(true, Ordering::Relaxed);
    reader.join().expect("reader thread")?;
    scheduler.shutdown();
    let stats = scheduler.stats();

    row.concurrent_writes_per_sec = (ds.nnz() as u128 * 1_000_000_000 / elapsed_ns as u128) as u64;
    row.concurrent_reads = reads.load(Ordering::Relaxed);
    row.scheduler_runs = stats.runs;
    row.scheduler_flushes = stats.flushes;
    row.scheduler_consolidations = stats.consolidations;
    row.scheduler_errors = stats.errors;
    row.scheduler_last_error = stats.last_error.clone();
    // Background errors must never be silent: the store stats carry the
    // count plus the last error text and timestamp, and the digest
    // repeats them whenever any occurred.
    let store = engine.stats()?;
    if store.scheduler_errors > 0 || cfg.telemetry_enabled() {
        eprintln!(
            "[ingest]   scheduler health: {} run(s), {} error(s){}",
            store.scheduler_runs,
            store.scheduler_errors,
            match (
                &store.scheduler_last_error,
                store.scheduler_last_error_at_ms
            ) {
                (Some(e), Some(at)) => format!(", last at unix-ms {at}: {e}"),
                _ => String::new(),
            }
        );
    }
    Ok(())
}

/// Run the streaming-ingest experiment for MSP and GSP at 3D.
pub fn run(cfg: &Config) -> Result<ExperimentOutput> {
    let mut rows = Vec::new();
    let mut benches = Vec::new();
    for pattern in [Pattern::Msp, Pattern::Gsp] {
        eprintln!(
            "[ingest] {} 3D, {}-point batches, flush at {} points",
            pattern.name(),
            cfg.ingest_batch,
            cfg.ingest_flush_points
        );
        let (mut row, bench) = run_deterministic(cfg, pattern)?;
        run_concurrent(cfg, pattern, &mut row)?;
        eprintln!(
            "[ingest]   {} points in {} batches | {} group commits | {} WAL bytes | \
             {} writes/s solo, {} writes/s under {} concurrent read passes",
            row.n_points,
            row.batches,
            row.group_commits,
            row.wal_bytes,
            row.writes_per_sec,
            row.concurrent_writes_per_sec,
            row.concurrent_reads
        );
        rows.push(row);
        benches.push(bench);
    }

    let mut table = Table::new(
        "streaming ingest — WAL-protected group commits under concurrent reads",
        &[
            "pattern",
            "points",
            "batches",
            "commits",
            "WAL B",
            "store B",
            "writes/s",
            "conc writes/s",
            "read passes",
            "sched runs",
            "verified",
        ],
    );
    for r in &rows {
        table.push_row(vec![
            r.pattern.clone(),
            r.n_points.to_string(),
            r.batches.to_string(),
            r.group_commits.to_string(),
            r.wal_bytes.to_string(),
            r.total_bytes.to_string(),
            r.writes_per_sec.to_string(),
            r.concurrent_writes_per_sec.to_string(),
            r.concurrent_reads.to_string(),
            r.scheduler_runs.to_string(),
            r.readback_verified.to_string(),
        ]);
    }

    // The compare_bench.py gate compares `bytes` (WAL + final store),
    // which is deterministic on the in-memory backend; the writes/sec
    // columns are wall-clock and informational.
    if let Some(dir) = &cfg.out_dir {
        let path = write_bench(dir, "ingest", &benches)?;
        eprintln!("[ingest] bench -> {}", path.display());
    }

    Ok(ExperimentOutput {
        name: "ingest",
        notes: vec![
            "Streaming ingest: batches are WAL-acked into the write buffer and".into(),
            "group-committed into ordinary fragments at the flush threshold;".into(),
            "the background scheduler flushes stale buffers and keeps the".into(),
            "fragment count plateaued via size-tiered consolidation.".into(),
            "`verified` means the consolidated store exports exactly the".into(),
            "ingested coordinate set.".into(),
        ],
        tables: vec![table],
        json: serde_json::json!({
            "scale": cfg.scale,
            "ingest_batch": cfg.ingest_batch,
            "ingest_flush_points": cfg.ingest_flush_points,
            "rows": rows,
            "benchmarks": benches,
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingest_commits_deterministically_and_verifies_readback() {
        let cfg = Config::smoke();
        let out = run(&cfg).unwrap();
        let rows = out.json["rows"].as_array().unwrap();
        assert_eq!(rows.len(), 2);
        for r in rows {
            assert_eq!(r["readback_verified"].as_bool(), Some(true));
            assert!(r["group_commits"].as_u64().unwrap() >= 1);
            assert!(r["wal_bytes"].as_u64().unwrap() > 0);
            assert_eq!(r["final_fragments"].as_u64(), Some(1));
            assert!(r["scheduler_runs"].as_u64().unwrap() >= 1);
            assert_eq!(r["scheduler_errors"].as_u64(), Some(0));
            assert!(r["scheduler_last_error"].is_null());
        }
        // Determinism of the gated statistic: a second run byte-matches
        // (timing columns are wall-clock and excluded).
        let again = run(&cfg).unwrap();
        let bytes = |o: &ExperimentOutput| -> Vec<(String, u64)> {
            o.json["benchmarks"]
                .as_array()
                .unwrap()
                .iter()
                .map(|b| {
                    (
                        b["id"].as_str().unwrap().to_string(),
                        b["bytes"].as_u64().unwrap(),
                    )
                })
                .collect()
        };
        assert_eq!(
            bytes(&out),
            bytes(&again),
            "gated bytes must be deterministic"
        );
    }

    #[test]
    fn bench_file_written_under_out_dir() {
        let dir = tempfile::tempdir().unwrap();
        let mut cfg = Config::smoke();
        cfg.out_dir = Some(dir.path().to_path_buf());
        run(&cfg).unwrap();
        let doc: serde_json::Value = serde_json::from_str(
            &std::fs::read_to_string(dir.path().join("BENCH_ingest.json")).unwrap(),
        )
        .unwrap();
        assert_eq!(doc["group"], "ingest");
        assert_eq!(doc["benchmarks"].as_array().unwrap().len(), 2);
    }
}
