//! The `grid` workload: the paper's evaluation grid in process — COO,
//! LINEAR, GCSR++, GCSC++ and CSF × TSP/GSP/MSP × 2D/3D/4D — each cell a
//! `StorageEngine::write` followed by the §III region read on
//! `MemBackend`, every read checked against its dataset.

use crate::backend::{Counting, Shared};
use crate::metrics::FORMATS;
use crate::stats::{median, percentile};
use crate::trace::Recorder;
use artsparse_core::FormatKind;
use artsparse_patterns::{Dataset, Pattern, PatternParams, Scale};
use artsparse_storage::{EngineConfig, MemBackend, StorageBackend, StorageEngine};
use artsparse_tensor::{CoordBuffer, Shape};
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// One generated grid dataset with its read queries and their answers.
pub struct Cell {
    /// Pattern and dimensionality label.
    pub label: String,
    shape: Shape,
    coords: CoordBuffer,
    payload: Vec<u8>,
    queries: CoordBuffer,
    /// Per query: the value the read must return.
    expected: Vec<Option<f64>>,
}

/// Generate the nine datasets of the grid at `scale` under `seed`.
pub fn generate(scale: Scale, seed: u64) -> Vec<Cell> {
    let params = PatternParams {
        seed,
        ..PatternParams::default()
    };
    let mut cells = Vec::new();
    for pattern in Pattern::ALL {
        for ndim in Scale::NDIMS {
            let ds = Dataset::for_scale(pattern, ndim, scale, params);
            let values = ds.values();
            let mut by_addr: HashMap<u64, f64> = HashMap::with_capacity(values.len());
            for (p, &v) in ds.coords.iter().zip(&values) {
                by_addr.entry(ds.shape.linearize_unchecked(p)).or_insert(v);
            }
            let queries = ds.read_region().to_coords();
            let expected = queries
                .iter()
                .map(|q| by_addr.get(&ds.shape.linearize_unchecked(q)).copied())
                .collect();
            cells.push(Cell {
                label: ds.label(),
                shape: ds.shape.clone(),
                payload: artsparse_tensor::value::pack(&values),
                coords: ds.coords,
                queries,
                expected,
            });
        }
    }
    cells
}

impl Cell {
    /// Points in the dataset.
    pub fn points(&self) -> usize {
        self.coords.len()
    }

    /// Falsify the first expected hit (the self-test that proves a wrong
    /// answer is caught).
    pub fn corrupt(&mut self) {
        if let Some(v) = self.expected.iter_mut().flatten().next() {
            *v += 1.0;
        }
    }
}

/// One measured `(organization, dataset)` cell.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Organization metric name (`coo`, …).
    pub format: &'static str,
    /// `StorageEngine::write` wall time, s.
    pub write_s: f64,
    /// Region read wall time, s.
    pub read_s: f64,
    /// Fragment bytes.
    pub bytes: u64,
    /// Points written.
    pub points: u64,
    /// Whether every query came back right.
    pub right: bool,
}

/// What a traced pass adds: spans go to the recorder, device traffic to
/// the counters.
pub struct Tracing<'a> {
    /// Span sink.
    pub rec: &'a Recorder,
    /// Counters shared with the counting backend.
    pub shared: Arc<Shared>,
    /// Per cell: device reads, bytes read, threads spawned, fragments
    /// scanned, fragments matched, fragments at the end.
    pub reads: Vec<[u64; 6]>,
}

/// What one engine write + read reports.
struct Probe {
    write_s: f64,
    read_s: f64,
    bytes: u64,
    right: bool,
    scanned: usize,
    matched: usize,
    fragments: usize,
}

fn measure_on<B: StorageBackend>(
    backend: B,
    kind: FormatKind,
    cell: &Cell,
    mut enter: impl FnMut() -> (u64, u32, u64),
    mut leave: impl FnMut(u64, u32, &'static str, u64),
) -> io::Result<Probe> {
    let err = |e: artsparse_storage::StorageError| io::Error::other(e.chain_string());
    let engine = StorageEngine::open_with(
        backend,
        kind,
        cell.shape.clone(),
        8,
        EngineConfig::default(),
    )
    .map_err(err)?;
    let (req, id, start) = enter();
    let t0 = Instant::now();
    let report = engine.write(&cell.coords, &cell.payload).map_err(err)?;
    let write_s = t0.elapsed().as_secs_f64();
    leave(req, id, "engine.write", start);
    let (req, id, start) = enter();
    let t0 = Instant::now();
    let result = engine.read(&cell.queries).map_err(err)?;
    let read_s = t0.elapsed().as_secs_f64();
    leave(req, id, "engine.read", start);
    let got = result.to_values::<f64>(cell.queries.len()).map_err(err)?;
    let right = got.len() == cell.expected.len()
        && got
            .iter()
            .zip(&cell.expected)
            .all(|(g, e)| g.map(f64::to_bits) == e.map(f64::to_bits));
    Ok(Probe {
        write_s,
        read_s,
        bytes: report.total_bytes as u64,
        right,
        scanned: result.fragments_scanned,
        matched: result.fragments_matched,
        fragments: engine.stats().map_err(err)?.fragments,
    })
}

/// One pass over every organization × dataset.
pub fn pass(cells: &[Cell], mut tracing: Option<&mut Tracing>) -> io::Result<Vec<Measured>> {
    let mut out = Vec::new();
    for (ci, cell) in cells.iter().enumerate() {
        for (fi, (format, kind)) in FORMATS.into_iter().enumerate() {
            let probe = match tracing.as_deref_mut() {
                None => measure_on(MemBackend::new(), kind, cell, || (0, 0, 0), |_, _, _, _| {})?,
                Some(t) => {
                    let shared = Arc::clone(&t.shared);
                    let c = &shared.counts;
                    let before = (Shared::get(&c.fg_gets), Shared::get(&c.fg_bytes_read));
                    let tasks = artsparse_tensor::par::stats().tasks_spawned;
                    shared.workers.lock().expect("workers poisoned").clear();
                    let req = ((ci * FORMATS.len() + fi) as u64) << 32;
                    let rec = t.rec;
                    let r = measure_on(
                        Counting::new(MemBackend::new(), Arc::clone(&shared)),
                        kind,
                        cell,
                        || {
                            let id = rec.id();
                            shared.req.store(req, Ordering::Relaxed);
                            shared.parent.store(id, Ordering::Relaxed);
                            (req, id, rec.now())
                        },
                        |req, id, name, start| {
                            shared.parent.store(0, Ordering::Relaxed);
                            rec.close(req, id, 0, name, start);
                        },
                    )?;
                    let threads = artsparse_tensor::par::stats().tasks_spawned - tasks
                        + shared.workers.lock().expect("workers poisoned").len() as u64;
                    t.reads.push([
                        Shared::get(&c.fg_gets) - before.0,
                        Shared::get(&c.fg_bytes_read) - before.1,
                        threads,
                        r.scanned as u64,
                        r.matched as u64,
                        r.fragments as u64,
                    ]);
                    r
                }
            };
            out.push(Measured {
                format,
                write_s: probe.write_s,
                read_s: probe.read_s,
                bytes: probe.bytes,
                points: cell.coords.len() as u64,
                right: probe.right,
            });
        }
    }
    Ok(out)
}

/// The core layer alone: each organization's `build` and `read` called
/// directly, with the exact `OpCounter` compare count.
pub fn core_metrics(cells: &[Cell]) -> io::Result<BTreeMap<String, f64>> {
    let mut out = BTreeMap::new();
    for (name, kind) in FORMATS {
        let org = kind.create();
        let (mut build_ns, mut read_ns, mut points, mut queries, mut index_bytes, mut compares) =
            (0.0, 0.0, 0u64, 0u64, 0u64, 0u64);
        for cell in cells {
            let counter = artsparse_metrics::OpCounter::new();
            let t0 = Instant::now();
            let built = org
                .build(&cell.coords, &cell.shape, &counter)
                .map_err(|e| io::Error::other(e.to_string()))?;
            build_ns += t0.elapsed().as_nanos() as f64;
            counter.reset();
            let t0 = Instant::now();
            let slots = org
                .read(&built.index, &cell.queries, &counter)
                .map_err(|e| io::Error::other(e.to_string()))?;
            read_ns += t0.elapsed().as_nanos() as f64;
            let found = slots.iter().filter(|s| s.is_some()).count();
            let want = cell.expected.iter().filter(|e| e.is_some()).count();
            if found != want {
                return Err(io::Error::other(format!(
                    "{name} on {}: {found} hits, dataset has {want}",
                    cell.label
                )));
            }
            compares += counter.snapshot().compares;
            points += cell.coords.len() as u64;
            queries += cell.queries.len() as u64;
            index_bytes += built.index.len() as u64;
        }
        out.insert(
            format!("core.build_ns_per_point.{name}"),
            build_ns / points as f64,
        );
        out.insert(
            format!("core.read_ns_per_query.{name}"),
            read_ns / queries as f64,
        );
        out.insert(
            format!("core.index_bytes_per_point.{name}"),
            index_bytes as f64 / points as f64,
        );
        out.insert(
            format!("core.compares_per_query.{name}"),
            compares as f64 / queries as f64,
        );
    }
    Ok(out)
}

/// Per-pass totals `(write_s, read_s)`.
pub fn pass_totals(pass: &[Measured]) -> (f64, f64) {
    pass.iter()
        .fold((0.0, 0.0), |(w, r), m| (w + m.write_s, r + m.read_s))
}

/// Per-layer metrics of a traced pass.
pub fn traced_metrics(pass: &[Measured], tracing: &Tracing) -> BTreeMap<String, f64> {
    let writes: Vec<f64> = pass.iter().map(|m| m.write_s * 1e6).collect();
    let reads: Vec<f64> = pass.iter().map(|m| m.read_s * 1e6).collect();
    let n = tracing.reads.len().max(1) as f64;
    let mean = |k: usize| tracing.reads.iter().map(|r| r[k]).sum::<u64>() as f64 / n;
    [
        ("engine.write_us", median(&writes)),
        ("engine.read_us.p50", percentile(&reads, 50.0)),
        ("engine.read_us.p99", percentile(&reads, 99.0)),
        ("backend.get_range_per_read", mean(0)),
        ("backend.bytes_read_per_read", mean(1)),
        ("par.tasks_spawned_per_read", mean(2)),
        ("engine.fragments_scanned_per_read", mean(3)),
        ("engine.fragments_matched_per_read", mean(4)),
        ("engine.fragments_at_end", mean(5)),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}
