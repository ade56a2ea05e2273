//! The traced replay: each served request fed in process, right after the
//! client's own round trip, through the public calls a session and a
//! shard make — `protocol::parse_request` and `parse_point`,
//! `QuotaBook::charge`, and a `StorageEngine` opened exactly as a shard
//! opens one (COO, 8-byte values, default `EngineConfig`,
//! `IngestScheduler` live) over the counting backend. Replaying each
//! request next to its round trip pairs the two under the same machine
//! conditions and the same store state, so their difference (the
//! server's residual) is not swamped by run-to-run noise.

use crate::backend::{Counting, Shared};
use crate::gen::{Op, Request, Stream, Workload};
use crate::oracle::Oracle;
use crate::served::request_id;
use crate::stats::{median, percentile};
use crate::trace::Recorder;
use artsparse_core::FormatKind;
use artsparse_server::protocol;
use artsparse_server::quota::{Quota, QuotaBook};
use artsparse_storage::{
    EngineConfig, IngestScheduler, MemBackend, SchedulerConfig, StorageEngine, BUFFER_FRAGMENT,
};
use artsparse_tensor::{CoordBuffer, Region, Shape};
use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

type Engine = StorageEngine<Counting<MemBackend>>;

/// Timings and counts gathered by a replay, by name.
#[derive(Debug, Default)]
pub struct Acc {
    times: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<&'static str, u64>,
}

impl Acc {
    fn time(&mut self, key: &'static str, v: f64) {
        self.times.entry(key).or_default().push(v);
    }

    fn count(&mut self, key: &'static str, n: u64) {
        *self.counts.entry(key).or_default() += n;
    }

    /// Fold another connection's observations in.
    pub fn merge(&mut self, other: Acc) {
        for (k, v) in other.times {
            self.times.entry(k).or_default().extend(v);
        }
        for (k, n) in other.counts {
            self.count(k, n);
        }
    }

    fn times(&self, key: &str) -> &[f64] {
        self.times.get(key).map_or(&[], Vec::as_slice)
    }

    fn n(&self, key: &str) -> u64 {
        self.counts.get(key).copied().unwrap_or(0)
    }

    fn ratio(&self, a: &str, b: &str) -> f64 {
        match self.n(b) {
            0 => 0.0,
            d => self.n(a) as f64 / d as f64,
        }
    }

    /// The per-layer metrics these observations give.
    pub fn layer_metrics(&self) -> BTreeMap<String, f64> {
        let flush_ms = if self.times("inline_flush_ms").is_empty() {
            median(self.times("flush_ms"))
        } else {
            median(self.times("inline_flush_ms"))
        };
        [
            (
                "protocol.parse_request_ns",
                median(self.times("parse_request_ns")),
            ),
            (
                "protocol.parse_point_ns",
                median(self.times("parse_point_ns")),
            ),
            (
                "protocol.render_point_ns",
                median(self.times("render_point_ns")),
            ),
            ("quota.charge_ns", median(self.times("charge_ns"))),
            (
                "engine.ingest_us.p50",
                percentile(self.times("ingest_us"), 50.0),
            ),
            (
                "engine.ingest_us.p99",
                percentile(self.times("ingest_us"), 99.0),
            ),
            ("engine.flush_ms", flush_ms),
            ("engine.group_commits", self.n("group_commits") as f64),
            (
                "engine.consolidate_ms",
                median(self.times("consolidate_ms")),
            ),
            ("engine.consolidations", self.n("consolidations") as f64),
            ("engine.write_us", median(self.times("write_us"))),
            (
                "engine.wal_bytes_per_user_byte",
                self.ratio("wal_bytes", "user_bytes"),
            ),
            (
                "engine.read_us.p50",
                percentile(self.times("read_us"), 50.0),
            ),
            (
                "engine.read_us.p99",
                percentile(self.times("read_us"), 99.0),
            ),
            (
                "engine.read_region_us.p50",
                percentile(self.times("read_region_us"), 50.0),
            ),
            (
                "engine.fragments_scanned_per_read",
                self.ratio("fragments_scanned", "reads"),
            ),
            (
                "engine.fragments_matched_per_read",
                self.ratio("fragments_matched", "reads"),
            ),
            ("engine.buffer_hit_share", self.ratio("buffer_hits", "hits")),
            (
                "backend.get_range_per_read",
                self.ratio("read_gets", "reads"),
            ),
            (
                "backend.bytes_read_per_read",
                self.ratio("read_bytes", "reads"),
            ),
            (
                "backend.bytes_written_per_user_byte",
                self.ratio("bytes_written", "user_bytes"),
            ),
            ("backend.puts_per_batch", self.ratio("puts", "batches")),
            ("cache.hit_rate", self.ratio("cache_hits", "cache_lookups")),
            ("scheduler.runs", self.n("scheduler_runs") as f64),
            ("scheduler.errors", self.n("scheduler_errors") as f64),
            (
                "engine.fragments_at_end",
                self.ratio("fragments_at_end", "datasets"),
            ),
            (
                "par.tasks_spawned_per_read",
                self.ratio("read_threads", "reads"),
            ),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
    }
}

struct Ctx<'a> {
    rec: &'a Recorder,
    shared: &'a Shared,
    quotas: &'a QuotaBook,
    tenant: &'a str,
}

/// The engine a shard holds for one dataset, and its scheduler.
struct Dataset {
    engine: Arc<Engine>,
    scheduler: IngestScheduler,
}

fn ns(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64
}

impl Ctx<'_> {
    /// Run one engine call as a span the backend's spans nest under.
    fn engine_call<R>(
        &self,
        req: u64,
        root: u32,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.rec.id();
        let start = self.rec.now();
        self.shared.req.store(req, Ordering::Relaxed);
        self.shared.parent.store(id, Ordering::Relaxed);
        let t0 = Instant::now();
        let r = f();
        let took = ns(t0);
        self.shared.parent.store(0, Ordering::Relaxed);
        self.rec.close(req, id, root, name, start);
        (r, took)
    }

    /// Serve one request the way a session and its shard would; returns
    /// whether the answer was right (`None` = the call failed).
    #[allow(clippy::too_many_arguments)]
    fn serve(
        &self,
        engine: &Engine,
        dataset: &str,
        req_id: u64,
        req: &Request,
        oracle: &mut Oracle,
        acc: &mut Acc,
    ) -> Option<bool> {
        let rec = self.rec;
        let mut text = String::new();
        req.render(dataset, &mut text);
        let root = rec.id();
        let root_start = rec.now();
        let mut lines = text.lines();
        let head = lines.next().unwrap_or_default();

        let t0 = Instant::now();
        let request = rec.time(req_id, root, "protocol.parse_request", || {
            let r = protocol::parse_request(head)?;
            let coords: Vec<u64> = match r.command.as_str() {
                "GET" => r.args[1..]
                    .iter()
                    .map(|c| c.parse().ok())
                    .collect::<Option<_>>()?,
                _ => Vec::new(),
            };
            let bounds: Vec<(u64, u64)> = match r.command.as_str() {
                "SCAN" => r.args[1..]
                    .iter()
                    .map(|b| protocol::parse_bound(b).ok())
                    .collect::<Option<_>>()?,
                _ => Vec::new(),
            };
            Some((r, coords, bounds))
        });
        acc.time("parse_request_ns", ns(t0));
        let (request, coords, bounds) = request?;

        let answer = match request.command.as_str() {
            "INGEST" | "PUT" => {
                let ingest = request.command == "INGEST";
                let n: usize = request.args.get(1)?.parse().ok()?;
                let t0 = Instant::now();
                let parsed = rec.time(req_id, root, "protocol.parse_point", || {
                    let mut flat = Vec::new();
                    let mut values = Vec::with_capacity(n);
                    for line in lines.by_ref().take(n) {
                        let (c, v) = protocol::parse_point(line).ok()?;
                        flat.extend_from_slice(&c);
                        values.push(v);
                    }
                    Some((flat, values))
                });
                acc.time("parse_point_ns", ns(t0) / n as f64);
                let (flat, values) = parsed?;
                let t0 = Instant::now();
                rec.time(req_id, root, "quota.charge", || {
                    self.quotas.charge(self.tenant, n as u64, n as u64 * 8)
                })
                .ok()?;
                acc.time("charge_ns", ns(t0));
                let ndim = flat.len() / n;
                let buf = CoordBuffer::from_flat(ndim, flat).ok()?;
                let commits_before = Shared::get(&self.shared.counts.fg_fragment_commits);
                let (acked, took) = if ingest {
                    self.engine_call(req_id, root, "engine.ingest", || {
                        engine.ingest_points::<f64>(&buf, &values).ok()
                    })
                } else {
                    self.engine_call(req_id, root, "engine.write", || {
                        engine
                            .write_points::<f64>(&buf, &values)
                            .ok()
                            .map(|r| r.n_points)
                    })
                };
                if ingest {
                    acc.time("ingest_us", took / 1e3);
                    if Shared::get(&self.shared.counts.fg_fragment_commits) > commits_before {
                        acc.time("inline_flush_ms", took / 1e6);
                    }
                } else {
                    acc.time("write_us", took / 1e3);
                }
                acc.count("batches", 1);
                acc.count("user_bytes", (n * (ndim + 1) * 8) as u64);
                Some(Answer::Acked(acked? == n))
            }
            "GET" => {
                let mut q = CoordBuffer::new(coords.len());
                q.push(&coords).ok()?;
                let (result, took) =
                    self.read_call(req_id, root, "engine.read", acc, || engine.read(&q));
                acc.time("read_us", took / 1e3);
                let result = result.ok()?;
                self.count_hits(&result, acc);
                let value = result.to_values::<f64>(1).ok()?.pop().flatten();
                // The status line a session renders, so its cost lands in
                // the request's span as it would on the server.
                std::hint::black_box(match value {
                    Some(v) => format!("OK found=true value={}", protocol::format_value(v)),
                    None => "OK found=false".to_string(),
                });
                Some(Answer::Get(coords, value))
            }
            "SCAN" => {
                let (lo, hi): (Vec<u64>, Vec<u64>) = bounds.iter().copied().unzip();
                let region = Region::from_corners(&lo, &hi).ok()?;
                let (result, took) =
                    self.read_call(req_id, root, "engine.read_region", acc, || {
                        engine.read_region(&region)
                    });
                acc.time("read_region_us", took / 1e3);
                let result = result.ok()?;
                self.count_hits(&result, acc);
                // Last write wins per address, exactly as a shard folds hits.
                let mut rows: Vec<(u64, Vec<u64>, f64)> = Vec::new();
                for hit in &result.hits {
                    let v = f64::from_le_bytes(hit.value.get(..8)?.try_into().ok()?);
                    match rows.last_mut() {
                        Some(last) if last.0 == hit.addr => {
                            last.1.clone_from(&hit.coord);
                            last.2 = v;
                        }
                        _ => rows.push((hit.addr, hit.coord.clone(), v)),
                    }
                }
                let t0 = Instant::now();
                let rendered: Vec<String> = rec.time(req_id, root, "protocol.render_point", || {
                    rows.iter()
                        .map(|(_, c, v)| protocol::render_point(c, *v))
                        .collect()
                });
                if !rendered.is_empty() {
                    acc.time("render_point_ns", ns(t0) / rendered.len() as f64);
                }
                Some(Answer::Scan(
                    lo,
                    hi,
                    rows.into_iter().map(|(_, c, v)| (c, v)).collect(),
                ))
            }
            _ => None,
        };
        rec.close(req_id, root, 0, replay_span_name(req.op()), root_start);
        Some(match answer? {
            Answer::Acked(ok) => {
                oracle.apply(req);
                ok
            }
            Answer::Get(c, v) => oracle.check_get(&c, v),
            Answer::Scan(lo, hi, rows) => oracle.check_scan(&lo, &hi, &rows),
        })
    }

    fn read_call<R>(
        &self,
        req: u64,
        root: u32,
        name: &'static str,
        acc: &mut Acc,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let c = &self.shared.counts;
        let (gets, bytes) = (Shared::get(&c.fg_gets), Shared::get(&c.fg_bytes_read));
        let tasks = artsparse_tensor::par::stats().tasks_spawned;
        self.shared
            .workers
            .lock()
            .expect("workers poisoned")
            .clear();
        let out = self.engine_call(req, root, name, f);
        acc.count("reads", 1);
        acc.count("read_gets", Shared::get(&c.fg_gets) - gets);
        acc.count("read_bytes", Shared::get(&c.fg_bytes_read) - bytes);
        acc.count(
            "read_threads",
            artsparse_tensor::par::stats().tasks_spawned - tasks
                + self.shared.workers.lock().expect("workers poisoned").len() as u64,
        );
        out
    }

    fn count_hits(&self, r: &artsparse_storage::ReadResult, acc: &mut Acc) {
        acc.count("fragments_scanned", r.fragments_scanned as u64);
        acc.count("fragments_matched", r.fragments_matched as u64);
        acc.count("hits", r.hits.len() as u64);
        let buffered = r
            .hits
            .iter()
            .filter(|h| h.fragment == BUFFER_FRAGMENT)
            .count();
        acc.count("buffer_hits", buffered as u64);
    }
}

enum Answer {
    Acked(bool),
    Get(Vec<u64>, Option<f64>),
    Scan(Vec<u64>, Vec<u64>, Vec<(Vec<u64>, f64)>),
}

/// The root span name of a replayed request.
pub fn replay_span_name(op: Op) -> &'static str {
    match op {
        Op::Ingest => "replay.ingest",
        Op::Put => "replay.put",
        Op::Get => "replay.get",
        Op::Scan => "replay.scan",
        Op::Create => "replay.create",
    }
}

/// Open an engine exactly as a shard does, over the counting backend,
/// with its scheduler live.
fn open(dims: &[u64], shared: &Arc<Shared>) -> io::Result<Dataset> {
    let shape = Shape::new(dims.to_vec()).map_err(|e| io::Error::other(e.to_string()))?;
    let engine = StorageEngine::open_with(
        Counting::new(MemBackend::new(), Arc::clone(shared)),
        FormatKind::Coo,
        shape,
        8,
        EngineConfig::default(),
    )
    .map_err(|e| io::Error::other(e.chain_string()))?;
    let engine = Arc::new(engine);
    let scheduler = IngestScheduler::spawn(Arc::clone(&engine), SchedulerConfig::default());
    Ok(Dataset { engine, scheduler })
}

/// One connection's replay: its own engine(s), quota book and oracle.
pub struct Replayer {
    rec: Arc<Recorder>,
    shared: Arc<Shared>,
    quotas: QuotaBook,
    tenant: String,
    conn: usize,
    current: Dataset,
    oracle: Oracle,
    acc: Acc,
    /// Device counters when the measured window opened.
    base: [u64; 5],
    /// Requests replayed in the window.
    pub attempted: u64,
    /// Errors and wrong answers.
    pub failed: u64,
    /// Wrong answers.
    pub wrong: u64,
}

impl Replayer {
    /// Open connection `conn`'s dataset and replay its set-up. Call from
    /// the thread that will call [`Replayer::step`].
    pub fn new(
        workload: Workload,
        conn: usize,
        seed: u64,
        rec: &Arc<Recorder>,
    ) -> io::Result<Replayer> {
        let mut stream = Stream::new(workload, conn, seed);
        let shared = Arc::new(Shared {
            recorder: Some(Arc::clone(rec)),
            ..Shared::default()
        });
        let sample = if workload == Workload::Ingest { 64 } else { 1 };
        let mut r = Replayer {
            rec: Arc::clone(rec),
            current: open(stream.dims(), &shared)?,
            shared,
            quotas: QuotaBook::new(Quota::unlimited()),
            tenant: stream.tenant().to_string(),
            conn,
            oracle: Oracle::new(stream.dims(), sample),
            acc: Acc::default(),
            base: [0; 5],
            attempted: 0,
            failed: 0,
            wrong: 0,
        };
        r.claim_thread();
        let mut setup = Acc::default();
        for (k, req) in stream.setup().iter().enumerate() {
            let id = request_id(conn, u64::from(u32::MAX) - k as u64);
            if r.serve(stream.dataset(), id, req, &mut setup) != Some(true) {
                return Err(io::Error::other("replay set-up failed"));
            }
        }
        // The set-up's synchronous writes are the `read` workload's
        // `engine.write_us` samples; nothing else of it is measured.
        for v in setup.times("write_us") {
            r.acc.time("write_us", *v);
        }
        let c = &r.shared.counts;
        r.base = [
            Shared::get(&c.puts),
            Shared::get(&c.bytes_written),
            Shared::get(&c.wal_bytes),
            Shared::get(&c.fragment_commits),
            Shared::get(&c.tombstones),
        ];
        Ok(r)
    }

    /// Make the calling thread the one whose device calls are foreground.
    pub fn claim_thread(&self) {
        *self.shared.caller.lock().expect("caller poisoned") = Some(std::thread::current().id());
    }

    fn serve(&mut self, dataset: &str, id: u64, req: &Request, acc: &mut Acc) -> Option<bool> {
        let ctx = Ctx {
            rec: &self.rec,
            shared: &self.shared,
            quotas: &self.quotas,
            tenant: &self.tenant,
        };
        ctx.serve(
            &self.current.engine,
            dataset,
            id,
            req,
            &mut self.oracle,
            acc,
        )
    }

    /// Replay window request `seq`, addressed to dataset `ix` named
    /// `dataset`.
    pub fn step(&mut self, seq: u64, dataset: &str, ix: u32, req: &Request) -> io::Result<()> {
        self.oracle.select(ix);
        self.attempted += 1;
        if let Request::Create(dims) = req {
            // The stream has moved on for good: close the old dataset now,
            // so the replay holds one store at a time.
            let old = std::mem::replace(&mut self.current, open(dims, &self.shared)?);
            if !finalize(old, &mut self.acc) {
                self.failed += 1;
            }
            return Ok(());
        }
        let mut acc = std::mem::take(&mut self.acc);
        let verdict = self.serve(dataset, request_id(self.conn, seq), req, &mut acc);
        self.acc = acc;
        match verdict {
            Some(true) => {}
            Some(false) => {
                self.failed += 1;
                self.wrong += 1;
            }
            None => self.failed += 1,
        }
        Ok(())
    }

    /// Close the last dataset; return everything observed and the
    /// `(attempted, failed, wrong)` tally.
    pub fn finish(self) -> (Acc, [u64; 3]) {
        let Replayer {
            shared,
            current,
            mut acc,
            base,
            attempted,
            mut failed,
            wrong,
            ..
        } = self;
        if !finalize(current, &mut acc) {
            failed += 1;
        }
        let c = &shared.counts;
        let now = [
            Shared::get(&c.puts),
            Shared::get(&c.bytes_written),
            Shared::get(&c.wal_bytes),
            Shared::get(&c.fragment_commits),
            Shared::get(&c.tombstones),
        ];
        let d: Vec<u64> = now.iter().zip(base).map(|(n, b)| n - b).collect();
        acc.count("puts", d[0]);
        acc.count("bytes_written", d[1]);
        acc.count("wal_bytes", d[2]);
        acc.count("consolidations", d[4]);
        acc.count("group_commits", d[3].saturating_sub(d[4]));
        (acc, [attempted, failed, wrong])
    }
}

/// End of a dataset's stream: record its fragment count, then the final
/// `FLUSH` + `CONSOLIDATE`, and stop its scheduler. Returns whether the
/// flush and consolidation succeeded.
fn finalize(mut ds: Dataset, acc: &mut Acc) -> bool {
    let engine = &ds.engine;
    acc.count("datasets", 1);
    acc.count(
        "fragments_at_end",
        engine.stats().map_or(0, |s| s.fragments as u64),
    );
    let t0 = Instant::now();
    let flushed = engine.flush();
    acc.time("flush_ms", ns(t0) / 1e6);
    let t0 = Instant::now();
    let consolidated = engine.consolidate();
    acc.time("consolidate_ms", ns(t0) / 1e6);
    ds.scheduler.shutdown();
    let sched = ds.scheduler.stats();
    acc.count("scheduler_runs", sched.runs);
    acc.count("scheduler_errors", sched.errors);
    let cache = engine.cache().stats();
    acc.count("cache_hits", cache.hits);
    acc.count("cache_lookups", cache.hits + cache.misses);
    flushed.is_ok() && consolidated.is_ok()
}
