//! The served workloads (`ingest`, `read`, `mixed`): an embedded
//! `artsparse-server` configured like the shipped binary, driven over a
//! Unix socket by closed-loop clients, every answer checked.

use crate::client::{Conn, Reply};
use crate::gen::{shard_of, Op, Request, Stream, Workload};
use crate::oracle::Oracle;
use crate::replay::{Acc, Replayer};
use crate::trace::{Recorder, Span};
use crate::Options;
use artsparse_server::{MemFactory, Server, ServerConfig, ServerHandle};
use artsparse_storage::SchedulerConfig;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shards of the shipped `artsparse-server` binary.
pub const SHARDS: usize = 2;
/// Acked points re-read after the final `FLUSH` + `CONSOLIDATE`.
pub const VERIFY_SAMPLE: usize = 200;
/// `PING`s per transport in the traced run.
const PINGS: usize = 300;

/// Everything one served run measured.
#[derive(Debug, Default)]
pub struct ServedRun {
    /// Each set-up's duration in seconds.
    pub setups: Vec<f64>,
    /// Every request of the measured window.
    pub latencies: Vec<Sample>,
    /// Length of the measured window in seconds.
    pub window_s: f64,
    /// Requests sent (window, final flush/consolidate and verification).
    pub attempted: u64,
    /// `ERR` replies, transport errors and wrong answers.
    pub failed: u64,
    /// Wrong answers.
    pub wrong: u64,
    /// Points acknowledged in the window.
    pub acked_points: u64,
    /// Measured-window requests per connection.
    pub requests_per_conn: Vec<u64>,
    /// Stored bytes ÷ live points after the final flush and consolidate.
    pub store_bytes_per_point: f64,
    /// What the paired in-process replay observed (traced runs only).
    pub replay: Acc,
    /// `PING` round trips over the Unix socket, µs (traced runs only).
    pub ping_unix_us: Vec<f64>,
    /// `PING` round trips over loopback TCP, µs (traced runs only).
    pub ping_tcp_us: Vec<f64>,
}

/// One timed request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Its operation class.
    pub op: Op,
    /// When it was sent, in seconds since the window opened.
    pub at_s: f64,
    /// Its latency in µs, first byte sent to last byte received.
    pub us: f64,
}

/// The request id shared by a request's client and replay spans.
pub fn request_id(conn: usize, seq: u64) -> u64 {
    ((conn as u64) << 32) | seq
}

/// The span name of a client request.
pub fn client_span_name(op: Op) -> &'static str {
    match op {
        Op::Ingest => "client.ingest",
        Op::Put => "client.put",
        Op::Get => "client.get",
        Op::Scan => "client.scan",
        Op::Create => "client.create",
    }
}

struct Live {
    handle: ServerHandle,
    conns: Vec<Conn>,
    streams: Vec<Stream>,
    oracles: Vec<Oracle>,
}

fn socket_path(opts: &Options) -> PathBuf {
    opts.out_dir
        .join(format!("s{}-{}.sock", std::process::id(), opts.seed))
}

fn start(workload: Workload, opts: &Options, tcp: bool) -> io::Result<Live> {
    std::fs::create_dir_all(&opts.out_dir)?;
    let config = ServerConfig {
        shards: SHARDS,
        unix: Some(socket_path(opts)),
        tcp: tcp.then(|| "127.0.0.1:0".to_string()),
        scheduler: Some(SchedulerConfig::default()),
        ..ServerConfig::default()
    };
    let handle = Server::start(config, MemFactory).map_err(|e| io::Error::other(e.to_string()))?;
    let path = handle
        .unix_path()
        .expect("unix listener configured")
        .to_path_buf();
    let mut live = Live {
        handle,
        conns: Vec::new(),
        streams: Vec::new(),
        oracles: Vec::new(),
    };
    for i in 0..workload.connections().len() {
        let mut stream = Stream::new(workload, i, opts.seed);
        let (tenant, dataset) = (stream.tenant().to_string(), stream.dataset().to_string());
        let mut conn = Conn::unix(&path)?;
        conn.ok(&format!("HELLO {tenant}"))?;
        let mut text = String::new();
        Request::Create(stream.dims().to_vec()).render(&dataset, &mut text);
        conn.ok(text.trim_end())?;
        let stats = conn.ok(&format!("STATS {dataset}"))?;
        let shard = stats_field(&stats, "shard");
        if shard != Some(shard_of(&tenant, &dataset, SHARDS as u64) as f64) {
            return Err(io::Error::other(format!(
                "{tenant}/{dataset} is on shard {shard:?}, not where the documented hash puts it"
            )));
        }
        let sample = if workload == Workload::Ingest { 64 } else { 1 };
        let mut oracle = Oracle::new(stream.dims(), sample);
        for req in stream.setup() {
            text.clear();
            req.render(&dataset, &mut text);
            match conn.call(&text)? {
                Reply::Ok(..) => oracle.apply(&req),
                Reply::Err(e) => return Err(io::Error::other(format!("set-up refused: {e}"))),
            }
        }
        live.conns.push(conn);
        live.streams.push(stream);
        live.oracles.push(oracle);
    }
    Ok(live)
}

/// A numeric `key=value` field of a `STATS` reply's dataset line.
fn stats_field(reply: &Reply, key: &str) -> Option<f64> {
    let Reply::Ok(_, lines) = reply else {
        return None;
    };
    lines
        .iter()
        .find(|l| l.starts_with("dataset="))?
        .split_whitespace()
        .find_map(|t| t.strip_prefix(key)?.strip_prefix('='))?
        .parse()
        .ok()
}

/// Per-connection result of the measured window.
#[derive(Default)]
struct ConnWindow {
    latencies: Vec<Sample>,
    sent: u64,
    failed: u64,
    wrong: u64,
    acked: u64,
}

#[allow(clippy::too_many_arguments)]
fn drive(
    conn_ix: usize,
    conn: &mut Conn,
    stream: &mut Stream,
    oracle: &mut Oracle,
    (start, deadline): (Instant, Instant),
    limit: Option<u64>,
    mut tracing: Option<(&Recorder, &mut Replayer)>,
) -> ConnWindow {
    let mut w = ConnWindow::default();
    if let Some((_, replayer)) = &tracing {
        replayer.claim_thread();
    }
    let mut text = String::with_capacity(4096);
    loop {
        match limit {
            Some(n) if w.sent >= n => break,
            None if Instant::now() >= deadline => break,
            _ => {}
        }
        let req = stream.next_request();
        oracle.select(stream.dataset_ix());
        text.clear();
        req.render(stream.dataset(), &mut text);
        // The paired replay runs after the round trip for even requests
        // and before it for odd ones, so neither side always finds the
        // caches the other warmed.
        let replay_first = w.sent % 2 == 1;
        if replay_first && !replay_step(&mut tracing, w.sent, stream, &req) {
            w.failed += 1;
        }
        let span_start = tracing.as_ref().map(|(rec, _)| rec.now());
        let t0 = Instant::now();
        let reply = conn.call(&text);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        if let (Some((rec, _)), Some(start)) = (tracing.as_ref(), span_start) {
            let end = rec.now();
            rec.push(Span {
                req: request_id(conn_ix, w.sent),
                id: rec.id(),
                parent: 0,
                name: client_span_name(req.op()),
                start,
                end,
            });
        }
        if !replay_first && !replay_step(&mut tracing, w.sent, stream, &req) {
            w.failed += 1;
        }
        w.sent += 1;
        w.latencies.push(Sample {
            op: req.op(),
            at_s: t0.duration_since(start).as_secs_f64(),
            us,
        });
        match check(&req, reply, oracle) {
            Verdict::Right => w.acked += req.points() as u64,
            Verdict::Failed => w.failed += 1,
            Verdict::Wrong => {
                w.failed += 1;
                w.wrong += 1;
            }
        }
    }
    w
}

/// Replay window request `seq` in process when tracing; `false` if the
/// replay could not run it.
fn replay_step(
    tracing: &mut Option<(&Recorder, &mut Replayer)>,
    seq: u64,
    stream: &Stream,
    req: &Request,
) -> bool {
    match tracing {
        Some((_, replayer)) => replayer
            .step(seq, stream.dataset(), stream.dataset_ix(), req)
            .is_ok(),
        None => true,
    }
}

enum Verdict {
    Right,
    Failed,
    Wrong,
}

/// Check one reply against the oracle, recording acked writes in it.
fn check(req: &Request, reply: io::Result<Reply>, oracle: &mut Oracle) -> Verdict {
    let Ok(reply) = reply else {
        return Verdict::Failed;
    };
    if matches!(reply, Reply::Err(_)) {
        return Verdict::Failed;
    }
    match req {
        Request::Write { values, .. } => {
            if reply.field("acked") == Some(values.len().to_string().as_str()) {
                oracle.apply(req);
                Verdict::Right
            } else {
                Verdict::Wrong
            }
        }
        Request::Get(coord) => match reply.get_value() {
            Some(v) if oracle.check_get(coord, v) => Verdict::Right,
            _ => Verdict::Wrong,
        },
        Request::Scan(lo, hi) => match reply.scan_rows() {
            Some(rows) if oracle.check_scan(lo, hi, &rows) => Verdict::Right,
            _ => Verdict::Wrong,
        },
        Request::Create(_) => Verdict::Right,
    }
}

/// Run one served workload: set up `opts.setups` times (keeping the last
/// server), drive the measured window, then flush, consolidate, measure
/// the store and re-read a seeded sample of acked points. With a
/// recorder, the client records a span per request and replays each one
/// in process right after its round trip.
pub fn run(
    workload: Workload,
    opts: &Options,
    recorder: Option<&Arc<Recorder>>,
) -> io::Result<ServedRun> {
    let traced = recorder.is_some();
    let mut run = ServedRun::default();
    let mut live = None;
    for _ in 0..opts.setups.max(1) {
        if let Some(mut old) = live.take() {
            drop_conns(&mut old);
        }
        let t0 = Instant::now();
        live = Some(start(workload, opts, traced)?);
        run.setups.push(t0.elapsed().as_secs_f64());
    }
    let mut live = live.expect("at least one set-up ran");
    if traced {
        measure_pings(&mut live, &mut run)?;
    }

    let mut replayers: Vec<Option<Replayer>> = (0..live.conns.len())
        .map(|i| {
            recorder
                .map(|rec| Replayer::new(workload, i, opts.seed, rec))
                .transpose()
        })
        .collect::<io::Result<_>>()?;
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(opts.seconds);
    let windows: Vec<ConnWindow> = std::thread::scope(|s| {
        let handles: Vec<_> = live
            .conns
            .iter_mut()
            .zip(live.streams.iter_mut())
            .zip(live.oracles.iter_mut())
            .zip(replayers.iter_mut())
            .enumerate()
            .map(|(i, (((conn, stream), oracle), replayer))| {
                let tracing = recorder.map(|r| &**r).zip(replayer.as_mut());
                let window = (t0, deadline);
                s.spawn(move || drive(i, conn, stream, oracle, window, opts.requests, tracing))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    run.window_s = t0.elapsed().as_secs_f64();
    for w in windows {
        run.latencies.extend(w.latencies);
        run.requests_per_conn.push(w.sent);
        run.attempted += w.sent;
        run.failed += w.failed;
        run.wrong += w.wrong;
        run.acked_points += w.acked;
    }
    for replayer in replayers.into_iter().flatten() {
        let (acc, [attempted, failed, wrong]) = replayer.finish();
        run.replay.merge(acc);
        run.attempted += attempted;
        run.failed += failed;
        run.wrong += wrong;
    }
    finish(&mut live, opts.seed, opts.corrupt_oracle, &mut run)?;
    drop_conns(&mut live);
    Ok(run)
}

fn measure_pings(live: &mut Live, run: &mut ServedRun) -> io::Result<()> {
    let path = live
        .handle
        .unix_path()
        .expect("unix listener")
        .to_path_buf();
    let addr = live.handle.tcp_addr().expect("tcp listener in traced runs");
    let mut unix = Conn::unix(&path)?;
    let mut tcp = Conn::tcp(addr)?;
    for _ in 0..PINGS {
        for (conn, out) in [
            (&mut unix, &mut run.ping_unix_us),
            (&mut tcp, &mut run.ping_tcp_us),
        ] {
            let t0 = Instant::now();
            conn.ok("PING")?;
            out.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    Ok(())
}

/// Final `FLUSH` + `CONSOLIDATE` of every dataset, store size, and the
/// sample re-read. With `corrupt`, the first re-read point's oracle value
/// is falsified first, so a correct server must fail the check.
fn finish(live: &mut Live, seed: u64, corrupt: bool, run: &mut ServedRun) -> io::Result<()> {
    let (mut bytes, mut points) = (0.0, 0.0);
    for (i, conn) in live.conns.iter_mut().enumerate() {
        let stream = &live.streams[i];
        for ix in 0..=stream.dataset_ix() {
            let dataset = stream.dataset_named(ix);
            for cmd in ["FLUSH", "CONSOLIDATE"] {
                run.attempted += 1;
                if conn.ok(&format!("{cmd} {dataset}")).is_err() {
                    run.failed += 1;
                }
            }
            let stats = conn.ok(&format!("STATS {dataset}"))?;
            bytes += stats_field(&stats, "bytes").unwrap_or(0.0);
            points += stats_field(&stats, "points").unwrap_or(0.0);
        }
        let oracle = &mut live.oracles[i];
        let sample = oracle.sample(VERIFY_SAMPLE, seed);
        if let (true, Some((ix, coord))) = (corrupt, sample.first()) {
            oracle.select(*ix);
            oracle.corrupt(coord);
        }
        let mut text = String::new();
        for (ix, coord) in sample {
            oracle.select(ix);
            let req = Request::Get(coord);
            text.clear();
            req.render(&stream.dataset_named(ix), &mut text);
            run.attempted += 1;
            match check(&req, conn.call(&text), oracle) {
                Verdict::Right => {}
                Verdict::Failed => run.failed += 1,
                Verdict::Wrong => {
                    run.failed += 1;
                    run.wrong += 1;
                }
            }
        }
    }
    run.store_bytes_per_point = if points > 0.0 { bytes / points } else { 0.0 };
    Ok(())
}

fn drop_conns(live: &mut Live) {
    for conn in &mut live.conns {
        let _ = conn.ok("QUIT");
    }
    live.conns.clear();
    live.handle.shutdown();
}
