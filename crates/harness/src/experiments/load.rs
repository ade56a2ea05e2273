//! `load` — served throughput and tail latency against an embedded
//! `artsparse-server`.
//!
//! Two phases against a fresh in-memory server each (2 shards, TCP on an
//! ephemeral loopback port, background scheduler live):
//!
//! - **`load-solo`** — one tenant, one connection, requests arriving at
//!   `--load-rate` per second;
//! - **`load-multi`** — `--load-tenants` concurrent tenant sessions,
//!   *each* arriving at `--load-rate` per second, exercising shard
//!   fan-out, per-tenant namespaces, and the session layer under
//!   contention.
//!
//! Arrival is **open-loop**: request *i* is scheduled at
//! `start + i/rate` and its latency is measured from that scheduled
//! instant to the reply — a slow server keeps accumulating schedule debt
//! instead of silently slowing the generator down, so the percentiles do
//! not suffer coordinated omission. Latencies land in the same log₂
//! histograms the metrics crate serves (`p50`/`p95`/`p99` are bucket
//! upper bounds, ~2× resolution).
//!
//! The request mix is deterministic per seed: 8-point batches over
//! `INGEST`, one `GET` every eighth request. Typed overload
//! refusals (`BACKPRESSURE`, `READONLY`, `QUOTA`) count as *shed* — the
//! open-loop clock keeps running — and any other `ERR` fails the run.
//!
//! `BENCH_server.json` carries one row per phase, one latency sample per
//! request; the CI-gated statistic is `bytes`, the **request** byte
//! volume, which is a pure function of (seed, scale, rate-independent
//! mix) and therefore deterministic. Wall-clock columns are
//! informational.
//!
//! With `--out DIR` each phase's server also publishes its metrics
//! exporter into `DIR/<phase>-metrics` (`metrics.prom`, `metrics.jsonl`,
//! `journal.jsonl`), so `watch` and `validate-journal` can check the
//! served path's artifacts.

use crate::config::Config;
use crate::experiments::{write_bench, Bench, ExperimentOutput};
use crate::Result;
use artsparse_metrics::{Histogram, Table};
use artsparse_patterns::Scale;
use artsparse_server::{MemFactory, Server, ServerConfig, ServerHandle};
use serde::Serialize;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Points per `INGEST` batch in the request mix.
const BATCH: usize = 8;

/// Square side of each tenant's dataset.
const SIDE: u64 = 256;

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// What one client connection observed.
struct WorkerReport {
    requests: u64,
    acked_points: u64,
    shed: u64,
    request_bytes: u64,
    /// Scheduled-arrival → reply, nanoseconds, one per request.
    latency_ns: Vec<u64>,
    wall_ns: u64,
}

#[derive(Debug, Serialize)]
struct PhaseRow {
    phase: String,
    tenants: usize,
    requests: u64,
    acked_points: u64,
    shed: u64,
    /// Offered load: `tenants × --load-rate` requests/second.
    target_rps: u64,
    achieved_rps: f64,
    p50_us: u64,
    p95_us: u64,
    p99_us: u64,
    request_bytes: u64,
}

/// Build the deterministic request for index `i` (newline-terminated).
fn build_request(i: u64, rng: &mut u64) -> (String, usize) {
    if i % 8 == 7 {
        let (r, c) = (xorshift(rng) % SIDE, xorshift(rng) % SIDE);
        (format!("GET d {r} {c}\n"), 0)
    } else {
        let mut req = format!("INGEST d {BATCH}\n");
        for _ in 0..BATCH {
            let (r, c) = (xorshift(rng) % SIDE, xorshift(rng) % SIDE);
            let v = (xorshift(rng) % 1000) as f64;
            req.push_str(&format!("{r} {c} {v}\n"));
        }
        (req, BATCH)
    }
}

/// Drive one connection: `requests` requests at `rate`/s, open loop.
fn worker(
    addr: SocketAddr,
    tenant: &str,
    requests: u64,
    rate: u64,
    seed: u64,
) -> Result<WorkerReport> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut line = String::new();
    let mut read_reply = |reader: &mut BufReader<TcpStream>| -> Result<String> {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err("server closed the connection mid-run".into());
        }
        Ok(line.trim_end().to_string())
    };

    // Setup (greeting, HELLO, CREATE) is not part of the timed run.
    read_reply(&mut reader)?;
    writer.write_all(format!("HELLO {tenant}\nCREATE d {SIDE}x{SIDE}\n").as_bytes())?;
    read_reply(&mut reader)?;
    read_reply(&mut reader)?;

    let mut rng = seed | 1;
    let mut report = WorkerReport {
        requests,
        acked_points: 0,
        shed: 0,
        request_bytes: 0,
        latency_ns: Vec::with_capacity(requests as usize),
        wall_ns: 0,
    };
    let period_ns = 1_000_000_000 / rate.max(1);
    let start = Instant::now();
    for i in 0..requests {
        let scheduled = start + Duration::from_nanos(period_ns * i);
        let now = Instant::now();
        if now < scheduled {
            std::thread::sleep(scheduled - now);
        }
        let (req, points) = build_request(i, &mut rng);
        report.request_bytes += req.len() as u64;
        writer.write_all(req.as_bytes())?;
        writer.flush()?;
        let reply = read_reply(&mut reader)?;
        report
            .latency_ns
            .push(scheduled.elapsed().as_nanos() as u64);
        if reply.starts_with("OK") {
            report.acked_points += points as u64;
        } else if ["ERR BACKPRESSURE", "ERR READONLY", "ERR QUOTA"]
            .iter()
            .any(|p| reply.starts_with(p))
        {
            report.shed += 1;
        } else {
            return Err(format!("{tenant}: unexpected reply {reply:?}").into());
        }
    }
    report.wall_ns = start.elapsed().as_nanos() as u64;
    writer.write_all(b"QUIT\n")?;
    let _ = read_reply(&mut reader);
    Ok(report)
}

/// A fresh 2-shard in-memory server with the background scheduler live,
/// publishing its metrics into `metrics_out` if set.
fn start_server(metrics_out: Option<PathBuf>) -> Result<ServerHandle> {
    Ok(Server::start(
        ServerConfig {
            shards: 2,
            tcp: Some("127.0.0.1:0".into()),
            scheduler: Some(artsparse_storage::SchedulerConfig::default()),
            metrics_out,
            ..ServerConfig::default()
        },
        MemFactory,
    )?)
}

/// Run one phase: `tenants` concurrent sessions, each `requests` at `rate`/s.
fn run_phase(
    phase: &str,
    tenants: usize,
    requests: u64,
    rate: u64,
    seed: u64,
    metrics_out: Option<PathBuf>,
) -> Result<(PhaseRow, Bench)> {
    let mut handle = start_server(metrics_out)?;
    let addr = handle
        .tcp_addr()
        .ok_or("load: server bound no TCP address")?;
    let workers: Vec<_> = (0..tenants)
        .map(|w| {
            let tenant = format!("tenant{w}");
            std::thread::spawn(move || worker(addr, &tenant, requests, rate, seed ^ (w as u64 + 1)))
        })
        .collect();
    let mut latency_ns = Vec::new();
    let mut row = PhaseRow {
        phase: phase.to_string(),
        tenants,
        requests: 0,
        acked_points: 0,
        shed: 0,
        target_rps: rate * tenants as u64,
        achieved_rps: 0.0,
        p50_us: 0,
        p95_us: 0,
        p99_us: 0,
        request_bytes: 0,
    };
    let mut max_wall_ns = 0u64;
    for w in workers {
        let report = w.join().map_err(|_| "load: worker panicked")??;
        row.requests += report.requests;
        row.acked_points += report.acked_points;
        row.shed += report.shed;
        row.request_bytes += report.request_bytes;
        latency_ns.extend(report.latency_ns);
        max_wall_ns = max_wall_ns.max(report.wall_ns);
    }
    let drain = handle.shutdown();
    if drain.errors > 0 {
        return Err(format!("load: {} drain error(s)", drain.errors).into());
    }
    row.achieved_rps = row.requests as f64 / (max_wall_ns.max(1) as f64 / 1e9);
    let mut latency = Histogram::new();
    latency_ns.iter().for_each(|&ns| latency.record(ns));
    row.p50_us = latency.p50().unwrap_or(0) / 1000;
    row.p95_us = latency.p95().unwrap_or(0) / 1000;
    row.p99_us = latency.p99().unwrap_or(0) / 1000;
    let bench = Bench::new(phase, &latency_ns, row.request_bytes);
    Ok((row, bench))
}

/// Requests per client at each scale.
fn requests_for(scale: Scale) -> u64 {
    match scale {
        Scale::Smoke => 64,
        Scale::Medium => 320,
        Scale::Paper => 1280,
    }
}

/// Run the served-throughput experiment.
pub fn run(cfg: &Config) -> Result<ExperimentOutput> {
    let requests = requests_for(cfg.scale);
    let rate = cfg.load_rate.max(1);
    let tenants = cfg.load_tenants.max(1);
    let mut rows = Vec::new();
    let mut benches = Vec::new();
    for (phase, n) in [("load-solo", 1), ("load-multi", tenants)] {
        let metrics_out = cfg
            .out_dir
            .as_ref()
            .map(|dir| dir.join(format!("{phase}-metrics")));
        let (row, bench) = run_phase(phase, n, requests, rate, cfg.params.seed, metrics_out)?;
        eprintln!(
            "[load] {}: {} tenant(s) · {} request(s) · {:.0}/{} rps · \
             p50 {} µs · p95 {} µs · p99 {} µs · {} shed",
            row.phase,
            row.tenants,
            row.requests,
            row.achieved_rps,
            row.target_rps,
            row.p50_us,
            row.p95_us,
            row.p99_us,
            row.shed,
        );
        rows.push(row);
        benches.push(bench);
    }

    let mut table = Table::new(
        "served throughput — open-loop arrival against artsparse-server",
        &[
            "phase",
            "tenants",
            "requests",
            "acked pts",
            "shed",
            "target rps",
            "achieved rps",
            "p50 µs",
            "p95 µs",
            "p99 µs",
            "req bytes",
        ],
    );
    for r in &rows {
        table.push_row(vec![
            r.phase.clone(),
            r.tenants.to_string(),
            r.requests.to_string(),
            r.acked_points.to_string(),
            r.shed.to_string(),
            r.target_rps.to_string(),
            format!("{:.0}", r.achieved_rps),
            r.p50_us.to_string(),
            r.p95_us.to_string(),
            r.p99_us.to_string(),
            r.request_bytes.to_string(),
        ]);
    }

    // compare_bench.py gates `bytes`: the request byte volume, a pure
    // function of seed and scale. Latency/throughput columns are
    // informational (machine- and load-dependent).
    if let Some(dir) = &cfg.out_dir {
        let path = write_bench(dir, "server", &benches)?;
        eprintln!("[load] bench -> {}", path.display());
    }

    Ok(ExperimentOutput {
        name: "load",
        notes: vec![
            format!(
                "Open-loop arrival at {rate} req/s per tenant against an embedded \
                 2-shard in-memory artsparse-server over loopback TCP."
            ),
            "Latency is scheduled-arrival to reply (no coordinated omission);".into(),
            "percentiles are log2-bucket upper bounds (~2x resolution).".into(),
            "Single-host caveat: clients, shard threads, and the scheduler share".into(),
            "one machine's cores, so multi-tenant numbers measure the server's".into(),
            "session/shard overhead under contention, not network capacity.".into(),
        ],
        tables: vec![table],
        json: serde_json::json!({
            "scale": cfg.scale,
            "seed": cfg.params.seed,
            "rate_per_tenant": rate,
            "phases": rows,
            "benchmarks": benches,
        }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_phases_run_and_request_bytes_are_deterministic() {
        let dir = tempfile::tempdir().unwrap();
        let mut cfg = Config::smoke();
        cfg.out_dir = Some(dir.path().to_path_buf());
        cfg.load_rate = 2000; // keep the smoke run fast
        cfg.load_tenants = 2;
        let out = run(&cfg).unwrap();
        let phases = out.json["phases"].as_array().unwrap();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0]["tenants"].as_u64(), Some(1));
        assert_eq!(phases[1]["tenants"].as_u64(), Some(2));
        for p in phases {
            assert!(p["acked_points"].as_u64().unwrap() > 0);
            assert!(p["requests"].as_u64().unwrap() > 0);
        }
        let doc: serde_json::Value = serde_json::from_str(
            &std::fs::read_to_string(dir.path().join("BENCH_server.json")).unwrap(),
        )
        .unwrap();
        assert_eq!(doc["group"].as_str(), Some("server"));
        let benches = doc["benchmarks"].as_array().unwrap();
        assert_eq!(benches.len(), 2);

        // The CI-gated statistic must reproduce exactly run over run.
        let out2 = run(&cfg).unwrap();
        for (a, b) in out.json["benchmarks"]
            .as_array()
            .unwrap()
            .iter()
            .zip(out2.json["benchmarks"].as_array().unwrap())
        {
            assert_eq!(
                a["bytes"], b["bytes"],
                "request bytes must be deterministic"
            );
        }
    }
}
