//! The artsparse benchmark: served `ingest`, `read` and `mixed` traffic
//! against an embedded `artsparse-server`, plus the paper's organization
//! `grid` in process. See README.md for the workloads, the metrics and
//! how to read them.

pub mod backend;
pub mod budget;
pub mod client;
pub mod gen;
pub mod grid;
pub mod metrics;
pub mod oracle;
pub mod replay;
pub mod rng;
pub mod served;
pub mod stats;
pub mod steady;
pub mod trace;

use gen::{Op, Workload};
use metrics::{peak_rss_mb, Outcome};
use stats::{median, percentile};
use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;
use std::time::Instant;

/// Run settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload seed.
    pub seed: u64,
    /// Length of the measured window in seconds.
    pub seconds: f64,
    /// Fixed request count per connection instead of a timed window
    /// (served workloads; the determinism test's shortened runs).
    pub requests: Option<u64>,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Grid scale (`Scale::Medium` in the benchmark proper).
    pub scale: artsparse_patterns::Scale,
    /// Falsify one oracle value after set-up (self-test of the checks).
    pub corrupt_oracle: bool,
    /// Where sockets and span files go.
    pub out_dir: PathBuf,
}

impl Options {
    /// Defaults for `seed` and `seconds`.
    pub fn new(seed: u64, seconds: f64) -> Options {
        Options {
            seed,
            seconds,
            requests: None,
            setups: 5,
            scale: artsparse_patterns::Scale::Medium,
            corrupt_oracle: false,
            out_dir: PathBuf::from(".bench_out"),
        }
    }
}

/// Grid passes per run at the least: the per-cell medians then shrug
/// off one disturbed pass.
const GRID_MIN_PASSES: usize = 3;

/// One run's metrics plus its human-readable report.
#[derive(Debug, Default)]
pub struct Report {
    /// Metric values and the correctness tally.
    pub outcome: Outcome,
    /// Report lines for standard output (everything but the result line).
    pub text: String,
}

fn op_line(text: &mut String, name: &str, unit: &str, value: f64, samples: usize) {
    let _ = writeln!(text, "  {name:<24} {value:>14.3} {unit:<8} (n={samples})");
}

/// The untraced run: every end-to-end metric.
pub fn run_untraced(workload: Workload, opts: &Options) -> io::Result<Report> {
    match workload {
        Workload::Grid => grid_untraced(opts),
        _ => served_untraced(workload, opts),
    }
}

/// Slices of the measured window; throughput and typical latency are
/// medians over the slices, so a burst of noise in one slice does not
/// move them.
const SLICES: usize = 5;

/// The op classes of the traffic mix: `CREATE` (the `ingest` stream's
/// rare move to a fresh dataset) counts as an operation but is not a
/// class.
const CLASSES: [Op; 3] = [Op::Ingest, Op::Get, Op::Scan];

fn geo_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Geometric mean over the mix's classes of each class's median.
fn typical(samples: &[served::Sample]) -> f64 {
    let medians: Vec<f64> = CLASSES
        .iter()
        .map(|&op| samples_of(samples, op))
        .filter(|v| !v.is_empty())
        .map(|v| median(&v))
        .collect();
    geo_mean(&medians)
}

fn samples_of(samples: &[served::Sample], op: Op) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.op == op)
        .map(|s| s.us)
        .collect()
}

/// Per slice of a served window: throughput and typical latency (the
/// geometric mean over the mix's classes of each class's p50). A pooled
/// percentile of a mix would land wherever the mix's shares put it, on
/// the steep flank of one class's distribution.
fn served_headline(run: &served::ServedRun) -> [[f64; SLICES]; 2] {
    let slice = run.window_s / SLICES as f64;
    let mut slices = vec![Vec::new(); SLICES];
    for s in &run.latencies {
        slices[((s.at_s / slice) as usize).min(SLICES - 1)].push(*s);
    }
    [
        std::array::from_fn(|k| slices[k].len() as f64 / slice),
        std::array::from_fn(|k| typical(&slices[k])),
    ]
}

fn served_untraced(workload: Workload, opts: &Options) -> io::Result<Report> {
    let run = served::run(workload, opts, None)?;
    let all: Vec<f64> = run.latencies.iter().map(|l| l.us).collect();
    let [rates, typical] = served_headline(&run);
    let mut r = Report::default();
    let m = &mut r.outcome.metrics;
    m.insert("setup_s".into(), median(&run.setups));
    m.insert("ops_per_s".into(), median(&rates));
    m.insert("typical_us".into(), median(&typical));
    m.insert("store_bytes_per_point".into(), run.store_bytes_per_point);
    m.insert("peak_rss_mb".into(), peak_rss_mb());
    r.outcome.attempted = run.attempted;
    r.outcome.failed = run.failed;
    r.outcome.wrong = run.wrong;

    let t = &mut r.text;
    let _ = writeln!(
        t,
        "workload {} · seed {} · window {:.2} s · {} requests · {} set-ups",
        workload.name(),
        opts.seed,
        run.window_s,
        all.len(),
        run.setups.len()
    );
    let _ = writeln!(
        t,
        "end-to-end (gated; medians over {SLICES} slices; typical_us = geometric mean over \
         the mix's classes of their p50s):"
    );
    for (name, unit) in metrics::end_to_end_table() {
        let n = match name.as_str() {
            "typical_us" | "ops_per_s" => all.len(),
            "setup_s" => run.setups.len(),
            _ => 1,
        };
        op_line(t, &name, unit, r.outcome.metrics[&name], n);
    }
    let fmt = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let _ = writeln!(
        t,
        "  slices: ops_per_s [{}] typical_us [{}]",
        fmt(&rates),
        fmt(&typical)
    );
    let _ = writeln!(
        t,
        "per op (reported, not gated; tails are the host's, see README):"
    );
    let of = |op: Op| samples_of(&run.latencies, op);
    let ingest = of(Op::Ingest);
    if !ingest.is_empty() {
        op_line(
            t,
            "ingest_pts_per_s",
            "1/s",
            run.acked_points as f64 / run.window_s,
            ingest.len(),
        );
        op_line(
            t,
            "ingest_p50_us",
            "us",
            percentile(&ingest, 50.0),
            ingest.len(),
        );
        op_line(
            t,
            "ingest_p99_us",
            "us",
            percentile(&ingest, 99.0),
            ingest.len(),
        );
    }
    let get = of(Op::Get);
    if !get.is_empty() {
        op_line(t, "get_p50_us", "us", percentile(&get, 50.0), get.len());
        op_line(t, "get_p99_us", "us", percentile(&get, 99.0), get.len());
    }
    let scan = of(Op::Scan);
    if !scan.is_empty() {
        op_line(t, "scan_p50_us", "us", percentile(&scan, 50.0), scan.len());
        op_line(t, "scan_p90_us", "us", percentile(&scan, 90.0), scan.len());
        op_line(t, "scan_p95_us", "us", percentile(&scan, 95.0), scan.len());
    }
    op_line(
        t,
        "fail_frac",
        "ratio",
        run.failed as f64 / run.attempted.max(1) as f64,
        run.attempted as usize,
    );
    Ok(r)
}

fn grid_untraced(opts: &Options) -> io::Result<Report> {
    let mut setups = Vec::new();
    let mut cells = Vec::new();
    for _ in 0..opts.setups.max(1) {
        let t0 = Instant::now();
        cells = grid::generate(opts.scale, opts.seed);
        setups.push(t0.elapsed().as_secs_f64());
    }
    if opts.corrupt_oracle {
        cells[0].corrupt();
    }
    let t0 = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < GRID_MIN_PASSES || t0.elapsed().as_secs_f64() < opts.seconds {
        passes.push(grid::pass(&cells, None)?);
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let measured: Vec<&grid::Measured> = passes.iter().flatten().collect();
    // Each cell's median time over the passes. Cells differ in cost by
    // five orders of magnitude, so the typical cell is their geometric
    // mean.
    let cell_us: Vec<f64> = (0..passes[0].len())
        .map(|c| {
            median(
                &passes
                    .iter()
                    .map(|p| (p[c].write_s + p[c].read_s) * 1e6)
                    .collect::<Vec<_>>(),
            )
        })
        .collect();

    let (bytes, points) = passes[0]
        .iter()
        .fold((0u64, 0u64), |(b, p), m| (b + m.bytes, p + m.points));

    let mut r = Report::default();
    let m = &mut r.outcome.metrics;
    m.insert("setup_s".into(), median(&setups));
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| {
            let (w, r) = grid::pass_totals(p);
            p.len() as f64 / (w + r)
        })
        .collect();
    m.insert("ops_per_s".into(), median(&rates));
    m.insert("typical_us".into(), geo_mean(&cell_us));
    m.insert("store_bytes_per_point".into(), bytes as f64 / points as f64);
    m.insert("peak_rss_mb".into(), peak_rss_mb());
    r.outcome.attempted = measured.len() as u64;
    r.outcome.wrong = measured.iter().filter(|m| !m.right).count() as u64;
    r.outcome.failed = r.outcome.wrong;

    let t = &mut r.text;
    let _ = writeln!(
        t,
        "workload grid · seed {} · {} passes × {} cells in {:.2} s · {} set-ups",
        opts.seed,
        passes.len(),
        passes[0].len(),
        elapsed,
        setups.len()
    );
    let _ = writeln!(
        t,
        "end-to-end (gated; an op is one cell's write + region read; typical_us = geometric mean \
         of the per-cell medians):"
    );
    for (name, unit) in metrics::end_to_end_table() {
        let n = match name.as_str() {
            "typical_us" | "ops_per_s" => measured.len(),
            "setup_s" => setups.len(),
            _ => 1,
        };
        op_line(t, &name, unit, r.outcome.metrics[&name], n);
    }
    let totals: Vec<(f64, f64)> = passes.iter().map(|p| grid::pass_totals(p)).collect();
    let _ = writeln!(t, "per pass (median over passes; reported, not gated):");
    let w: Vec<f64> = totals.iter().map(|x| x.0).collect();
    let rd: Vec<f64> = totals.iter().map(|x| x.1).collect();
    op_line(t, "write_s", "s", median(&w), passes.len());
    op_line(t, "read_s", "s", median(&rd), passes.len());
    for (name, _) in metrics::FORMATS {
        let of = |f: fn(&grid::Measured) -> f64| -> f64 {
            let per_pass: Vec<f64> = passes
                .iter()
                .map(|p| p.iter().filter(|m| m.format == name).map(f).sum())
                .collect();
            median(&per_pass)
        };
        let _ = writeln!(
            t,
            "  {name:<8} write {:>9.4} s  read {:>9.4} s",
            of(|m| m.write_s),
            of(|m| m.read_s)
        );
    }
    op_line(
        t,
        "fail_frac",
        "ratio",
        r.outcome.failed as f64 / r.outcome.attempted.max(1) as f64,
        r.outcome.attempted as usize,
    );
    Ok(r)
}

/// The traced run: every per-layer metric, the layer budget, and the
/// spans written to `<out_dir>/trace-<workload>-<seed>.csv`.
pub fn run_traced(workload: Workload, opts: &Options) -> io::Result<Report> {
    match workload {
        Workload::Grid => grid_traced(opts),
        _ => served_traced(workload, opts),
    }
}

fn served_traced(workload: Workload, opts: &Options) -> io::Result<Report> {
    let plain = served::run(workload, opts, None)?;
    let rec = std::sync::Arc::new(trace::Recorder::default());
    let traced = served::run(workload, opts, Some(&rec))?;
    let spans = rec.take();
    let (client, replayed): (Vec<trace::Span>, Vec<trace::Span>) =
        spans.iter().partition(|s| s.name.starts_with("client."));
    let budget = budget::Budget::build(&client, &replayed);
    let typical = |r: &served::ServedRun| median(&served_headline(r)[1]);
    let overhead = typical(&traced) / typical(&plain) - 1.0;

    let mut r = Report::default();
    r.outcome.metrics = traced.replay.layer_metrics();
    let m = &mut r.outcome.metrics;
    let ping = median(&traced.ping_unix_us);
    m.insert("server.ping_rtt_us".into(), ping);
    m.insert(
        "server.tcp_extra_us".into(),
        median(&traced.ping_tcp_us) - ping,
    );
    for op in ["ingest", "get", "scan"] {
        m.insert(format!("server.residual_us.{op}"), budget.residual_us(op));
    }
    m.insert("trace.overhead_frac".into(), overhead);
    r.outcome.attempted = plain.attempted + traced.attempted;
    r.outcome.failed = plain.failed + traced.failed;
    r.outcome.wrong = plain.wrong + traced.wrong;

    let path = opts
        .out_dir
        .join(format!("trace-{}-{}.csv", workload.name(), opts.seed));
    trace::write_csv(&path, &spans)?;

    let t = &mut r.text;
    let _ = writeln!(
        t,
        "traced workload {} · seed {} · {} requests paired with their replay · {} spans -> {}",
        workload.name(),
        opts.seed,
        client.len(),
        spans.len(),
        path.display()
    );
    t.push_str(&budget.render(overhead));
    per_layer_lines(t, &r.outcome);
    Ok(r)
}

fn grid_traced(opts: &Options) -> io::Result<Report> {
    let cells = grid::generate(opts.scale, opts.seed);
    let plain = grid::pass(&cells, None)?;
    let rec = std::sync::Arc::new(trace::Recorder::default());
    let mut tracing = grid::Tracing {
        rec: &rec,
        shared: std::sync::Arc::new(backend::Shared {
            recorder: Some(std::sync::Arc::clone(&rec)),
            ..backend::Shared::default()
        }),
        reads: Vec::new(),
    };
    *tracing.shared.caller.lock().expect("caller poisoned") = Some(std::thread::current().id());
    let traced = grid::pass(&cells, Some(&mut tracing))?;
    let total = |p: &[grid::Measured]| {
        let (w, r) = grid::pass_totals(p);
        w + r
    };
    let overhead = total(&traced) / total(&plain) - 1.0;

    let mut r = Report::default();
    r.outcome.metrics = grid::core_metrics(&cells)?;
    r.outcome
        .metrics
        .extend(grid::traced_metrics(&traced, &tracing));
    r.outcome
        .metrics
        .insert("trace.overhead_frac".into(), overhead);
    let wrong = plain.iter().chain(&traced).filter(|m| !m.right).count() as u64;
    r.outcome.attempted = (plain.len() + traced.len()) as u64;
    r.outcome.failed = wrong;
    r.outcome.wrong = wrong;

    let spans = rec.take();
    let path = opts.out_dir.join(format!("trace-grid-{}.csv", opts.seed));
    trace::write_csv(&path, &spans)?;
    let selfs = trace::self_times(&spans);
    let t = &mut r.text;
    let _ = writeln!(
        t,
        "traced workload grid · seed {} · {} cells · {} spans -> {}",
        opts.seed,
        traced.len(),
        spans.len(),
        path.display()
    );
    for name in ["engine.write", "engine.read"] {
        let (mut whole, mut own) = (0u64, 0u64);
        for s in spans.iter().filter(|s| s.name == name) {
            whole += s.dur();
            own += selfs[&s.id];
        }
        let _ = writeln!(
            t,
            "layer budget · {name} · engine self {:.4} s · backend {:.4} s · trace.overhead_frac {overhead:+.3}",
            own as f64 / 1e9,
            (whole - own) as f64 / 1e9
        );
    }
    per_layer_lines(t, &r.outcome);
    Ok(r)
}

fn per_layer_lines(t: &mut String, outcome: &Outcome) {
    let _ = writeln!(
        t,
        "per-layer (0 = the workload does not exercise this layer):"
    );
    for (name, unit) in metrics::per_layer() {
        let v = outcome.metrics.get(&name).copied().unwrap_or(0.0);
        let _ = writeln!(t, "  {name:<40} {v:>16.4} {unit}");
    }
}
