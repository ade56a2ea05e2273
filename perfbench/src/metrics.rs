//! The metric tables (names, units, directions, bounds) and the report a
//! run prints. `BENCHMARK.json` at the repository root mirrors these
//! tables; the `benchmark_json_mirrors_the_metric_tables` test keeps the
//! two in lock-step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Whether a larger or a smaller value is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better (throughput).
    Higher,
    /// Smaller is better (latency, bytes, time).
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One end-to-end metric: reported by every untraced run, on every
/// workload, and gated by `bound`.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// The gated end-to-end metrics. Every one is defined on every workload
/// (see README.md for each workload's reading of "operation").
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "typical_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "store_bytes_per_point",
        unit: "B/point",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.2,
    },
];

/// The five organizations of the paper, with their metric-name spelling.
pub const FORMATS: [(&str, artsparse_core::FormatKind); 5] = [
    ("coo", artsparse_core::FormatKind::Coo),
    ("linear", artsparse_core::FormatKind::Linear),
    ("gcsr", artsparse_core::FormatKind::GcsrPP),
    ("gcsc", artsparse_core::FormatKind::GcscPP),
    ("csf", artsparse_core::FormatKind::Csf),
];

/// Per-layer metrics as `(name, unit, better)`, in report order. The
/// traced run reports every one on every workload; a layer a workload
/// does not exercise reads `0`.
pub fn per_layer_table() -> Vec<(String, &'static str, Better)> {
    use Better::{Higher, Lower};
    let mut out: Vec<(String, &'static str, Better)> = [
        ("protocol.parse_request_ns", "ns", Lower),
        ("protocol.parse_point_ns", "ns", Lower),
        ("protocol.render_point_ns", "ns", Lower),
        ("quota.charge_ns", "ns", Lower),
        ("server.ping_rtt_us", "us", Lower),
        ("server.tcp_extra_us", "us", Lower),
        ("server.residual_us.ingest", "us", Lower),
        ("server.residual_us.get", "us", Lower),
        ("server.residual_us.scan", "us", Lower),
        ("engine.ingest_us.p50", "us", Lower),
        ("engine.ingest_us.p99", "us", Lower),
        ("engine.flush_ms", "ms", Lower),
        ("engine.group_commits", "count", Lower),
        ("engine.consolidate_ms", "ms", Lower),
        ("engine.consolidations", "count", Lower),
        ("engine.write_us", "us", Lower),
        ("engine.wal_bytes_per_user_byte", "B/B", Lower),
        ("engine.read_us.p50", "us", Lower),
        ("engine.read_us.p99", "us", Lower),
        ("engine.read_region_us.p50", "us", Lower),
        ("engine.fragments_scanned_per_read", "count", Lower),
        ("engine.fragments_matched_per_read", "count", Lower),
        ("engine.buffer_hit_share", "ratio", Higher),
        ("backend.get_range_per_read", "count", Lower),
        ("backend.bytes_read_per_read", "B", Lower),
        ("backend.bytes_written_per_user_byte", "B/B", Lower),
        ("backend.puts_per_batch", "count", Lower),
        ("cache.hit_rate", "ratio", Higher),
        ("scheduler.runs", "count", Lower),
        ("scheduler.errors", "count", Lower),
        ("engine.fragments_at_end", "count", Lower),
    ]
    .into_iter()
    .map(|(n, u, b)| (n.to_string(), u, b))
    .collect();
    for (metric, unit) in [
        ("core.build_ns_per_point", "ns"),
        ("core.read_ns_per_query", "ns"),
        ("core.index_bytes_per_point", "B/point"),
        ("core.compares_per_query", "count"),
    ] {
        for (fmt, _) in FORMATS {
            out.push((format!("{metric}.{fmt}"), unit, Lower));
        }
    }
    out.push(("par.tasks_spawned_per_read".to_string(), "count", Lower));
    out.push(("trace.overhead_frac".to_string(), "ratio", Lower));
    out
}

/// The per-layer table as `(name, unit)` pairs.
pub fn per_layer() -> Vec<(String, &'static str)> {
    per_layer_table()
        .into_iter()
        .map(|(n, u, _)| (n, u))
        .collect()
}

/// What one run measured: the values of one metric table plus the
/// correctness tally.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Metric name → value.
    pub metrics: BTreeMap<String, f64>,
    /// Operations attempted (requests sent, or grid reads checked).
    pub attempted: u64,
    /// Operations that failed: `ERR` replies, refusals, transport errors,
    /// and wrong answers.
    pub failed: u64,
    /// Wrong answers among `failed` (a reply the oracle contradicts).
    pub wrong: u64,
}

impl Outcome {
    /// Whether every answer was right and nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.wrong == 0
    }

    /// The one-line result object, with exactly the metrics named in
    /// `table` (name, unit); a metric the run did not produce reads `0`.
    pub fn result_line(&self, table: &[(String, &'static str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in table.iter().enumerate() {
            let v = self.metrics.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

/// The end-to-end table as `(name, unit)` pairs.
pub fn end_to_end_table() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), m.unit))
        .collect()
}

/// The process's peak resident set in MiB (`VmHWM`), or `0.0` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
