//! The layer budget: for each served op, each layer's self-time p50 and
//! its share of the client's p50, from the client spans of the traced
//! served run and the replay spans with the same request ids.

use crate::stats::median;
use crate::trace::{self_times, Span};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// Budget rows, in the order a request crosses them.
pub const ROWS: [&str; 6] = [
    "protocol (parse_request, parse_point, render_point)",
    "quota (charge)",
    "engine (self: plan, decode, merge, buffer, WAL encode)",
    "backend (device calls under the engine)",
    "shard glue (coordinate buffer, reply fold)",
    "server.residual (socket, session, shard queue)",
];

/// Per-op budget: request count, client p50 (µs) and each row's p50 (µs).
#[derive(Debug, Default)]
pub struct Budget {
    /// `op → (requests, client p50, row p50s)`.
    pub ops: BTreeMap<String, (usize, f64, [f64; 6])>,
}

impl Budget {
    /// Build the budget. `client` spans are roots named `client.<op>`;
    /// `replay` spans are rooted at `replay.<op>`.
    pub fn build(client: &[Span], replay: &[Span]) -> Budget {
        let selfs = self_times(replay);
        // Per request: [protocol, quota, engine self, engine total, root self, root total].
        let mut per_req: HashMap<u64, [u64; 6]> = HashMap::new();
        for s in replay {
            let e = per_req.entry(s.req).or_default();
            let own = selfs.get(&s.id).copied().unwrap_or(0);
            match s.name {
                n if n.starts_with("protocol.") => e[0] += own,
                "quota.charge" => e[1] += own,
                n if n.starts_with("engine.") => {
                    e[2] += own;
                    e[3] += s.dur();
                }
                n if n.starts_with("replay.") => {
                    e[4] += own;
                    e[5] += s.dur();
                }
                _ => {}
            }
        }
        let mut samples: BTreeMap<String, (Vec<f64>, [Vec<f64>; 6])> = BTreeMap::new();
        for c in client {
            let Some(r) = per_req.get(&c.req) else {
                continue;
            };
            let op = c.name.trim_start_matches("client.").to_string();
            let (clients, rows) = samples.entry(op).or_default();
            let us = |ns: u64| ns as f64 / 1e3;
            clients.push(us(c.dur()));
            rows[0].push(us(r[0]));
            rows[1].push(us(r[1]));
            rows[2].push(us(r[2]));
            rows[3].push(us(r[3].saturating_sub(r[2])));
            rows[4].push(us(r[4]));
            rows[5].push((c.dur() as f64 - r[5] as f64) / 1e3);
        }
        let ops = samples
            .into_iter()
            .map(|(op, (clients, rows))| {
                let p50s = [
                    median(&rows[0]),
                    median(&rows[1]),
                    median(&rows[2]),
                    median(&rows[3]),
                    median(&rows[4]),
                    median(&rows[5]),
                ];
                (op, (clients.len(), median(&clients), p50s))
            })
            .collect();
        Budget { ops }
    }

    /// `server.residual_us.<op>`: p50 over requests of the client span
    /// minus the replayed request's whole in-process time.
    pub fn residual_us(&self, op: &str) -> f64 {
        self.ops.get(op).map_or(0.0, |(_, _, rows)| rows[5])
    }

    /// Render the budget as text tables.
    pub fn render(&self, overhead_frac: f64) -> String {
        let mut out = String::new();
        for (op, (n, client, rows)) in &self.ops {
            let _ = writeln!(
                out,
                "layer budget · {op} · {n} requests · client p50 {client:.1} us · trace.overhead_frac {overhead_frac:+.3}"
            );
            let _ = writeln!(
                out,
                "  {:<58} {:>12} {:>8}",
                "layer", "self p50 us", "share"
            );
            for (label, v) in ROWS.iter().zip(rows) {
                let share = if *client > 0.0 {
                    v / client * 100.0
                } else {
                    0.0
                };
                let _ = writeln!(out, "  {label:<58} {v:>12.2} {share:>7.1}%");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(req: u64, id: u32, parent: u32, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            req,
            id,
            parent,
            name,
            start,
            end,
        }
    }

    #[test]
    fn rows_split_a_request_and_the_residual_closes_the_gap() {
        let client = [s(7, 100, 0, "client.get", 0, 10_000)];
        let replay = [
            s(7, 1, 0, "replay.get", 0, 6_000),
            s(7, 2, 1, "protocol.parse_request", 0, 1_000),
            s(7, 3, 1, "engine.read", 1_000, 5_000),
            s(7, 4, 3, "backend.get", 2_000, 3_000),
        ];
        let b = Budget::build(&client, &replay);
        let (n, p50, rows) = b.ops["get"];
        assert_eq!((n, p50), (1, 10.0));
        assert_eq!(rows, [1.0, 0.0, 3.0, 1.0, 1.0, 4.0]);
        assert_eq!(b.residual_us("get"), 4.0);
        assert_eq!(b.residual_us("scan"), 0.0);
    }
}
