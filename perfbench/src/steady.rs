//! Steadiness mode: run every workload repeatedly in fresh processes,
//! alternating the order, and report each end-to-end metric's median,
//! quartiles and relative spread against its bound.

use crate::gen::Workload;
use crate::metrics::END_TO_END;
use crate::stats::quartiles;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::process::Command;

/// Parse a result line into `metric → value`.
pub fn parse_result(line: &str) -> Option<(bool, BTreeMap<String, f64>)> {
    let v = serde_json::from_str(line).ok()?;
    let correct = v.get("correct")?.as_bool()?;
    let metrics = v
        .get("metrics")?
        .as_object()?
        .iter()
        .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Some((correct, metrics))
}

/// Run `runs` rounds of `workloads` through `exe`, seeds `seed..`, and
/// print the spread table. Returns whether every gated spread stayed
/// under a third of its bound and every run was correct.
pub fn run(
    exe: &Path,
    workloads: &[Workload],
    runs: usize,
    seed: u64,
    seconds: u64,
) -> io::Result<bool> {
    let mut values: BTreeMap<(usize, &str), Vec<f64>> = BTreeMap::new();
    let mut all_correct = true;
    for i in 0..runs {
        let mut order: Vec<(usize, Workload)> = workloads.iter().copied().enumerate().collect();
        if i % 2 == 1 {
            order.reverse();
        }
        for (wi, w) in order {
            let s = (seed + i as u64).to_string();
            let out = Command::new(exe)
                .args([
                    "--workload",
                    w.name(),
                    "--seed",
                    &s,
                    "--seconds",
                    &seconds.to_string(),
                    "--trace",
                    "0",
                ])
                .output()?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap_or_default();
            let Some((correct, metrics)) = parse_result(last) else {
                return Err(io::Error::other(format!(
                    "{} seed {s}: no result line (exit {:?})",
                    w.name(),
                    out.status.code()
                )));
            };
            all_correct &= correct && out.status.success();
            eprintln!(
                "[steady] round {i} {} seed {s} correct={correct} exit={:?}",
                w.name(),
                out.status.code()
            );
            for m in END_TO_END {
                if let Some(v) = metrics.get(m.name) {
                    values.entry((wi, m.name)).or_default().push(*v);
                }
            }
        }
    }
    println!(
        "{:<8} {:<22} {:>14} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "median", "q1", "q3", "spread", "bound"
    );
    println!("every run correct: {all_correct}");
    let mut steady = all_correct;
    for ((wi, name), v) in &values {
        let m = END_TO_END
            .iter()
            .find(|m| m.name == *name)
            .expect("known metric");
        let Some((q1, q2, q3)) = quartiles(v) else {
            continue;
        };
        let spread = if q2 != 0.0 {
            (q3 - q1) / q2.abs()
        } else {
            f64::INFINITY
        };
        let ok = m.name == "setup_s" || spread < m.bound / 3.0;
        steady &= ok;
        let runs: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
        eprintln!(
            "[steady] {} {name}: {}",
            workloads[*wi].name(),
            runs.join(" ")
        );
        println!(
            "{:<8} {:<22} {:>14.4} {:>14.4} {:>14.4} {:>8.4} {:>6.2}  {}",
            workloads[*wi].name(),
            name,
            q2,
            q1,
            q3,
            spread,
            m.bound,
            if m.name == "setup_s" {
                "not gated on spread"
            } else if ok {
                "steady (< bound/3)"
            } else {
                "UNSTEADY"
            }
        );
    }
    Ok(steady)
}
