//! The benchmark's own tests: its definition file matches its code, its
//! count metrics repeat exactly for one seed, and a wrong answer fails the
//! command.

use artsparse_patterns::Scale;
use artsparse_perfbench::gen::{Stream, Workload};
use artsparse_perfbench::metrics::{per_layer_table, END_TO_END};
use artsparse_perfbench::{run_traced, run_untraced, served, Options};
use std::process::Command;

/// A per-test directory under the package's ignored `.bench_out/`.
fn scratch(tag: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(".bench_out")
        .join(format!("test-{tag}-{}", std::process::id()))
}

/// Short runs: a fixed request count, one set-up, the smoke-scale grid.
fn short(seed: u64, tag: &str) -> Options {
    let mut o = Options::new(seed, 0.0);
    o.requests = Some(60);
    o.setups = 1;
    o.scale = Scale::Smoke;
    o.out_dir = scratch(tag);
    o
}

#[test]
fn benchmark_json_mirrors_the_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let list = |key: &str| doc.get(key).and_then(|v| v.as_array()).cloned().expect(key);
    let s = |v: &serde_json::Value, k: &str| v.get(k).and_then(|x| x.as_str()).map(str::to_string);

    let workloads: Vec<_> = list("workloads").iter().map(|w| s(w, "name")).collect();
    let want: Vec<_> = Workload::ALL
        .iter()
        .map(|w| Some(w.name().to_string()))
        .collect();
    assert_eq!(workloads, want);

    let e2e = list("end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (j, m) in e2e.iter().zip(END_TO_END) {
        assert_eq!(s(j, "name").as_deref(), Some(m.name));
        assert_eq!(s(j, "unit").as_deref(), Some(m.unit));
        assert_eq!(s(j, "better").as_deref(), Some(m.better.name()));
        assert_eq!(j.get("bound").and_then(|b| b.as_f64()), Some(m.bound));
    }
    let layers = list("per_layer");
    let table = per_layer_table();
    assert_eq!(layers.len(), table.len());
    for (j, (name, unit, better)) in layers.iter().zip(&table) {
        assert_eq!(s(j, "name").as_deref(), Some(name.as_str()));
        assert_eq!(s(j, "unit").as_deref(), Some(*unit));
        assert_eq!(s(j, "better").as_deref(), Some(better.name()));
    }
}

#[test]
fn count_metrics_repeat_exactly_for_one_seed() {
    // Grid: stored bytes and the exact core counts.
    let g1 = run_untraced(Workload::Grid, &short(11, "g1"))
        .unwrap()
        .outcome;
    let g2 = run_untraced(Workload::Grid, &short(11, "g2"))
        .unwrap()
        .outcome;
    assert!(g1.correct() && g2.correct());
    assert_eq!(
        g1.metrics["store_bytes_per_point"],
        g2.metrics["store_bytes_per_point"]
    );
    let t1 = run_traced(Workload::Grid, &short(11, "t1"))
        .unwrap()
        .outcome;
    let t2 = run_traced(Workload::Grid, &short(11, "t2"))
        .unwrap()
        .outcome;
    for (name, _, _) in per_layer_table() {
        if name.starts_with("core.index_bytes_per_point.")
            || name.starts_with("core.compares_per_query.")
        {
            assert!(t1.metrics[&name] > 0.0, "{name}");
            assert_eq!(t1.metrics[&name], t2.metrics[&name], "{name}");
        }
    }

    // Served: request and point counts, and WAL bytes per user byte on the
    // replay.
    for w in [Workload::Ingest, Workload::Read, Workload::Mixed] {
        let a = served::run(w, &short(11, "a"), None).unwrap();
        let b = served::run(w, &short(11, "b"), None).unwrap();
        assert_eq!(a.failed, 0, "{w:?}");
        assert_eq!(a.requests_per_conn, b.requests_per_conn, "{w:?}");
        assert_eq!(a.acked_points, b.acked_points, "{w:?}");
        assert_eq!(a.attempted, b.attempted, "{w:?}");
        assert_eq!(a.store_bytes_per_point, b.store_bytes_per_point, "{w:?}");
        if w == Workload::Read {
            continue;
        }
        let r1 = run_traced(w, &short(11, "r1")).unwrap().outcome;
        let r2 = run_traced(w, &short(11, "r2")).unwrap().outcome;
        assert!(r1.correct(), "{w:?}");
        let wal = "engine.wal_bytes_per_user_byte";
        assert!(r1.metrics[wal] > 0.0, "{w:?}");
        assert_eq!(r1.metrics[wal], r2.metrics[wal], "{w:?}");
    }
}

#[test]
fn a_second_seed_makes_different_requests() {
    for w in [Workload::Ingest, Workload::Read, Workload::Mixed] {
        let take = |seed| {
            let mut s = Stream::new(w, 0, seed);
            s.setup();
            (0..50).map(|_| s.next_request()).collect::<Vec<_>>()
        };
        assert_eq!(take(11), take(11), "{w:?}");
        assert_ne!(take(11), take(12), "{w:?}");
    }
    let sizes = |seed| {
        artsparse_perfbench::grid::generate(Scale::Smoke, seed)
            .iter()
            .map(artsparse_perfbench::grid::Cell::points)
            .collect::<Vec<_>>()
    };
    assert_eq!(sizes(11), sizes(11));
    assert_ne!(
        sizes(11),
        sizes(12),
        "GSP and MSP draw their points from the seed"
    );
}

fn run_cli(extra: &[&str]) -> (bool, String) {
    let dir = scratch("cli");
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_artsparse-perfbench"))
        .current_dir(&dir)
        .args([
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            "0",
            "--requests",
            "40",
            "--setups",
            "1",
        ])
        .args(["--scale", "smoke"])
        .args(extra)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    (
        out.status.success(),
        stdout.lines().last().unwrap_or_default().to_string(),
    )
}

#[test]
fn a_corrupted_oracle_value_fails_the_command() {
    for w in ["mixed", "ingest", "grid"] {
        let (ok, last) = run_cli(&["--workload", w]);
        assert!(ok, "{w}: clean run must pass: {last}");
        assert!(last.starts_with("{\"correct\": true"), "{w}: {last}");
        let (ok, last) = run_cli(&["--workload", w, "--corrupt-oracle"]);
        assert!(!ok, "{w}: a wrong answer must fail the command");
        assert!(last.starts_with("{\"correct\": false"), "{w}: {last}");
    }
}
