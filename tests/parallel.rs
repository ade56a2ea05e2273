//! Determinism of the compute-parallel execution layer.
//!
//! The contract pinned here is non-negotiable: the parallel paths —
//! chunked lexicographic sorts inside sorting builds and sharded batched
//! point-query scans — must produce **byte-identical** format encodings
//! and identical query results to the sequential reference at every
//! thread count. A cutoff of 1 forces the parallel path even on the tiny
//! inputs proptest generates; thread counts 2 and 7 exercise both the
//! even and ragged shard splits.

use artsparse::storage::{EngineConfig, MemBackend, StorageEngine};
use artsparse::tensor::par::{self, Parallelism};
use artsparse::{CoordBuffer, FormatKind, Region, Shape};
use proptest::prelude::*;

/// A small shape of 1–4 dimensions, each of size 1–10.
fn shape_strategy() -> impl Strategy<Value = Shape> {
    prop::collection::vec(1u64..=10, 1..=4).prop_map(|dims| Shape::new(dims).unwrap())
}

/// A shape plus up to `max_points` points inside it.
fn tensor_strategy(max_points: usize) -> impl Strategy<Value = (Shape, CoordBuffer)> {
    shape_strategy().prop_flat_map(move |shape| {
        let dims = shape.dims().to_vec();
        let point = dims.iter().map(|&m| 0u64..m).collect::<Vec<_>>();
        prop::collection::vec(point, 0..max_points).prop_map(move |pts| {
            let mut buf = CoordBuffer::new(shape.ndim());
            for p in &pts {
                buf.push(p).unwrap();
            }
            (shape.clone(), buf)
        })
    })
}

/// A parallel configuration that fans out even over tiny inputs.
fn forced(threads: usize) -> Parallelism {
    Parallelism::with_threads(threads).with_cutoff(1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every format's build emits byte-identical index encodings (and the
    /// same provenance map) whether it runs sequentially or sharded
    /// across 2 or 7 threads.
    #[test]
    fn parallel_build_encodings_are_byte_identical(
        (shape, coords) in tensor_strategy(48)
    ) {
        let counter = artsparse::metrics::OpCounter::new();
        for kind in FormatKind::ALL {
            let org = kind.create();
            let reference = par::with(Parallelism::sequential(), || {
                org.build(&coords, &shape, &counter).unwrap()
            });
            for threads in [2usize, 7] {
                let parallel = par::with(forced(threads), || {
                    org.build(&coords, &shape, &counter).unwrap()
                });
                prop_assert_eq!(
                    &parallel.index, &reference.index,
                    "{} index encoding diverged at {} threads", kind, threads
                );
                prop_assert_eq!(
                    &parallel.map, &reference.map,
                    "{} map diverged at {} threads", kind, threads
                );
            }
        }
    }

    /// Batched point queries return identical results when the query
    /// buffer is sharded across threads.
    #[test]
    fn parallel_batched_reads_match_sequential(
        (shape, coords) in tensor_strategy(48)
    ) {
        let counter = artsparse::metrics::OpCounter::new();
        let queries = Region::full(&shape).to_coords();
        for kind in FormatKind::ALL {
            let org = kind.create();
            let built = par::with(Parallelism::sequential(), || {
                org.build(&coords, &shape, &counter).unwrap()
            });
            let reference = par::with(Parallelism::sequential(), || {
                org.read(&built.index, &queries, &counter).unwrap()
            });
            for threads in [2usize, 7] {
                let parallel = par::with(forced(threads), || {
                    org.read(&built.index, &queries, &counter).unwrap()
                });
                prop_assert_eq!(
                    &parallel, &reference,
                    "{} read results diverged at {} threads", kind, threads
                );
            }
        }
    }

    /// End to end through the engine: a store written and read with
    /// `threads = 2` (cutoff 1, so everything fans out) returns exactly
    /// the hits of a fully sequential engine over the same fragments.
    #[test]
    fn engine_parallel_reads_match_sequential(
        (shape, coords) in tensor_strategy(32)
    ) {
        let values: Vec<f64> = (0..coords.len()).map(|i| i as f64).collect();
        let queries = Region::full(&shape).to_coords();
        let mut outcomes = Vec::new();
        for config in [
            EngineConfig::default().with_threads(1),
            EngineConfig::default().with_threads(2).with_parallel_cutoff(1),
        ] {
            let engine = StorageEngine::open_with(
                MemBackend::new(),
                FormatKind::GcsrPP,
                shape.clone(),
                8,
                config,
            ).unwrap();
            engine.write_points::<f64>(&coords, &values).unwrap();
            let hits: Vec<(usize, u64, Vec<u8>)> = engine
                .read(&queries)
                .unwrap()
                .hits
                .into_iter()
                .map(|h| (h.query_index, h.addr, h.value))
                .collect();
            outcomes.push(hits);
        }
        prop_assert_eq!(&outcomes[0], &outcomes[1]);
    }
}

/// `threads = 1` takes the sequential fallback: one shard on the calling
/// thread, zero spawns, nothing observed — the pool adds no overhead
/// path beyond two atomic loads.
#[test]
fn sequential_configuration_never_spawns() {
    let shape = Shape::cube(3, 16).unwrap();
    let pts: Vec<[u64; 3]> = (0..4096u64)
        .map(|i| [i % 16, (i / 16) % 16, i % 13])
        .collect();
    let coords = CoordBuffer::from_points(3, &pts).unwrap();
    let counter = artsparse::metrics::OpCounter::new();
    let queries = Region::full(&shape).to_coords();
    let (_, report) = par::observed(Parallelism::sequential(), || {
        for kind in FormatKind::ALL {
            let org = kind.create();
            let built = org.build(&coords, &shape, &counter).unwrap();
            org.read(&built.index, &queries, &counter).unwrap();
        }
    });
    assert_eq!(report.tasks_spawned, 0);
    assert!(report.shards.is_empty());
}

/// The same workload with a forced-parallel configuration does spawn —
/// the guard above is meaningful, not vacuously true.
#[test]
fn forced_parallel_configuration_spawns_and_reports_shards() {
    let shape = Shape::cube(2, 32).unwrap();
    let pts: Vec<[u64; 2]> = (0..512u64).map(|i| [i % 32, (i * 7) % 32]).collect();
    let coords = CoordBuffer::from_points(2, &pts).unwrap();
    let counter = artsparse::metrics::OpCounter::new();
    let (_, report) = par::observed(Parallelism::with_threads(4).with_cutoff(1), || {
        let org = FormatKind::GcsrPP.create();
        org.build(&coords, &shape, &counter).unwrap();
    });
    assert!(report.tasks_spawned > 0);
    assert!(!report.shards.is_empty());
    for shard in &report.shards {
        assert!(shard.dur_ns > 0 || shard.start_offset_ns < u64::MAX);
    }
}
