//! Property tests for adaptive migration of a one-fragment store: for
//! every ordered pair of organizations, consolidating under a pin to the
//! target re-encodes the store exactly as a fresh build of its exported
//! points would — index bytes and value order — and leaves every read
//! unchanged, sequentially and under forced parallelism.

use artsparse::metrics::OpCounter;
use artsparse::storage::fragment::decode_fragment;
use artsparse::storage::{AdaptiveReorg, EngineConfig, MemBackend, StorageBackend, StorageEngine};
use artsparse::{CoordBuffer, FormatKind, Region, Shape};
use proptest::prelude::*;

/// Strategy: a small shape of 1–4 dimensions, each of size 1–12.
fn shape_strategy() -> impl Strategy<Value = Shape> {
    prop::collection::vec(1u64..=12, 1..=4).prop_map(|dims| Shape::new(dims).unwrap())
}

/// Strategy: a shape plus up to `max_points` points inside it
/// (duplicates allowed — migration must resolve them as reads do).
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

/// A one-fragment store in `from` holding `coords`, each point's value
/// its write position, whose consolidation is pinned to `to`.
fn one_fragment_store(
    from: FormatKind,
    to: FormatKind,
    shape: &Shape,
    coords: &CoordBuffer,
    threads: usize,
) -> StorageEngine<MemBackend> {
    let config = EngineConfig::default()
        .with_threads(threads)
        .with_parallel_cutoff(1)
        .with_adaptive_reorg(AdaptiveReorg::pinned(to));
    let engine =
        StorageEngine::open_with(MemBackend::new(), from, shape.clone(), 8, config).unwrap();
    let values: Vec<u64> = (0..coords.len() as u64).collect();
    engine.write_points(coords, &values).unwrap();
    engine
}

/// Every hit of a whole-shape region read, without the fragment name.
fn region_hits(
    engine: &StorageEngine<MemBackend>,
    shape: &Shape,
) -> Vec<(usize, u64, Vec<u64>, Vec<u8>)> {
    engine
        .read_region(&Region::full(shape))
        .unwrap()
        .hits
        .into_iter()
        .map(|h| (h.query_index, h.addr, h.coord, h.value))
        .collect()
}

/// The store's only fragment: its name, organization, index and values.
fn only_fragment(engine: &StorageEngine<MemBackend>) -> (String, FormatKind, Vec<u8>, Vec<u8>) {
    let names = engine.fragments().unwrap();
    assert_eq!(names.len(), 1, "{names:?}");
    let bytes = engine.backend().get(&names[0]).unwrap();
    let (meta, index, values) = decode_fragment(&names[0], &bytes).unwrap();
    (names[0].clone(), meta.kind, index, values)
}

fn check_pair(
    from: FormatKind,
    to: FormatKind,
    shape: &Shape,
    coords: &CoordBuffer,
    threads: usize,
) {
    let engine = one_fragment_store(from, to, shape, coords, threads);
    let before = region_hits(&engine, shape);
    let (source, _, source_index, _) = only_fragment(&engine);

    let report = engine.consolidate().unwrap();
    assert_eq!(
        region_hits(&engine, shape),
        before,
        "{from}→{to} reads changed"
    );
    let (name, kind, index, values) = only_fragment(&engine);
    assert_eq!(kind, to, "{from}→{to} organization");
    assert!(
        engine
            .backend()
            .list()
            .unwrap()
            .iter()
            .all(|n| !n.ends_with(".tmp") && !n.ends_with(".tsn")),
        "{from}→{to} left commit debris"
    );
    if from == to {
        // The pin names the fragment's own organization: a no-op.
        assert_eq!(report.fragment, None);
        assert_eq!((name, index), (source, source_index), "{from}→{to} rewrote");
        return;
    }
    assert_eq!(report.fragment.as_deref(), Some(name.as_str()));
    let (exported, payload) = engine.export().unwrap();
    assert_eq!(report.n_points, exported.len());
    let want = to
        .create()
        .build(&exported, shape, &OpCounter::new())
        .unwrap();
    assert_eq!(index, want.index, "{from}→{to} index bytes differ");
    assert_eq!(
        values,
        want.reorganize_values(&payload, 8),
        "{from}→{to} value order differs"
    );
}

fn check_all_pairs(shape: &Shape, coords: &CoordBuffer, threads: usize) {
    for from in FormatKind::ALL {
        for to in FormatKind::ALL {
            check_pair(from, to, shape, coords, threads);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every ordered pair, sequential execution.
    #[test]
    fn migration_matches_rebuild_sequential((shape, coords) in tensor_strategy(32)) {
        check_all_pairs(&shape, &coords, 1);
    }

    /// Every ordered pair under forced 4-way parallelism: migrations are
    /// bit-identical to the sequential reference.
    #[test]
    fn migration_matches_rebuild_parallel((shape, coords) in tensor_strategy(32)) {
        check_all_pairs(&shape, &coords, 4);
    }
}

/// Degenerate stores — one empty fragment and one single-point fragment
/// — through every pair and both thread counts.
#[test]
fn empty_and_single_point_stores_all_pairs() {
    let shape = Shape::new(vec![7, 5, 2]).unwrap();
    for coords in [
        CoordBuffer::new(3),
        CoordBuffer::from_points(3, &[[6u64, 4, 1]]).unwrap(),
    ] {
        for threads in [1usize, 4] {
            check_all_pairs(&shape, &coords, threads);
        }
    }
}

/// A COO fragment holding one coordinate twice migrates to one record
/// per coordinate, and the survivor is the lowest slot's value — the
/// record point reads already returned.
#[test]
fn duplicate_coordinate_coo_fragment_migrates_lowest_slot_wins() {
    let shape = Shape::new(vec![4, 4]).unwrap();
    let coords = CoordBuffer::from_points(2, &[[1u64, 1], [2, 2], [1, 1]]).unwrap();
    let engine = one_fragment_store(FormatKind::Coo, FormatKind::GcsrPP, &shape, &coords, 1);
    let queries = CoordBuffer::from_points(2, &[[1u64, 1], [2, 2]]).unwrap();
    assert_eq!(
        engine.read_values::<u64>(&queries).unwrap(),
        vec![Some(0), Some(1)]
    );

    let report = engine.consolidate().unwrap();
    assert_eq!(report.merged_fragments, 1);
    assert_eq!(report.n_points, 2, "the duplicate must be dropped");
    let (_, kind, _, values) = only_fragment(&engine);
    assert_eq!(kind, FormatKind::GcsrPP);
    assert_eq!(values.len(), 2 * 8);
    assert_eq!(
        engine.read_values::<u64>(&queries).unwrap(),
        vec![Some(0), Some(1)]
    );
}
