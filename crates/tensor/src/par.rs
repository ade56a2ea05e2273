//! Dependency-free scoped parallel execution layer.
//!
//! Every parallel path in the workspace runs through this module: the
//! chunked lexicographic sorts feeding the GCSR++/GCSC++/CSF builds
//! (Algorithms 1–2, §II.C–E), batched point-query execution across all
//! five organizations, the storage engine's per-fragment reads
//! (Algorithm 3 READ) and the striped backend's per-device transfers. It
//! deliberately uses only `std::thread::scope` so the workspace stays
//! free of a work-stealing runtime dependency. Each parallel operation
//! runs the calling thread plus `threads - 1` spawned workers, which
//! claim contiguous chunks of the input from a shared atomic cursor, so
//! items of uneven cost (a 32k-point fragment next to a 1k-point one)
//! still balance.
//!
//! # Configuration
//!
//! A [`Parallelism`] value carries the two knobs: a worker-thread count
//! (`0` = one per available core) and a cutoff below which every
//! operation stays on the calling thread. Callers deep inside a format
//! build cannot receive a config argument — the [`Organization`] trait
//! signatures are fixed — so the effective setting is resolved at the
//! call site via [`Parallelism::current`]: a thread-local override
//! installed by [`with`] (the storage engine wraps format calls this
//! way, plumbing `EngineConfig::threads` down), falling back to a
//! process-global default settable with [`set_default`].
//!
//! [`Organization`]: ../../artsparse_core/traits/trait.Organization.html
//!
//! # Determinism
//!
//! Parallel and sequential execution produce **identical results**:
//!
//! * [`par_map`] splits `0..n` into contiguous chunks and concatenates
//!   chunk outputs in chunk order, which is exactly input order, however
//!   the workers claimed them;
//! * [`sort_indices_by`] requires a *total* order (all callers append an
//!   index tie-break) — chunked `sort_unstable` plus a stable k-way
//!   merge then yields the one and only sorted permutation, independent
//!   of thread count and chunk boundaries.
//!
//! Abstract op *counts* (e.g. sort comparisons charged to an
//! `OpCounter`) may differ between the sequential and chunked sort —
//! different algorithms compare different pairs — but the produced
//! bytes and query answers never do; `tests/parallel.rs` pins this.
//!
//! # Example
//!
//! ```
//! use artsparse_tensor::par::{self, Parallelism};
//!
//! let keys = [3u64, 1, 2, 1];
//! // Force two workers and no sequential cutoff:
//! let p = Parallelism::with_threads(2).with_cutoff(1);
//! let perm = par::with(p, || {
//!     par::sort_indices_by(keys.len(), Parallelism::current(), |a, b| {
//!         keys[a].cmp(&keys[b]).then_with(|| a.cmp(&b))
//!     })
//! });
//! assert_eq!(perm, vec![1, 3, 2, 0]); // stable: ties keep input order
//! ```

use std::cell::{Cell, RefCell};
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering as AtomicOrdering};
use std::time::Instant;

/// Default minimum number of items before an operation goes wide.
///
/// Below this, spawn + join overhead dominates: a scoped thread costs
/// tens of microseconds while sorting 4096 `u64`s costs about as much.
pub const DEFAULT_CUTOFF: usize = 4096;

/// The parallel layer's two knobs: worker-thread count and the
/// sequential-fallback cutoff. See the [module docs](self) for how a
/// value reaches call sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    /// Worker threads an operation may use. `0` means one per available
    /// core ([`std::thread::available_parallelism`]); `1` forces the
    /// sequential path (no threads are ever spawned).
    pub threads: usize,
    /// Operations over fewer than this many items stay on the calling
    /// thread regardless of `threads`.
    pub cutoff: usize,
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism {
            threads: 0,
            cutoff: DEFAULT_CUTOFF,
        }
    }
}

// Process-global default, encoded as (threads + 1, cutoff + 1) so zero
// can mean "unset". Set via `set_default`.
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);
static DEFAULT_CUTOFF_CFG: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static OVERRIDE: Cell<Option<Parallelism>> = const { Cell::new(None) };
    static COLLECTOR: RefCell<Option<ParReport>> = const { RefCell::new(None) };
}

impl Parallelism {
    /// A configuration that never spawns: everything runs on the calling
    /// thread.
    pub fn sequential() -> Self {
        Parallelism {
            threads: 1,
            ..Default::default()
        }
    }

    /// A configuration with an explicit worker count (`0` = auto).
    pub fn with_threads(threads: usize) -> Self {
        Parallelism {
            threads,
            ..Default::default()
        }
    }

    /// Builder-style cutoff override.
    pub fn with_cutoff(mut self, cutoff: usize) -> Self {
        self.cutoff = cutoff;
        self
    }

    /// The configuration in effect on this thread: the innermost
    /// [`with`] override if one is installed, else the process-global
    /// default ([`set_default`]), else [`Parallelism::default`].
    pub fn current() -> Self {
        if let Some(p) = OVERRIDE.with(|o| o.get()) {
            return p;
        }
        let threads = DEFAULT_THREADS.load(AtomicOrdering::Relaxed);
        let cutoff = DEFAULT_CUTOFF_CFG.load(AtomicOrdering::Relaxed);
        Parallelism {
            threads: threads.saturating_sub(1),
            cutoff: if cutoff == 0 {
                DEFAULT_CUTOFF
            } else {
                cutoff - 1
            },
        }
    }

    /// Resolve `threads`: `0` becomes the host's available parallelism.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }

    /// Whether an operation over `n` items takes the parallel path.
    pub fn goes_parallel(&self, n: usize) -> bool {
        n >= self.cutoff.max(2) && self.effective_threads() > 1 && n > 1
    }
}

/// Set the process-global default configuration (used by threads that
/// have no [`with`] override installed).
pub fn set_default(p: Parallelism) {
    DEFAULT_THREADS.store(p.threads + 1, AtomicOrdering::Relaxed);
    DEFAULT_CUTOFF_CFG.store(p.cutoff + 1, AtomicOrdering::Relaxed);
}

/// Run `f` with `p` installed as this thread's [`Parallelism::current`].
///
/// The override is scoped: nested `with` calls shadow it, and the
/// previous value is restored on exit (including on unwind, since the
/// restore lives in a drop guard). Spawned workers do *not* inherit the
/// override — operations pass their resolved configuration down
/// explicitly.
pub fn with<R>(p: Parallelism, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Parallelism>);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(OVERRIDE.with(|o| o.replace(Some(p))));
    f()
}

/// Wall-clock timing of one shard of a parallel operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardTiming {
    /// Shard index within its operation (`0..shards`).
    pub shard: usize,
    /// Shard start, in nanoseconds after the observed region began.
    pub start_offset_ns: u64,
    /// Shard wall-clock duration in nanoseconds.
    pub dur_ns: u64,
}

/// What the parallel layer did inside one [`observed`] region.
#[derive(Debug, Clone, Default)]
pub struct ParReport {
    /// Worker threads spawned (the calling thread is not counted).
    pub tasks_spawned: u64,
    /// Per-shard wall-clock timings, one entry per shard of every
    /// parallel operation in the region (sequential fallbacks add none).
    pub shards: Vec<ShardTiming>,
}

/// Run `f` with `p` installed (as [`with`]) while collecting a
/// [`ParReport`] of every parallel operation `f` performs on this
/// thread. The storage engine wraps format build/read calls in this to
/// charge telemetry counters and emit per-shard spans.
pub fn observed<R>(p: Parallelism, f: impl FnOnce() -> R) -> (R, ParReport) {
    struct Restore(Option<ParReport>);
    impl Drop for Restore {
        fn drop(&mut self) {
            COLLECTOR.with(|c| *c.borrow_mut() = self.0.take());
        }
    }
    let prev = Restore(COLLECTOR.with(|c| c.borrow_mut().replace(ParReport::default())));
    let out = with(p, f);
    let report = COLLECTOR
        .with(|c| c.borrow_mut().take())
        .unwrap_or_default();
    drop(prev);
    (out, report)
}

// Cumulative process-wide counters, exposed through `stats()` so tests
// can assert structural properties (e.g. threads=1 never spawns).
static TASKS_SPAWNED: AtomicU64 = AtomicU64::new(0);
static PARALLEL_OPS: AtomicU64 = AtomicU64::new(0);
static SEQUENTIAL_OPS: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-wide parallel-layer counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParStats {
    /// Worker threads spawned since process start.
    pub tasks_spawned: u64,
    /// Operations that took the parallel path.
    pub parallel_ops: u64,
    /// Operations that fell back to the calling thread (threads == 1 or
    /// below cutoff).
    pub sequential_ops: u64,
}

/// Read the cumulative counters (relaxed; exact once threads are joined).
pub fn stats() -> ParStats {
    ParStats {
        tasks_spawned: TASKS_SPAWNED.load(AtomicOrdering::Relaxed),
        parallel_ops: PARALLEL_OPS.load(AtomicOrdering::Relaxed),
        sequential_ops: SEQUENTIAL_OPS.load(AtomicOrdering::Relaxed),
    }
}

/// Split `0..n` into `shards` contiguous, balanced, ascending ranges.
fn split_ranges(n: usize, shards: usize) -> Vec<Range<usize>> {
    let base = n / shards;
    let extra = n % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0;
    for s in 0..shards {
        let len = base + usize::from(s < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Run `worker` over contiguous chunks of `0..n`, returning the chunk
/// results in chunk (= input) order.
///
/// With `p.threads == 1`, or fewer than `p.cutoff` items, the whole
/// range runs as one chunk on the calling thread and **no thread is
/// spawned** — the overhead over a plain call is two atomic loads and
/// one increment. Otherwise `min(threads, n)` workers (the calling
/// thread plus spawned ones) claim `min(n, 4 × workers)` chunks from a
/// shared cursor, so uneven items balance across workers.
pub fn run_shards<T, F>(n: usize, p: Parallelism, worker: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    if !p.goes_parallel(n) {
        SEQUENTIAL_OPS.fetch_add(1, AtomicOrdering::Relaxed);
        return vec![worker(0..n)];
    }
    let workers = p.effective_threads().min(n);
    run_shards_wide(n, workers, n.min(4 * workers), &worker)
}

/// The forced-parallel core of [`run_shards`]: `2 <= workers <= chunks
/// <= n`, cutoff already checked by the caller. The calling thread and
/// `workers - 1` spawned ones claim chunks from an atomic cursor until
/// none remain; each worker's claim loop is one [`ShardTiming`].
fn run_shards_wide<T, F>(n: usize, workers: usize, chunks: usize, worker: &F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    debug_assert!(2 <= workers && workers <= chunks && chunks <= n);
    let op_start = Instant::now();
    let ranges = split_ranges(n, chunks);
    let cursor = AtomicUsize::new(0);
    let claim_loop = |shard: usize| {
        let started = Instant::now();
        let mut done = Vec::new();
        loop {
            let chunk = cursor.fetch_add(1, AtomicOrdering::Relaxed);
            let Some(range) = ranges.get(chunk) else {
                break;
            };
            done.push((chunk, worker(range.clone())));
        }
        let timing = ShardTiming {
            shard,
            start_offset_ns: started.duration_since(op_start).as_nanos() as u64,
            dur_ns: started.elapsed().as_nanos() as u64,
        };
        (done, timing)
    };
    let per_worker: Vec<_> = std::thread::scope(|scope| {
        let claim_loop = &claim_loop;
        let spawned: Vec<_> = (1..workers)
            .map(|shard| scope.spawn(move || claim_loop(shard)))
            .collect();
        // The calling thread claims too, after the others launch.
        std::iter::once(claim_loop(0))
            .chain(spawned.into_iter().map(|handle| {
                handle
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p))
            }))
            .collect()
    });
    TASKS_SPAWNED.fetch_add(workers as u64 - 1, AtomicOrdering::Relaxed);
    PARALLEL_OPS.fetch_add(1, AtomicOrdering::Relaxed);
    let mut results = Vec::with_capacity(chunks);
    COLLECTOR.with(|c| {
        let mut c = c.borrow_mut();
        for (done, timing) in per_worker {
            results.extend(done);
            if let Some(report) = c.as_mut() {
                report.shards.push(timing);
            }
        }
        if let Some(report) = c.as_mut() {
            report.tasks_spawned += workers as u64 - 1;
        }
    });
    results.sort_unstable_by_key(|(chunk, _)| *chunk);
    results.into_iter().map(|(_, out)| out).collect()
}

/// Map `f` over `0..n` in parallel, returning results **in input order**.
///
/// This is the workspace's one fan-out executor: batched point queries
/// over a `CoordBuffer`, the storage engine's per-fragment reads and the
/// striped backend's per-device transfers all run through it. The
/// concatenation of contiguous chunk outputs reproduces the sequential
/// output exactly.
pub fn par_map<R, F>(n: usize, p: Parallelism, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let mut shards = run_shards(n, p, |range| range.map(&f).collect::<Vec<R>>());
    if shards.len() == 1 {
        return shards.pop().expect("one shard");
    }
    let mut out = Vec::with_capacity(n);
    for shard in shards {
        out.extend(shard);
    }
    out
}

/// Sort the indices `0..n` under a **total** order: chunked
/// `sort_unstable` plus a k-way (tournament) merge above the cutoff, a
/// stable standard-library sort below it.
///
/// `cmp` must never return `Equal` for distinct indices (callers append
/// an index tie-break); totality is what makes the chunked result
/// byte-identical to the sequential one for every thread count. In
/// debug builds a violated total order panics in the merge.
pub fn sort_indices_by<F>(n: usize, p: Parallelism, cmp: F) -> Vec<usize>
where
    F: Fn(usize, usize) -> Ordering + Sync,
{
    if !p.goes_parallel(n) {
        SEQUENTIAL_OPS.fetch_add(1, AtomicOrdering::Relaxed);
        let mut perm: Vec<usize> = (0..n).collect();
        // Stable sort: with a total order the result equals the
        // unstable one, and below the cutoff it preserves the exact
        // comparison behavior the op-count experiments were pinned on.
        perm.sort_by(|&a, &b| cmp(a, b));
        return perm;
    }
    // One run per worker keeps the merge tree independent of chunking.
    let shards = p.effective_threads().min(n);
    let mut runs: Vec<Vec<usize>> = run_shards_wide(n, shards, shards, &|range: Range<usize>| {
        let mut chunk: Vec<usize> = range.collect();
        chunk.sort_unstable_by(|&a, &b| cmp(a, b));
        chunk
    });
    // Tournament merge: pair up sorted runs until one remains. Each
    // round's pairs are disjoint, so rounds of >= 2 pairs merge in
    // parallel (cutoff has been paid already — the run lengths sum to n).
    while runs.len() > 1 {
        let pairs = runs.len() / 2;
        let odd = runs.len() % 2 == 1;
        let merge_pair = |i: usize| merge_runs(&runs[2 * i], &runs[2 * i + 1], &cmp);
        let mut next: Vec<Vec<usize>> = if pairs >= 2 && shards >= 2 {
            let workers = shards.min(pairs);
            run_shards_wide(pairs, workers, workers, &|range: Range<usize>| {
                range.map(merge_pair).collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect()
        } else {
            (0..pairs).map(merge_pair).collect()
        };
        if odd {
            next.push(runs.pop().expect("odd run"));
        }
        runs = next;
    }
    runs.pop().unwrap_or_default()
}

/// Stable two-run merge (left run wins ties — unreachable under a total
/// order, checked in debug builds).
fn merge_runs<F>(a: &[usize], b: &[usize], cmp: &F) -> Vec<usize>
where
    F: Fn(usize, usize) -> Ordering,
{
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let ord = cmp(a[i], b[j]);
        debug_assert!(ord != Ordering::Equal, "comparator must be a total order");
        if ord != Ordering::Greater {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn forced(threads: usize) -> Parallelism {
        Parallelism::with_threads(threads).with_cutoff(1)
    }

    #[test]
    fn split_ranges_is_contiguous_and_balanced() {
        for n in [0usize, 1, 5, 16, 17, 1000] {
            for shards in 1..=8usize.min(n.max(1)) {
                let ranges = split_ranges(n, shards);
                assert_eq!(ranges.len(), shards);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    next = r.end;
                }
                assert_eq!(next, n);
                let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
                assert!(max - min <= 1, "balanced: {lens:?}");
            }
        }
    }

    #[test]
    fn par_map_preserves_input_order_at_any_width() {
        let expect: Vec<usize> = (0..100).map(|i| i * 7).collect();
        for threads in [1, 2, 3, 7, 16] {
            assert_eq!(par_map(100, forced(threads), |i| i * 7), expect);
        }
        assert_eq!(par_map(0, forced(4), |i| i), Vec::<usize>::new());
    }

    #[test]
    fn sort_matches_sequential_at_any_width() {
        let keys: Vec<u64> = (0..5000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9) % 97)
            .collect();
        let cmp = |a: usize, b: usize| keys[a].cmp(&keys[b]).then_with(|| a.cmp(&b));
        let seq = sort_indices_by(keys.len(), Parallelism::sequential(), cmp);
        for threads in [2, 3, 7] {
            assert_eq!(sort_indices_by(keys.len(), forced(threads), cmp), seq);
        }
    }

    // Spawn counts come from `observed`'s thread-local report: the
    // process-wide `stats()` also counts sibling tests running at the
    // same time.
    #[test]
    fn sequential_config_never_spawns() {
        let before = stats();
        let (_, report) = observed(Parallelism::sequential(), || {
            let out = par_map(10_000, Parallelism::sequential(), |i| i);
            assert_eq!(out.len(), 10_000);
            sort_indices_by(10_000, Parallelism::sequential(), |a, b| a.cmp(&b))
        });
        assert_eq!(report.tasks_spawned, 0);
        assert!(report.shards.is_empty());
        assert!(stats().sequential_ops >= before.sequential_ops + 2);
    }

    #[test]
    fn cutoff_keeps_small_inputs_sequential() {
        let p = Parallelism::with_threads(8).with_cutoff(1000);
        let (_, report) = observed(p, || par_map(999, p, |i| i));
        assert_eq!(report.tasks_spawned, 0);
        assert!(report.shards.is_empty());
        assert!(p.goes_parallel(1000) || p.effective_threads() == 1);
    }

    #[test]
    fn a_slow_item_does_not_hold_up_the_items_after_it() {
        // Item 0 waits for every other item. A static two-way split would
        // put items 1 and 2 behind it on the same worker and time out;
        // with a shared cursor the other worker claims them all.
        let finished = AtomicUsize::new(0);
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        let out = par_map(6, forced(2), |i| {
            if i == 0 {
                while finished.load(AtomicOrdering::Acquire) < 5 {
                    assert!(Instant::now() < deadline, "items behind item 0 never ran");
                    std::thread::yield_now();
                }
            } else {
                finished.fetch_add(1, AtomicOrdering::Release);
            }
            i * 10
        });
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50]);
    }

    #[test]
    fn with_overrides_and_restores() {
        // Everything under an outer override so concurrent tests that
        // change the process-global default cannot interfere.
        with(forced(2), || {
            assert_eq!(Parallelism::current(), forced(2));
            let inner = with(forced(3), Parallelism::current);
            assert_eq!(inner, forced(3));
            assert_eq!(Parallelism::current(), forced(2));
            // Restored even on unwind.
            let _ = std::panic::catch_unwind(|| with(forced(5), || panic!("boom")));
            assert_eq!(Parallelism::current(), forced(2));
        });
    }

    #[test]
    fn observed_reports_spawns_and_shard_timings() {
        let (out, report) = observed(forced(4), || par_map(100, Parallelism::current(), |i| i));
        assert_eq!(out.len(), 100);
        assert_eq!(report.tasks_spawned, 3);
        assert_eq!(report.shards.len(), 4);
        let mut seen: Vec<usize> = report.shards.iter().map(|t| t.shard).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);

        let (_, quiet) = observed(Parallelism::sequential(), || {
            par_map(100, Parallelism::current(), |i| i)
        });
        assert_eq!(quiet.tasks_spawned, 0);
        assert!(quiet.shards.is_empty());
    }

    #[test]
    fn default_and_set_default_round_trip() {
        // Don't disturb other tests: restore afterwards.
        let prev = Parallelism::current();
        set_default(Parallelism::with_threads(2).with_cutoff(77));
        // An installed override still wins.
        assert_eq!(with(forced(9), Parallelism::current), forced(9));
        let d = Parallelism::current();
        assert_eq!(d.threads, 2);
        assert_eq!(d.cutoff, 77);
        set_default(prev);
    }
}
