//! A counting, span-recording `StorageBackend` wrapper: the benchmark's
//! window onto the storage layer below the engine.

use crate::trace::Recorder;
use artsparse_storage::{Result, StorageBackend};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

/// The engine's background scheduler thread; its device traffic is
/// counted but never attributed to a foreground request.
const SCHEDULER_THREAD: &str = "artsparse-ingest-scheduler";

/// Device traffic counters.
#[derive(Debug, Default)]
pub struct Counts {
    /// Foreground `get`/`get_prefix`/`get_range` calls.
    pub fg_gets: AtomicU64,
    /// Bytes those calls returned.
    pub fg_bytes_read: AtomicU64,
    /// `put`, `put_atomic` and `put_exclusive` calls, any thread.
    pub puts: AtomicU64,
    /// Bytes those puts wrote.
    pub bytes_written: AtomicU64,
    /// Write-ahead-log bytes (`wal-*` puts).
    pub wal_bytes: AtomicU64,
    /// Fragment commits: renames onto a `frag-*.asf` name.
    pub fragment_commits: AtomicU64,
    /// Fragment commits made by a foreground call (inline group commits).
    pub fg_fragment_commits: AtomicU64,
    /// Consolidation tombstones written (`tomb-*` puts): one per
    /// committed consolidation.
    pub tombstones: AtomicU64,
}

/// State shared by the wrapper and the code making the engine calls.
#[derive(Debug, Default)]
pub struct Shared {
    /// Counters.
    pub counts: Counts,
    /// Span sink (traced replays only).
    pub recorder: Option<Arc<Recorder>>,
    /// Request id of the foreground call in flight.
    pub req: AtomicU64,
    /// Span id of the foreground engine call in flight (`0` = none).
    pub parent: AtomicU32,
    /// Threads other than the caller that touched the device during the
    /// foreground call: the engine's fetch workers.
    pub workers: Mutex<HashSet<ThreadId>>,
    /// The thread making foreground calls.
    pub caller: Mutex<Option<ThreadId>>,
}

impl Shared {
    /// Counter value.
    pub fn get(c: &AtomicU64) -> u64 {
        c.load(Ordering::Relaxed)
    }
}

/// The wrapper.
pub struct Counting<B> {
    inner: B,
    shared: Arc<Shared>,
}

impl<B: StorageBackend> Counting<B> {
    /// Wrap `inner`, reporting into `shared`.
    pub fn new(inner: B, shared: Arc<Shared>) -> Counting<B> {
        Counting { inner, shared }
    }

    fn foreground(&self) -> bool {
        self.shared.parent.load(Ordering::Relaxed) != 0
            && std::thread::current().name() != Some(SCHEDULER_THREAD)
    }

    /// Run one device call, timing it as a child of the foreground span.
    fn call<T>(&self, name: &'static str, f: impl FnOnce() -> Result<T>) -> Result<T> {
        if !self.foreground() {
            return f();
        }
        let me = std::thread::current().id();
        if *self.shared.caller.lock().expect("caller poisoned") != Some(me) {
            self.shared
                .workers
                .lock()
                .expect("workers poisoned")
                .insert(me);
        }
        match &self.shared.recorder {
            Some(rec) => rec.time(
                self.shared.req.load(Ordering::Relaxed),
                self.shared.parent.load(Ordering::Relaxed),
                name,
                f,
            ),
            None => f(),
        }
    }

    fn count_read(&self, bytes: &Result<Vec<u8>>) {
        if let Ok(b) = bytes {
            if self.foreground() {
                let c = &self.shared.counts;
                c.fg_gets.fetch_add(1, Ordering::Relaxed);
                c.fg_bytes_read.fetch_add(b.len() as u64, Ordering::Relaxed);
            }
        }
    }

    fn count_put(&self, name: &str, len: usize) {
        let c = &self.shared.counts;
        c.puts.fetch_add(1, Ordering::Relaxed);
        c.bytes_written.fetch_add(len as u64, Ordering::Relaxed);
        if name.starts_with("wal-") {
            c.wal_bytes.fetch_add(len as u64, Ordering::Relaxed);
        }
        if name.starts_with("tomb-") {
            c.tombstones.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl<B: StorageBackend> StorageBackend for Counting<B> {
    fn kind_name(&self) -> &'static str {
        self.inner.kind_name()
    }

    fn put(&self, name: &str, data: &[u8]) -> Result<()> {
        self.count_put(name, data.len());
        self.call("backend.put", || self.inner.put(name, data))
    }

    fn put_atomic(&self, name: &str, data: &[u8]) -> Result<()> {
        self.count_put(name, data.len());
        self.call("backend.put", || self.inner.put_atomic(name, data))
    }

    fn put_exclusive(&self, name: &str, data: &[u8]) -> Result<()> {
        self.count_put(name, data.len());
        self.call("backend.put", || self.inner.put_exclusive(name, data))
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        if to.starts_with("frag-") && to.ends_with(".asf") {
            let c = &self.shared.counts;
            c.fragment_commits.fetch_add(1, Ordering::Relaxed);
            if self.foreground() {
                c.fg_fragment_commits.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.call("backend.rename", || self.inner.rename(from, to))
    }

    fn get(&self, name: &str) -> Result<Vec<u8>> {
        let r = self.call("backend.get", || self.inner.get(name));
        self.count_read(&r);
        r
    }

    fn get_prefix(&self, name: &str, len: usize) -> Result<Vec<u8>> {
        let r = self.call("backend.get", || self.inner.get_prefix(name, len));
        self.count_read(&r);
        r
    }

    fn get_range(&self, name: &str, offset: u64, len: usize) -> Result<Vec<u8>> {
        let r = self.call("backend.get", || self.inner.get_range(name, offset, len));
        self.count_read(&r);
        r
    }

    fn list(&self) -> Result<Vec<String>> {
        self.call("backend.list", || self.inner.list())
    }

    fn size(&self, name: &str) -> Result<u64> {
        self.call("backend.size", || self.inner.size(name))
    }

    fn delete(&self, name: &str) -> Result<()> {
        self.call("backend.delete", || self.inner.delete(name))
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }
}
