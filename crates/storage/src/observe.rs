//! Telemetry instrumentation for storage devices.
//!
//! [`RecordingBackend`] wraps any [`StorageBackend`] and, when it has a
//! [`SpanSink`], times every device operation and charges the moved
//! bytes to the innermost open span on the calling thread (see
//! `artsparse_metrics::span`). The engine stores its device inside this
//! wrapper so every existing `self.backend.…` call site is instrumented
//! without per-call-site changes. Without a sink (telemetry and the
//! observability plane both off) the wrapper is one `Option` check plus
//! a direct delegate — effectively free.
//!
//! `par_map_traced` is the storage layer's fan-out: `par::par_map`
//! whose workers stay inside the calling thread's trace.

use crate::backend::StorageBackend;
use crate::error::Result;
use artsparse_metrics::{charge, IoStats, SpanSink, TraceContext};
use artsparse_tensor::par::{self, Parallelism};
use std::sync::Arc;
use std::time::Instant;

/// A [`StorageBackend`] decorator that reports per-operation timing and
/// byte counts to a [`SpanSink`].
///
/// Byte accounting rules:
/// * reads (`get`, `get_prefix`, `get_range`) charge `requests`,
///   `bytes_requested` (the window asked for; for `get` the blob length
///   actually returned) and, on success, `bytes_fetched` (bytes
///   returned);
/// * writes (`put`, `put_atomic`, `put_exclusive`) charge `requests` and,
///   on success, `bytes_written`;
/// * `rename`, `delete`, and `list` are timed with zero bytes;
/// * `size` and `exists` are metadata peeks and are not recorded.
pub struct RecordingBackend<B> {
    inner: B,
    sink: Option<Arc<SpanSink>>,
}

impl<B: StorageBackend> RecordingBackend<B> {
    /// Wrap `inner`, reporting to `sink` (`None` records nothing).
    pub fn new(inner: B, sink: Option<Arc<SpanSink>>) -> Self {
        RecordingBackend { inner, sink }
    }

    /// The wrapped device.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Unwrap, discarding the sink.
    pub fn into_inner(self) -> B {
        self.inner
    }

    #[inline]
    fn op_start(&self) -> Option<Instant> {
        self.sink.as_ref().map(|_| Instant::now())
    }

    #[inline]
    fn op_end(&self, start: Option<Instant>, op: &'static str, bytes: u64) {
        if let (Some(start), Some(sink)) = (start, &self.sink) {
            let dur_ns = start.elapsed().as_nanos() as u64;
            sink.record_backend_op(self.inner.kind_name(), op, dur_ns, bytes);
        }
    }

    #[inline]
    fn record_write(&self, start: Option<Instant>, op: &'static str, len: usize, ok: bool) {
        if start.is_some() {
            let bytes = if ok { len as u64 } else { 0 };
            charge(|io| {
                io.requests += 1;
                io.bytes_written = io.bytes_written.saturating_add(bytes);
            });
            self.op_end(start, op, bytes);
        }
    }

    #[inline]
    fn record_read(
        &self,
        start: Option<Instant>,
        op: &'static str,
        requested: u64,
        fetched: u64,
        ok: bool,
    ) {
        if start.is_some() {
            let fetched = if ok { fetched } else { 0 };
            charge(|io| {
                io.requests += 1;
                io.bytes_requested = io.bytes_requested.saturating_add(requested);
                io.bytes_fetched = io.bytes_fetched.saturating_add(fetched);
            });
            self.op_end(start, op, fetched);
        }
    }
}

impl<B: StorageBackend> StorageBackend for RecordingBackend<B> {
    fn kind_name(&self) -> &'static str {
        self.inner.kind_name()
    }

    fn put(&self, name: &str, data: &[u8]) -> Result<()> {
        let start = self.op_start();
        let r = self.inner.put(name, data);
        self.record_write(start, "put", data.len(), r.is_ok());
        r
    }

    fn put_atomic(&self, name: &str, data: &[u8]) -> Result<()> {
        let start = self.op_start();
        let r = self.inner.put_atomic(name, data);
        self.record_write(start, "put_atomic", data.len(), r.is_ok());
        r
    }

    fn put_exclusive(&self, name: &str, data: &[u8]) -> Result<()> {
        let start = self.op_start();
        let r = self.inner.put_exclusive(name, data);
        self.record_write(start, "put_exclusive", data.len(), r.is_ok());
        r
    }

    fn rename(&self, from: &str, to: &str) -> Result<()> {
        let start = self.op_start();
        let r = self.inner.rename(from, to);
        self.op_end(start, "rename", 0);
        r
    }

    fn get(&self, name: &str) -> Result<Vec<u8>> {
        let start = self.op_start();
        let r = self.inner.get(name);
        let got = r.as_ref().map(|d| d.len() as u64).unwrap_or(0);
        self.record_read(start, "get", got, got, r.is_ok());
        r
    }

    fn get_prefix(&self, name: &str, len: usize) -> Result<Vec<u8>> {
        let start = self.op_start();
        let r = self.inner.get_prefix(name, len);
        let got = r.as_ref().map(|d| d.len() as u64).unwrap_or(0);
        self.record_read(start, "get_prefix", len as u64, got, r.is_ok());
        r
    }

    fn get_range(&self, name: &str, offset: u64, len: usize) -> Result<Vec<u8>> {
        let start = self.op_start();
        let r = self.inner.get_range(name, offset, len);
        let got = r.as_ref().map(|d| d.len() as u64).unwrap_or(0);
        self.record_read(start, "get_range", len as u64, got, r.is_ok());
        r
    }

    fn list(&self) -> Result<Vec<String>> {
        let start = self.op_start();
        let r = self.inner.list();
        self.op_end(start, "list", 0);
        r
    }

    fn size(&self, name: &str) -> Result<u64> {
        self.inner.size(name)
    }

    fn delete(&self, name: &str) -> Result<()> {
        let start = self.op_start();
        let r = self.inner.delete(name);
        self.op_end(start, "delete", 0);
        r
    }

    fn exists(&self, name: &str) -> bool {
        self.inner.exists(name)
    }
}

/// [`par::par_map`] run inside the calling thread's trace: spans the
/// workers open carry its trace id, and what they charge outside those
/// spans is merged into its innermost frame at join, so no counter is
/// dropped because a worker did the work.
pub(crate) fn par_map_traced<R: Send>(
    n: usize,
    p: Parallelism,
    f: impl Fn(usize) -> R + Sync,
) -> Vec<R> {
    let ctx = TraceContext::capture();
    let (out, frames): (Vec<R>, Vec<IoStats>) = par::par_map(n, p, |i| ctx.adopt(|| f(i)))
        .into_iter()
        .unzip();
    charge(|frame| frames.iter().for_each(|io| frame.merge(io)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use artsparse_metrics::{Span, SpanKind, DEFAULT_EVENT_CAPACITY};

    fn telemetry() -> Arc<SpanSink> {
        Arc::new(SpanSink::new(Some(DEFAULT_EVENT_CAPACITY), None))
    }

    #[test]
    fn without_a_sink_records_nothing_and_delegates() {
        let b = RecordingBackend::new(MemBackend::new(), None);
        b.put("a", &[1, 2, 3]).unwrap();
        assert_eq!(b.get("a").unwrap(), vec![1, 2, 3]);
        assert_eq!(b.kind_name(), "mem");
        assert!(b.exists("a"));
    }

    #[test]
    fn a_sink_times_ops_and_charges_open_span() {
        let t = telemetry();
        let b = RecordingBackend::new(MemBackend::new(), Some(Arc::clone(&t)));
        {
            let _s = Span::enter(Some(&t), SpanKind::Write);
            b.put("a", &[0u8; 100]).unwrap();
        }
        {
            let _s = Span::enter(Some(&t), SpanKind::ReadFetch);
            assert_eq!(b.get_range("a", 10, 20).unwrap().len(), 20);
            assert_eq!(b.get("a").unwrap().len(), 100);
        }
        let rep = t.report().unwrap();
        let w = rep.span(SpanKind::Write).unwrap();
        assert_eq!(w.io.bytes_written, 100);
        assert_eq!(w.io.requests, 1);
        let f = rep.span(SpanKind::ReadFetch).unwrap();
        assert_eq!(f.io.bytes_fetched, 120);
        assert_eq!(f.io.bytes_requested, 120);
        assert_eq!(f.io.requests, 2);
        assert_eq!(rep.backend_op("mem", "put").unwrap().bytes, 100);
        assert_eq!(rep.backend_op("mem", "get_range").unwrap().bytes, 20);
        assert_eq!(rep.backend_op("mem", "get").unwrap().bytes, 100);
    }

    #[test]
    fn failed_reads_charge_request_but_no_bytes() {
        let t = telemetry();
        let b = RecordingBackend::new(MemBackend::new(), Some(Arc::clone(&t)));
        {
            let _s = Span::enter(Some(&t), SpanKind::ReadFetch);
            assert!(b.get("missing").is_err());
        }
        let rep = t.report().unwrap();
        let f = rep.span(SpanKind::ReadFetch).unwrap();
        assert_eq!(f.io.requests, 1);
        assert_eq!(f.io.bytes_fetched, 0);
    }
}
