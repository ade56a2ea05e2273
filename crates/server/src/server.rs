//! The server: shard workers, socket listeners, session threads, the
//! quota book, and the metrics exporter, assembled behind one handle.
//!
//! Topology: `N` shard threads own every [`artsparse_storage::StorageEngine`]
//! (datasets hash onto shards by tenant-qualified name); one accept
//! thread per listener (TCP, Unix) turns connections into session
//! threads; an optional [`MetricsExporter`] publishes the server's
//! metrics into a directory (`metrics.prom`, `metrics.jsonl`,
//! `journal.jsonl`) the same way it publishes an engine's, so
//! `artsparse-bench watch` works on a live server unchanged.
//!
//! Shutdown ordering (see [`ServerHandle::shutdown`]): stop accepting →
//! join sessions → drain every shard through `StorageEngine::shutdown`
//! → join shard workers → journal the closing events → the exporter's
//! final tick. Acked ingest survives because drain group-commits the
//! write buffers before the process lets go of the engines.

use crate::metrics::ServerMetrics;
use crate::quota::{Quota, QuotaBook};
use crate::session::{run_session, Limits, SessionCtx};
use crate::shard::{spawn_shard, ShardCmd, ShardReply};
use artsparse_metrics::{JournalEvent, RegistrySnapshot};
use artsparse_storage::{
    EngineConfig, ExportSource, FsBackend, MemBackend, MetricsExporter, SchedulerConfig,
    StorageBackend, StorageError,
};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Opens one storage backend per dataset. The key is the namespaced
/// dataset name (`tenant/dataset`), already validated against
/// `[A-Za-z0-9_-]{1,64}` per segment — safe to use as a relative path.
pub trait BackendFactory {
    /// The backend type every shard engine runs on.
    type Backend: StorageBackend + Send + Sync + 'static;
    /// Open (creating if needed) the backend for `key`.
    fn open(&self, key: &str) -> Result<Self::Backend, StorageError>;
}

/// Ephemeral in-memory datasets (tests, benchmarks, doctests).
#[derive(Debug, Default, Clone, Copy)]
pub struct MemFactory;

impl BackendFactory for MemFactory {
    type Backend = MemBackend;
    fn open(&self, _key: &str) -> Result<MemBackend, StorageError> {
        Ok(MemBackend::new())
    }
}

/// Durable datasets: one directory per dataset under `root`
/// (`<root>/<tenant>/<dataset>/`).
#[derive(Debug, Clone)]
pub struct FsFactory {
    root: PathBuf,
}

impl FsFactory {
    /// A factory rooted at `root` (created on first use).
    pub fn new(root: impl Into<PathBuf>) -> FsFactory {
        FsFactory { root: root.into() }
    }
}

impl BackendFactory for FsFactory {
    type Backend = FsBackend;
    fn open(&self, key: &str) -> Result<FsBackend, StorageError> {
        FsBackend::new(self.root.join(key))
    }
}

/// Server configuration. `Default` is a two-shard, TCP-less,
/// memory-quota-free server suitable for embedding in tests; binaries
/// set listeners explicitly.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Shard worker count (min 1). Datasets hash onto shards, so this
    /// is the write-path parallelism across datasets.
    pub shards: usize,
    /// TCP listen address (`"127.0.0.1:4141"`), if any. Port `0` binds
    /// an ephemeral port; read it back with [`ServerHandle::tcp_addr`].
    pub tcp: Option<String>,
    /// Unix socket path, if any. Removed on shutdown.
    pub unix: Option<PathBuf>,
    /// Template engine configuration applied to every dataset.
    pub engine: EngineConfig,
    /// Per-dataset background scheduler; `None` disables flush/compact
    /// scheduling (then only explicit `FLUSH` and threshold flushes run).
    pub scheduler: Option<SchedulerConfig>,
    /// Quota applied to tenants without an override (0 = unlimited).
    pub default_quota: Quota,
    /// Per-tenant quota overrides.
    pub tenant_quotas: Vec<(String, Quota)>,
    /// Directory the metrics exporter publishes into (`metrics.prom` /
    /// `metrics.jsonl` / `journal.jsonl`); `None` publishes nothing (the
    /// `METRICS` command still works).
    pub metrics_out: Option<PathBuf>,
    /// Exporter cadence in milliseconds.
    pub export_interval_ms: u64,
    /// Socket read timeout — the drain-flag polling cadence.
    pub session_read_timeout_ms: u64,
    /// Largest accepted `PUT`/`INGEST` batch, in points.
    pub max_batch_points: usize,
    /// Largest region a `SCAN` may visit (cells) and return (rows).
    pub scan_limit: usize,
    /// Whether the `SHUTDOWN` protocol command is honored.
    pub allow_shutdown: bool,
    /// Journal ring capacity.
    pub journal_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            shards: 2,
            tcp: None,
            unix: None,
            engine: EngineConfig::default(),
            scheduler: None,
            default_quota: Quota::unlimited(),
            tenant_quotas: Vec::new(),
            metrics_out: None,
            export_interval_ms: 500,
            session_read_timeout_ms: 250,
            max_batch_points: 1 << 20,
            scan_limit: 1 << 20,
            allow_shutdown: true,
            journal_capacity: 1024,
        }
    }
}

/// The server entry point; see [`Server::start`].
#[derive(Debug)]
pub struct Server;

impl Server {
    /// Start a server: spawn the shard workers, bind the configured
    /// listeners, and return the running server's [`ServerHandle`].
    ///
    /// The handle drains everything on [`ServerHandle::shutdown`] (or
    /// drop). Fails if a listener cannot bind.
    pub fn start<F>(config: ServerConfig, factory: F) -> Result<ServerHandle, StorageError>
    where
        F: BackendFactory + Send + Sync + 'static,
    {
        let n_shards = config.shards.max(1);
        let factory = Arc::new(factory);
        let mut shard_txs = Vec::with_capacity(n_shards);
        let mut shard_handles = Vec::with_capacity(n_shards);
        for id in 0..n_shards {
            let (tx, rx) = mpsc::channel();
            shard_handles.push(spawn_shard(
                id,
                Arc::clone(&factory),
                config.engine.clone(),
                config.scheduler,
                rx,
            ));
            shard_txs.push(tx);
        }

        let metrics = Arc::new(ServerMetrics::new(config.journal_capacity));
        metrics.shards.set(n_shards as f64);
        let quotas = QuotaBook::new(config.default_quota);
        for (tenant, quota) in &config.tenant_quotas {
            quotas.set_quota(tenant, *quota);
        }

        let stop = Arc::new(AtomicBool::new(false));
        let (shutdown_tx, shutdown_rx) = mpsc::channel();
        let session_handles: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));
        let session_ids = Arc::new(AtomicU64::new(0));
        let limits = Limits {
            max_batch_points: config.max_batch_points,
            scan_limit: config.scan_limit,
            allow_shutdown: config.allow_shutdown,
        };
        let read_timeout = Duration::from_millis(config.session_read_timeout_ms.max(10));

        let mut accept_handles = Vec::new();
        let mut tcp_addr = None;
        if let Some(addr) = &config.tcp {
            let listener = TcpListener::bind(addr)?;
            tcp_addr = Some(listener.local_addr()?);
            listener.set_nonblocking(true)?;
            let loop_ctx = AcceptCtx {
                shards: shard_txs.clone(),
                quotas: quotas.clone(),
                metrics: Arc::clone(&metrics),
                stop: Arc::clone(&stop),
                shutdown: shutdown_tx.clone(),
                limits,
                read_timeout,
                sessions: Arc::clone(&session_handles),
                session_ids: Arc::clone(&session_ids),
            };
            accept_handles.push(
                std::thread::Builder::new()
                    .name("artsparse-accept-tcp".into())
                    .spawn(move || tcp_accept_loop(&listener, &loop_ctx))
                    .expect("spawning the TCP accept thread"),
            );
        }

        let mut unix_path = None;
        #[cfg(unix)]
        if let Some(path) = &config.unix {
            // A stale socket file from a dead process refuses the bind;
            // connecting distinguishes live servers from leftovers.
            if path.exists() && std::os::unix::net::UnixStream::connect(path).is_err() {
                let _ = std::fs::remove_file(path);
            }
            let listener = std::os::unix::net::UnixListener::bind(path)?;
            listener.set_nonblocking(true)?;
            unix_path = Some(path.clone());
            let loop_ctx = AcceptCtx {
                shards: shard_txs.clone(),
                quotas: quotas.clone(),
                metrics: Arc::clone(&metrics),
                stop: Arc::clone(&stop),
                shutdown: shutdown_tx.clone(),
                limits,
                read_timeout,
                sessions: Arc::clone(&session_handles),
                session_ids: Arc::clone(&session_ids),
            };
            accept_handles.push(
                std::thread::Builder::new()
                    .name("artsparse-accept-unix".into())
                    .spawn(move || unix_accept_loop(&listener, &loop_ctx))
                    .expect("spawning the Unix accept thread"),
            );
        }
        #[cfg(not(unix))]
        if config.unix.is_some() {
            return Err(StorageError::Mismatch {
                reason: "unix sockets are not available on this platform".into(),
            });
        }

        let exporter = match &config.metrics_out {
            Some(dir) => Some(MetricsExporter::spawn_source(
                Arc::new(Published {
                    metrics: Arc::clone(&metrics),
                    quotas: quotas.clone(),
                }),
                dir,
                Duration::from_millis(config.export_interval_ms.max(10)),
            )?),
            None => None,
        };

        Ok(ServerHandle {
            stop,
            shards: shard_txs,
            shard_handles,
            accept_handles,
            session_handles,
            exporter,
            tcp_addr,
            unix_path,
            shutdown_rx,
            _shutdown_tx: shutdown_tx,
            metrics,
            quotas,
            finished: false,
        })
    }
}

/// Everything an accept loop needs to mint sessions.
struct AcceptCtx {
    shards: Vec<Sender<ShardCmd>>,
    quotas: QuotaBook,
    metrics: Arc<ServerMetrics>,
    stop: Arc<AtomicBool>,
    shutdown: Sender<()>,
    limits: Limits,
    read_timeout: Duration,
    sessions: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    session_ids: Arc<AtomicU64>,
}

impl AcceptCtx {
    fn session_ctx(&self, peer: String) -> SessionCtx {
        SessionCtx {
            shards: self.shards.clone(),
            quotas: self.quotas.clone(),
            metrics: Arc::clone(&self.metrics),
            stop: Arc::clone(&self.stop),
            shutdown: self.shutdown.clone(),
            limits: self.limits,
            peer,
            session_id: self.session_ids.fetch_add(1, Ordering::Relaxed) + 1,
        }
    }

    fn spawn_session(&self, ctx: SessionCtx, run: impl FnOnce(SessionCtx) + Send + 'static) {
        let handle = std::thread::Builder::new()
            .name(format!("artsparse-session-{}", ctx.session_id))
            .spawn(move || run(ctx))
            .expect("spawning a session thread");
        self.sessions
            .lock()
            .expect("session list lock")
            .push(handle);
    }
}

const ACCEPT_POLL: Duration = Duration::from_millis(25);

fn tcp_accept_loop(listener: &TcpListener, ctx: &AcceptCtx) {
    while !ctx.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, peer)) => {
                let timeout = ctx.read_timeout;
                let session_ctx = ctx.session_ctx(format!("tcp:{peer}"));
                ctx.spawn_session(session_ctx, move |sctx| {
                    serve_tcp(stream, timeout, sctx);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

fn serve_tcp(stream: TcpStream, timeout: Duration, ctx: SessionCtx) {
    if stream.set_nonblocking(false).is_err() || stream.set_read_timeout(Some(timeout)).is_err() {
        return;
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    run_session(ctx, BufReader::new(read_half), stream);
}

#[cfg(unix)]
fn unix_accept_loop(listener: &std::os::unix::net::UnixListener, ctx: &AcceptCtx) {
    while !ctx.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let timeout = ctx.read_timeout;
                let id = ctx.session_ids.load(Ordering::Relaxed) + 1;
                let session_ctx = ctx.session_ctx(format!("unix:{id}"));
                ctx.spawn_session(session_ctx, move |sctx| {
                    if stream.set_nonblocking(false).is_err()
                        || stream.set_read_timeout(Some(timeout)).is_err()
                    {
                        return;
                    }
                    let Ok(read_half) = stream.try_clone() else {
                        return;
                    };
                    run_session(sctx, BufReader::new(read_half), stream);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// The server's metrics as the exporter publishes them.
struct Published {
    metrics: Arc<ServerMetrics>,
    quotas: QuotaBook,
}

impl ExportSource for Published {
    fn snapshot(&self) -> RegistrySnapshot {
        self.metrics.snapshot(&self.quotas)
    }

    fn drain_journal(&self) -> Vec<JournalEvent> {
        self.metrics.journal.drain_new()
    }
}

/// A running server. Dropping the handle drains and stops everything;
/// call [`ServerHandle::shutdown`] to do it explicitly and observe
/// drain errors.
#[derive(Debug)]
pub struct ServerHandle {
    stop: Arc<AtomicBool>,
    shards: Vec<Sender<ShardCmd>>,
    shard_handles: Vec<std::thread::JoinHandle<()>>,
    accept_handles: Vec<std::thread::JoinHandle<()>>,
    session_handles: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    exporter: Option<MetricsExporter>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
    shutdown_rx: Receiver<()>,
    // Keeps `wait()` blocking until a session's SHUTDOWN, not until the
    // last session closes.
    _shutdown_tx: Sender<()>,
    metrics: Arc<ServerMetrics>,
    quotas: QuotaBook,
    finished: bool,
}

/// What a graceful shutdown drained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Datasets flushed and retired across all shards.
    pub datasets: usize,
    /// Datasets whose drain failed (flush error, stuck device).
    pub errors: usize,
}

impl ServerHandle {
    /// The bound TCP address (useful with port `0`).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The bound Unix socket path.
    pub fn unix_path(&self) -> Option<&Path> {
        self.unix_path.as_deref()
    }

    /// Render the current Prometheus exposition (same text as the
    /// `METRICS` command and the published `metrics.prom`).
    pub fn render_metrics(&self) -> String {
        self.metrics.render(&self.quotas)
    }

    /// Block until a session issues `SHUTDOWN` (or the server stops for
    /// any other reason).
    pub fn wait(&self) {
        if self.stop.load(Ordering::SeqCst) {
            return;
        }
        let _ = self.shutdown_rx.recv();
    }

    /// Gracefully stop: refuse new connections, let sessions finish,
    /// drain every shard through `StorageEngine::shutdown`, publish one
    /// final metrics tick. Idempotent.
    pub fn shutdown(&mut self) -> DrainReport {
        if self.finished {
            return DrainReport {
                datasets: 0,
                errors: 0,
            };
        }
        self.finished = true;
        self.stop.store(true, Ordering::SeqCst);
        for h in self.accept_handles.drain(..) {
            let _ = h.join();
        }
        let sessions: Vec<_> = {
            let mut guard = self.session_handles.lock().expect("session list lock");
            guard.drain(..).collect()
        };
        for h in sessions {
            let _ = h.join();
        }

        let mut report = DrainReport {
            datasets: 0,
            errors: 0,
        };
        for tx in &self.shards {
            let (reply_tx, reply_rx) = mpsc::channel();
            if tx.send(ShardCmd::Drain { reply: reply_tx }).is_err() {
                report.errors += 1;
                continue;
            }
            match reply_rx.recv() {
                Ok(ShardReply::Drained { datasets, errors }) => {
                    report.datasets += datasets;
                    report.errors += errors;
                }
                _ => report.errors += 1,
            }
        }
        self.shards.clear();
        for h in self.shard_handles.drain(..) {
            let _ = h.join();
        }

        if report.errors > 0 {
            self.metrics.journal_warn(
                "drain_errors",
                format!("{} dataset(s) failed to drain", report.errors),
                0,
            );
        }
        self.metrics.journal_session(
            "server_stopped",
            format!("drained {} dataset(s)", report.datasets),
            0,
        );
        // After the closing events, so the final tick publishes them.
        if let Some(mut exporter) = self.exporter.take() {
            exporter.shutdown();
        }
        #[cfg(unix)]
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
        report
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, Write};

    #[test]
    fn starts_and_stops_without_listeners() {
        let mut handle = Server::start(ServerConfig::default(), MemFactory).unwrap();
        assert!(handle.tcp_addr().is_none());
        let report = handle.shutdown();
        assert_eq!(
            report,
            DrainReport {
                datasets: 0,
                errors: 0
            }
        );
        // Idempotent.
        handle.shutdown();
    }

    #[test]
    fn tcp_round_trip_on_an_ephemeral_port() {
        let config = ServerConfig {
            tcp: Some("127.0.0.1:0".into()),
            ..ServerConfig::default()
        };
        let mut handle = Server::start(config, MemFactory).unwrap();
        let addr = handle.tcp_addr().expect("bound");
        let stream = std::net::TcpStream::connect(addr).unwrap();
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        let mut write = stream;
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("OK artsparse/1 ready"), "{line}");
        write
            .write_all(b"HELLO t\nCREATE d 4x4\nPUT d 1\n1 1 5.5\nGET d 1 1\nQUIT\n")
            .unwrap();
        let mut replies = String::new();
        for _ in 0..5 {
            let mut l = String::new();
            reader.read_line(&mut l).unwrap();
            replies.push_str(&l);
        }
        assert!(replies.contains("OK found=true value=5.5"), "{replies}");
        assert!(replies.ends_with("OK bye\n"), "{replies}");
        let report = handle.shutdown();
        assert_eq!(report.errors, 0);
        assert_eq!(report.datasets, 1);
    }
}
