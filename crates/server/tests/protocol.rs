//! End-to-end protocol tests: real sockets, concurrent sessions,
//! multi-shard routing, quotas, typed load shedding, graceful drain,
//! and the PROTOCOL.md ↔ implementation sync check.

use artsparse_core::FormatKind;
use artsparse_server::protocol::{ErrorCode, COMMANDS, MAX_LINE_BYTES};
use artsparse_server::quota::Quota;
use artsparse_server::{BackendFactory, FsFactory, MemFactory, Server, ServerConfig};
use artsparse_storage::{
    EngineConfig, FailingBackend, FsBackend, HealthConfig, IngestConfig, MemBackend, RetryPolicy,
    StorageEngine, StorageError,
};
use artsparse_tensor::{CoordBuffer, Shape};
use std::io::{BufRead, BufReader, Read, Write};
use std::sync::Arc;

/// A line-oriented test client over any stream transport.
struct Client {
    reader: BufReader<Box<dyn Read + Send>>,
    writer: Box<dyn Write + Send>,
}

impl Client {
    fn tcp(addr: std::net::SocketAddr) -> Client {
        let stream = std::net::TcpStream::connect(addr).expect("connect");
        let reader = Box::new(stream.try_clone().expect("clone")) as Box<dyn Read + Send>;
        let mut c = Client {
            reader: BufReader::new(reader),
            writer: Box::new(stream),
        };
        assert!(c.line().starts_with("OK artsparse/1 ready"), "greeting");
        c
    }

    #[cfg(unix)]
    fn unix(path: &std::path::Path) -> Client {
        let stream = std::os::unix::net::UnixStream::connect(path).expect("connect unix");
        let reader = Box::new(stream.try_clone().expect("clone")) as Box<dyn Read + Send>;
        let mut c = Client {
            reader: BufReader::new(reader),
            writer: Box::new(stream),
        };
        assert!(c.line().starts_with("OK artsparse/1 ready"), "greeting");
        c
    }

    fn line(&mut self) -> String {
        let mut l = String::new();
        self.reader.read_line(&mut l).expect("read line");
        l.trim_end().to_string()
    }

    /// Send raw text (may be several lines) and read one status line.
    fn send(&mut self, text: &str) -> String {
        self.writer.write_all(text.as_bytes()).expect("write");
        self.writer.write_all(b"\n").expect("write");
        self.writer.flush().expect("flush");
        self.line()
    }

    /// Read `n` payload lines after a status line.
    fn payload(&mut self, n: usize) -> Vec<String> {
        (0..n).map(|_| self.line()).collect()
    }
}

fn server(config: ServerConfig) -> artsparse_server::ServerHandle {
    Server::start(config, MemFactory).expect("start server")
}

fn tcp_config() -> ServerConfig {
    ServerConfig {
        tcp: Some("127.0.0.1:0".into()),
        ..ServerConfig::default()
    }
}

#[test]
fn put_acked_in_one_session_is_readable_from_another() {
    let mut handle = server(tcp_config());
    let addr = handle.tcp_addr().unwrap();

    let mut a = Client::tcp(addr);
    assert_eq!(a.send("HELLO acme"), "OK tenant=acme proto=artsparse/1");
    assert_eq!(a.send("CREATE grid 16x16"), "OK created=grid existed=false");
    assert!(a
        .send("PUT grid 2\n1 2 3.5\n4 5 -1.25")
        .starts_with("OK acked=2"));

    let mut b = Client::tcp(addr);
    assert_eq!(b.send("HELLO acme"), "OK tenant=acme proto=artsparse/1");
    assert_eq!(b.send("GET grid 1 2"), "OK found=true value=3.5");

    // Streaming ingest acked in B is immediately visible to A (the
    // engine snapshots the write buffer on reads), before any flush.
    assert_eq!(b.send("INGEST grid 1\n7 7 9"), "OK acked=1");
    assert_eq!(a.send("GET grid 7 7"), "OK found=true value=9");

    // Tenants are namespaces: the same dataset name elsewhere is empty.
    let mut c = Client::tcp(addr);
    assert_eq!(c.send("HELLO other"), "OK tenant=other proto=artsparse/1");
    assert!(c.send("GET grid 1 2").starts_with("ERR NO_DATASET"));

    handle.shutdown();
}

#[cfg(unix)]
#[test]
fn unix_and_tcp_sessions_share_the_same_shards() {
    let dir = tempfile::tempdir().unwrap();
    let socket = dir.path().join("artsparse.sock");
    let config = ServerConfig {
        tcp: Some("127.0.0.1:0".into()),
        unix: Some(socket.clone()),
        ..ServerConfig::default()
    };
    let mut handle = server(config);

    let mut tcp = Client::tcp(handle.tcp_addr().unwrap());
    tcp.send("HELLO t");
    tcp.send("CREATE d 8x8");
    assert!(tcp.send("PUT d 1\n3 3 42").starts_with("OK acked=1"));

    let mut unix = Client::unix(&socket);
    unix.send("HELLO t");
    assert_eq!(unix.send("GET d 3 3"), "OK found=true value=42");

    handle.shutdown();
    assert!(!socket.exists(), "socket file must be removed on shutdown");
}

#[test]
fn datasets_hash_across_multiple_shards() {
    let config = ServerConfig {
        shards: 4,
        ..tcp_config()
    };
    let mut handle = server(config);
    let mut c = Client::tcp(handle.tcp_addr().unwrap());
    c.send("HELLO t");
    for i in 0..10 {
        assert!(c
            .send(&format!("CREATE d{i} 4x4"))
            .starts_with("OK created"));
    }
    let status = c.send("STATS");
    let n: usize = status.trim_start_matches("OK lines=").parse().unwrap();
    let payload = c.payload(n);
    assert_eq!(payload.len(), 11, "tenant line + 10 datasets");
    let shards: std::collections::BTreeSet<&str> = payload[1..]
        .iter()
        .map(|l| {
            l.split_whitespace()
                .find(|t| t.starts_with("shard="))
                .expect("shard field")
        })
        .collect();
    assert!(
        shards.len() >= 2,
        "10 datasets must spread across >=2 of 4 shards, got {shards:?}"
    );
    handle.shutdown();
}

#[test]
fn quotas_refuse_whole_batches_and_refund_engine_rejections() {
    let config = ServerConfig {
        default_quota: Quota {
            max_points: 10,
            max_bytes: 0,
        },
        ..tcp_config()
    };
    let mut handle = server(config);
    let mut c = Client::tcp(handle.tcp_addr().unwrap());
    c.send("HELLO small");
    c.send("CREATE d 64x64");
    assert!(c
        .send("PUT d 8\n0 0 1\n0 1 1\n0 2 1\n0 3 1\n0 4 1\n0 5 1\n0 6 1\n0 7 1")
        .starts_with("OK acked=8"));
    let refused = c.send("PUT d 3\n1 0 1\n1 1 1\n1 2 1");
    assert!(
        refused.starts_with("ERR QUOTA") && refused.contains("8 of 10"),
        "{refused}"
    );
    // The refused batch charged nothing: two more points still fit.
    assert!(c.send("PUT d 2\n1 0 1\n1 1 1").starts_with("OK acked=2"));
    assert!(c.send("PUT d 1\n2 0 1").starts_with("ERR QUOTA"));
    // A batch the ENGINE rejects (unknown dataset) is refunded too.
    let mut other = Client::tcp(handle.tcp_addr().unwrap());
    other.send("HELLO small2");
    assert!(other
        .send("PUT nope 1\n0 0 1")
        .starts_with("ERR NO_DATASET"));
    assert!(other.send("CREATE d 8x8").starts_with("OK created"));
    assert!(other.send("PUT d 1\n0 0 1").starts_with("OK acked=1"));
    handle.shutdown();
}

#[test]
fn backpressure_surfaces_as_a_typed_protocol_error() {
    let ingest = IngestConfig {
        flush_points: 1 << 30,
        flush_bytes: 1 << 30,
        flush_interval_ms: u64::MAX,
        wal: true,
        max_buffered_bytes: 64, // 8 f64 points
        max_wal_backlog_bytes: 0,
        backpressure_resume_pct: 50,
    };
    let config = ServerConfig {
        engine: EngineConfig::default().with_ingest(ingest),
        scheduler: None,
        ..tcp_config()
    };
    let mut handle = server(config);
    let mut c = Client::tcp(handle.tcp_addr().unwrap());
    c.send("HELLO t");
    c.send("CREATE d 64x64");
    assert!(c
        .send("INGEST d 8\n0 0 1\n0 1 1\n0 2 1\n0 3 1\n0 4 1\n0 5 1\n0 6 1\n0 7 1")
        .starts_with("OK acked=8"));
    let shed = c.send("INGEST d 1\n1 0 1");
    assert!(
        shed.starts_with("ERR BACKPRESSURE"),
        "engine admission control must surface as a typed protocol error: {shed}"
    );
    // The session survives load shedding — the connection is NOT dropped.
    assert_eq!(c.send("GET d 0 0"), "OK found=true value=1");
    // An explicit flush drains the buffer and admission reopens.
    assert!(c.send("FLUSH d").starts_with("OK flushed fragment="));
    assert!(c.send("INGEST d 1\n1 0 1").starts_with("OK acked=1"));
    handle.shutdown();
}

/// Every dataset shares one fault-injected backend the test holds.
struct FailingFactory(Arc<FailingBackend<MemBackend>>);

impl BackendFactory for FailingFactory {
    type Backend = Arc<FailingBackend<MemBackend>>;
    fn open(&self, _key: &str) -> Result<Self::Backend, StorageError> {
        Ok(Arc::clone(&self.0))
    }
}

#[test]
fn write_faults_escalate_to_a_typed_read_only_error() {
    let backend = Arc::new(FailingBackend::new(MemBackend::new()));
    let config = ServerConfig {
        engine: EngineConfig::default()
            .with_write_retry(RetryPolicy::none())
            .with_health(HealthConfig {
                degrade_after: 1,
                read_only_after: 1,
                probe_interval_ms: u64::MAX,
            }),
        scheduler: None,
        ..tcp_config()
    };
    let mut handle = Server::start(config, FailingFactory(Arc::clone(&backend))).unwrap();
    let mut c = Client::tcp(handle.tcp_addr().unwrap());
    c.send("HELLO t");
    c.send("CREATE d 8x8");
    assert!(c.send("PUT d 1\n0 0 1").starts_with("OK acked=1"));

    backend.set_out_of_space(true);
    let first = c.send("PUT d 1\n1 1 2");
    assert!(
        first.starts_with("ERR IO") || first.starts_with("ERR RETRIES"),
        "first failed write reports the device fault: {first}"
    );
    let second = c.send("PUT d 1\n2 2 3");
    assert!(
        second.starts_with("ERR READONLY"),
        "after the health gate trips, writes shed with READONLY: {second}"
    );
    // Reads still serve while the write path is fenced.
    assert_eq!(c.send("GET d 0 0"), "OK found=true value=1");
    let status = c.send("STATS d");
    let n: usize = status.trim_start_matches("OK lines=").parse().unwrap();
    let payload = c.payload(n).join("\n");
    assert!(payload.contains("health=read_only"), "{payload}");
    backend.disarm();
    handle.shutdown();
}

#[test]
fn graceful_drain_persists_acked_ingest_to_disk() {
    let dir = tempfile::tempdir().unwrap();
    let config = tcp_config();
    let mut handle = Server::start(config, FsFactory::new(dir.path())).unwrap();
    let mut c = Client::tcp(handle.tcp_addr().unwrap());
    c.send("HELLO t");
    c.send("CREATE d 16x16");
    // Acked but never flushed: drain must group-commit it.
    assert_eq!(c.send("INGEST d 3\n1 1 10\n2 2 20\n3 3 30"), "OK acked=3");
    drop(c);
    let report = handle.shutdown();
    assert_eq!((report.datasets, report.errors), (1, 0), "{report:?}");

    // Reopen the dataset directly from its directory.
    let backend = FsBackend::new(dir.path().join("t/d")).unwrap();
    let engine = StorageEngine::open_with(
        backend,
        FormatKind::Coo,
        Shape::new(vec![16, 16]).unwrap(),
        8,
        EngineConfig::default(),
    )
    .unwrap();
    let mut queries = CoordBuffer::new(2);
    for c in [[1u64, 1], [2, 2], [3, 3]] {
        queries.push(&c).unwrap();
    }
    let values = engine.read_values::<f64>(&queries).unwrap();
    assert_eq!(values, vec![Some(10.0), Some(20.0), Some(30.0)]);
    let stats = engine.stats().unwrap();
    assert!(stats.fragments >= 1, "drain committed a fragment");
    assert_eq!(stats.wal_backlog_bytes, 0, "drain retired the WAL");
    drop(engine);

    // A restarted server re-attaches lazily: the first CREATE with the
    // original shape reopens the store and reports existed=true, and
    // every previously acked point is readable.
    let mut handle = Server::start(tcp_config(), FsFactory::new(dir.path())).unwrap();
    let mut c = Client::tcp(handle.tcp_addr().unwrap());
    c.send("HELLO t");
    assert_eq!(
        c.send("GET d 1 1"),
        "ERR NO_DATASET dataset \"d\" has not been created; use CREATE"
    );
    assert_eq!(c.send("CREATE d 16x16"), "OK created=d existed=true");
    assert_eq!(c.send("GET d 2 2"), "OK found=true value=20");
    drop(c);
    handle.shutdown();
}

#[test]
fn shutdown_command_drains_and_unblocks_wait() {
    let mut handle = server(tcp_config());
    let mut c = Client::tcp(handle.tcp_addr().unwrap());
    c.send("HELLO t");
    c.send("CREATE d 4x4");
    assert!(c.send("PUT d 1\n0 0 1").starts_with("OK acked=1"));
    assert_eq!(c.send("SHUTDOWN"), "OK draining");
    handle.wait(); // returns because SHUTDOWN signalled
                   // Post-drain commands get a typed refusal or EOF, never a hang.
    c.writer.write_all(b"PING\n").unwrap();
    c.writer.flush().unwrap();
    let mut reply = String::new();
    let _ = c.reader.read_line(&mut reply);
    assert!(
        reply.is_empty() || reply.starts_with("ERR SHUTTING_DOWN"),
        "{reply:?}"
    );
    let report = handle.shutdown();
    assert_eq!(report.errors, 0);
}

#[test]
fn concurrent_tenant_sessions_do_not_interfere() {
    let config = ServerConfig {
        shards: 4,
        ..tcp_config()
    };
    let mut handle = server(config);
    let addr = handle.tcp_addr().unwrap();
    let workers: Vec<_> = (0..4)
        .map(|w| {
            std::thread::spawn(move || {
                let mut c = Client::tcp(addr);
                c.send(&format!("HELLO tenant{w}"));
                c.send("CREATE d 32x32");
                for i in 0..20u64 {
                    let status = c.send(&format!(
                        "INGEST d 1\n{} {} {}",
                        i % 32,
                        i / 32,
                        w * 100 + 1
                    ));
                    assert!(status.starts_with("OK acked=1"), "{status}");
                }
                // Every tenant sees exactly its own value at (0, 0).
                assert_eq!(
                    c.send("GET d 0 0"),
                    format!("OK found=true value={}", w * 100 + 1)
                );
                c.send("QUIT");
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    handle.shutdown();
}

#[test]
fn metrics_command_exposes_server_series_over_the_wire() {
    let mut handle = server(tcp_config());
    let mut c = Client::tcp(handle.tcp_addr().unwrap());
    c.send("HELLO t");
    c.send("CREATE d 4x4");
    c.send("PUT d 1\n0 0 1");
    let status = c.send("METRICS");
    let n: usize = status.trim_start_matches("OK lines=").parse().unwrap();
    let body = c.payload(n).join("\n");
    let doc = artsparse_metrics::exposition::parse(&body).expect("strict Prometheus parse");
    assert!(doc.value("artsparse_server_sessions_open").unwrap_or(0.0) >= 1.0);
    assert!(doc.value("artsparse_server_commands_total").unwrap_or(0.0) >= 2.0);
    assert_eq!(doc.value("artsparse_server_datasets"), Some(1.0));
    handle.shutdown();
}

/// `metrics_out` publishes the closing state: the shutdown's journal
/// events and the gauges after every session has left.
#[cfg(unix)]
#[test]
fn shutdown_publishes_the_closing_journal_and_metrics() {
    let dir = tempfile::tempdir().unwrap();
    let socket = dir.path().join("artsparse.sock");
    let out = dir.path().join("metrics");
    let config = ServerConfig {
        unix: Some(socket.clone()),
        metrics_out: Some(out.clone()),
        ..ServerConfig::default()
    };
    let mut handle = server(config);
    let mut c = Client::unix(&socket);
    c.send("HELLO t");
    c.send("CREATE d 4x4");
    assert!(c.send("PUT d 1\n0 0 1").starts_with("OK acked=1"));
    assert_eq!(c.send("QUIT"), "OK bye");
    let report = handle.shutdown();
    assert_eq!((report.datasets, report.errors), (1, 0));

    let journal = std::fs::read_to_string(out.join(artsparse_storage::JOURNAL_JSONL)).unwrap();
    let last = journal.lines().last().expect("journal has events");
    let event: serde_json::Value = serde_json::from_str(last).unwrap();
    assert_eq!(event["code"].as_str(), Some("server_stopped"), "{journal}");

    let prom = std::fs::read_to_string(out.join(artsparse_storage::METRICS_PROM)).unwrap();
    let doc = artsparse_metrics::exposition::parse(&prom).expect("strict Prometheus parse");
    assert_eq!(doc.value("artsparse_server_sessions_open"), Some(0.0));
    assert!(prom.contains("artsparse_server_sessions_open 0"), "{prom}");
}

/// PROTOCOL.md is the spec; [`COMMANDS`] and [`ErrorCode::ALL`] are the
/// implementation. This test pins them together: adding a command or an
/// error code without documenting it fails CI, and vice versa the spec
/// cannot describe commands that do not exist (names are checked
/// exactly). The spec also states [`MAX_LINE_BYTES`] verbatim.
#[test]
fn protocol_md_documents_every_command_and_error_code() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../PROTOCOL.md"))
        .expect("PROTOCOL.md must exist at the repository root");
    for command in COMMANDS {
        assert!(
            spec.contains(&format!("### `{}`", command.name)),
            "PROTOCOL.md must document command {} with a '### `{}`' heading",
            command.name,
            command.name
        );
        assert!(
            spec.contains(command.syntax),
            "PROTOCOL.md must quote the exact syntax {:?}",
            command.syntax
        );
    }
    for code in ErrorCode::ALL {
        assert!(
            spec.contains(&format!("`{}`", code.name())),
            "PROTOCOL.md must document error code {}",
            code.name()
        );
    }
    assert!(
        spec.contains("artsparse/1"),
        "PROTOCOL.md must state the protocol version"
    );
    assert!(
        spec.contains(&format!("**{MAX_LINE_BYTES} bytes**")),
        "PROTOCOL.md must state the line length cap of {MAX_LINE_BYTES} bytes"
    );
}
