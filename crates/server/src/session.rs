//! Per-connection session loop.
//!
//! A session is one thread driving one client socket (TCP or Unix): it
//! reads request lines, routes them to the owning shard by hashed
//! dataset key, and writes exactly one status line (plus any announced
//! payload) per request. The loop is transport-agnostic — it runs over
//! any `BufRead`/`Write` pair — which keeps it unit-testable without
//! sockets and identical across listeners.
//!
//! Load shedding is typed, never silent: engine rejections
//! ([`artsparse_storage::StorageError::Backpressure`], `ReadOnly`),
//! quota refusals, and oversized requests all come back as `ERR` lines
//! the client can parse and back off on. The connection is only closed
//! by `QUIT`, EOF, an I/O failure, or server drain.

use crate::metrics::ServerMetrics;
use crate::protocol::{self, ErrorCode, Request, MAX_LINE_BYTES, PROTOCOL_VERSION};
use crate::quota::QuotaBook;
use crate::shard::{shard_of, DatasetStats, ShardCmd, ShardReply};
use artsparse_storage::HealthState;
use std::io::{self, BufRead, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::Arc;
use std::time::Instant;

/// Per-session request size bounds.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Largest accepted `PUT`/`INGEST` batch, in points.
    pub max_batch_points: usize,
    /// Largest region a `SCAN` may visit, in cells — also the row cap
    /// on its response.
    pub scan_limit: usize,
    /// Whether the `SHUTDOWN` command is honored.
    pub allow_shutdown: bool,
}

/// Everything one session thread owns. Shard senders are cloned per
/// session because `mpsc::Sender` is `Send` but not `Sync`.
pub struct SessionCtx {
    /// Command channels, indexed by shard.
    pub shards: Vec<Sender<ShardCmd>>,
    /// The server-wide quota ledger.
    pub quotas: QuotaBook,
    /// The server-wide metrics plane.
    pub metrics: Arc<ServerMetrics>,
    /// Set when the server is draining.
    pub stop: Arc<AtomicBool>,
    /// Notified (once) when this session executes `SHUTDOWN`.
    pub shutdown: Sender<()>,
    /// Request size bounds.
    pub limits: Limits,
    /// Peer description for the journal (`tcp:127.0.0.1:5123`, `unix`).
    pub peer: String,
    /// Session ordinal, used as the journal trace id.
    pub session_id: u64,
}

/// What a fully-read request line turned into.
enum ReadOutcome {
    /// A complete line (trailing newline stripped).
    Line(String),
    /// A complete line of this many bytes that is not UTF-8.
    NotUtf8(usize),
    /// The peer closed its write side.
    Eof,
    /// The server is draining and the peer is idle.
    Stopped,
}

/// The error the line reader returns once a line outgrows
/// [`MAX_LINE_BYTES`]; the session answers `ERR TOOBIG` and closes.
#[derive(Debug)]
struct LineTooLong;

impl std::fmt::Display for LineTooLong {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line exceeds the {MAX_LINE_BYTES}-byte cap")
    }
}

impl std::error::Error for LineTooLong {}

/// Read one line of at most [`MAX_LINE_BYTES`] bytes, tolerating
/// read-timeout errors so the loop can poll the drain flag. Bytes read
/// before a timeout stay in the buffer and the line completes on a later
/// pass — even when the timeout split a multibyte character, because
/// UTF-8 is decoded only once the whole line is in. A line past the cap
/// fails with [`LineTooLong`].
fn read_line_patient<R: BufRead>(reader: &mut R, stop: &AtomicBool) -> io::Result<ReadOutcome> {
    let mut buf = Vec::new();
    loop {
        // Room for the cap plus the newline; one byte past it without a
        // newline means the line is too long.
        let room = (MAX_LINE_BYTES + 1 - buf.len()) as u64;
        match io::Read::take(&mut *reader, room).read_until(b'\n', &mut buf) {
            Ok(n) => {
                let complete = buf.last() == Some(&b'\n');
                if !complete && buf.len() > MAX_LINE_BYTES {
                    return Err(io::Error::new(io::ErrorKind::InvalidData, LineTooLong));
                }
                if complete || n == 0 {
                    // A whole line, or the peer's last bytes before EOF.
                    while matches!(buf.last(), Some(b'\n' | b'\r')) {
                        buf.pop();
                    }
                    if buf.is_empty() && !complete {
                        return Ok(ReadOutcome::Eof);
                    }
                    let len = buf.len();
                    return Ok(
                        String::from_utf8(buf).map_or(ReadOutcome::NotUtf8(len), ReadOutcome::Line)
                    );
                }
                // No newline yet: the stream ended mid-line, which the
                // next pass sees as EOF.
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                if stop.load(Ordering::SeqCst) {
                    return Ok(ReadOutcome::Stopped);
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// Run one session to completion. Consumes the context; returns when
/// the peer disconnects, `QUIT`s, errors, or the server drains.
pub fn run_session<R: BufRead, W: Write>(ctx: SessionCtx, mut reader: R, mut writer: W) {
    let mut session = Session { ctx, tenant: None };
    session.ctx.metrics.sessions_total.inc();
    session
        .ctx
        .metrics
        .sessions_open
        .set(session.ctx.metrics.sessions_open.get() + 1.0);
    session.ctx.metrics.journal_session(
        "session_open",
        format!("peer {} connected", session.ctx.peer),
        session.ctx.session_id,
    );

    let greeting = format!(
        "OK {} ready shards={}",
        PROTOCOL_VERSION,
        session.ctx.shards.len()
    );
    let outcome = if session.respond(&mut writer, &[greeting]).is_err() {
        Ok(())
    } else {
        session.serve(&mut reader, &mut writer)
    };

    session
        .ctx
        .metrics
        .sessions_open
        .set((session.ctx.metrics.sessions_open.get() - 1.0).max(0.0));
    let how = match outcome {
        Ok(()) => "closed".to_string(),
        Err(e) => format!("failed: {e}"),
    };
    session.ctx.metrics.journal_session(
        "session_close",
        format!("peer {} {how}", session.ctx.peer),
        session.ctx.session_id,
    );
}

struct Session {
    ctx: SessionCtx,
    tenant: Option<String>,
}

impl Session {
    fn serve<R: BufRead, W: Write>(&mut self, reader: &mut R, writer: &mut W) -> io::Result<()> {
        match self.serve_lines(reader, writer) {
            Err(e) if e.get_ref().is_some_and(|inner| inner.is::<LineTooLong>()) => {
                // The rest of the stream cannot be framed: refuse, close.
                let reason = format!("{e}; closing the session");
                self.respond(writer, &[protocol::err_line(ErrorCode::TooBig, &reason)])
            }
            outcome => outcome,
        }
    }

    fn serve_lines<R: BufRead, W: Write>(
        &mut self,
        reader: &mut R,
        writer: &mut W,
    ) -> io::Result<()> {
        loop {
            let line = match read_line_patient(reader, &self.ctx.stop)? {
                ReadOutcome::Line(l) => l,
                ReadOutcome::NotUtf8(len) => {
                    self.ctx.metrics.bytes_in_total.add(len as u64 + 1);
                    let reason = "request line is not valid UTF-8";
                    self.respond(writer, &[protocol::err_line(ErrorCode::BadArg, reason)])?;
                    continue;
                }
                ReadOutcome::Eof | ReadOutcome::Stopped => return Ok(()),
            };
            self.ctx.metrics.bytes_in_total.add(line.len() as u64 + 1);
            let Some(request) = protocol::parse_request(&line) else {
                continue; // blank line
            };
            let started = Instant::now();
            let (response, close) = self.handle(reader, &request)?;
            self.ctx.metrics.commands_total.inc();
            self.ctx
                .metrics
                .record_latency(started.elapsed().as_nanos() as u64);
            self.respond(writer, &response)?;
            if close {
                return Ok(());
            }
        }
    }

    /// Write a response (status line + payload), counting bytes and
    /// classifying `ERR` lines into the error counters.
    fn respond<W: Write>(&self, writer: &mut W, lines: &[String]) -> io::Result<()> {
        if let Some(first) = lines.first() {
            if first.starts_with("ERR ") {
                self.ctx.metrics.protocol_errors_total.inc();
                if first.starts_with("ERR BACKPRESSURE") || first.starts_with("ERR READONLY") {
                    self.ctx.metrics.backpressure_errors_total.inc();
                }
                if first.starts_with("ERR QUOTA") {
                    self.ctx.metrics.quota_rejections_total.inc();
                }
            }
        }
        let mut out = String::new();
        for l in lines {
            out.push_str(l);
            out.push('\n');
        }
        self.ctx.metrics.bytes_out_total.add(out.len() as u64);
        writer.write_all(out.as_bytes())?;
        writer.flush()
    }

    /// Execute one request. Returns the response lines and whether the
    /// session should close afterwards.
    fn handle<R: BufRead>(
        &mut self,
        reader: &mut R,
        request: &Request,
    ) -> io::Result<(Vec<String>, bool)> {
        let cmd = request.command.as_str();
        if self.ctx.stop.load(Ordering::SeqCst) && cmd != "QUIT" {
            return Ok((
                vec![protocol::err_line(
                    ErrorCode::ShuttingDown,
                    "server is draining; no new work is accepted",
                )],
                false,
            ));
        }
        let args = &request.args;
        let response = match cmd {
            "HELLO" => self.cmd_hello(args),
            "PING" => vec!["OK pong".to_string()],
            "QUIT" => return Ok((vec!["OK bye".to_string()], true)),
            "SHUTDOWN" => self.cmd_shutdown(args),
            "METRICS" => self.cmd_metrics(args),
            "CREATE" => self.with_tenant(|s, t| s.cmd_create(&t, args)),
            "PUT" | "INGEST" => {
                let ingest = cmd == "INGEST";
                // Data lines must be consumed even on refusal, so this
                // arm threads the reader through.
                return Ok((self.cmd_write(reader, ingest, args)?, false));
            }
            "GET" => self.with_tenant(|s, t| s.cmd_get(&t, args)),
            "SCAN" => self.with_tenant(|s, t| s.cmd_scan(&t, args)),
            "FLUSH" => self.with_tenant(|s, t| s.cmd_flush(&t, args)),
            "CONSOLIDATE" => self.with_tenant(|s, t| s.cmd_consolidate(&t, args)),
            "STATS" => self.with_tenant(|s, t| s.cmd_stats(&t, args)),
            _ => vec![protocol::err_line(
                ErrorCode::BadCmd,
                &format!("unknown command {cmd:?}; commands: {}", command_names()),
            )],
        };
        Ok((response, false))
    }

    /// Run `f` with the bound tenant, or refuse with `NO_TENANT`.
    fn with_tenant(&mut self, f: impl FnOnce(&mut Session, String) -> Vec<String>) -> Vec<String> {
        match self.tenant.clone() {
            Some(t) => f(self, t),
            None => vec![protocol::err_line(
                ErrorCode::NoTenant,
                "bind a tenant first: HELLO <tenant>",
            )],
        }
    }

    fn cmd_hello(&mut self, args: &[String]) -> Vec<String> {
        if args.is_empty() || args.len() > 2 {
            return vec![protocol::err_line(
                ErrorCode::BadArg,
                "usage: HELLO <tenant> [artsparse/<version>]",
            )];
        }
        if !protocol::valid_name(&args[0]) {
            return vec![protocol::err_line(
                ErrorCode::BadArg,
                "tenant must match [A-Za-z0-9_-]{1,64}",
            )];
        }
        if let Some(version) = args.get(1) {
            if version != PROTOCOL_VERSION {
                return vec![protocol::err_line(
                    ErrorCode::Unsupported,
                    &format!("this server speaks {PROTOCOL_VERSION}, not {version}"),
                )];
            }
        }
        self.tenant = Some(args[0].clone());
        vec![format!("OK tenant={} proto={}", args[0], PROTOCOL_VERSION)]
    }

    fn cmd_shutdown(&mut self, args: &[String]) -> Vec<String> {
        if !args.is_empty() {
            return vec![protocol::err_line(ErrorCode::BadArg, "usage: SHUTDOWN")];
        }
        if !self.ctx.limits.allow_shutdown {
            return vec![protocol::err_line(
                ErrorCode::Unsupported,
                "SHUTDOWN is disabled on this server",
            )];
        }
        self.ctx.metrics.journal_session(
            "shutdown_requested",
            format!("peer {} requested drain", self.ctx.peer),
            self.ctx.session_id,
        );
        self.ctx.stop.store(true, Ordering::SeqCst);
        let _ = self.ctx.shutdown.send(());
        vec!["OK draining".to_string()]
    }

    fn cmd_metrics(&mut self, args: &[String]) -> Vec<String> {
        if !args.is_empty() {
            return vec![protocol::err_line(ErrorCode::BadArg, "usage: METRICS")];
        }
        // Refresh the dataset gauge from the shards' own books.
        if let Ok(stats) = self.broadcast_stats(None, None) {
            self.ctx.metrics.datasets.set(stats.len() as f64);
        }
        let text = self.ctx.metrics.render(&self.ctx.quotas);
        let mut lines = vec![format!("OK lines={}", text.lines().count())];
        lines.extend(text.lines().map(str::to_string));
        lines
    }

    fn cmd_create(&mut self, tenant: &str, args: &[String]) -> Vec<String> {
        if args.len() != 2 {
            return vec![protocol::err_line(
                ErrorCode::BadArg,
                "usage: CREATE <dataset> <d0>x<d1>[x<d2>...]",
            )];
        }
        if !protocol::valid_name(&args[0]) {
            return vec![protocol::err_line(
                ErrorCode::BadArg,
                "dataset must match [A-Za-z0-9_-]{1,64}",
            )];
        }
        let dims = match protocol::parse_shape(&args[1]) {
            Ok(d) => d,
            Err(e) => return vec![protocol::err_line(ErrorCode::BadArg, &e)],
        };
        let reply = self.dispatch(tenant, &args[0], |key, reply| ShardCmd::Create {
            key,
            dims: dims.clone(),
            reply,
        });
        match reply {
            Ok(ShardReply::Created { existed }) => {
                vec![format!("OK created={} existed={existed}", args[0])]
            }
            Ok(ShardReply::ShapeConflict { existing }) => vec![protocol::err_line(
                ErrorCode::Exists,
                &format!("dataset exists with shape {}", render_dims(&existing)),
            )],
            other => self.unexpected(other),
        }
    }

    /// `PUT`/`INGEST`: read the announced data lines (always, so the
    /// stream stays in lock-step even on refusal), then charge quota
    /// and dispatch.
    fn cmd_write<R: BufRead>(
        &mut self,
        reader: &mut R,
        ingest: bool,
        args: &[String],
    ) -> io::Result<Vec<String>> {
        let usage = if ingest {
            "usage: INGEST <dataset> <n>"
        } else {
            "usage: PUT <dataset> <n>"
        };
        let announced = args.get(1).and_then(|n| n.parse::<usize>().ok());
        let valid =
            args.len() == 2 && protocol::valid_name(&args[0]) && announced.is_some_and(|n| n > 0);
        let (dataset, n) = if valid {
            (&args[0], announced.unwrap_or(0))
        } else {
            // Consume any announced data lines so the stream stays in
            // lock-step before refusing.
            if let Some(n) = announced {
                self.discard_lines(reader, n)?;
            }
            return Ok(vec![protocol::err_line(ErrorCode::BadArg, usage)]);
        };
        let Some(tenant) = self.tenant.clone() else {
            // Still consume the batch so the next line parses as a command.
            self.discard_lines(reader, n)?;
            return Ok(vec![protocol::err_line(
                ErrorCode::NoTenant,
                "bind a tenant first: HELLO <tenant>",
            )]);
        };
        if n > self.ctx.limits.max_batch_points {
            self.discard_lines(reader, n)?;
            return Ok(vec![protocol::err_line(
                ErrorCode::TooBig,
                &format!(
                    "batch of {n} points exceeds the server cap of {}",
                    self.ctx.limits.max_batch_points
                ),
            )]);
        }

        // Read and parse the batch. All n lines are consumed even when
        // one is malformed; the first error wins.
        let mut ndim = 0usize;
        let mut flat: Vec<u64> = Vec::new();
        let mut values: Vec<f64> = Vec::with_capacity(n);
        let mut parse_error: Option<String> = None;
        for i in 0..n {
            let line = match read_line_patient(reader, &self.ctx.stop)? {
                ReadOutcome::Line(l) => l,
                ReadOutcome::NotUtf8(len) => {
                    self.ctx.metrics.bytes_in_total.add(len as u64 + 1);
                    parse_error.get_or_insert(format!("data line {} is not valid UTF-8", i + 1));
                    continue;
                }
                ReadOutcome::Eof | ReadOutcome::Stopped => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        format!("peer sent {i} of {n} data lines"),
                    ));
                }
            };
            self.ctx.metrics.bytes_in_total.add(line.len() as u64 + 1);
            if parse_error.is_some() {
                continue;
            }
            match protocol::parse_point(&line) {
                Ok((coords, value)) => {
                    if ndim == 0 {
                        ndim = coords.len();
                    }
                    if coords.len() != ndim {
                        parse_error = Some(format!(
                            "data line {} has {} coordinates, line 1 had {ndim}",
                            i + 1,
                            coords.len()
                        ));
                        continue;
                    }
                    flat.extend_from_slice(&coords);
                    values.push(value);
                }
                Err(e) => parse_error = Some(format!("data line {}: {e}", i + 1)),
            }
        }
        if let Some(e) = parse_error {
            return Ok(vec![protocol::err_line(ErrorCode::BadArg, &e)]);
        }

        // Charge the quota before dispatch; refund if the engine refuses.
        let bytes = (n as u64) * 8;
        if let Err(refusal) = self.ctx.quotas.charge(&tenant, n as u64, bytes) {
            self.ctx.metrics.journal_warn(
                "quota_refused",
                format!("tenant {tenant}: {refusal}"),
                self.ctx.session_id,
            );
            return Ok(vec![protocol::err_line(
                ErrorCode::Quota,
                &refusal.to_string(),
            )]);
        }
        let reply = self.dispatch(&tenant, dataset, |key, reply| ShardCmd::Write {
            key,
            ingest,
            ndim,
            flat: std::mem::take(&mut flat),
            values: std::mem::take(&mut values),
            reply,
        });
        Ok(match reply {
            Ok(ShardReply::Written { acked, fragment }) => match fragment {
                Some(f) => vec![format!("OK acked={acked} fragment={f}")],
                None => vec![format!("OK acked={acked}")],
            },
            Ok(ShardReply::NoDataset) => {
                self.ctx.quotas.refund(&tenant, n as u64, bytes);
                vec![no_dataset(dataset)]
            }
            Ok(ShardReply::Err(e)) => {
                self.ctx.quotas.refund(&tenant, n as u64, bytes);
                vec![protocol::storage_err_line(&e)]
            }
            other => {
                self.ctx.quotas.refund(&tenant, n as u64, bytes);
                self.unexpected(other)
            }
        })
    }

    /// Consume `n` data lines without parsing (refused batches).
    fn discard_lines<R: BufRead>(&self, reader: &mut R, n: usize) -> io::Result<()> {
        for i in 0..n {
            match read_line_patient(reader, &self.ctx.stop)? {
                ReadOutcome::Line(l) => {
                    self.ctx.metrics.bytes_in_total.add(l.len() as u64 + 1);
                }
                ReadOutcome::NotUtf8(len) => {
                    self.ctx.metrics.bytes_in_total.add(len as u64 + 1);
                }
                ReadOutcome::Eof | ReadOutcome::Stopped => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        format!("peer sent {i} of {n} data lines"),
                    ));
                }
            }
        }
        Ok(())
    }

    fn cmd_get(&mut self, tenant: &str, args: &[String]) -> Vec<String> {
        if args.len() < 2 || !protocol::valid_name(&args[0]) {
            return vec![protocol::err_line(
                ErrorCode::BadArg,
                "usage: GET <dataset> <c0> <c1> [<c2>...]",
            )];
        }
        let coord: Result<Vec<u64>, _> = args[1..].iter().map(|c| c.parse::<u64>()).collect();
        let Ok(coord) = coord else {
            return vec![protocol::err_line(
                ErrorCode::BadArg,
                "coordinates must be unsigned integers",
            )];
        };
        let reply = self.dispatch(tenant, &args[0], |key, reply| ShardCmd::Get {
            key,
            coord: coord.clone(),
            reply,
        });
        match reply {
            Ok(ShardReply::Point { value: Some(v) }) => {
                vec![format!("OK found=true value={}", protocol::format_value(v))]
            }
            Ok(ShardReply::Point { value: None }) => vec!["OK found=false".to_string()],
            Ok(ShardReply::NoDataset) => vec![no_dataset(&args[0])],
            other => self.shard_error(other),
        }
    }

    fn cmd_scan(&mut self, tenant: &str, args: &[String]) -> Vec<String> {
        let usage = "usage: SCAN <dataset> <lo0:hi0> [<lo1:hi1>...] [LIMIT <n>]";
        if args.len() < 2 || !protocol::valid_name(&args[0]) {
            return vec![protocol::err_line(ErrorCode::BadArg, usage)];
        }
        let mut bounds_end = args.len();
        let mut limit = self.ctx.limits.scan_limit;
        // Minimum form with a limit: dataset, one bound, LIMIT, n.
        if args.len() >= 4 && args[args.len() - 2].eq_ignore_ascii_case("LIMIT") {
            let Some(requested) = args[args.len() - 1].parse::<usize>().ok() else {
                return vec![protocol::err_line(ErrorCode::BadArg, usage)];
            };
            limit = requested.min(self.ctx.limits.scan_limit);
            bounds_end = args.len() - 2;
        }
        if bounds_end < 2 {
            return vec![protocol::err_line(ErrorCode::BadArg, usage)];
        }
        let mut lo = Vec::new();
        let mut hi = Vec::new();
        let mut cells: u128 = 1;
        for token in &args[1..bounds_end] {
            match protocol::parse_bound(token) {
                Ok((l, h)) => {
                    cells = cells.saturating_mul(u128::from(h - l) + 1);
                    lo.push(l);
                    hi.push(h);
                }
                Err(e) => return vec![protocol::err_line(ErrorCode::BadArg, &e)],
            }
        }
        if cells > self.ctx.limits.scan_limit as u128 {
            return vec![protocol::err_line(
                ErrorCode::TooBig,
                &format!(
                    "region of {cells} cells exceeds the scan cap of {}",
                    self.ctx.limits.scan_limit
                ),
            )];
        }
        let reply = self.dispatch(tenant, &args[0], |key, reply| ShardCmd::Scan {
            key,
            lo: lo.clone(),
            hi: hi.clone(),
            limit,
            reply,
        });
        match reply {
            Ok(ShardReply::Points { rows, truncated }) => {
                let mut lines = vec![format!("OK points={} truncated={truncated}", rows.len())];
                for (coord, value) in &rows {
                    lines.push(protocol::render_point(coord, *value));
                }
                lines
            }
            Ok(ShardReply::NoDataset) => vec![no_dataset(&args[0])],
            other => self.shard_error(other),
        }
    }

    fn cmd_flush(&mut self, tenant: &str, args: &[String]) -> Vec<String> {
        if args.len() != 1 || !protocol::valid_name(&args[0]) {
            return vec![protocol::err_line(
                ErrorCode::BadArg,
                "usage: FLUSH <dataset>",
            )];
        }
        let reply = self.dispatch(tenant, &args[0], |key, reply| ShardCmd::Flush {
            key,
            reply,
        });
        match reply {
            Ok(ShardReply::Flushed { fragment }) => {
                vec![format!(
                    "OK flushed fragment={}",
                    fragment.as_deref().unwrap_or("none")
                )]
            }
            Ok(ShardReply::NoDataset) => vec![no_dataset(&args[0])],
            other => self.shard_error(other),
        }
    }

    fn cmd_consolidate(&mut self, tenant: &str, args: &[String]) -> Vec<String> {
        if args.len() != 1 || !protocol::valid_name(&args[0]) {
            return vec![protocol::err_line(
                ErrorCode::BadArg,
                "usage: CONSOLIDATE <dataset>",
            )];
        }
        let reply = self.dispatch(tenant, &args[0], |key, reply| ShardCmd::Consolidate {
            key,
            reply,
        });
        match reply {
            Ok(ShardReply::Consolidated { merged, points }) => {
                vec![format!("OK merged={merged} points={points}")]
            }
            Ok(ShardReply::NoDataset) => vec![no_dataset(&args[0])],
            other => self.shard_error(other),
        }
    }

    fn cmd_stats(&mut self, tenant: &str, args: &[String]) -> Vec<String> {
        if args.len() > 1 {
            return vec![protocol::err_line(
                ErrorCode::BadArg,
                "usage: STATS [<dataset>]",
            )];
        }
        let key = match args.first() {
            Some(d) if !protocol::valid_name(d) => {
                return vec![protocol::err_line(
                    ErrorCode::BadArg,
                    "dataset must match [A-Za-z0-9_-]{1,64}",
                )];
            }
            Some(d) => Some(format!("{tenant}/{d}")),
            None => None,
        };
        let only_one = key.is_some();
        let stats = match self.broadcast_stats(Some(tenant), key) {
            Ok(s) => s,
            Err(lines) => return lines,
        };
        if only_one && stats.is_empty() {
            return vec![no_dataset(&args[0])];
        }
        let standing = self.ctx.quotas.standing(tenant);
        let mut payload = vec![format!(
            "tenant={tenant} points={} point_limit={} bytes={} byte_limit={}",
            standing.points, standing.quota.max_points, standing.bytes, standing.quota.max_bytes
        )];
        for s in &stats {
            payload.push(render_dataset_stats(tenant, s));
        }
        let mut lines = vec![format!("OK lines={}", payload.len())];
        lines.extend(payload);
        lines
    }

    /// Send one command to the owning shard and wait for its reply.
    fn dispatch(
        &self,
        tenant: &str,
        dataset: &str,
        build: impl FnOnce(String, mpsc::Sender<ShardReply>) -> ShardCmd,
    ) -> Result<ShardReply, Vec<String>> {
        let idx = shard_of(tenant, dataset, self.ctx.shards.len());
        let key = format!("{tenant}/{dataset}");
        let (reply_tx, reply_rx) = mpsc::channel();
        let internal = || {
            vec![protocol::err_line(
                ErrorCode::Internal,
                &format!("shard {idx} is unavailable"),
            )]
        };
        self.ctx.shards[idx]
            .send(build(key, reply_tx))
            .map_err(|_| internal())?;
        reply_rx.recv().map_err(|_| internal())
    }

    /// Collect [`DatasetStats`] from every shard, merged and sorted.
    fn broadcast_stats(
        &self,
        tenant: Option<&str>,
        key: Option<String>,
    ) -> Result<Vec<DatasetStats>, Vec<String>> {
        let mut receivers = Vec::with_capacity(self.ctx.shards.len());
        for (idx, shard) in self.ctx.shards.iter().enumerate() {
            let (reply_tx, reply_rx) = mpsc::channel();
            shard
                .send(ShardCmd::Stats {
                    tenant: tenant.map(str::to_string),
                    key: key.clone(),
                    reply: reply_tx,
                })
                .map_err(|_| {
                    vec![protocol::err_line(
                        ErrorCode::Internal,
                        &format!("shard {idx} is unavailable"),
                    )]
                })?;
            receivers.push(reply_rx);
        }
        let mut merged = Vec::new();
        for (idx, rx) in receivers.into_iter().enumerate() {
            match rx.recv() {
                Ok(ShardReply::Stats(rows)) => merged.extend(rows),
                Ok(ShardReply::NoDataset) => {}
                Ok(ShardReply::Err(e)) => return Err(vec![protocol::storage_err_line(&e)]),
                _ => {
                    return Err(vec![protocol::err_line(
                        ErrorCode::Internal,
                        &format!("shard {idx} sent an unexpected reply"),
                    )]);
                }
            }
        }
        merged.sort_by(|a, b| a.key.cmp(&b.key));
        Ok(merged)
    }

    /// Map a dispatch result that should have been handled already.
    fn shard_error(&self, reply: Result<ShardReply, Vec<String>>) -> Vec<String> {
        match reply {
            Ok(ShardReply::Err(e)) => vec![protocol::storage_err_line(&e)],
            Err(lines) => lines,
            Ok(other) => vec![protocol::err_line(
                ErrorCode::Internal,
                &format!("unexpected shard reply {other:?}"),
            )],
        }
    }

    fn unexpected(&self, reply: Result<ShardReply, Vec<String>>) -> Vec<String> {
        self.shard_error(reply)
    }
}

fn no_dataset(dataset: &str) -> String {
    protocol::err_line(
        ErrorCode::NoDataset,
        &format!("dataset {dataset:?} has not been created; use CREATE"),
    )
}

fn render_dims(dims: &[u64]) -> String {
    dims.iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join("x")
}

fn health_str(h: HealthState) -> &'static str {
    match h {
        HealthState::Healthy => "healthy",
        HealthState::Degraded => "degraded",
        HealthState::ReadOnly => "read_only",
    }
}

fn render_dataset_stats(tenant: &str, s: &DatasetStats) -> String {
    let dataset = s.key.strip_prefix(&format!("{tenant}/")).unwrap_or(&s.key);
    format!(
        "dataset={dataset} shard={} shape={} fragments={} points={} bytes={} health={} \
         buffered_points={} buffered_bytes={} wal_backlog_bytes={} backpressure_rejections={}",
        s.shard,
        render_dims(&s.dims),
        s.fragments,
        s.points,
        s.bytes,
        health_str(s.health),
        s.buffered_points,
        s.buffered_bytes,
        s.wal_backlog_bytes,
        s.backpressure_rejections,
    )
}

fn command_names() -> String {
    protocol::COMMANDS
        .iter()
        .map(|c| c.name)
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quota::Quota;
    use crate::server::MemFactory;
    use crate::shard::spawn_shard;
    use artsparse_storage::EngineConfig;
    use std::io::Cursor;

    /// Drive a scripted session over in-memory I/O against real shards.
    fn run_script(script: &str, default_quota: Quota) -> String {
        run_reader(Cursor::new(script.as_bytes().to_vec()), default_quota)
    }

    /// Drive a session reading from `reader` against real shards.
    fn run_reader<R: BufRead>(reader: R, default_quota: Quota) -> String {
        let mut shards = Vec::new();
        let mut handles = Vec::new();
        for id in 0..2 {
            let (tx, rx) = mpsc::channel();
            handles.push(spawn_shard(
                id,
                Arc::new(MemFactory),
                EngineConfig::default(),
                None,
                rx,
            ));
            shards.push(tx);
        }
        let (shutdown_tx, _shutdown_rx) = mpsc::channel();
        let ctx = SessionCtx {
            shards: shards.clone(),
            quotas: QuotaBook::new(default_quota),
            metrics: Arc::new(ServerMetrics::new(64)),
            stop: Arc::new(AtomicBool::new(false)),
            shutdown: shutdown_tx,
            limits: Limits {
                max_batch_points: 1 << 20,
                scan_limit: 1 << 20,
                allow_shutdown: false,
            },
            peer: "test".into(),
            session_id: 1,
        };
        let mut out: Vec<u8> = Vec::new();
        run_session(ctx, reader, &mut out);
        drop(shards);
        for h in handles {
            h.join().unwrap();
        }
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn full_round_trip_over_in_memory_io() {
        let out = run_script(
            "HELLO acme artsparse/1\n\
             CREATE grid 8x8\n\
             PUT grid 2\n\
             1 2 1.5\n\
             3 4 -2.25\n\
             GET grid 3 4\n\
             GET grid 0 0\n\
             INGEST grid 1\n\
             5 5 9\n\
             FLUSH grid\n\
             SCAN grid 0:7 0:7\n\
             CONSOLIDATE grid\n\
             STATS grid\n\
             PING\n\
             QUIT\n",
            Quota::unlimited(),
        );
        let lines: Vec<&str> = out.lines().collect();
        assert!(
            lines[0].starts_with("OK artsparse/1 ready shards=2"),
            "{out}"
        );
        assert_eq!(lines[1], "OK tenant=acme proto=artsparse/1");
        assert_eq!(lines[2], "OK created=grid existed=false");
        assert!(lines[3].starts_with("OK acked=2 fragment="), "{out}");
        assert_eq!(lines[4], "OK found=true value=-2.25");
        assert_eq!(lines[5], "OK found=false");
        assert_eq!(lines[6], "OK acked=1");
        assert!(lines[7].starts_with("OK flushed fragment="), "{out}");
        assert!(!lines[7].ends_with("fragment=none"), "{out}");
        assert_eq!(lines[8], "OK points=3 truncated=false");
        // Payload rows are in linear-address order.
        assert_eq!(lines[9], "1 2 1.5");
        assert_eq!(lines[10], "3 4 -2.25");
        assert_eq!(lines[11], "5 5 9");
        assert_eq!(lines[12], "OK merged=2 points=3");
        assert_eq!(lines[13], "OK lines=2");
        assert!(lines[14].starts_with("tenant=acme points=3"), "{out}");
        assert!(
            lines[15].contains("dataset=grid") && lines[15].contains("health=healthy"),
            "{out}"
        );
        assert_eq!(lines[16], "OK pong");
        assert_eq!(lines[17], "OK bye");
    }

    #[test]
    fn refusals_are_typed_and_lockstep() {
        let out = run_script(
            "PUT grid 1\n\
             0 0 1.0\n\
             HELLO acme\n\
             PUT nope 1\n\
             0 0 1.0\n\
             CREATE grid 4x4\n\
             CREATE grid 8x8\n\
             PUT grid 2\n\
             0 0 1.0\n\
             1 1 1 9.0\n\
             PUT grid 9\n\
             0 0 1.0\n\
             0 1 1.0\n\
             0 2 1.0\n\
             0 3 1.0\n\
             1 0 1.0\n\
             1 1 1.0\n\
             1 2 1.0\n\
             1 3 1.0\n\
             2 0 1.0\n\
             GET grid 1 1\n\
             WHAT\n\
             SCAN grid 0:3\n",
            Quota {
                max_points: 8,
                max_bytes: 0,
            },
        );
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[1].starts_with("ERR NO_TENANT"), "{out}");
        assert_eq!(lines[2], "OK tenant=acme proto=artsparse/1");
        assert!(lines[3].starts_with("ERR NO_DATASET"), "{out}");
        assert_eq!(lines[4], "OK created=grid existed=false");
        assert!(
            lines[5].starts_with("ERR EXISTS") && lines[5].contains("4x4"),
            "{out}"
        );
        assert!(
            lines[6].starts_with("ERR BADARG") && lines[6].contains("line 2"),
            "mixed arity must refuse: {out}"
        );
        assert!(
            lines[7].starts_with("ERR QUOTA") && lines[7].contains("point quota exhausted"),
            "{out}"
        );
        // The failed batches charged nothing, so this read still works
        // and sees no data (the mixed-arity batch was refused whole).
        assert_eq!(lines[8], "OK found=false");
        assert!(lines[9].starts_with("ERR BADCMD"), "{out}");
        // SCAN arity mismatch against the 2-D shape maps to MISMATCH.
        assert!(lines[10].starts_with("ERR MISMATCH"), "{out}");
    }

    #[test]
    fn scan_caps_and_limits_apply() {
        let out = run_script(
            "HELLO t\n\
             CREATE big 1000x1000x1000\n\
             SCAN big 0:999 0:999 0:999\n\
             PUT big 3\n\
             0 0 0 1.0\n\
             0 0 1 2.0\n\
             0 0 2 3.0\n\
             SCAN big 0:0 0:0 0:9 LIMIT 2\n\
             QUIT\n",
            Quota::unlimited(),
        );
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[3].starts_with("ERR TOOBIG"), "{out}");
        assert!(lines[4].starts_with("OK acked=3"), "{out}");
        assert_eq!(lines[5], "OK points=2 truncated=true");
        assert_eq!(lines[6], "0 0 0 1");
        assert_eq!(lines[7], "0 0 1 2");
        assert_eq!(lines[8], "OK bye");
    }

    #[test]
    fn metrics_command_needs_no_tenant_and_renders_exposition() {
        let out = run_script("METRICS\nQUIT\n", Quota::unlimited());
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[1].starts_with("OK lines="), "{out}");
        let n: usize = lines[1].trim_start_matches("OK lines=").parse().unwrap();
        assert!(n > 0);
        let body = lines[2..2 + n].join("\n");
        assert!(
            body.contains("artsparse_server_commands_total"),
            "exposition must carry server series: {body}"
        );
        assert_eq!(lines[2 + n], "OK bye");
    }

    #[test]
    fn over_cap_line_is_refused_and_closes_the_session() {
        let junk = "x".repeat(2 * MAX_LINE_BYTES);
        // No newline at all: the reader stops at the cap, not at EOF.
        let out = run_script(&format!("HELLO t\n{junk}"), Quota::unlimited());
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "{out}");
        assert!(lines[2].starts_with("ERR TOOBIG"), "{out}");
        // A later newline does not revive the session.
        let out = run_script(&format!("HELLO t\n{junk}\nPING\n"), Quota::unlimited());
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "{out}");
        assert!(lines[2].starts_with("ERR TOOBIG"), "{out}");
    }

    /// Yields scripted chunks and errors, then EOF.
    struct Scripted(std::collections::VecDeque<io::Result<Vec<u8>>>);

    impl io::Read for Scripted {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some(Err(e)) => Err(e),
                Some(Ok(mut chunk)) => {
                    let n = chunk.len().min(out.len());
                    out[..n].copy_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        self.0.push_front(Ok(chunk.split_off(n)));
                    }
                    Ok(n)
                }
            }
        }
    }

    #[test]
    fn multibyte_character_split_by_a_timeout_reads_whole() {
        let split = Scripted(
            [
                Ok(b"\xC3".to_vec()),
                Err(io::ErrorKind::TimedOut.into()),
                Ok(b"\xA9X\n".to_vec()),
            ]
            .into(),
        );
        let whole = Scripted([Ok("\u{e9}X\n".as_bytes().to_vec())].into());
        let split_out = run_reader(io::BufReader::new(split), Quota::unlimited());
        let whole_out = run_reader(io::BufReader::new(whole), Quota::unlimited());
        assert_eq!(split_out, whole_out);
        assert_eq!(whole_out.lines().count(), 2, "{whole_out}");
        assert!(whole_out.contains("ERR BADCMD"), "{whole_out}");
    }

    #[test]
    fn invalid_utf8_line_is_refused_and_the_session_continues() {
        let bytes = b"\xFF\xFE\nPING\n".to_vec();
        let out = run_reader(Cursor::new(bytes), Quota::unlimited());
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[1].starts_with("ERR BADARG"), "{out}");
        assert_eq!(lines[2], "OK pong", "{out}");
    }
}
