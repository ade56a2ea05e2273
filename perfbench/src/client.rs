//! A closed-loop `artsparse/1` client: send one request, read its whole
//! reply, then send the next.

use std::io::{self, BufRead, BufReader, Read, Write};

/// One parsed reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// `OK ...`: the status line and its announced payload lines.
    Ok(String, Vec<String>),
    /// `ERR <CODE> ...`: the whole status line.
    Err(String),
}

impl Reply {
    /// The `key=value` token `key` of an `OK` status line.
    pub fn field(&self, key: &str) -> Option<&str> {
        match self {
            Reply::Ok(status, _) => status
                .split_whitespace()
                .find_map(|t| t.strip_prefix(key)?.strip_prefix('=')),
            Reply::Err(_) => None,
        }
    }

    /// A `GET` reply as `Some(found value)`, or `None` when the reply is
    /// not a well-formed `GET` answer.
    pub fn get_value(&self) -> Option<Option<f64>> {
        match self.field("found") {
            Some("false") => Some(None),
            Some("true") => self.field("value")?.parse::<f64>().ok().map(Some),
            _ => None,
        }
    }

    /// A `SCAN` reply's rows, or `None` when malformed.
    pub fn scan_rows(&self) -> Option<Vec<(Vec<u64>, f64)>> {
        let Reply::Ok(_, payload) = self else {
            return None;
        };
        payload
            .iter()
            .map(|line| artsparse_server::protocol::parse_point(line).ok())
            .collect()
    }
}

/// A connection to the server over any byte stream.
pub struct Conn {
    reader: BufReader<Box<dyn Read + Send>>,
    writer: Box<dyn Write + Send>,
    line: String,
}

impl Conn {
    /// Connect to the Unix socket at `path` and consume the greeting.
    #[cfg(unix)]
    pub fn unix(path: &std::path::Path) -> io::Result<Conn> {
        let s = std::os::unix::net::UnixStream::connect(path)?;
        Conn::over(Box::new(s.try_clone()?), Box::new(s))
    }

    /// Connect over TCP and consume the greeting.
    pub fn tcp(addr: std::net::SocketAddr) -> io::Result<Conn> {
        let s = std::net::TcpStream::connect(addr)?;
        s.set_nodelay(true)?;
        Conn::over(Box::new(s.try_clone()?), Box::new(s))
    }

    fn over(read: Box<dyn Read + Send>, writer: Box<dyn Write + Send>) -> io::Result<Conn> {
        let mut conn = Conn {
            reader: BufReader::with_capacity(1 << 16, read),
            writer,
            line: String::new(),
        };
        let greeting = conn.read_line()?;
        if !greeting.starts_with("OK artsparse/1 ready") {
            return Err(io::Error::other(format!(
                "unexpected greeting {greeting:?}"
            )));
        }
        Ok(conn)
    }

    fn read_line(&mut self) -> io::Result<String> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed",
            ));
        }
        Ok(self.line.trim_end_matches(['\n', '\r']).to_string())
    }

    /// Send one request's wire text and read its complete reply.
    pub fn call(&mut self, text: &str) -> io::Result<Reply> {
        self.writer.write_all(text.as_bytes())?;
        self.writer.flush()?;
        let status = self.read_line()?;
        if status.starts_with("ERR ") {
            return Ok(Reply::Err(status));
        }
        if !status.starts_with("OK") {
            return Err(io::Error::other(format!("malformed status {status:?}")));
        }
        // Only `OK lines=<n>` and `OK points=<n> ...` announce a payload;
        // other replies may carry a `points=` field (`CONSOLIDATE`).
        let announced = status
            .split_whitespace()
            .nth(1)
            .and_then(|t| {
                t.strip_prefix("points=")
                    .or_else(|| t.strip_prefix("lines="))
            })
            .and_then(|n| n.parse::<usize>().ok())
            .unwrap_or(0);
        let mut payload = Vec::with_capacity(announced);
        for _ in 0..announced {
            payload.push(self.read_line()?);
        }
        Ok(Reply::Ok(status, payload))
    }

    /// Send a one-line command and require an `OK` reply.
    pub fn ok(&mut self, line: &str) -> io::Result<Reply> {
        match self.call(&format!("{line}\n"))? {
            Reply::Err(e) => Err(io::Error::other(format!("{line:?} refused: {e}"))),
            ok => Ok(ok),
        }
    }
}
