//! The benchmark's span recorder. Spans are kept in memory, written out
//! when the run ends, and reduced to per-layer self times: a span's self
//! time is its duration minus the part of it that its children cover.

use std::collections::HashMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Request id shared by every span of one request (client and replay).
    pub req: u64,
    /// This span's id (unique within the recorder, never 0).
    pub id: u32,
    /// The parent span's id, `0` for a root.
    pub parent: u32,
    /// Layer boundary name, e.g. `engine.read`.
    pub name: &'static str,
    /// Start, in ns since the recorder's origin.
    pub start: u64,
    /// End, in ns since the recorder's origin.
    pub end: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder {
            origin: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    /// Nanoseconds since the recorder was made.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// A fresh span id, to hand to children before the span closes.
    pub fn id(&self) -> u32 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a finished span.
    pub fn push(&self, span: Span) {
        self.spans.lock().expect("span sink poisoned").push(span);
    }

    /// Record a span closing now; returns its id.
    pub fn close(&self, req: u64, id: u32, parent: u32, name: &'static str, start: u64) -> u32 {
        let end = self.now();
        self.push(Span {
            req,
            id,
            parent,
            name,
            start,
            end,
        });
        id
    }

    /// Time `f` as a span named `name` under `parent`.
    pub fn time<R>(&self, req: u64, parent: u32, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.id();
        let start = self.now();
        let r = f();
        self.close(req, id, parent, name, start);
        r
    }

    /// Take every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span sink poisoned"))
    }
}

/// Self time of every span, by id: duration minus the union of its
/// children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> HashMap<u32, u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cur: Option<(u64, u64)> = None;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start), b.min(s.end));
                    if a >= b {
                        continue;
                    }
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
            }
            (s.id, s.dur().saturating_sub(covered))
        })
        .collect()
}

/// Write spans as CSV (`req,id,parent,name,start_ns,end_ns`).
pub fn write_csv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "req,id,parent,name,start_ns,end_ns")?;
    for s in spans {
        writeln!(
            out,
            "{},{},{},{},{},{}",
            s.req, s.id, s.parent, s.name, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start: u64, end: u64) -> Span {
        Span {
            req: 1,
            id,
            parent,
            name: "x",
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 20, 40),  // overlaps 2: union 10..40
            span(4, 1, 90, 120), // clipped to 90..100
            span(5, 2, 12, 14),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 30 - 10);
        assert_eq!(st[&2], 20 - 2);
        assert_eq!(st[&5], 2);
    }
}
