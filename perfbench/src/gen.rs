//! Workload definitions and their seeded request streams. The server sees
//! only what these generate; the same seed always gives the same
//! requests.

use crate::rng::Rng;
use std::fmt::Write as _;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two tenants stream `INGEST` batches, one connection each.
    Ingest,
    /// One connection reads a static six-fragment store: 15 `GET` : 1 `SCAN`.
    Read,
    /// One connection on a small live store: 3 `INGEST` : 1 `GET`.
    Mixed,
    /// The paper's organization grid, in process.
    Grid,
}

impl Workload {
    /// Every workload, in the default order.
    pub const ALL: [Workload; 4] = [
        Workload::Ingest,
        Workload::Read,
        Workload::Mixed,
        Workload::Grid,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::Read => "read",
            Workload::Mixed => "mixed",
            Workload::Grid => "grid",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The served layout: one entry per client connection. Empty for
    /// `grid`.
    pub fn connections(self) -> Vec<ConnSpec> {
        let spec = |tenant: &str, base: &'static str, dims: Vec<u64>| ConnSpec {
            tenant: tenant.to_string(),
            base,
            dims,
        };
        match self {
            // Two tenants, one per shard: the first dataset of `tenant0`
            // fixes its shard; the other tenant takes the other one.
            Workload::Ingest => vec![
                spec("tenant0", "ingest", vec![1024, 1024, 64]),
                spec("tenant1", "ingest", vec![1024, 1024, 64]),
            ],
            Workload::Read => vec![spec("reader", "read", vec![4096, 4096])],
            Workload::Mixed => vec![spec("mixer", "mixed", vec![256, 256])],
            Workload::Grid => Vec::new(),
        }
    }
}

/// One client connection of a served workload.
#[derive(Debug, Clone)]
pub struct ConnSpec {
    /// Tenant the connection binds with `HELLO`.
    pub tenant: String,
    /// Dataset name (the prefix of the rotated names for `ingest`).
    pub base: &'static str,
    /// Dataset shape.
    pub dims: Vec<u64>,
}

/// `INGEST` batches a dataset of the `ingest` workload receives before
/// the stream moves on to a fresh one (2¹⁶ points). This bounds the store
/// a consolidation rewrites, so throughput does not depend on how long
/// the run is, and bounds the memory each consolidation churns.
pub const INGEST_ROTATE_BATCHES: u64 = 1024;

/// Points per `INGEST` batch.
pub const INGEST_BATCH: usize = 64;
/// The `read` workload's preload: one `PUT` per size, each landing in its
/// own log₂ size tier so the scheduler never merges them.
pub const READ_PRELOAD: [usize; 6] = [32768, 16384, 8192, 4096, 2048, 1024];
/// `GET`s per `SCAN` in the `read` workload.
pub const READ_GETS_PER_SCAN: u64 = 15;
/// Side of the `read` workload's `SCAN` box.
pub const SCAN_SIDE: u64 = 16;
/// `INGEST`s per `GET` in the `mixed` workload.
pub const MIXED_INGESTS_PER_GET: u64 = 3;

/// FNV-1a of `tenant/dataset`: the server's documented dataset-to-shard
/// hash (PROTOCOL.md §2), used to place the two `ingest` tenants on
/// different shards. The set-up checks the placement against `STATS`.
pub fn shard_of(tenant: &str, dataset: &str, shards: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{tenant}/{dataset}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h % shards
}

/// The name of dataset `ix` of connection `conn`. `ingest` names carry a
/// suffix chosen so that connection `c` always lands on shard `c`.
pub fn dataset_name(workload: Workload, spec: &ConnSpec, conn: usize, ix: u32) -> String {
    if workload != Workload::Ingest {
        return spec.base.to_string();
    }
    (0..)
        .map(|j| format!("{}-{ix}-{j}", spec.base))
        .find(|name| shard_of(&spec.tenant, name, 2) == conn as u64 % 2)
        .expect("some suffix hashes to every shard")
}

/// The operation classes a request falls into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Op {
    /// `INGEST` (WAL-acked buffered write).
    Ingest,
    /// `PUT` (synchronous fragment write).
    Put,
    /// `GET` of one point.
    Get,
    /// `SCAN` of a box.
    Scan,
    /// `CREATE` (the `ingest` stream's move to a fresh dataset).
    Create,
}

/// One generated request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `PUT`/`INGEST` of `values.len()` points (`coords` interleaved).
    Write {
        /// Stream through the WAL (`INGEST`) or commit a fragment (`PUT`).
        ingest: bool,
        /// Flat coordinates, `ndim` per point.
        coords: Vec<u64>,
        /// One value per point.
        values: Vec<f64>,
    },
    /// `GET` one coordinate.
    Get(Vec<u64>),
    /// `SCAN` the inclusive box `lo..=hi`.
    Scan(Vec<u64>, Vec<u64>),
    /// `CREATE` the dataset with these dimensions.
    Create(Vec<u64>),
}

impl Request {
    /// The request's operation class.
    pub fn op(&self) -> Op {
        match self {
            Request::Write { ingest: true, .. } => Op::Ingest,
            Request::Write { ingest: false, .. } => Op::Put,
            Request::Get(_) => Op::Get,
            Request::Scan(..) => Op::Scan,
            Request::Create(_) => Op::Create,
        }
    }

    /// Points carried by a write (0 otherwise).
    pub fn points(&self) -> usize {
        match self {
            Request::Write { values, .. } => values.len(),
            _ => 0,
        }
    }

    /// Append the request's wire text (command line plus data lines).
    pub fn render(&self, dataset: &str, out: &mut String) {
        match self {
            Request::Write {
                ingest,
                coords,
                values,
            } => {
                let cmd = if *ingest { "INGEST" } else { "PUT" };
                let _ = writeln!(out, "{cmd} {dataset} {}", values.len());
                let ndim = coords.len() / values.len().max(1);
                for (point, v) in coords.chunks(ndim).zip(values) {
                    for c in point {
                        let _ = write!(out, "{c} ");
                    }
                    let _ = writeln!(out, "{v}");
                }
            }
            Request::Get(coord) => {
                let _ = write!(out, "GET {dataset}");
                for c in coord {
                    let _ = write!(out, " {c}");
                }
                out.push('\n');
            }
            Request::Scan(lo, hi) => {
                let _ = write!(out, "SCAN {dataset}");
                for (l, h) in lo.iter().zip(hi) {
                    let _ = write!(out, " {l}:{h}");
                }
                out.push('\n');
            }
            Request::Create(dims) => {
                let shape: Vec<String> = dims.iter().map(u64::to_string).collect();
                let _ = writeln!(out, "CREATE {dataset} {}", shape.join("x"));
            }
        }
    }
}

/// The seeded request stream of one connection: its set-up requests and
/// an endless measured stream.
#[derive(Debug, Clone)]
pub struct Stream {
    workload: Workload,
    spec: ConnSpec,
    conn: usize,
    dims: Vec<u64>,
    /// Index and name of the dataset requests currently go to.
    ix: u32,
    dataset: String,
    batches_in_dataset: u64,
    rng: Rng,
    /// Preloaded points the `read` stream aims half its `GET`s at.
    targets: Vec<Vec<u64>>,
    seq: u64,
}

impl Stream {
    /// Connection `conn`'s stream for `workload` under `seed`.
    pub fn new(workload: Workload, conn: usize, seed: u64) -> Stream {
        let spec = workload.connections()[conn].clone();
        Stream {
            workload,
            dims: spec.dims.clone(),
            ix: 0,
            dataset: dataset_name(workload, &spec, conn, 0),
            batches_in_dataset: 0,
            spec,
            conn,
            rng: Rng::new(seed, 1 + conn as u64),
            targets: Vec::new(),
            seq: 0,
        }
    }

    /// The dataset's dimension sizes.
    pub fn dims(&self) -> &[u64] {
        &self.dims
    }

    /// The tenant this stream's connection binds.
    pub fn tenant(&self) -> &str {
        &self.spec.tenant
    }

    /// Index of the dataset the last request went to.
    pub fn dataset_ix(&self) -> u32 {
        self.ix
    }

    /// Name of the dataset the last request went to.
    pub fn dataset(&self) -> &str {
        &self.dataset
    }

    /// Name of dataset `ix` of this stream.
    pub fn dataset_named(&self, ix: u32) -> String {
        dataset_name(self.workload, &self.spec, self.conn, ix)
    }

    fn random_coord(&mut self) -> Vec<u64> {
        let dims = self.dims.clone();
        dims.iter().map(|&d| self.rng.below(d)).collect()
    }

    fn random_write(&mut self, ingest: bool, n: usize) -> Request {
        let mut coords = Vec::with_capacity(n * self.dims.len());
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            coords.extend(self.random_coord());
            values.push(self.rng.value());
        }
        Request::Write {
            ingest,
            coords,
            values,
        }
    }

    /// Data requests issued during set-up, before the measured window.
    /// Call once, before [`Stream::next_request`].
    pub fn setup(&mut self) -> Vec<Request> {
        match self.workload {
            Workload::Read => {
                let puts: Vec<Request> = READ_PRELOAD
                    .iter()
                    .map(|&n| self.random_write(false, n))
                    .collect();
                for put in &puts {
                    if let Request::Write { coords, .. } = put {
                        self.targets.extend(coords.chunks(2).map(<[u64]>::to_vec));
                    }
                }
                puts
            }
            Workload::Mixed => {
                // Fill every cell once, so the live set starts at its cap
                // and GET cost is flat from the first request.
                let (rows, cols) = (self.dims[0], self.dims[1]);
                let mut coords = Vec::with_capacity((rows * cols * 2) as usize);
                let mut values = Vec::with_capacity((rows * cols) as usize);
                for r in 0..rows {
                    for c in 0..cols {
                        coords.extend([r, c]);
                        values.push(self.rng.value());
                    }
                }
                vec![Request::Write {
                    ingest: false,
                    coords,
                    values,
                }]
            }
            Workload::Ingest | Workload::Grid => Vec::new(),
        }
    }

    /// The next request of the measured stream.
    pub fn next_request(&mut self) -> Request {
        let i = self.seq;
        self.seq += 1;
        match self.workload {
            Workload::Ingest | Workload::Grid => {
                if self.batches_in_dataset == INGEST_ROTATE_BATCHES {
                    self.batches_in_dataset = 0;
                    self.ix += 1;
                    self.dataset = self.dataset_named(self.ix);
                    return Request::Create(self.dims.clone());
                }
                self.batches_in_dataset += 1;
                self.random_write(true, INGEST_BATCH)
            }
            Workload::Read => {
                if i % (READ_GETS_PER_SCAN + 1) == READ_GETS_PER_SCAN {
                    let lo: Vec<u64> = self
                        .dims
                        .clone()
                        .iter()
                        .map(|&d| self.rng.below(d - SCAN_SIDE + 1))
                        .collect();
                    let hi = lo.iter().map(|l| l + SCAN_SIDE - 1).collect();
                    Request::Scan(lo, hi)
                } else if self.rng.below(2) == 0 && !self.targets.is_empty() {
                    let k = self.rng.below(self.targets.len() as u64) as usize;
                    Request::Get(self.targets[k].clone())
                } else {
                    Request::Get(self.random_coord())
                }
            }
            Workload::Mixed => {
                if i % (MIXED_INGESTS_PER_GET + 1) == MIXED_INGESTS_PER_GET {
                    Request::Get(self.random_coord())
                } else {
                    self.random_write(true, INGEST_BATCH)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingest_connections_keep_to_their_own_shard() {
        for conn in 0..2 {
            let spec = &Workload::Ingest.connections()[conn];
            for ix in 0..20 {
                let name = dataset_name(Workload::Ingest, spec, conn, ix);
                assert_eq!(shard_of(&spec.tenant, &name, 2), conn as u64);
            }
        }
    }

    #[test]
    fn ingest_rotates_to_a_fresh_dataset() {
        let mut s = Stream::new(Workload::Ingest, 1, 5);
        let first = s.dataset().to_string();
        for _ in 0..INGEST_ROTATE_BATCHES {
            assert_eq!(s.next_request().op(), Op::Ingest);
        }
        assert_eq!(s.next_request(), Request::Create(vec![1024, 1024, 64]));
        assert_eq!(s.dataset_ix(), 1);
        assert_ne!(s.dataset(), first);
    }

    #[test]
    fn streams_are_a_function_of_the_seed() {
        for w in [Workload::Ingest, Workload::Read, Workload::Mixed] {
            let take = |seed| {
                let mut s = Stream::new(w, 0, seed);
                let setup = s.setup();
                let reqs: Vec<Request> = (0..40).map(|_| s.next_request()).collect();
                (setup, reqs)
            };
            assert_eq!(take(7), take(7), "{w:?}");
            assert_ne!(take(7).1, take(8).1, "{w:?}");
        }
    }

    #[test]
    fn rendering_round_trips_through_the_server_parsers() {
        let mut s = Stream::new(Workload::Mixed, 0, 3);
        let req = s.next_request();
        let mut text = String::new();
        req.render("mixed", &mut text);
        let mut lines = text.lines();
        let head = artsparse_server::protocol::parse_request(lines.next().unwrap()).unwrap();
        assert_eq!(head.command, "INGEST");
        let Request::Write { coords, values, .. } = &req else {
            panic!("mixed opens with an INGEST")
        };
        for (i, line) in lines.enumerate() {
            let (c, v) = artsparse_server::protocol::parse_point(line).unwrap();
            assert_eq!(c, coords[2 * i..2 * i + 2]);
            assert_eq!(v.to_bits(), values[i].to_bits());
        }
    }
}
