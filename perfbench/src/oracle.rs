//! The last-write-wins oracle of acknowledged points, and the checks of
//! `GET` and `SCAN` replies against it.

use crate::gen::Request;
use std::collections::HashMap;

/// Acked points of a connection's datasets, keyed by dataset index and
/// row-major address. With
/// `sample > 1` only addresses divisible by `sample` are tracked, which
/// keeps the oracle small for the write-only `ingest` stream; every write
/// to a tracked address is recorded, so last-write-wins stays exact.
#[derive(Debug, Clone)]
pub struct Oracle {
    dims: Vec<u64>,
    sample: u64,
    /// The dataset index requests currently go to.
    ds: u32,
    acked: HashMap<(u32, u64), f64>,
}

impl Oracle {
    /// An empty oracle for a dataset of `dims`, tracking one address in
    /// `sample`.
    pub fn new(dims: &[u64], sample: u64) -> Oracle {
        Oracle {
            dims: dims.to_vec(),
            sample: sample.max(1),
            ds: 0,
            acked: HashMap::new(),
        }
    }

    /// Direct later calls at dataset `ix`.
    pub fn select(&mut self, ix: u32) {
        self.ds = ix;
    }

    fn addr(&self, coord: &[u64]) -> u64 {
        coord
            .iter()
            .zip(&self.dims)
            .fold(0, |acc, (&c, &d)| acc * d + c)
    }

    fn tracked(&self, addr: u64) -> bool {
        addr.is_multiple_of(self.sample)
    }

    /// Record an acknowledged write. Within one batch the engine's
    /// documented precedence applies: an `INGEST` batch goes through the
    /// write buffer, where the later append wins; a `PUT` batch becomes one
    /// fragment, where the lowest slot wins.
    pub fn apply(&mut self, req: &Request) {
        if let Request::Write {
            ingest,
            coords,
            values,
        } = req
        {
            let ndim = self.dims.len();
            let mut seen = std::collections::HashSet::new();
            for (point, &v) in coords.chunks(ndim).zip(values) {
                let a = self.addr(point);
                if self.tracked(a) && (*ingest || seen.insert(a)) {
                    self.acked.insert((self.ds, a), v);
                }
            }
        }
    }

    /// Whether a `GET` reply (`None` = not found) is right. Untracked
    /// addresses cannot be checked and pass.
    pub fn check_get(&self, coord: &[u64], got: Option<f64>) -> bool {
        let a = self.addr(coord);
        if !self.tracked(a) {
            return true;
        }
        match (self.acked.get(&(self.ds, a)), got) {
            (None, None) => true,
            (Some(want), Some(got)) => want.to_bits() == got.to_bits(),
            _ => false,
        }
    }

    /// Whether a `SCAN` reply is right: every returned row lies in the box
    /// and matches, and every tracked acked point in the box is returned.
    pub fn check_scan(&self, lo: &[u64], hi: &[u64], rows: &[(Vec<u64>, f64)]) -> bool {
        let inside = |c: &[u64]| {
            c.len() == lo.len()
                && c.iter()
                    .zip(lo.iter().zip(hi))
                    .all(|(x, (l, h))| l <= x && x <= h)
        };
        let mut seen = 0usize;
        for (coord, v) in rows {
            if !inside(coord) || !self.check_get(coord, Some(*v)) {
                return false;
            }
            if self.tracked(self.addr(coord)) {
                seen += 1;
            }
        }
        let expected = if self.sample == 1 && volume(lo, hi) < self.acked.len() as u64 {
            count_cells(lo, hi, |c| {
                self.acked.contains_key(&(self.ds, self.addr(c)))
            })
        } else {
            self.acked
                .keys()
                .filter(|&&(d, a)| d == self.ds && inside(&self.delinearize(a)))
                .count()
        };
        seen == expected
    }

    fn delinearize(&self, mut addr: u64) -> Vec<u64> {
        let mut c = vec![0; self.dims.len()];
        for (slot, &d) in c.iter_mut().zip(&self.dims).rev() {
            *slot = addr % d;
            addr /= d;
        }
        c
    }

    /// Up to `n` tracked acked `(dataset index, coordinate)` pairs,
    /// chosen by `seed`, in a deterministic order.
    pub fn sample(&self, n: usize, seed: u64) -> Vec<(u32, Vec<u64>)> {
        let mut addrs: Vec<(u32, u64)> = self.acked.keys().copied().collect();
        addrs.sort_unstable();
        let mut rng = crate::rng::Rng::new(seed, 0x5A4D);
        let mut out = Vec::with_capacity(n.min(addrs.len()));
        while out.len() < n && !addrs.is_empty() {
            let k = rng.below(addrs.len() as u64) as usize;
            let (d, a) = addrs.swap_remove(k);
            out.push((d, self.delinearize(a)));
        }
        out
    }

    /// Deliberately falsify the tracked value at `coord` of the selected
    /// dataset (the self-test that proves a wrong answer is caught).
    pub fn corrupt(&mut self, coord: &[u64]) {
        let key = (self.ds, self.addr(coord));
        if let Some(v) = self.acked.get_mut(&key) {
            *v += 1.0;
        }
    }
}

fn volume(lo: &[u64], hi: &[u64]) -> u64 {
    lo.iter().zip(hi).map(|(l, h)| h - l + 1).product()
}

/// Count the cells of the box `lo..=hi` satisfying `f`.
fn count_cells(lo: &[u64], hi: &[u64], f: impl Fn(&[u64]) -> bool) -> usize {
    let mut cur = lo.to_vec();
    let mut n = 0;
    loop {
        if f(&cur) {
            n += 1;
        }
        let mut d = cur.len();
        loop {
            if d == 0 {
                return n;
            }
            d -= 1;
            if cur[d] < hi[d] {
                cur[d] += 1;
                break;
            }
            cur[d] = lo[d];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(coords: Vec<u64>, values: Vec<f64>) -> Request {
        Request::Write {
            ingest: true,
            coords,
            values,
        }
    }

    #[test]
    fn last_write_wins_and_scans_must_be_complete() {
        let mut o = Oracle::new(&[8, 8], 1);
        o.apply(&write(vec![1, 2, 3, 4], vec![1.0, 2.0]));
        o.apply(&write(vec![1, 2], vec![5.0]));
        assert!(o.check_get(&[1, 2], Some(5.0)));
        assert!(!o.check_get(&[1, 2], Some(1.0)));
        assert!(!o.check_get(&[0, 0], Some(1.0)));
        assert!(o.check_get(&[0, 0], None));
        let rows = vec![(vec![1, 2], 5.0), (vec![3, 4], 2.0)];
        assert!(o.check_scan(&[0, 0], &[7, 7], &rows));
        assert!(!o.check_scan(&[0, 0], &[7, 7], &rows[..1]), "missing row");
        assert!(!o.check_scan(&[0, 0], &[2, 2], &rows), "row outside box");
        assert!(o.check_scan(&[0, 0], &[2, 2], &rows[..1]));
    }

    #[test]
    fn duplicates_in_one_batch_follow_the_engine_precedence() {
        let mut o = Oracle::new(&[8, 8], 1);
        o.apply(&write(vec![1, 1, 1, 1], vec![1.0, 2.0]));
        assert!(o.check_get(&[1, 1], Some(2.0)), "INGEST: later append wins");
        o.apply(&Request::Write {
            ingest: false,
            coords: vec![2, 2, 2, 2],
            values: vec![3.0, 4.0],
        });
        assert!(o.check_get(&[2, 2], Some(3.0)), "PUT: lowest slot wins");
    }

    #[test]
    fn sampled_oracle_checks_only_tracked_addresses() {
        let mut o = Oracle::new(&[4, 4], 4);
        o.apply(&write(vec![0, 0, 0, 1], vec![1.0, 2.0]));
        assert!(o.check_get(&[0, 1], Some(99.0)), "untracked passes");
        assert!(!o.check_get(&[0, 0], Some(99.0)));
        let mut bad = o.clone();
        bad.corrupt(&[0, 0]);
        assert!(!bad.check_get(&[0, 0], Some(1.0)));
        assert_eq!(o.sample(5, 1), vec![(0, vec![0, 0])]);
        o.select(1);
        assert!(o.check_get(&[0, 0], None), "datasets are separate");
    }
}
