//! The blob name grammar of a store: fragments, staged blobs,
//! consolidation tombstones and epoch claim markers.
//!
//! Every name the engine writes or recognizes is formatted and parsed
//! here, so the catalog, recovery and outside tools (the harness's store
//! discovery) agree on which blobs are fragments. WAL record names live
//! with the record format in [`crate::wal`].

/// Prefix + suffix of fragment blob names.
const FRAG_PREFIX: &str = "frag-";
const FRAG_SUFFIX: &str = ".asf";

/// Suffix of staged (not yet committed) blobs. Staged names never parse
/// as fragment names, so `list`-based discovery, catalog reloads, and
/// recovery all treat them as invisible until the rename-commit.
pub(crate) const STAGING_SUFFIX: &str = ".tmp";

/// Prefix + suffix of consolidation tombstones: a durable record of the
/// delete set, written before the consolidated fragment commits so a
/// crash mid-consolidation is replayed (sources deleted) or discarded
/// (commit never happened) at the next open/refresh.
const TOMB_PREFIX: &str = "tomb-";
const TOMB_SUFFIX: &str = ".tsn";

/// Prefix + suffix of epoch claim markers. Each engine claims a unique
/// epoch at open with a create-exclusive put, and stamps it into every
/// fragment name it writes — two engines over one directory can race but
/// can never silently overwrite each other's fragments.
const EPOCH_PREFIX: &str = "epoch-";
const EPOCH_SUFFIX: &str = ".lck";

/// Identity of a fragment, encoded in (and recovered from) its name.
///
/// Names are fixed-width decimal, so lexicographic blob-name order — the
/// catalog's iteration order and therefore the engine's cross-fragment
/// precedence — equals `(seq, epoch, cgen)` order:
///
/// * `seq` is the per-store write sequence;
/// * `epoch` is the per-engine claim, disambiguating two engines that
///   allocate the same `seq` concurrently;
/// * `cgen` is the consolidation generation: a consolidated fragment
///   keeps the *highest sequence number of its sources* (it contains no
///   newer data than that), with `cgen` breaking the tie just above
///   them. A fragment written while consolidation was running gets a
///   higher `seq` and so keeps precedence over the consolidated output —
///   the TileDB-style rule that makes consolidation safe to race.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct FragmentId {
    pub(crate) seq: u64,
    pub(crate) epoch: u64,
    pub(crate) cgen: u32,
}

/// Whether `name` is a committed fragment blob — exactly the names the
/// engine's catalog loads. Staged blobs, tombstones, epoch markers, WAL
/// records and look-alikes such as `frag-xx.asf` are not.
pub fn is_fragment_name(name: &str) -> bool {
    parse_fragment_name(name).is_some()
}

pub(crate) fn format_fragment_name(id: FragmentId) -> String {
    let FragmentId { seq, epoch, cgen } = id;
    if cgen == 0 {
        format!("{FRAG_PREFIX}{seq:08}-{epoch:08}{FRAG_SUFFIX}")
    } else {
        format!("{FRAG_PREFIX}{seq:08}-{epoch:08}c{cgen:06}{FRAG_SUFFIX}")
    }
}

/// Strict fixed-base decimal (rejects signs/whitespace that `parse`
/// would accept, keeping name parsing a bijection with formatting).
fn parse_decimal(s: &str) -> Option<u64> {
    if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    s.parse().ok()
}

pub(crate) fn parse_fragment_name(name: &str) -> Option<FragmentId> {
    let body = name.strip_prefix(FRAG_PREFIX)?.strip_suffix(FRAG_SUFFIX)?;
    let Some((seq, rest)) = body.split_once('-') else {
        // Legacy pre-epoch name `frag-NNNNNNNN.asf`.
        return Some(FragmentId {
            seq: parse_decimal(body)?,
            epoch: 0,
            cgen: 0,
        });
    };
    let seq = parse_decimal(seq)?;
    match rest.split_once('c') {
        None => Some(FragmentId {
            seq,
            epoch: parse_decimal(rest)?,
            cgen: 0,
        }),
        Some((epoch, cgen)) => {
            let cgen = parse_decimal(cgen)?;
            // `c000000` would alias the plain name; reject it.
            if cgen == 0 || cgen > u32::MAX as u64 {
                return None;
            }
            Some(FragmentId {
                seq,
                epoch: parse_decimal(epoch)?,
                cgen: cgen as u32,
            })
        }
    }
}

pub(crate) fn staged_name(name: &str) -> String {
    format!("{name}{STAGING_SUFFIX}")
}

pub(crate) fn tombstone_name(target: &str) -> String {
    format!("{TOMB_PREFIX}{target}{TOMB_SUFFIX}")
}

/// The fragment a tombstone protects, if the blob name is a tombstone.
pub(crate) fn parse_tombstone_name(name: &str) -> Option<&str> {
    let target = name.strip_prefix(TOMB_PREFIX)?.strip_suffix(TOMB_SUFFIX)?;
    parse_fragment_name(target).map(|_| target)
}

pub(crate) fn epoch_marker_name(epoch: u64) -> String {
    format!("{EPOCH_PREFIX}{epoch:08}{EPOCH_SUFFIX}")
}

pub(crate) fn parse_epoch_marker(name: &str) -> Option<u64> {
    parse_decimal(
        name.strip_prefix(EPOCH_PREFIX)?
            .strip_suffix(EPOCH_SUFFIX)?,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fragment_names_roundtrip() {
        for id in [
            FragmentId {
                seq: 42,
                epoch: 7,
                cgen: 0,
            },
            FragmentId {
                seq: 42,
                epoch: 7,
                cgen: 3,
            },
            FragmentId {
                seq: u64::MAX,
                epoch: u64::MAX,
                cgen: u32::MAX,
            },
        ] {
            let n = format_fragment_name(id);
            assert_eq!(parse_fragment_name(&n), Some(id), "{n}");
            assert!(is_fragment_name(&n), "{n}");
        }
        // Legacy pre-epoch names still parse (epoch 0, plain).
        assert_eq!(
            parse_fragment_name("frag-00000042.asf"),
            Some(FragmentId {
                seq: 42,
                epoch: 0,
                cgen: 0
            })
        );
        for bad in [
            "other.bin",
            "frag-xx.asf",
            "frag-00000001-xx.asf",
            "frag-00000001-00000001c000000.asf", // cgen 0 aliases the plain name
            "frag-00000001-00000001cxx.asf",
            "frag--1.asf",
            "frag-+1.asf",
            "frag-00000001-00000001.asf.tmp", // staged: invisible
            "tomb-frag-00000001-00000001.asf.tsn",
            "epoch-00000001.lck",
            "wal-00000001-00000001.wal",
        ] {
            assert_eq!(parse_fragment_name(bad), None, "{bad}");
            assert!(!is_fragment_name(bad), "{bad}");
        }
    }

    #[test]
    fn name_order_is_precedence_order() {
        // Lexicographic blob-name order must equal (seq, epoch, cgen)
        // order — it is what the catalog sorts by and what cross-fragment
        // last-writer-wins precedence runs on.
        let ids = [
            FragmentId {
                seq: 1,
                epoch: 2,
                cgen: 0,
            },
            FragmentId {
                seq: 1,
                epoch: 2,
                cgen: 1,
            },
            FragmentId {
                seq: 1,
                epoch: 3,
                cgen: 0,
            },
            FragmentId {
                seq: 2,
                epoch: 1,
                cgen: 0,
            },
            FragmentId {
                seq: 100,
                epoch: 1,
                cgen: 0,
            },
        ];
        let names: Vec<String> = ids.iter().map(|&id| format_fragment_name(id)).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn auxiliary_names_roundtrip() {
        let frag = "frag-00000003-00000001.asf";
        assert_eq!(staged_name(frag), "frag-00000003-00000001.asf.tmp");
        let tomb = tombstone_name(frag);
        assert_eq!(parse_tombstone_name(&tomb), Some(frag));
        assert_eq!(parse_tombstone_name("tomb-junk.tsn"), None);
        assert_eq!(parse_tombstone_name(frag), None);
        assert_eq!(parse_epoch_marker(&epoch_marker_name(9)), Some(9));
        assert_eq!(parse_epoch_marker(frag), None);
    }
}
