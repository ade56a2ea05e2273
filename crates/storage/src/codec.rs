//! General-purpose compression codecs for fragment payloads.
//!
//! §II of the paper: *"Common practice in the community, as observed in
//! systems like TileDB and HDF5, is to choose a basic sparse organization
//! first and then apply compression algorithms to further reduce data
//! size"* — the organizations are orthogonal to compression. This module
//! supplies that second stage: self-contained codecs a fragment can apply
//! to its index and value payloads independently.
//!
//! * [`Codec::Rle`] — byte-level run-length encoding (dense value payloads
//!   with repeated bytes, zero runs);
//! * [`Codec::DeltaVarint`] — interprets the payload as little-endian
//!   `u64` words and stores zigzag deltas as LEB128 varints. Sorted or
//!   locally increasing address streams (LINEAR over TSP, sorted COO,
//!   CSR pointers) shrink dramatically.
//!
//! All codecs are lossless for arbitrary byte payloads (DeltaVarint pads
//! to a word boundary and records the true length).

use crate::error::{Result, StorageError};

/// A compression codec choice.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub enum Codec {
    /// No compression.
    #[default]
    None,
    /// Byte-level run-length encoding.
    Rle,
    /// Zigzag-delta LEB128 varints over `u64` words.
    DeltaVarint,
}

impl Codec {
    /// Stable 3-bit wire id (stored in fragment flags).
    pub fn id(self) -> u16 {
        match self {
            Codec::None => 0,
            Codec::Rle => 1,
            Codec::DeltaVarint => 2,
        }
    }

    /// Inverse of [`Codec::id`].
    pub fn from_id(id: u16) -> Option<Codec> {
        match id {
            0 => Some(Codec::None),
            1 => Some(Codec::Rle),
            2 => Some(Codec::DeltaVarint),
            _ => None,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Codec::None => "none",
            Codec::Rle => "rle",
            Codec::DeltaVarint => "delta-varint",
        }
    }

    /// Parse a display name.
    pub fn parse(s: &str) -> Option<Codec> {
        match s.to_ascii_lowercase().as_str() {
            "none" | "raw" => Some(Codec::None),
            "rle" => Some(Codec::Rle),
            "delta-varint" | "varint" | "delta" => Some(Codec::DeltaVarint),
            _ => None,
        }
    }

    /// Compress `data`. The output is self-contained given the codec and
    /// the original length.
    pub fn compress(self, data: &[u8]) -> Vec<u8> {
        match self {
            Codec::None => data.to_vec(),
            Codec::Rle => rle_compress(data),
            Codec::DeltaVarint => delta_varint_compress(data),
        }
    }

    /// Decompress to exactly `raw_len` bytes.
    pub fn decompress(self, data: &[u8], raw_len: usize) -> Result<Vec<u8>> {
        let out = match self {
            Codec::None => data.to_vec(),
            Codec::Rle => rle_decompress(data, raw_len)?,
            Codec::DeltaVarint => delta_varint_decompress(data, raw_len)?,
        };
        if out.len() != raw_len {
            return Err(StorageError::corrupt(
                "payload",
                format!("decompressed to {} bytes, expected {raw_len}", out.len()),
            ));
        }
        Ok(out)
    }
}

// --- RLE -------------------------------------------------------------------
//
// Stream of (count: u8 ≥ 1, byte) pairs.

fn rle_compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 2 + 8);
    let mut i = 0;
    while i < data.len() {
        let b = data[i];
        let mut run = 1usize;
        while run < 255 && i + run < data.len() && data[i + run] == b {
            run += 1;
        }
        out.push(run as u8);
        out.push(b);
        i += run;
    }
    out
}

fn rle_decompress(data: &[u8], raw_len: usize) -> Result<Vec<u8>> {
    if !data.len().is_multiple_of(2) {
        return Err(StorageError::corrupt("rle", "odd stream length"));
    }
    // A pair expands to at most 255 bytes: never reserve past what the
    // stream can produce, whatever length the header declares.
    let mut out = Vec::with_capacity(raw_len.min(data.len() / 2 * 255));
    for pair in data.chunks_exact(2) {
        let (count, byte) = (pair[0] as usize, pair[1]);
        if count == 0 {
            return Err(StorageError::corrupt("rle", "zero-length run"));
        }
        if out.len() + count > raw_len {
            return Err(StorageError::corrupt("rle", "runs exceed raw length"));
        }
        out.resize(out.len() + count, byte);
    }
    Ok(out)
}

// --- zigzag delta varint ---------------------------------------------------

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Append a LEB128 varint.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// Read a LEB128 varint; returns `(value, bytes_consumed)`.
fn get_varint(data: &[u8]) -> Result<(u64, usize)> {
    let mut v = 0u64;
    let mut shift = 0u32;
    for (i, &byte) in data.iter().enumerate() {
        if shift >= 64 {
            return Err(StorageError::corrupt("varint", "overlong encoding"));
        }
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok((v, i + 1));
        }
        shift += 7;
    }
    Err(StorageError::corrupt("varint", "truncated varint"))
}

fn delta_varint_compress(data: &[u8]) -> Vec<u8> {
    // Pad to a word boundary; the true length restores it on decompress.
    let mut padded = data.to_vec();
    while !padded.len().is_multiple_of(8) {
        padded.push(0);
    }
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    let mut prev = 0i64;
    for word in padded.chunks_exact(8) {
        let v = u64::from_le_bytes(word.try_into().expect("chunk of 8")) as i64;
        put_varint(&mut out, zigzag(v.wrapping_sub(prev)));
        prev = v;
    }
    out
}

fn delta_varint_decompress(data: &[u8], raw_len: usize) -> Result<Vec<u8>> {
    let padded_len = raw_len
        .div_ceil(8)
        .checked_mul(8)
        .ok_or_else(|| StorageError::corrupt("varint", "raw length overflows"))?;
    // Each input byte ends at most one varint, i.e. one 8-byte word.
    let mut out = Vec::with_capacity(padded_len.min(data.len().saturating_mul(8)));
    let mut prev = 0i64;
    let mut pos = 0usize;
    while out.len() < padded_len {
        let (z, used) = get_varint(&data[pos..])?;
        pos += used;
        let v = prev.wrapping_add(unzigzag(z));
        out.extend_from_slice(&(v as u64).to_le_bytes());
        prev = v;
    }
    if pos != data.len() {
        return Err(StorageError::corrupt("varint", "trailing compressed bytes"));
    }
    out.truncate(raw_len);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(codec: Codec, data: &[u8]) {
        let c = codec.compress(data);
        let d = codec.decompress(&c, data.len()).unwrap();
        assert_eq!(d, data, "{codec:?} on {} bytes", data.len());
    }

    #[test]
    fn all_codecs_roundtrip_varied_payloads() {
        let payloads: Vec<Vec<u8>> = vec![
            vec![],
            vec![0u8; 1000],
            (0..=255u8).collect(),
            b"abcabcabc".to_vec(),
            vec![7u8; 3], // non-word-aligned
            (0..999u16)
                .flat_map(|x| (x as u64 * 3).to_le_bytes())
                .collect(),
        ];
        for codec in [Codec::None, Codec::Rle, Codec::DeltaVarint] {
            for p in &payloads {
                roundtrip(codec, p);
            }
        }
    }

    #[test]
    fn rle_shrinks_runs() {
        let data = vec![0u8; 4096];
        let c = Codec::Rle.compress(&data);
        assert!(c.len() < 64, "{} bytes", c.len());
    }

    #[test]
    fn delta_varint_shrinks_sorted_addresses() {
        // A sorted LINEAR index stream: ascending addresses, small gaps —
        // the TSP case. Each 8-byte word should shrink to ~1 byte.
        let words: Vec<u8> = (0..4096u64)
            .map(|k| k * 9 + 1_000_000)
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let c = Codec::DeltaVarint.compress(&words);
        assert!(
            c.len() < words.len() / 4,
            "{} vs {} bytes",
            c.len(),
            words.len()
        );
        roundtrip(Codec::DeltaVarint, &words);
    }

    #[test]
    fn delta_varint_handles_descending_and_random() {
        let words: Vec<u8> = [u64::MAX, 0, 42, u64::MAX / 2, 7, 7, 7]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        roundtrip(Codec::DeltaVarint, &words);
    }

    #[test]
    fn corrupted_streams_error_cleanly() {
        assert!(Codec::Rle.decompress(&[1], 1).is_err()); // odd length
        assert!(Codec::Rle.decompress(&[0, 5], 1).is_err()); // zero run
        assert!(Codec::Rle.decompress(&[200, 5], 10).is_err()); // too long
        assert!(Codec::DeltaVarint.decompress(&[0x80], 8).is_err()); // truncated
        assert!(Codec::DeltaVarint.decompress(&[0x80; 12], 8).is_err()); // overlong
                                                                         // Trailing bytes after the last word.
        let mut ok = Codec::DeltaVarint.compress(&1u64.to_le_bytes());
        ok.push(0);
        assert!(Codec::DeltaVarint.decompress(&ok, 8).is_err());
        // A declared length far past what the stream can produce fails
        // typed instead of reserving it up front.
        assert!(Codec::Rle.decompress(&[1, 5], usize::MAX).is_err());
        assert!(Codec::DeltaVarint
            .decompress(&[0], usize::MAX - 64)
            .is_err());
        assert!(Codec::DeltaVarint.decompress(&[0], usize::MAX).is_err());
        // Wrong raw_len surfaces as error, not truncation.
        let c = Codec::None.compress(&[1, 2, 3]);
        assert!(Codec::None.decompress(&c, 2).is_err());
    }

    #[test]
    fn ids_roundtrip() {
        for codec in [Codec::None, Codec::Rle, Codec::DeltaVarint] {
            assert_eq!(Codec::from_id(codec.id()), Some(codec));
            assert_eq!(Codec::parse(codec.name()), Some(codec));
        }
        assert_eq!(Codec::from_id(7), None);
    }

    #[test]
    fn zigzag_is_bijective_on_extremes() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 123456, -987654] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn varint_boundaries() {
        let mut buf = Vec::new();
        for v in [0u64, 127, 128, 16383, 16384, u64::MAX] {
            buf.clear();
            put_varint(&mut buf, v);
            let (got, used) = get_varint(&buf).unwrap();
            assert_eq!(got, v);
            assert_eq!(used, buf.len());
        }
    }
}
