//! Out-of-host-core shard storage: the rung *below* host fallback on the
//! memory governor's ladder.
//!
//! When the working set exceeds even host RAM, the governor evicts shard
//! topology to a [`ShardStore`] and streams it back GraphChi-style through
//! the chunked-transfer staging path, charging the cost model a storage
//! read per load instead of pretending the host holds everything. The
//! engine's store is a [`FileShardStore`] (one checksummed file per
//! shard) under [`Options::spill_dir`](crate::Options::spill_dir). See
//! `docs/DURABILITY.md` and `docs/MEMORY.md`.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use gr_graph::compress::{unzigzag, zigzag, BitReader, BitWriter};
use gr_graph::CompressionCodec;
use gr_graph::GraphLayout;
use gr_graph::Shard;

use crate::frame::{self, Head};
use crate::snapshot::{io_err, SnapshotError};

/// Why a shard could not be spilled or loaded. Like [`SnapshotError`],
/// every variant names the location involved and read-side failures
/// carry byte offsets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// An OS-level I/O operation failed for a shard blob.
    Io {
        shard: u32,
        path: PathBuf,
        op: &'static str,
        detail: String,
    },
    /// A shard blob ended early (`offset` = where decoding stopped).
    ShortRead {
        shard: u32,
        path: PathBuf,
        offset: u64,
        needed: u64,
    },
    /// A shard blob failed its header or checksum validation.
    Corrupt {
        shard: u32,
        path: PathBuf,
        what: &'static str,
    },
    /// The store has no blob for this shard (a load before any spill —
    /// always an engine bug, never user error).
    Missing { shard: u32 },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io {
                shard,
                path,
                op,
                detail,
            } => write!(
                f,
                "shard {shard} store {op} failed for {}: {detail}",
                path.display()
            ),
            StoreError::ShortRead {
                shard,
                path,
                offset,
                needed,
            } => write!(
                f,
                "shard {shard} blob {} truncated: needed {needed} more bytes \
                 (at byte offset {offset})",
                path.display()
            ),
            StoreError::Corrupt { shard, path, what } => {
                write!(
                    f,
                    "shard {shard} blob {} corrupt: bad {what}",
                    path.display()
                )
            }
            StoreError::Missing { shard } => {
                write!(f, "shard {shard} was never spilled to the store")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// Where evicted shards live when the graph does not fit in host memory.
///
/// Implementations must be safe to call from the single-threaded engine
/// loop but are `Send + Sync` so one store can back a future multi-device
/// run. Payloads are opaque bytes to the store; the engine frames them
/// (`shard_payload`) and verifies integrity on the way back in.
pub trait ShardStore: Send + Sync {
    /// Short human tag for decision logs and reports ("file").
    fn name(&self) -> &'static str;

    /// Persist `payload` for `shard`, replacing any previous blob.
    /// Returns the payload bytes actually held by the store — smaller
    /// than `payload.len()` when the store compresses, so spilled-byte
    /// accounting reflects what really hit the medium.
    fn put(&self, shard: u32, payload: &[u8]) -> Result<u64, StoreError>;

    /// Fetch the blob previously stored for `shard`.
    fn get(&self, shard: u32) -> Result<Vec<u8>, StoreError>;

    /// Whether a blob exists for `shard`.
    fn contains(&self, shard: u32) -> bool;
}

/// File-backed store: one blob per shard under a directory, each a
/// shard frame of the crate's one on-disk container (`shard id` in the
/// header, payload as the body, FNV-1a over the whole frame), installed
/// temp-file + rename like snapshots so a crash mid-spill never leaves a
/// readable-but-wrong blob.
///
/// With a codec armed the body is the payload's u32 little-endian words
/// stride-2 delta-coded (shard payloads interleave `(neighbor, edge id)`
/// pairs, so same-lane deltas are small), zig-zagged, and run through the
/// named [`CompressionCodec`]; the codec rides in the frame, so any store
/// reads any frame.
pub struct FileShardStore {
    dir: PathBuf,
    codec: Option<CompressionCodec>,
}

impl FileShardStore {
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self::with_codec(dir, None)
    }

    /// A store writing codec frames (`None` behaves like [`new`]).
    ///
    /// [`new`]: FileShardStore::new
    pub fn with_codec(dir: impl Into<PathBuf>, codec: Option<CompressionCodec>) -> Self {
        FileShardStore {
            dir: dir.into(),
            codec,
        }
    }

    fn name_for(shard: u32) -> String {
        format!("shard-{shard:06}.grsh")
    }
}

impl ShardStore for FileShardStore {
    fn name(&self) -> &'static str {
        "file"
    }

    fn put(&self, shard: u32, payload: &[u8]) -> Result<u64, StoreError> {
        let (framed, stored) = frame::encode(&Head::Shard { id: shard }, None, self.codec, payload);
        frame::write_atomic(&self.dir, &Self::name_for(shard), &framed)
            .map_err(|e| store_err(shard, e))?;
        Ok(stored)
    }

    fn get(&self, shard: u32) -> Result<Vec<u8>, StoreError> {
        let path = self.dir.join(Self::name_for(shard));
        match fs::read(&path) {
            Ok(buf) => decode_shard(&path, shard, &buf),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                Err(StoreError::Missing { shard })
            }
            Err(e) => Err(store_err(shard, io_err(&path, "read", e))),
        }
    }

    fn contains(&self, shard: u32) -> bool {
        self.dir.join(Self::name_for(shard)).exists()
    }
}

/// Decode the frame `buf` read from `path` as `shard`'s payload. A frame
/// of another kind or another shard (a blob renamed over this slot) is
/// refused.
pub(crate) fn decode_shard(path: &Path, shard: u32, buf: &[u8]) -> Result<Vec<u8>, StoreError> {
    let f = frame::decode(path, buf).map_err(|e| store_err(shard, e))?;
    let corrupt = |what| StoreError::Corrupt {
        shard,
        path: path.to_path_buf(),
        what,
    };
    match f.head {
        Head::Shard { id } if id == shard => {
            Ok(f.body().map_err(|e| store_err(shard, e))?.into_owned())
        }
        Head::Shard { .. } => Err(corrupt("shard id")),
        Head::State { .. } => Err(corrupt("frame kind")),
    }
}

/// The frame layer reports [`SnapshotError`]s; the store names the shard.
fn store_err(shard: u32, e: SnapshotError) -> StoreError {
    let (path, what) = match e {
        SnapshotError::Io { path, op, detail } => {
            return StoreError::Io {
                shard,
                path,
                op,
                detail,
            }
        }
        SnapshotError::ShortRead {
            path,
            offset,
            needed,
            ..
        } => {
            return StoreError::ShortRead {
                shard,
                path,
                offset,
                needed,
            }
        }
        SnapshotError::BadMagic { path } => (path, "magic"),
        SnapshotError::VersionMismatch { path, .. } => (path, "version"),
        SnapshotError::ChecksumMismatch { path, .. } => (path, "checksum"),
        SnapshotError::FingerprintMismatch { path, field, .. } => (path, field),
        SnapshotError::Corrupt { path, what, .. } => (path, what),
        SnapshotError::NoSnapshot { dir } => (dir, "frame"),
    };
    StoreError::Corrupt { shard, path, what }
}

/// Frame byte naming the body codec: 0 = varint, `k` = ζ_k.
pub(crate) fn codec_tag(codec: CompressionCodec) -> u8 {
    match codec {
        CompressionCodec::Varint => 0,
        CompressionCodec::Zeta(k) => k.clamp(1, 8) as u8,
    }
}

pub(crate) fn codec_from_tag(tag: u8) -> Option<CompressionCodec> {
    match tag {
        0 => Some(CompressionCodec::Varint),
        k @ 1..=8 => Some(CompressionCodec::Zeta(k as u32)),
        _ => None,
    }
}

/// Code an opaque frame body: the payload's u32
/// little-endian words stride-2 delta-coded against the previous word in
/// the same lane (payloads interleave `(neighbor, eid)` pairs, so lane
/// deltas are the same small gaps the shard codecs were built for),
/// zig-zagged, and written through `codec`. A non-multiple-of-4 tail
/// rides as raw bytes after the coded words.
pub(crate) fn compress_payload(codec: CompressionCodec, payload: &[u8]) -> Vec<u8> {
    let mut w = BitWriter::new();
    let (words, tail) = payload.as_chunks::<4>();
    let mut prev = [0u32; 2];
    for (i, word) in words.iter().enumerate() {
        let word = u32::from_le_bytes(*word);
        codec.write(&mut w, zigzag(word as i64 - prev[i % 2] as i64));
        prev[i % 2] = word;
    }
    for &b in tail {
        w.write_bits(b as u64, 8);
    }
    w.finish()
}

/// Exact inverse of [`compress_payload`]; `rawlen` comes from the frame
/// header. The checksum has vouched for both by the time this runs, but
/// nothing here trusts them: `None` when `z` cannot hold `rawlen` bytes'
/// worth of codes (so a bad length never sizes an allocation) or when
/// decoding runs off its end.
pub(crate) fn decompress_payload(
    codec: CompressionCodec,
    z: &[u8],
    rawlen: usize,
) -> Option<Vec<u8>> {
    let words = rawlen / 4;
    let min_bits = words as u128 * codec.min_code_bits() as u128 + (rawlen % 4) as u128 * 8;
    if min_bits > z.len() as u128 * 8 {
        return None;
    }
    let mut r = BitReader::new(z, 0);
    let mut out = Vec::with_capacity(rawlen);
    let mut prev = [0u32; 2];
    for i in 0..words {
        let word = (prev[i % 2] as i64 + unzigzag(codec.read(&mut r))) as u32;
        out.extend_from_slice(&word.to_le_bytes());
        prev[i % 2] = word;
    }
    for _ in 0..rawlen % 4 {
        out.push(r.read_bits(8) as u8);
    }
    (!r.overrun()).then_some(out)
}

/// Serialize a shard's topology — its slice of the CSC/CSR adjacency as
/// `(neighbor, edge id)` pairs over the owned vertex interval — into the
/// bytes the store holds. This is what a real out-of-core engine would
/// evict; sizes track the size model's per-shard footprint, so spilled
/// bytes in reports are honest.
pub(crate) fn shard_payload(layout: &GraphLayout, shard: &Shard) -> Vec<u8> {
    let in_count = shard.in_edges.len();
    let out_count = shard.out_edges.len();
    let mut out = Vec::with_capacity(16 + (in_count + out_count) * 8);
    out.extend_from_slice(&(in_count as u64).to_le_bytes());
    out.extend_from_slice(&(out_count as u64).to_le_bytes());
    for v in shard.interval.start..shard.interval.end {
        for (nbr, eid) in layout.csc.entries(v) {
            out.extend_from_slice(&nbr.to_le_bytes());
            out.extend_from_slice(&eid.to_le_bytes());
        }
        for (nbr, eid) in layout.csr.entries(v) {
            out.extend_from_slice(&nbr.to_le_bytes());
            out.extend_from_slice(&eid.to_le_bytes());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::fnv1a;

    fn tmpdir(tag: &str) -> PathBuf {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!("gr-store-{tag}-{}-{seq}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn file_store_round_trips_through_disk() {
        let dir = tmpdir("rt");
        let s = FileShardStore::new(&dir);
        assert_eq!(s.get(0), Err(StoreError::Missing { shard: 0 }));
        s.put(0, &[7u8; 1000]).unwrap();
        s.put(1, &[]).unwrap();
        assert!(s.contains(0) && s.contains(1) && !s.contains(2));
        assert_eq!(s.get(0).unwrap(), vec![7u8; 1000]);
        assert_eq!(s.get(1).unwrap(), Vec::<u8>::new());
        s.put(0, b"replaced").unwrap();
        assert_eq!(s.get(0).unwrap(), b"replaced");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_store_detects_corruption_truncation_and_id_swaps() {
        let dir = tmpdir("corrupt");
        let s = FileShardStore::new(&dir);
        s.put(5, b"payload bytes here").unwrap();
        let path = dir.join("shard-000005.grsh");
        let good = fs::read(&path).unwrap();

        // Bit flip in the payload -> checksum.
        let mut bad = good.clone();
        bad[18] ^= 1;
        fs::write(&path, &bad).unwrap();
        assert!(matches!(
            s.get(5),
            Err(StoreError::Corrupt {
                what: "checksum",
                ..
            })
        ));

        // Truncation past the preamble -> the checksum, as for snapshots.
        fs::write(&path, &good[..good.len() - 4]).unwrap();
        assert!(matches!(
            s.get(5),
            Err(StoreError::Corrupt {
                what: "checksum",
                ..
            })
        ));
        // A cut inside the magic + version preamble -> short read with
        // offsets.
        fs::write(&path, &good[..6]).unwrap();
        match s.get(5) {
            Err(StoreError::ShortRead { offset, needed, .. }) => {
                assert_eq!((offset, needed), (4, 2))
            }
            other => panic!("expected short read, got {other:?}"),
        }

        // A blob renamed over another shard's slot -> id mismatch.
        fs::write(&path, &good).unwrap();
        fs::copy(&path, dir.join("shard-000009.grsh")).unwrap();
        assert!(matches!(
            s.get(9),
            Err(StoreError::Corrupt {
                what: "shard id",
                ..
            })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn v2_frames_round_trip_and_shrink_real_payloads() {
        let layout = GraphLayout::build(&gr_graph::gen::rmat_g500(9, 4096, 7).symmetrize());
        let shards = gr_graph::build_shards(&layout, &gr_graph::partition_even_edges(&layout, 4));
        let dir = tmpdir("v2");
        for codec in [CompressionCodec::Varint, CompressionCodec::Zeta(3)] {
            let s = FileShardStore::with_codec(&dir, Some(codec));
            for (i, sh) in shards.iter().enumerate() {
                let payload = shard_payload(&layout, sh);
                let stored = s.put(i as u32, &payload).unwrap();
                assert!(
                    stored < payload.len() as u64,
                    "{}: stored {stored} >= raw {}",
                    codec.name(),
                    payload.len()
                );
                assert_eq!(s.get(i as u32).unwrap(), payload, "{}", codec.name());
            }
        }
        // Odd-length payloads (raw tail bytes) survive too.
        let s = FileShardStore::with_codec(&dir, Some(CompressionCodec::Varint));
        for odd in [b"x".as_slice(), b"seven by", b"payload bytes here!"] {
            s.put(9, odd).unwrap();
            assert_eq!(s.get(9).unwrap(), odd);
        }
        s.put(9, &[]).unwrap();
        assert_eq!(s.get(9).unwrap(), Vec::<u8>::new());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn any_store_reads_raw_and_coded_frames() {
        // The codec rides in the frame, not the store config.
        let dir = tmpdir("compat");
        let raw = FileShardStore::new(&dir);
        assert_eq!(raw.put(2, b"written without a codec").unwrap(), 23);
        let coded = FileShardStore::with_codec(&dir, Some(CompressionCodec::Zeta(3)));
        assert!(coded.contains(2));
        assert_eq!(coded.get(2).unwrap(), b"written without a codec");
        coded.put(3, b"compressed frame").unwrap();
        assert_eq!(raw.get(3).unwrap(), b"compressed frame");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compressed_frames_detect_truncation_and_bit_flips() {
        let dir = tmpdir("v2corrupt");
        let s = FileShardStore::with_codec(&dir, Some(CompressionCodec::Zeta(3)));
        s.put(5, b"payload bytes here, long enough to damage")
            .unwrap();
        let path = dir.join("shard-000005.grsh");
        let good = fs::read(&path).unwrap();

        // Bit flip inside the compressed payload -> checksum, never a
        // garbage decode.
        let mut bad = good.clone();
        bad[28] ^= 0x10;
        fs::write(&path, &bad).unwrap();
        assert!(matches!(
            s.get(5),
            Err(StoreError::Corrupt {
                what: "checksum",
                ..
            })
        ));

        // Flip the codec tag (byte 14) -> checksum catches that too.
        let mut bad = good.clone();
        bad[14] ^= 0xff;
        fs::write(&path, &bad).unwrap();
        assert!(matches!(s.get(5), Err(StoreError::Corrupt { .. })));

        // Truncation -> the checksum, never a short decode.
        fs::write(&path, &good[..good.len() - 3]).unwrap();
        assert!(matches!(
            s.get(5),
            Err(StoreError::Corrupt {
                what: "checksum",
                ..
            })
        ));

        fs::write(&path, &good).unwrap();
        assert_eq!(
            s.get(5).unwrap(),
            b"payload bytes here, long enough to damage"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    /// `framed` with its trailing checksum recomputed: damage that gets
    /// past the FNV check (a collision, or a frame written wrong).
    fn rechecksummed(mut framed: Vec<u8>) -> Vec<u8> {
        let body = framed.len() - 8;
        let sum = fnv1a(&framed[..body]);
        framed[body..].copy_from_slice(&sum.to_le_bytes());
        framed
    }

    #[test]
    fn payload_decoder_is_total_on_truncated_flipped_and_spliced_streams() {
        let layout = GraphLayout::build(&gr_graph::gen::rmat_g500(8, 2048, 3).symmetrize());
        let shards = gr_graph::build_shards(&layout, &gr_graph::partition_even_edges(&layout, 2));
        let mut payload = shard_payload(&layout, &shards[0]);
        payload.extend_from_slice(b"odd"); // raw tail bytes
        for codec in [
            CompressionCodec::Varint,
            CompressionCodec::Zeta(1),
            CompressionCodec::Zeta(3),
        ] {
            let z = compress_payload(codec, &payload);
            let rawlen = payload.len();
            assert_eq!(decompress_payload(codec, &z, rawlen), Some(payload.clone()));
            // Truncated anywhere: decoding runs off the end and says so.
            for cut in (0..z.len()).step_by(7).chain([z.len() - 1]) {
                assert_eq!(
                    decompress_payload(codec, &z[..cut], rawlen),
                    None,
                    "cut {cut}"
                );
            }
            // A flipped bit decodes to other bytes or is refused; it never
            // panics and never yields the wrong length.
            for bit in (0..z.len() * 8).step_by(101) {
                let mut bad = z.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                if let Some(out) = decompress_payload(codec, &bad, rawlen) {
                    assert_eq!(out.len(), rawlen);
                    assert_ne!(out, payload, "bit {bit}");
                }
            }
            // Spliced lengths: more bytes than the stream can code for are
            // refused before anything is allocated for them.
            for huge in [rawlen * 40, usize::MAX / 2, usize::MAX] {
                assert_eq!(decompress_payload(codec, &z, huge), None);
            }
            assert_eq!(decompress_payload(codec, &[], 4), None);
            assert_eq!(decompress_payload(codec, &[], 0), Some(Vec::new()));
            // Another codec's stream under this tag.
            let other = compress_payload(CompressionCodec::Zeta(2), &payload);
            if let Some(out) = decompress_payload(codec, &other, rawlen) {
                assert_ne!(out, payload);
            }
        }
        // Streams no writer produces: a varint that never stops, a ζ
        // prefix that never ends.
        assert_eq!(
            decompress_payload(CompressionCodec::Varint, &[0xff; 64], 32),
            None
        );
        assert_eq!(
            decompress_payload(CompressionCodec::Zeta(3), &[0x00; 64], 32),
            None
        );
    }

    #[test]
    fn damaged_v2_frames_with_valid_checksums_are_typed_errors() {
        let dir = tmpdir("v2payload");
        let s = FileShardStore::with_codec(&dir, Some(CompressionCodec::Zeta(3)));
        let payload: Vec<u8> = (0..4000u32).flat_map(|i| (i * i).to_le_bytes()).collect();
        s.put(4, &payload).unwrap();
        let path = dir.join("shard-000004.grsh");
        let good = fs::read(&path).unwrap();
        let corrupt_payload = |framed: Vec<u8>| {
            fs::write(&path, rechecksummed(framed)).unwrap();
            assert!(
                matches!(
                    s.get(4),
                    Err(StoreError::Corrupt {
                        what: "compressed payload",
                        ..
                    })
                ),
                "{:?}",
                s.get(4).map(|p| p.len())
            );
        };

        // The header: magic, version, kind, flags, shard id (14 B), codec
        // tag, raw body length (bytes 15..23); the coded body from 23.
        // rawlen inflated past what the stream can hold.
        for rawlen in [u64::MAX, 1 << 40, payload.len() as u64 * 64] {
            let mut bad = good.clone();
            bad[15..23].copy_from_slice(&rawlen.to_le_bytes());
            corrupt_payload(bad);
        }
        // The coded body truncated.
        let mut bad = good[..good.len() - 8 - 100].to_vec();
        bad.extend_from_slice(&[0; 8]);
        corrupt_payload(bad);
        // The body zeroed: ζ prefixes that never end.
        let mut bad = good.clone();
        let end = bad.len() - 8;
        bad[23..end].fill(0);
        corrupt_payload(bad);

        fs::write(&path, &good).unwrap();
        assert_eq!(s.get(4).unwrap(), payload);
        fs::remove_dir_all(&dir).unwrap();
    }
}
