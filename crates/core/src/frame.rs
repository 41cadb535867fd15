//! The one on-disk frame: every durable snapshot (full or delta) and every
//! spilled shard blob is this container, written by [`encode`], read by
//! [`decode`], sealed by one FNV-1a checksum and installed by
//! [`write_atomic`].
//!
//! ```text
//! "GRFR" | version u32 | kind u8 | flags u8
//!   | fixed fields of the kind:
//!       full  : fingerprint | iterations u32
//!       delta : fingerprint | iterations u32 | base iterations u32
//!       shard : shard id u32
//!   | [flags & 1] placement: device count u32 | shards u32 | owner u32 × shards
//!   | [flags & 2] codec tag u8 | raw body length u64
//!   | body (coded when flags & 2)
//!   | fnv1a-64 over every preceding byte
//! fingerprint = algorithm (len u32 + bytes) | graph u64 | state layout u64 | n u32 | m u64
//! ```
//!
//! The header always stays raw, so a caller can vet it (a fingerprint
//! mismatch fails fast) before [`Frame::body`] decompresses anything. The
//! field order is fixed: there is one version and no compatibility read,
//! so no reader ever skips a section it does not know. See
//! `docs/DURABILITY.md`.

use std::borrow::Cow;
use std::fs;
use std::io::Write as _;
use std::path::Path;

use gr_graph::{Bitmap, CompressionCodec};

use crate::snapshot::{fnv1a, io_err, Fingerprint, SnapshotError, StateBytes};
use crate::store::{codec_from_tag, codec_tag, compress_payload, decompress_payload};

/// Magic bytes opening every frame.
const MAGIC: [u8; 4] = *b"GRFR";

/// Frame format version; a mismatch fails fast with
/// [`SnapshotError::VersionMismatch`].
pub(crate) const VERSION: u32 = 1;

const KIND_FULL: u8 = 0;
const KIND_DELTA: u8 = 1;
const KIND_SHARD: u8 = 2;
const FLAG_PLACEMENT: u8 = 1;
const FLAG_CODEC: u8 = 2;

/// What a frame holds: the kind and its fixed header fields.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Head {
    /// Host master state at an iteration boundary: a full snapshot, or
    /// with `base` a delta against the full snapshot at that boundary.
    State {
        fp: Fingerprint,
        iterations: u32,
        base: Option<u32>,
    },
    /// One spilled shard's topology payload.
    Shard { id: u32 },
}

/// The cluster context a multi-GPU snapshot was taken under: the device
/// count and the owning device of every shard.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Placement {
    pub(crate) num_gpus: u32,
    pub(crate) owners: Vec<u32>,
}

/// A frame whose magic, version and checksum held and whose header
/// parsed; the body is still as stored.
pub(crate) struct Frame<'a> {
    pub(crate) head: Head,
    pub(crate) placement: Option<Placement>,
    codec: Option<(CompressionCodec, u64)>,
    body: &'a [u8],
    body_at: usize,
    path: &'a Path,
}

impl<'a> Frame<'a> {
    /// The body, decoded if the frame is coded. The decoder is total: a
    /// raw length the stored bytes cannot code for is refused before it
    /// sizes anything.
    pub(crate) fn body(&self) -> Result<Cow<'a, [u8]>, SnapshotError> {
        let Some((codec, raw_len)) = self.codec else {
            return Ok(Cow::Borrowed(self.body));
        };
        usize::try_from(raw_len)
            .ok()
            .and_then(|len| decompress_payload(codec, self.body, len))
            .map(Cow::Owned)
            .ok_or_else(|| SnapshotError::Corrupt {
                path: self.path.to_path_buf(),
                offset: self.body_at as u64,
                what: "compressed payload",
            })
    }
}

/// Frame `body` under `head`, recording `placement` and coding the body
/// through `codec` when given. Returns the frame and the body bytes it
/// stores (the coded length when coded).
pub(crate) fn encode(
    head: &Head,
    placement: Option<&Placement>,
    codec: Option<CompressionCodec>,
    body: &[u8],
) -> (Vec<u8>, u64) {
    let coded = codec.map(|c| compress_payload(c, body));
    let stored = coded.as_deref().unwrap_or(body);
    let owners = placement.map_or(0, |p| p.owners.len());
    let mut out = Vec::with_capacity(96 + 4 * owners + stored.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.push(match head {
        Head::State { base: None, .. } => KIND_FULL,
        Head::State { base: Some(_), .. } => KIND_DELTA,
        Head::Shard { .. } => KIND_SHARD,
    });
    let placement_flag = if placement.is_some() {
        FLAG_PLACEMENT
    } else {
        0
    };
    out.push(placement_flag | if codec.is_some() { FLAG_CODEC } else { 0 });
    match head {
        Head::State {
            fp,
            iterations,
            base,
        } => {
            out.extend_from_slice(&(fp.algorithm.len() as u32).to_le_bytes());
            out.extend_from_slice(fp.algorithm.as_bytes());
            out.extend_from_slice(&fp.graph.to_le_bytes());
            out.extend_from_slice(&fp.state.to_le_bytes());
            out.extend_from_slice(&fp.n.to_le_bytes());
            out.extend_from_slice(&fp.m.to_le_bytes());
            out.extend_from_slice(&iterations.to_le_bytes());
            if let Some(base) = base {
                out.extend_from_slice(&base.to_le_bytes());
            }
        }
        Head::Shard { id } => out.extend_from_slice(&id.to_le_bytes()),
    }
    if let Some(p) = placement {
        out.extend_from_slice(&p.num_gpus.to_le_bytes());
        out.extend_from_slice(&(owners as u32).to_le_bytes());
        for o in &p.owners {
            out.extend_from_slice(&o.to_le_bytes());
        }
    }
    if let Some(c) = codec {
        out.push(codec_tag(c));
        out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    }
    out.extend_from_slice(stored);
    let checksum = fnv1a(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    (out, stored.len() as u64)
}

/// Validate and parse one frame: magic and version (mismatches fail fast),
/// then the checksum over the whole frame *before any field is believed*,
/// then the header. Every count is checked against the bytes left.
pub(crate) fn decode<'a>(path: &'a Path, buf: &'a [u8]) -> Result<Frame<'a>, SnapshotError> {
    let mut r = Reader::new(path, buf);
    if r.take(4, "magic")? != MAGIC {
        return Err(SnapshotError::BadMagic {
            path: path.to_path_buf(),
        });
    }
    let version = r.u32("version")?;
    if version != VERSION {
        return Err(SnapshotError::VersionMismatch {
            path: path.to_path_buf(),
            found: version,
            expected: VERSION,
        });
    }
    let fields_at = r.pos;
    // The last 8 bytes; a short read when they would overlap the version.
    let end = buf.len() - 8;
    r.pos = r.pos.max(end);
    let stored = r.u64("checksum")?;
    let computed = fnv1a(&buf[..end]);
    if stored != computed {
        return Err(SnapshotError::ChecksumMismatch {
            path: path.to_path_buf(),
            stored,
            computed,
        });
    }
    let mut r = Reader {
        buf: &buf[..end],
        pos: fields_at,
        path,
    };
    let [kind, flags] = r.array("frame kind and flags")?;
    if flags & !(FLAG_PLACEMENT | FLAG_CODEC) != 0 {
        return Err(r.corrupt_at(fields_at + 1, "frame flags"));
    }
    let head = match kind {
        KIND_FULL | KIND_DELTA => Head::State {
            fp: fingerprint(&mut r)?,
            iterations: r.u32("iteration count")?,
            base: (kind == KIND_DELTA)
                .then(|| r.u32("base iteration count"))
                .transpose()?,
        },
        KIND_SHARD => Head::Shard {
            id: r.u32("shard id")?,
        },
        _ => return Err(r.corrupt_at(fields_at, "frame kind")),
    };
    let placement = if flags & FLAG_PLACEMENT != 0 {
        let num_gpus = r.u32("device count")?;
        let shards = r.u32("placement map length")?;
        let map = r.take(u64::from(shards) * 4, "placement map")?;
        let owners = map.as_chunks::<4>().0;
        Some(Placement {
            num_gpus,
            owners: owners.iter().map(|o| u32::from_le_bytes(*o)).collect(),
        })
    } else {
        None
    };
    let codec = if flags & FLAG_CODEC != 0 {
        let [tag] = r.array("codec tag")?;
        let codec = codec_from_tag(tag).ok_or_else(|| r.corrupt_at(r.pos - 1, "codec tag"))?;
        Some((codec, r.u64("raw body length")?))
    } else {
        None
    };
    Ok(Frame {
        head,
        placement,
        codec,
        body: &r.buf[r.pos..],
        body_at: r.pos,
        path,
    })
}

fn fingerprint(r: &mut Reader<'_>) -> Result<Fingerprint, SnapshotError> {
    let len = r.u32("algorithm name length")?;
    Ok(Fingerprint {
        algorithm: String::from_utf8_lossy(r.take(len.into(), "algorithm name")?).into_owned(),
        graph: r.u64("graph fingerprint")?,
        state: r.u64("state fingerprint")?,
        n: r.u32("vertex count")?,
        m: r.u64("edge count")?,
    })
}

/// Write `bytes` to `dir/name` atomically: `.tmp` + fsync + rename, so a
/// crash mid-write never leaves a half file under a valid name. Returns
/// bytes written. The one writer behind snapshots and spilled shards.
pub(crate) fn write_atomic(dir: &Path, name: &str, bytes: &[u8]) -> Result<u64, SnapshotError> {
    fs::create_dir_all(dir).map_err(|e| io_err(dir, "create directory", e))?;
    let finalp = dir.join(name);
    let tmp = dir.join(format!("{name}.tmp"));
    {
        let mut f = fs::File::create(&tmp).map_err(|e| io_err(&tmp, "create", e))?;
        f.write_all(bytes).map_err(|e| io_err(&tmp, "write", e))?;
        f.sync_all().map_err(|e| io_err(&tmp, "sync", e))?;
    }
    fs::rename(&tmp, &finalp).map_err(|e| io_err(&finalp, "rename into place", e))?;
    // The rename survives a crash only once the directory entry does.
    let synced = fs::File::open(dir).and_then(|d| d.sync_all());
    synced.map_err(|e| io_err(dir, "sync directory", e))?;
    Ok(bytes.len() as u64)
}

/// Bounded little-endian reader with byte-offset error context. Every
/// read checks the bytes left first, so no count read from a file sizes
/// an allocation or drives a loop past what the buffer holds.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    pub(crate) path: &'a Path,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(path: &'a Path, buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0, path }
    }

    pub(crate) fn take(&mut self, n: u64, what: &'static str) -> Result<&'a [u8], SnapshotError> {
        let left = (self.buf.len() - self.pos) as u64;
        if n > left {
            return Err(SnapshotError::ShortRead {
                path: self.path.to_path_buf(),
                offset: self.pos as u64,
                needed: n - left,
                what,
            });
        }
        let s = &self.buf[self.pos..self.pos + n as usize];
        self.pos += n as usize;
        Ok(s)
    }

    fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], SnapshotError> {
        let mut a = [0; N];
        a.copy_from_slice(self.take(N as u64, what)?);
        Ok(a)
    }

    pub(crate) fn u32(&mut self, what: &'static str) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.array(what)?))
    }

    pub(crate) fn u64(&mut self, what: &'static str) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.array(what)?))
    }

    /// `count` fixed-width values. A zero-width type occupies no bytes,
    /// so its count must be bounded by the caller (the fingerprint's n
    /// and m, which the decoder checks first).
    pub(crate) fn values<V: StateBytes>(
        &mut self,
        count: u64,
        what: &'static str,
    ) -> Result<Vec<V>, SnapshotError> {
        let raw = self.take(count.saturating_mul(V::BYTES as u64), what)?;
        if V::BYTES == 0 {
            return Ok((0..count).map(|_| V::read_bytes(raw)).collect());
        }
        Ok(raw.chunks_exact(V::BYTES).map(V::read_bytes).collect())
    }

    pub(crate) fn bitmap(&mut self, len: u32, what: &'static str) -> Result<Bitmap, SnapshotError> {
        let at = self.pos;
        let raw = self.take(u64::from(len.div_ceil(64)) * 8, what)?;
        let words = raw.as_chunks::<8>().0;
        let words = words.iter().map(|w| u64::from_le_bytes(*w)).collect();
        Bitmap::from_words(len, words).ok_or_else(|| self.corrupt_at(at, what))
    }

    /// The whole buffer was consumed: a frame carries nothing its fields
    /// do not account for.
    pub(crate) fn finish(self) -> Result<(), SnapshotError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(self.corrupt_at(self.pos, "trailing bytes"))
        }
    }

    fn corrupt_at(&self, offset: usize, what: &'static str) -> SnapshotError {
        SnapshotError::Corrupt {
            path: self.path.to_path_buf(),
            offset: offset as u64,
            what,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::host::HostState;
    use crate::snapshot::{decode_state, encode_state, fingerprint_for};
    use crate::stats::IterationStats;
    use crate::store::decode_shard;
    use crate::testprog::Cc;
    use gr_graph::{gen, GraphLayout};

    #[test]
    fn placement_and_codec_round_trip_beside_every_kind() {
        let layout = GraphLayout::build(&gen::uniform(40, 120, 2).symmetrize());
        let fp = fingerprint_for(&Cc, &layout);
        let placement = Placement {
            num_gpus: 3,
            owners: vec![0, 1, 2, 0, 1],
        };
        let body: Vec<u8> = (0..203u32).flat_map(|i| (i * 7).to_le_bytes()).collect();
        let path = Path::new("mem");
        for head in [
            Head::State {
                fp: fp.clone(),
                iterations: 4,
                base: None,
            },
            Head::State {
                fp: fp.clone(),
                iterations: 4,
                base: Some(2),
            },
            Head::Shard { id: 9 },
        ] {
            for codec in [None, Some(CompressionCodec::Zeta(3))] {
                for p in [None, Some(&placement)] {
                    let (framed, stored) = encode(&head, p, codec, &body);
                    let f = decode(path, &framed).unwrap();
                    assert_eq!(f.head, head);
                    assert_eq!(f.placement.as_ref(), p);
                    assert_eq!(f.body().unwrap(), body);
                    assert_eq!(stored < body.len() as u64, codec.is_some());
                    // Any flipped bit fails the one checksum.
                    let mut bad = framed.clone();
                    bad[framed.len() / 2] ^= 0x04;
                    assert!(matches!(
                        decode(path, &bad),
                        Err(SnapshotError::ChecksumMismatch { .. })
                    ));
                }
            }
        }
    }

    /// splitmix64: the harness's seeded case generator.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n.max(1) as u64) as usize
        }
    }

    /// The five frame kinds the harness mutates: full; delta; delta with
    /// placement and codec; raw shard; coded shard.
    fn corpus(fp: &Fingerprint, host: &HostState<Cc>) -> Vec<Vec<u8>> {
        let mut dirty = Bitmap::new(fp.n);
        for v in [1, 7, 30, fp.n - 1] {
            dirty.set(v);
        }
        let placement = Placement {
            num_gpus: 2,
            owners: vec![0, 1, 1, 0],
        };
        let zeta = Some(CompressionCodec::Zeta(3));
        let payload: Vec<u8> = (0..96u32).flat_map(|i| (i * i).to_le_bytes()).collect();
        vec![
            encode_state(fp, host, None, None, None).0,
            encode_state(fp, host, Some((2, &dirty)), None, None).0,
            encode_state(fp, host, Some((2, &dirty)), Some(&placement), zeta).0,
            encode(&Head::Shard { id: 5 }, None, None, &payload).0,
            encode(&Head::Shard { id: 5 }, None, zeta, &payload).0,
        ]
    }

    /// Recompute the trailing checksum so a mutation reaches the parsers.
    fn reseal(buf: &mut [u8]) {
        if let Some(end) = buf.len().checked_sub(8) {
            let sum = fnv1a(&buf[..end]);
            buf[end..].copy_from_slice(&sum.to_le_bytes());
        }
    }

    /// The contract: a typed error, or a value whose lengths match the
    /// frame's n and m. A panic fails the test.
    fn check(fp: &Fingerprint, kind: usize, buf: &[u8]) {
        let path = Path::new("fuzz");
        if kind >= 3 {
            let _ = decode_shard(path, 5, buf);
            return;
        }
        let Ok(r) = decode_state::<Cc>(path, buf, fp) else {
            return;
        };
        let s = &r.state;
        let vertices = r
            .delta
            .as_ref()
            .map_or(u64::from(fp.n), |d| d.dirty.count());
        assert_eq!(s.vertex_values.len() as u64, vertices);
        assert_eq!(s.gather_temp.len() as u64, vertices);
        assert_eq!(s.edge_values.len() as u64, fp.m);
        for b in [&s.frontier, &s.changed, &s.next_frontier] {
            assert_eq!(b.len(), fp.n);
        }
        if let Some(d) = &r.delta {
            assert_eq!(d.dirty.len(), fp.n);
            assert!(d.base_iterations < s.iterations.len() as u32);
        }
    }

    /// Seeded mutation fuzz: 10 000 cases of one mutation on each of the
    /// five frame kinds, half of them resealed.
    fn fuzz(mutate: impl Fn(&mut Rng, &[Vec<u8>], usize) -> Vec<u8>) {
        let layout = GraphLayout::build(&gen::uniform(40, 100, 3).symmetrize());
        let fp = fingerprint_for(&Cc, &layout);
        let mut host = HostState::<Cc>::cold(&Cc, &layout);
        host.changed.set(3);
        host.iterations = vec![IterationStats::default(); 3];
        let frames = corpus(&fp, &host);
        let mut rng = Rng(0x5eed);
        for case in 0..10_000 * frames.len() {
            let kind = case % frames.len();
            let mut buf = mutate(&mut rng, &frames, kind);
            if case % 2 == 0 {
                reseal(&mut buf);
            }
            check(&fp, kind, &buf);
        }
    }

    #[test]
    fn fuzz_bit_flips_never_panic() {
        fuzz(|rng, frames, kind| {
            let mut buf = frames[kind].clone();
            for _ in 0..1 + rng.below(3) {
                let bit = rng.below(buf.len() * 8);
                buf[bit / 8] ^= 1 << (bit % 8);
            }
            buf
        });
    }

    #[test]
    fn fuzz_truncations_never_panic() {
        fuzz(|rng, frames, kind| {
            let buf = &frames[kind];
            buf[..rng.below(buf.len())].to_vec()
        });
    }

    #[test]
    fn fuzz_splices_never_panic() {
        // Replace a run of one frame with a run of another (or itself).
        fuzz(|rng, frames, kind| {
            let buf = &frames[kind];
            let donor = &frames[rng.below(frames.len())];
            let at = rng.below(buf.len());
            let cut = at + rng.below(buf.len() - at + 1);
            let from = rng.below(donor.len());
            let to = from + rng.below(donor.len() - from + 1);
            [&buf[..at], &donor[from..to], &buf[cut..]].concat()
        });
    }
}
