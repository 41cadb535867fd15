//! Delta snapshots and the compressed snapshot container.
//!
//! A delta snapshot ("GRCD") holds only the vertices whose state changed
//! since the last *full* snapshot ("GRCK", see [`crate::snapshot`]): the
//! dirty bitmap, the dirty vertices' values and gather temps, the edge
//! values, the three frontier bitmaps, and the full iteration trace.
//! Deltas are cumulative against their base full snapshot, so a restore
//! chain is always exactly one full plus at most one delta — there is no
//! unbounded replay of delta files. Gather temps of *clean* vertices may
//! be stale after a delta restore; that is safe because the engine writes
//! a vertex's gather slot before reading it in every iteration the vertex
//! is active (see [`crate::phases`]), so stale slots are never observed.
//!
//! The compressed container ("GRCZ") optionally wraps any snapshot-family
//! file through the shard store's [`CompressionCodec`], preserving the
//! inner file's raw length and its own whole-file checksum.
//!
//! `load_newest` is the one resume entry point: it scans fulls and
//! deltas together, prefers the highest iteration boundary, unwraps
//! compression and multi-GPU ("GRCM") containers, and falls back to older
//! intact files on corruption exactly like the full-snapshot loader.

use std::fs;
use std::path::{Path, PathBuf};

use gr_graph::{Bitmap, CompressionCodec};

use crate::api::GasProgram;
use crate::snapshot::{
    check_envelope, check_fingerprint, decode_snapshot, encode_envelope_header, fnv1a, io_err,
    put_bitmap, put_values, snapshot_files, snapshot_name, Fingerprint, RestoredState,
    SnapshotError, StateBytes, SNAPSHOTS_RETAINED, TRACE_ENTRY_BYTES,
};
use crate::snapshot_multi::{unwrap_if_multi, MultiPlacement};
use crate::stats::IterationStats;
use crate::store::{codec_from_tag, codec_tag, compress_payload, decompress_payload};

/// Magic bytes opening every delta snapshot file.
pub const DELTA_MAGIC: [u8; 4] = *b"GRCD";

/// Magic bytes opening a compression-wrapped snapshot-family file.
pub const COMPRESSED_MAGIC: [u8; 4] = *b"GRCZ";

/// Where a delta restore left the incremental-write chain: the resumed
/// run's `DurableWriter` continues accumulating onto this dirty set
/// against the same base full snapshot.
#[derive(Clone, Debug)]
pub(crate) struct DeltaChain {
    /// Iteration boundary of the base full snapshot the delta applied to.
    pub(crate) base_iterations: u32,
    /// Vertices dirty since that base (cumulative).
    pub(crate) dirty: Bitmap,
}

/// Delta filename for a given completed-iteration count.
pub(crate) fn delta_name(iterations: u32) -> String {
    format!("delta-{iterations:08}.grcd")
}

fn parse_delta_name(name: &str) -> Option<u32> {
    name.strip_prefix("delta-")?
        .strip_suffix(".grcd")?
        .parse()
        .ok()
}

/// All delta files under `dir`, newest (highest iteration) first.
fn delta_files(dir: &Path) -> Result<Vec<(u32, PathBuf)>, SnapshotError> {
    let entries = fs::read_dir(dir).map_err(|e| io_err(dir, "read directory", e))?;
    let mut found = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, "read directory entry", e))?;
        let name = entry.file_name();
        if let Some(iters) = name.to_str().and_then(parse_delta_name) {
            found.push((iters, entry.path()));
        }
    }
    found.sort_by_key(|&(iters, _)| std::cmp::Reverse(iters));
    Ok(found)
}

/// Prune delta files: keep the [`SNAPSHOTS_RETAINED`] newest, and drop
/// every delta at or below `obsolete_upto` (a freshly written full
/// snapshot makes all earlier deltas redundant).
pub(crate) fn prune_deltas(dir: &Path, obsolete_upto: Option<u32>) -> Result<(), SnapshotError> {
    for (i, (iters, path)) in delta_files(dir)?.into_iter().enumerate() {
        if i >= SNAPSHOTS_RETAINED || obsolete_upto.is_some_and(|upto| iters <= upto) {
            fs::remove_file(&path).map_err(|e| io_err(&path, "prune", e))?;
        }
    }
    Ok(())
}

/// Serialize one delta snapshot (checksum included) to bytes. `dirty`
/// must be cumulative since the full snapshot at `base_iterations`.
#[allow(clippy::too_many_arguments)] // mirrors the HostState fields 1:1
pub(crate) fn encode_delta<P: GasProgram>(
    fp: &Fingerprint,
    base_iterations: u32,
    dirty: &Bitmap,
    vertex_values: &[P::VertexValue],
    edge_values: &[P::EdgeValue],
    gather_temp: &[P::Gather],
    frontier: &Bitmap,
    changed: &Bitmap,
    next_frontier: &Bitmap,
    trace: &[IterationStats],
) -> Vec<u8> {
    let n = vertex_values.len() as u32;
    let m = edge_values.len() as u64;
    let words = (n as usize).div_ceil(64);
    let ndirty = dirty.count() as usize;
    let mut out = Vec::with_capacity(
        72 + fp.algorithm.len()
            + ndirty * (P::VertexValue::BYTES + P::Gather::BYTES)
            + edge_values.len() * P::EdgeValue::BYTES
            + 4 * words * 8
            + trace.len() * TRACE_ENTRY_BYTES,
    );
    encode_envelope_header(&mut out, &DELTA_MAGIC, fp);
    out.extend_from_slice(&n.to_le_bytes());
    out.extend_from_slice(&m.to_le_bytes());
    out.extend_from_slice(&(trace.len() as u32).to_le_bytes());
    out.extend_from_slice(&base_iterations.to_le_bytes());
    put_bitmap(&mut out, dirty);
    let mut vbuf = vec![0u8; P::VertexValue::BYTES];
    let mut gbuf = vec![0u8; P::Gather::BYTES];
    for v in dirty.iter_set() {
        vertex_values[v as usize].write_bytes(&mut vbuf);
        out.extend_from_slice(&vbuf);
        gather_temp[v as usize].write_bytes(&mut gbuf);
        out.extend_from_slice(&gbuf);
    }
    put_values(&mut out, edge_values);
    put_bitmap(&mut out, frontier);
    put_bitmap(&mut out, changed);
    put_bitmap(&mut out, next_frontier);
    for it in trace {
        out.extend_from_slice(&it.frontier_size.to_le_bytes());
        out.extend_from_slice(&it.gathered_edges.to_le_bytes());
        out.extend_from_slice(&it.changed.to_le_bytes());
        out.extend_from_slice(&it.activated.to_le_bytes());
        out.extend_from_slice(&it.shards_processed.to_le_bytes());
        out.extend_from_slice(&it.shards_skipped.to_le_bytes());
    }
    let checksum = fnv1a(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// A decoded delta, not yet applied to its base full snapshot.
struct DeltaDecoded<P: GasProgram> {
    base_iterations: u32,
    dirty: Bitmap,
    /// `(value, gather)` pairs in `dirty.iter_set()` order.
    updates: Vec<(P::VertexValue, P::Gather)>,
    edge_values: Vec<P::EdgeValue>,
    frontier: Bitmap,
    changed: Bitmap,
    next_frontier: Bitmap,
    trace: Vec<IterationStats>,
}

fn decode_delta<P: GasProgram>(
    path: &Path,
    buf: &[u8],
    fp: &Fingerprint,
) -> Result<DeltaDecoded<P>, SnapshotError> {
    let mut r = check_envelope(path, buf, &DELTA_MAGIC)?;
    check_fingerprint(&mut r, fp)?;
    let n = r.u32("vertex count")?;
    let m = r.u64("edge count")?;
    let iters = r.u32("iteration count")? as usize;
    let base_iterations = r.u32("base iteration count")?;
    if base_iterations as usize >= iters.max(1) {
        return Err(SnapshotError::Corrupt {
            path: path.to_path_buf(),
            offset: r.pos as u64 - 4,
            what: "base iteration count",
        });
    }
    let dirty = r.bitmap(n, "dirty bitmap")?;
    let mut updates = Vec::with_capacity(dirty.count() as usize);
    for _ in 0..dirty.count() {
        let v = r
            .values::<P::VertexValue>(1, "dirty vertex value")?
            .pop()
            .unwrap();
        let g = r
            .values::<P::Gather>(1, "dirty gather temp")?
            .pop()
            .unwrap();
        updates.push((v, g));
    }
    let edge_values = r.values::<P::EdgeValue>(m as usize, "edge values")?;
    let frontier = r.bitmap(n, "frontier bitmap")?;
    let changed = r.bitmap(n, "changed bitmap")?;
    let next_frontier = r.bitmap(n, "next-frontier bitmap")?;
    let mut trace = Vec::with_capacity(iters);
    for _ in 0..iters {
        trace.push(IterationStats {
            frontier_size: r.u64("trace: frontier size")?,
            gathered_edges: r.u64("trace: gathered edges")?,
            changed: r.u64("trace: changed count")?,
            activated: r.u64("trace: activated count")?,
            shards_processed: r.u32("trace: shards processed")?,
            shards_skipped: r.u32("trace: shards skipped")?,
        });
    }
    Ok(DeltaDecoded {
        base_iterations,
        dirty,
        updates,
        edge_values,
        frontier,
        changed,
        next_frontier,
        trace,
    })
}

/// Overlay a decoded delta onto its base full snapshot's state.
fn apply_delta<P: GasProgram>(
    path: &Path,
    mut base: RestoredState<P>,
    d: DeltaDecoded<P>,
) -> Result<(RestoredState<P>, DeltaChain), SnapshotError> {
    if base.trace.len() as u32 != d.base_iterations
        || base.vertex_values.len() != d.dirty.len() as usize
    {
        return Err(SnapshotError::Corrupt {
            path: path.to_path_buf(),
            offset: 0,
            what: "delta base snapshot shape",
        });
    }
    for (v, (value, gather)) in d.dirty.iter_set().zip(d.updates) {
        base.vertex_values[v as usize] = value;
        base.gather_temp[v as usize] = gather;
    }
    base.edge_values = d.edge_values;
    base.frontier = d.frontier;
    base.changed = d.changed;
    base.next_frontier = d.next_frontier;
    base.trace = d.trace;
    let chain = DeltaChain {
        base_iterations: d.base_iterations,
        dirty: d.dirty,
    };
    Ok((base, chain))
}

// ---------------------------------------------------------------------------
// GRCZ: compression-wrapped snapshot container
// ---------------------------------------------------------------------------

/// Wrap encoded snapshot-family bytes in a compressed GRCZ container:
/// magic, version, codec tag, raw length, compressed payload, whole-file
/// checksum. The inner file keeps its own checksum, so corruption is
/// caught at whichever layer it hits first.
pub(crate) fn wrap_compressed(codec: CompressionCodec, inner: &[u8]) -> Vec<u8> {
    let z = compress_payload(codec, inner);
    let mut out = Vec::with_capacity(29 + z.len());
    out.extend_from_slice(&COMPRESSED_MAGIC);
    out.extend_from_slice(&crate::snapshot::SNAPSHOT_VERSION.to_le_bytes());
    out.push(codec_tag(codec));
    out.extend_from_slice(&(inner.len() as u64).to_le_bytes());
    out.extend_from_slice(&z);
    let checksum = fnv1a(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// If `buf` is a GRCZ container, validate it and return the decompressed
/// inner bytes; otherwise hand `buf` back unchanged. The outer checksum
/// runs before decompression, so bit rot never reaches the bit reader.
fn unwrap_if_compressed(path: &Path, buf: Vec<u8>) -> Result<Vec<u8>, SnapshotError> {
    if buf.len() < 4 || buf[..4] != COMPRESSED_MAGIC {
        return Ok(buf);
    }
    let mut r = check_envelope(path, &buf, &COMPRESSED_MAGIC)?;
    let tag = r.take(1, "codec tag")?[0];
    let codec = codec_from_tag(tag).ok_or(SnapshotError::Corrupt {
        path: path.to_path_buf(),
        offset: 9,
        what: "codec tag",
    })?;
    let rawlen = r.u64("raw length")? as usize;
    let z = &r.buf[r.pos..];
    decompress_payload(codec, z, rawlen).ok_or(SnapshotError::Corrupt {
        path: path.to_path_buf(),
        offset: r.pos as u64,
        what: "compressed payload",
    })
}

/// Read a snapshot-family file and strip its containers: decompress a
/// GRCZ wrapper, then unwrap a GRCM multi-GPU wrapper (returning its
/// placement map), leaving plain GRCK/GRCD bytes for the decoders.
fn read_unwrapped(path: &Path) -> Result<(Vec<u8>, u64, Option<MultiPlacement>), SnapshotError> {
    let raw = fs::read(path).map_err(|e| io_err(path, "read", e))?;
    let disk_bytes = raw.len() as u64;
    let inner = unwrap_if_compressed(path, raw)?;
    let (inner, placement) = unwrap_if_multi(path, inner)?;
    Ok((inner, disk_bytes, placement))
}

// ---------------------------------------------------------------------------
// load_newest: the one resume entry point
// ---------------------------------------------------------------------------

/// Everything a resume needs from disk: the restored host state, its
/// on-disk size (delta restores add the base full's size), the delta
/// chain to continue (if the newest file was a delta), and the multi-GPU
/// placement map (if the file was GRCM-wrapped).
pub(crate) struct RestoredFromDisk<P: GasProgram> {
    pub(crate) state: RestoredState<P>,
    pub(crate) bytes: u64,
    pub(crate) delta: Option<DeltaChain>,
    pub(crate) placement: Option<MultiPlacement>,
}

/// Load the newest intact snapshot — full or delta — under `dir` for the
/// given fingerprint. A delta needs its base full snapshot intact too;
/// corruption of either falls back to the next-older candidate, while a
/// fingerprint or version mismatch fails fast (resuming a different
/// run's checkpoint silently would be the worst possible outcome).
pub(crate) fn load_newest<P: GasProgram>(
    dir: &Path,
    fp: &Fingerprint,
) -> Result<RestoredFromDisk<P>, SnapshotError> {
    // Fulls sort before deltas at the same boundary (never written by one
    // run, but a resume could legitimately recreate one as the other).
    let mut candidates: Vec<(u32, bool, PathBuf)> = snapshot_files(dir)?
        .into_iter()
        .map(|(i, p)| (i, false, p))
        .chain(delta_files(dir)?.into_iter().map(|(i, p)| (i, true, p)))
        .collect();
    candidates.sort_by_key(|&(iters, is_delta, _)| (std::cmp::Reverse(iters), is_delta));
    let mut last_err: Option<SnapshotError> = None;
    for (_, is_delta, path) in &candidates {
        match load_one::<P>(dir, path, *is_delta, fp) {
            Ok(r) => return Ok(r),
            Err(e @ SnapshotError::FingerprintMismatch { .. })
            | Err(e @ SnapshotError::VersionMismatch { .. }) => return Err(e),
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.unwrap_or(SnapshotError::NoSnapshot {
        dir: dir.to_path_buf(),
    }))
}

fn load_one<P: GasProgram>(
    dir: &Path,
    path: &Path,
    is_delta: bool,
    fp: &Fingerprint,
) -> Result<RestoredFromDisk<P>, SnapshotError> {
    let (inner, mut bytes, placement) = read_unwrapped(path)?;
    if !is_delta {
        let state = decode_snapshot::<P>(path, &inner, fp)?;
        return Ok(RestoredFromDisk {
            state,
            bytes,
            delta: None,
            placement,
        });
    }
    let d = decode_delta::<P>(path, &inner, fp)?;
    let base_path = dir.join(snapshot_name(d.base_iterations));
    let (base_inner, base_bytes, _) = read_unwrapped(&base_path)?;
    let base = decode_snapshot::<P>(&base_path, &base_inner, fp)?;
    bytes += base_bytes;
    let (state, chain) = apply_delta(path, base, d)?;
    Ok(RestoredFromDisk {
        state,
        bytes,
        delta: Some(chain),
        placement,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{encode_snapshot, fingerprint_for, write_named_atomic};
    use crate::testprog::Cc;
    use gr_graph::{gen, GraphLayout};

    fn layout() -> GraphLayout {
        GraphLayout::build(&gen::uniform(96, 400, 5).symmetrize())
    }

    fn tmpdir(tag: &str) -> PathBuf {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!("gr-delta-{tag}-{}-{seq}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn trace_of(len: usize) -> Vec<IterationStats> {
        (0..len)
            .map(|i| IterationStats {
                frontier_size: 96 - i as u64,
                gathered_edges: 400,
                changed: 12,
                activated: 2,
                shards_processed: 2,
                shards_skipped: 0,
            })
            .collect()
    }

    fn write_full(dir: &Path, fp: &Fingerprint, iters: u32, values: &[u32]) {
        let frontier = Bitmap::full(96);
        let buf = encode_snapshot::<Cc>(
            fp,
            values,
            &[(); 800],
            &vec![u32::MAX; 96],
            &frontier,
            &Bitmap::new(96),
            &Bitmap::new(96),
            &trace_of(iters as usize),
        );
        write_named_atomic(dir, &snapshot_name(iters), &buf).unwrap();
    }

    #[test]
    fn delta_round_trips_onto_its_base() {
        let l = layout();
        let fp = fingerprint_for(&Cc, &l);
        let dir = tmpdir("roundtrip");
        let base_values: Vec<u32> = (0..96).collect();
        write_full(&dir, &fp, 2, &base_values);
        // Three vertices changed since the base.
        let mut dirty = Bitmap::new(96);
        let mut values = base_values.clone();
        for v in [0u32, 40, 95] {
            dirty.set(v);
            values[v as usize] = 7;
        }
        let mut frontier = Bitmap::new(96);
        frontier.set(40);
        let buf = encode_delta::<Cc>(
            &fp,
            2,
            &dirty,
            &values,
            &[(); 800],
            &vec![u32::MAX; 96],
            &frontier,
            &Bitmap::new(96),
            &Bitmap::new(96),
            &trace_of(4),
        );
        write_named_atomic(&dir, &delta_name(4), &buf).unwrap();
        let got = load_newest::<Cc>(&dir, &fp).unwrap();
        assert_eq!(got.state.vertex_values, values);
        assert_eq!(got.state.trace.len(), 4, "delta carries the full trace");
        assert_eq!(got.state.frontier.count(), 1);
        let chain = got.delta.expect("newest file is a delta");
        assert_eq!(chain.base_iterations, 2);
        assert_eq!(chain.dirty.count(), 3);
        assert!(got.bytes > 0);
        assert!(got.placement.is_none());
        // A delta of 3 dirty vertices is far smaller than a full snapshot.
        let full = encode_snapshot::<Cc>(
            &fp,
            &values,
            &[(); 800],
            &vec![u32::MAX; 96],
            &frontier,
            &Bitmap::new(96),
            &Bitmap::new(96),
            &trace_of(4),
        );
        assert!(buf.len() < full.len());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_delta_falls_back_to_the_base_full() {
        let l = layout();
        let fp = fingerprint_for(&Cc, &l);
        let dir = tmpdir("fallback");
        let base_values: Vec<u32> = (0..96).collect();
        write_full(&dir, &fp, 2, &base_values);
        let mut dirty = Bitmap::new(96);
        dirty.set(5);
        let mut values = base_values.clone();
        values[5] = 9;
        let buf = encode_delta::<Cc>(
            &fp,
            2,
            &dirty,
            &values,
            &[(); 800],
            &vec![u32::MAX; 96],
            &Bitmap::new(96),
            &Bitmap::new(96),
            &Bitmap::new(96),
            &trace_of(3),
        );
        write_named_atomic(&dir, &delta_name(3), &buf).unwrap();
        // Flip a byte in the delta: resume falls back to the base full.
        let dpath = dir.join(delta_name(3));
        let mut raw = fs::read(&dpath).unwrap();
        raw[60] ^= 0xff;
        fs::write(&dpath, &raw).unwrap();
        let got = load_newest::<Cc>(&dir, &fp).unwrap();
        assert_eq!(got.state.trace.len(), 2, "fell back to the iter-2 full");
        assert_eq!(got.state.vertex_values, base_values);
        assert!(got.delta.is_none());
        // Delete the base instead: a dangling intact delta is unusable.
        fs::write(
            &dpath,
            encode_delta::<Cc>(
                &fp,
                2,
                &dirty,
                &values,
                &[(); 800],
                &vec![u32::MAX; 96],
                &Bitmap::new(96),
                &Bitmap::new(96),
                &Bitmap::new(96),
                &trace_of(3),
            ),
        )
        .unwrap();
        fs::remove_file(dir.join(snapshot_name(2))).unwrap();
        assert!(load_newest::<Cc>(&dir, &fp).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compressed_container_round_trips_and_rejects_corruption() {
        let l = layout();
        let fp = fingerprint_for(&Cc, &l);
        let dir = tmpdir("grcz");
        let values: Vec<u32> = (0..96).collect();
        let inner = encode_snapshot::<Cc>(
            &fp,
            &values,
            &[(); 800],
            &vec![u32::MAX; 96],
            &Bitmap::full(96),
            &Bitmap::new(96),
            &Bitmap::new(96),
            &trace_of(1),
        );
        let wrapped = wrap_compressed(CompressionCodec::Zeta(3), &inner);
        write_named_atomic(&dir, &snapshot_name(1), &wrapped).unwrap();
        let got = load_newest::<Cc>(&dir, &fp).unwrap();
        assert_eq!(got.state.vertex_values, values);
        assert_eq!(got.bytes, wrapped.len() as u64, "reports on-disk size");
        // Corrupt the compressed payload: the outer checksum catches it
        // before the bit reader ever runs.
        let path = dir.join(snapshot_name(1));
        let mut raw = fs::read(&path).unwrap();
        let mid = raw.len() / 2;
        raw[mid] ^= 0x40;
        fs::write(&path, &raw).unwrap();
        assert!(matches!(
            load_newest::<Cc>(&dir, &fp),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        // Damage the checksum vouches for (raw length, bytes 9..17, grown
        // past what the payload can code for) is still a typed error, and
        // sizes no allocation.
        let mut raw = wrapped.clone();
        raw[9..17].copy_from_slice(&u64::MAX.to_le_bytes());
        let body = raw.len() - 8;
        let sum = fnv1a(&raw[..body]);
        raw[body..].copy_from_slice(&sum.to_le_bytes());
        fs::write(&path, &raw).unwrap();
        assert!(matches!(
            load_newest::<Cc>(&dir, &fp),
            Err(SnapshotError::Corrupt {
                what: "compressed payload",
                ..
            })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn delta_retention_prunes_old_and_obsolete() {
        let l = layout();
        let fp = fingerprint_for(&Cc, &l);
        let dir = tmpdir("prune");
        let dirty = Bitmap::new(96);
        let values: Vec<u32> = (0..96).collect();
        for iters in [3u32, 5, 7, 9] {
            let buf = encode_delta::<Cc>(
                &fp,
                2,
                &dirty,
                &values,
                &[(); 800],
                &vec![u32::MAX; 96],
                &Bitmap::new(96),
                &Bitmap::new(96),
                &Bitmap::new(96),
                &trace_of(iters as usize),
            );
            write_named_atomic(&dir, &delta_name(iters), &buf).unwrap();
        }
        prune_deltas(&dir, None).unwrap();
        let kept = delta_files(&dir).unwrap();
        assert_eq!(kept.len(), SNAPSHOTS_RETAINED);
        assert_eq!(kept[0].0, 9);
        assert_eq!(kept[1].0, 7);
        // A full snapshot at 8 obsoletes the iter-7 delta.
        prune_deltas(&dir, Some(8)).unwrap();
        let kept = delta_files(&dir).unwrap();
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].0, 9);
        fs::remove_dir_all(&dir).unwrap();
    }
}
