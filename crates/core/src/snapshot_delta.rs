//! Delta snapshots and `load_newest`, the one resume entry point.
//!
//! A delta is a snapshot frame holding only the vertices whose state
//! changed since the last *full* snapshot (see
//! [`crate::snapshot::encode_state`]). Deltas are cumulative against their
//! base full, so a restore chain is exactly one full plus at most one
//! delta. Gather temps of *clean* vertices may be stale after a delta
//! restore; that is safe because the engine writes a vertex's gather slot
//! before reading it in every iteration the vertex is active (see
//! [`crate::phases`]), so stale slots are never observed.

use std::fs;
use std::path::Path;

use gr_graph::Bitmap;

use crate::api::GasProgram;
use crate::exec::host::HostState;
use crate::frame::Placement;
use crate::snapshot::{
    decode_state, io_err, snapshot_files, snapshot_name, Fingerprint, SnapshotError,
};

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

/// Everything a resume needs from disk: the restored host state, its
/// on-disk size (delta restores add the base full's size), the delta
/// chain to continue (if the newest file was a delta), and the multi-GPU
/// placement map (if the writer recorded one).
pub(crate) struct RestoredFromDisk<P: GasProgram> {
    pub(crate) state: HostState<P>,
    pub(crate) bytes: u64,
    pub(crate) delta: Option<DeltaChain>,
    pub(crate) placement: Option<Placement>,
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
    let mut last_err: Option<SnapshotError> = None;
    for (_, _, path) in snapshot_files(dir)? {
        match load_one::<P>(dir, &path, fp) {
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
    fp: &Fingerprint,
) -> Result<RestoredFromDisk<P>, SnapshotError> {
    let read = |p: &Path| {
        let buf = fs::read(p).map_err(|e| io_err(p, "read", e))?;
        decode_state::<P>(p, &buf, fp)
    };
    let r = read(path)?;
    let Some(chain) = &r.delta else {
        return Ok(r);
    };
    let mut base = read(&dir.join(snapshot_name(chain.base_iterations, false)))?;
    if base.delta.is_some() || base.state.iterations.len() != chain.base_iterations as usize {
        return Err(SnapshotError::Corrupt {
            path: path.to_path_buf(),
            offset: 0,
            what: "delta base snapshot shape",
        });
    }
    // Overlay the dirty vertices onto the base; everything else is the
    // delta's own.
    let (values, gathers) = (&r.state.vertex_values, &r.state.gather_temp);
    for ((v, &value), &gather) in chain.dirty.iter_set().zip(values).zip(gathers) {
        base.state.vertex_values[v as usize] = value;
        base.state.gather_temp[v as usize] = gather;
    }
    Ok(RestoredFromDisk {
        state: HostState {
            vertex_values: base.state.vertex_values,
            gather_temp: base.state.gather_temp,
            ..r.state
        },
        bytes: r.bytes + base.bytes,
        delta: r.delta,
        placement: r.placement,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::write_atomic;
    use crate::snapshot::{encode_state, fingerprint_for, fnv1a, prune};
    use crate::stats::IterationStats;
    use crate::testprog::Cc;
    use gr_graph::{gen, CompressionCodec, GraphLayout};
    use std::path::PathBuf;

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

    fn host_at(iters: usize, values: &[u32]) -> HostState<Cc> {
        let mut host = HostState::<Cc>::cold(&Cc, &layout());
        host.vertex_values = values.to_vec();
        host.iterations = (0..iters)
            .map(|i| IterationStats {
                frontier_size: 96 - i as u64,
                gathered_edges: 400,
                changed: 12,
                activated: 2,
                shards_processed: 2,
                shards_skipped: 0,
            })
            .collect();
        host
    }

    fn write(dir: &Path, iters: u32, delta: bool, buf: &[u8]) {
        write_atomic(dir, &snapshot_name(iters, delta), buf).unwrap();
    }

    #[test]
    fn delta_round_trips_onto_its_base() {
        let l = layout();
        let fp = fingerprint_for(&Cc, &l);
        let dir = tmpdir("roundtrip");
        let base_values: Vec<u32> = (0..96).collect();
        let (full, _) = encode_state(&fp, &host_at(2, &base_values), None, None, None);
        write(&dir, 2, false, &full);
        // Three vertices changed since the base.
        let mut dirty = Bitmap::new(96);
        let mut values = base_values.clone();
        for v in [0u32, 40, 95] {
            dirty.set(v);
            values[v as usize] = 7;
        }
        let mut host = host_at(4, &values);
        host.frontier = Bitmap::new(96);
        host.frontier.set(40);
        let (buf, _) = encode_state(&fp, &host, Some((2, &dirty)), None, None);
        write(&dir, 4, true, &buf);
        let got = load_newest::<Cc>(&dir, &fp).unwrap();
        assert_eq!(got.state.vertex_values, values);
        assert_eq!(
            got.state.iterations.len(),
            4,
            "delta carries the full trace"
        );
        assert_eq!(got.state.frontier.count(), 1);
        let chain = got.delta.expect("newest file is a delta");
        assert_eq!(chain.base_iterations, 2);
        assert_eq!(chain.dirty.count(), 3);
        assert_eq!(got.bytes, (buf.len() + full.len()) as u64);
        assert!(got.placement.is_none());
        // A delta of 3 dirty vertices is far smaller than a full snapshot.
        let (full4, _) = encode_state(&fp, &host, None, None, None);
        assert!(buf.len() < full4.len());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_delta_falls_back_to_the_base_full() {
        let l = layout();
        let fp = fingerprint_for(&Cc, &l);
        let dir = tmpdir("fallback");
        let base_values: Vec<u32> = (0..96).collect();
        let (full, _) = encode_state(&fp, &host_at(2, &base_values), None, None, None);
        write(&dir, 2, false, &full);
        let mut dirty = Bitmap::new(96);
        dirty.set(5);
        let mut values = base_values.clone();
        values[5] = 9;
        let (delta, _) = encode_state(&fp, &host_at(3, &values), Some((2, &dirty)), None, None);
        // Flip a byte in the delta: resume falls back to the base full.
        let mut raw = delta.clone();
        raw[60] ^= 0xff;
        write(&dir, 3, true, &raw);
        let got = load_newest::<Cc>(&dir, &fp).unwrap();
        assert_eq!(
            got.state.iterations.len(),
            2,
            "fell back to the iter-2 full"
        );
        assert_eq!(got.state.vertex_values, base_values);
        assert!(got.delta.is_none());
        // Delete the base instead: a dangling intact delta is unusable.
        write(&dir, 3, true, &delta);
        fs::remove_file(dir.join(snapshot_name(2, false))).unwrap();
        assert!(load_newest::<Cc>(&dir, &fp).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compressed_container_round_trips_and_rejects_corruption() {
        let l = layout();
        let fp = fingerprint_for(&Cc, &l);
        let dir = tmpdir("coded");
        let values: Vec<u32> = (0..96).collect();
        let host = host_at(1, &values);
        let zeta = Some(CompressionCodec::Zeta(3));
        let (coded, raw_len) = encode_state(&fp, &host, None, None, zeta);
        let (raw, _) = encode_state(&fp, &host, None, None, None);
        assert_eq!(
            raw_len,
            raw.len() as u64 + 9,
            "raw size = frame with the body uncoded"
        );
        write(&dir, 1, false, &coded);
        let got = load_newest::<Cc>(&dir, &fp).unwrap();
        assert_eq!(got.state.vertex_values, values);
        assert_eq!(got.bytes, coded.len() as u64, "reports on-disk size");
        // Corrupt the compressed payload: the checksum catches it before
        // the bit reader ever runs.
        let path = dir.join(snapshot_name(1, false));
        let mut bad = coded.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        fs::write(&path, &bad).unwrap();
        assert!(matches!(
            load_newest::<Cc>(&dir, &fp),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));
        // Damage the checksum vouches for (the raw body length, grown past
        // what the payload can code for) is still a typed error, and sizes
        // no allocation. The length follows magic, version, kind and flags
        // (10 B), the "cc" fingerprint (34 B), the iteration count (4 B)
        // and the codec tag (1 B); the raw frame's header is 48 B.
        let len_at = 10 + 34 + 4 + 1;
        let raw_body = (raw.len() - 48 - 8) as u64;
        assert_eq!(coded[len_at..len_at + 8], raw_body.to_le_bytes());
        let mut bad = coded.clone();
        bad[len_at..len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        let end = bad.len() - 8;
        let sum = fnv1a(&bad[..end]);
        bad[end..].copy_from_slice(&sum.to_le_bytes());
        fs::write(&path, &bad).unwrap();
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
            let host = host_at(iters as usize, &values);
            let (buf, _) = encode_state(&fp, &host, Some((2, &dirty)), None, None);
            write(&dir, iters, true, &buf);
        }
        let deltas = |dir: &Path| -> Vec<u32> {
            let files = snapshot_files(dir).unwrap();
            files.into_iter().filter(|f| f.1).map(|f| f.0).collect()
        };
        prune(&dir, None).unwrap();
        assert_eq!(deltas(&dir), [9, 7], "the SNAPSHOTS_RETAINED newest");
        // A full snapshot at 8 obsoletes the iter-7 delta.
        let (full, _) = encode_state(&fp, &host_at(8, &values), None, None, None);
        write(&dir, 8, false, &full);
        prune(&dir, Some(8)).unwrap();
        assert_eq!(deltas(&dir), [9]);
        fs::remove_dir_all(&dir).unwrap();
    }
}
