//! Unit tests of `snapshot.rs`: state serialization round trips, the
//! snapshot file format and its corruption checks, and checkpoint policy.

use super::*;
use crate::frame::write_atomic;
use crate::snapshot_delta::load_newest;
use crate::testprog::{Cc, Pr, PrValue};
use gr_graph::gen;

fn layout() -> GraphLayout {
    GraphLayout::build(&gen::uniform(96, 400, 5).symmetrize())
}

fn tmpdir(tag: &str) -> PathBuf {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("gr-snap-{tag}-{}-{seq}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).unwrap();
    d
}

/// Encoded full snapshot whose vertex values carry `seed`, so tests
/// can tell which file a resume actually restored.
fn sample_state_seeded(fp: &Fingerprint, seed: u32) -> Vec<u8> {
    let mut host = HostState::<Cc>::cold(&Cc, &layout());
    for (i, v) in host.vertex_values.iter_mut().enumerate() {
        *v = i as u32 + seed;
    }
    host.frontier = Bitmap::new(96);
    host.frontier.set(3);
    host.frontier.set(77);
    host.iterations = vec![IterationStats {
        frontier_size: 96,
        gathered_edges: 400,
        changed: 12,
        activated: 2,
        shards_processed: 2,
        shards_skipped: 0,
    }];
    encode_state(fp, &host, None, None, None).0
}

fn sample_state(fp: &Fingerprint) -> Vec<u8> {
    sample_state_seeded(fp, 0)
}

fn decode_err(path: &Path, buf: &[u8], fp: &Fingerprint) -> SnapshotError {
    decode_state::<Cc>(path, buf, fp)
        .err()
        .expect("decode must fail")
}

#[test]
fn state_bytes_round_trip_primitives_and_structs() {
    let mut buf = [0u8; 8];
    42u32.write_bytes(&mut buf);
    assert_eq!(u32::read_bytes(&buf), 42);
    f32::NAN.write_bytes(&mut buf);
    assert!(f32::read_bytes(&buf).is_nan());
    (-1.5f64).write_bytes(&mut buf);
    assert_eq!(f64::read_bytes(&buf), -1.5);
    assert_eq!(<() as StateBytes>::BYTES, 0);
    // Struct via the macro (PrValue from the shared test programs).
    assert_eq!(PrValue::BYTES, 8);
    let v = PrValue {
        rank: 0.25,
        out_degree: 7,
    };
    v.write_bytes(&mut buf);
    let back = PrValue::read_bytes(&buf);
    assert_eq!(back.rank, 0.25);
    assert_eq!(back.out_degree, 7);
}

#[test]
fn encode_decode_round_trip() {
    let l = layout();
    let fp = fingerprint_for(&Cc, &l);
    let buf = sample_state(&fp);
    let path = Path::new("mem");
    let got = decode_state::<Cc>(path, &buf, &fp).unwrap();
    let s = &got.state;
    assert_eq!(s.vertex_values, (0u32..96).collect::<Vec<_>>());
    assert_eq!(s.edge_values.len() as u64, l.num_edges());
    assert_eq!(s.frontier.count(), 2);
    assert!(s.frontier.get(3) && s.frontier.get(77));
    assert_eq!(s.iterations.len(), 1);
    assert_eq!(s.iterations[0].gathered_edges, 400);
    assert_eq!(got.bytes, buf.len() as u64);
    assert!(got.delta.is_none() && got.placement.is_none());
}

#[test]
fn bit_flips_anywhere_fail_the_checksum() {
    let l = layout();
    let fp = fingerprint_for(&Cc, &l);
    let buf = sample_state(&fp);
    let path = Path::new("mem");
    // Flip one bit in several regions: header, values, bitmap, trace.
    for at in [9, 40, 200, buf.len() - 20] {
        let mut bad = buf.clone();
        bad[at] ^= 0x10;
        match decode_err(path, &bad, &fp) {
            SnapshotError::ChecksumMismatch { .. } => {}
            other => panic!("flip at {at}: expected checksum mismatch, got {other:?}"),
        }
    }
}

#[test]
fn truncation_is_a_typed_short_read_with_offset() {
    let l = layout();
    let fp = fingerprint_for(&Cc, &l);
    let buf = sample_state(&fp);
    let path = Path::new("mem");
    // A file cut before the header ends can't even reach the checksum:
    // the reader reports exactly which field ran dry and where.
    match decode_err(path, &buf[..6], &fp) {
        SnapshotError::ShortRead {
            offset,
            needed,
            what,
            ..
        } => {
            assert_eq!(offset, 4, "version field starts after the magic");
            assert_eq!(needed, 2, "4-byte version, 2 bytes left");
            assert_eq!(what, "version");
        }
        other => panic!("expected short read, got {other:?}"),
    }
    // A cut past the header leaves >= 8 trailing bytes, which the
    // checksum-before-trust pass interprets as the (now wrong)
    // checksum — truncation inside the body is an integrity failure,
    // never silently-short state. Spill frames behave the same.
    let cut = 60;
    match decode_err(path, &buf[..cut], &fp) {
        SnapshotError::ChecksumMismatch { .. } => {}
        other => panic!("expected checksum mismatch, got {other:?}"),
    }
    // Cut off only part of the checksum: still typed, still located.
    let e = decode_err(path, &buf[..buf.len() - 3], &fp);
    assert!(matches!(e, SnapshotError::ChecksumMismatch { .. }));
    assert!(e.to_string().contains("corrupt"), "{e}");
}

#[test]
fn wrong_magic_and_version_are_rejected() {
    let l = layout();
    let fp = fingerprint_for(&Cc, &l);
    let mut buf = sample_state(&fp);
    let path = Path::new("mem");
    let mut bad = buf.clone();
    bad[0] = b'X';
    assert!(matches!(
        decode_err(path, &bad, &fp),
        SnapshotError::BadMagic { .. }
    ));
    buf[4] = 99; // version byte
    match decode_err(path, &buf, &fp) {
        SnapshotError::VersionMismatch {
            found, expected, ..
        } => {
            assert_eq!(found, 99);
            assert_eq!(expected, frame::VERSION);
        }
        other => panic!("expected version mismatch, got {other:?}"),
    }
}

#[test]
fn fingerprint_mismatches_fail_fast_with_field_context() {
    let l = layout();
    let fp = fingerprint_for(&Cc, &l);
    let buf = sample_state(&fp);
    let path = Path::new("mem");
    // Different algorithm.
    let other = Fingerprint {
        algorithm: "pagerank".into(),
        ..fp.clone()
    };
    let e = decode_err(path, &buf, &other);
    assert!(e.to_string().contains("algorithm"), "{e}");
    // Different graph.
    let l2 = GraphLayout::build(&gen::uniform(96, 420, 6).symmetrize());
    let fp2 = fingerprint_for(&Cc, &l2);
    assert_ne!(
        fp.graph, fp2.graph,
        "distinct graphs must fingerprint apart"
    );
    let e = decode_err(path, &buf, &fp2);
    assert!(
        matches!(e, SnapshotError::FingerprintMismatch { field, .. } if field == "graph fingerprint"),
    );
    // Different state layout (Pr has an 8-byte vertex value).
    let fp3 = fingerprint_for(&Pr, &l);
    assert_ne!(fp.state, fp3.state);
    // The counts that size the body are checked on their own.
    for (want, field) in [
        (
            Fingerprint {
                n: 95,
                ..fp.clone()
            },
            "vertex count",
        ),
        (
            Fingerprint {
                m: fp.m + 1,
                ..fp.clone()
            },
            "edge count",
        ),
    ] {
        let e = decode_err(path, &buf, &want);
        assert!(
            matches!(e, SnapshotError::FingerprintMismatch { field: f, .. } if f == field),
            "{e}"
        );
    }
}

#[test]
fn atomic_write_retention_and_latest_scan() {
    let l = layout();
    let fp = fingerprint_for(&Cc, &l);
    let dir = tmpdir("retain");
    for iters in [0u32, 2, 4, 6] {
        let buf = sample_state_seeded(&fp, iters);
        write_atomic(&dir, &snapshot_name(iters, false), &buf).unwrap();
        prune(&dir, Some(iters)).unwrap();
    }
    let files = snapshot_files(&dir).unwrap();
    assert_eq!(files.len(), SNAPSHOTS_RETAINED, "older snapshots pruned");
    assert_eq!(files[0].0, 6);
    assert_eq!(files[1].0, 4);
    // No temp litter survives a completed write.
    assert!(fs::read_dir(&dir).unwrap().all(|e| !e
        .unwrap()
        .file_name()
        .to_string_lossy()
        .ends_with(".tmp")));
    let r = load_newest::<Cc>(&dir, &fp).unwrap();
    assert_eq!(r.state.vertex_values[0], 6, "the newest file was loaded");
    assert!(r.bytes > 0);
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupted_latest_falls_back_to_previous_intact() {
    let l = layout();
    let fp = fingerprint_for(&Cc, &l);
    let dir = tmpdir("fallback");
    for iters in [4, 6] {
        let buf = sample_state_seeded(&fp, iters);
        write_atomic(&dir, &snapshot_name(iters, false), &buf).unwrap();
    }
    // Flip a byte in the newest file.
    let latest = dir.join(snapshot_name(6, false));
    let mut raw = fs::read(&latest).unwrap();
    raw[100] ^= 0xff;
    fs::write(&latest, &raw).unwrap();
    let r = load_newest::<Cc>(&dir, &fp).unwrap();
    assert_eq!(r.state.vertex_values[0], 4, "fell back to the intact file");
    // Both corrupt -> typed error, not garbage state.
    let prev = dir.join(snapshot_name(4, false));
    let mut raw = fs::read(&prev).unwrap();
    let at = raw.len() - 1;
    raw.truncate(at);
    fs::write(&prev, &raw).unwrap();
    assert!(load_newest::<Cc>(&dir, &fp).is_err());
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn empty_or_missing_dir_is_a_clean_no_snapshot() {
    let dir = tmpdir("empty");
    let fp = Fingerprint {
        algorithm: "cc".into(),
        graph: 1,
        state: 2,
        n: 3,
        m: 4,
    };
    assert!(matches!(
        load_newest::<Cc>(&dir, &fp),
        Err(SnapshotError::NoSnapshot { .. })
    ));
    fs::remove_dir_all(&dir).unwrap();
    assert!(matches!(
        load_newest::<Cc>(&dir, &fp),
        Err(SnapshotError::Io { .. })
    ));
}

#[test]
fn checkpoint_policy_defaults_and_clamps() {
    assert_eq!(CheckpointPolicy::default(), CheckpointPolicy::InMemoryOnly);
    match CheckpointPolicy::durable("/tmp/x", 0) {
        CheckpointPolicy::Durable { every, .. } => assert_eq!(every, 1, "0 clamps to 1"),
        _ => unreachable!(),
    }
    match CheckpointPolicy::durable_delta("/tmp/x", 0, 0) {
        CheckpointPolicy::DurableDelta {
            every, full_every, ..
        } => {
            assert_eq!(every, 1, "0 clamps to 1");
            assert_eq!(full_every, 1, "0 clamps to 1");
        }
        _ => unreachable!(),
    }
}
