//! Durable checkpoints: checksummed binary snapshots of the engine's
//! host-resident master state, written atomically at iteration boundaries
//! so a killed run can resume from disk.
//!
//! The host computes exact results deterministically (see
//! `exec/bsp.rs`), so a snapshot of the host master state at a BSP
//! iteration boundary is a complete resume point: replaying the remaining
//! iterations converges bit-identically to the uninterrupted run. A
//! snapshot is one frame of the crate's single on-disk container (header
//! with the run fingerprint, state body via [`StateBytes`], trailing FNV-1a
//! checksum), written temp-file + rename so a crash mid-write never leaves
//! a half snapshot under a valid name. This module owns the state body:
//! one writer for fulls and deltas, one reader. See `docs/DURABILITY.md`.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use gr_graph::{Bitmap, CompressionCodec, GraphLayout};

use crate::api::GasProgram;
use crate::exec::host::HostState;
use crate::frame::{self, Head, Placement, Reader};
use crate::snapshot_delta::{DeltaChain, RestoredFromDisk};
use crate::stats::IterationStats;

/// How many intact snapshots a checkpoint directory retains: the latest
/// plus one fallback in case the latest is detected corrupt on resume.
pub const SNAPSHOTS_RETAINED: usize = 2;

/// When (and whether) the engine persists checkpoints to disk.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum CheckpointPolicy {
    /// No durable snapshots: nothing touches disk. Fault recovery needs
    /// none, because a rollback replays only the device timeline over host
    /// results that never moved. The default.
    #[default]
    InMemoryOnly,
    /// Write a durable snapshot into `dir` at iteration boundary 0 and
    /// after every `every`-th completed iteration (and on convergence).
    /// [`Query::resume`](crate::Query::resume) restarts from
    /// the latest intact snapshot in `dir`.
    Durable { dir: PathBuf, every: u32 },
    /// Like [`CheckpointPolicy::Durable`], but between full snapshots the
    /// engine writes *delta* snapshots holding only the vertices whose
    /// state changed since the last full one (plus the bitmaps and trace,
    /// which are cheap). Every `full_every`-th durable boundary is
    /// promoted to a full snapshot so the restore chain stays at most one
    /// delta long. Restores are bit-identical to `Durable`.
    DurableDelta {
        dir: PathBuf,
        every: u32,
        full_every: u32,
    },
}

impl CheckpointPolicy {
    /// Convenience constructor for [`CheckpointPolicy::Durable`].
    pub fn durable(dir: impl Into<PathBuf>, every: u32) -> Self {
        CheckpointPolicy::Durable {
            dir: dir.into(),
            every: every.max(1),
        }
    }

    /// Convenience constructor for [`CheckpointPolicy::DurableDelta`]:
    /// durable boundary every `every` iterations, a full snapshot every
    /// `full_every` durable boundaries, deltas in between. Both clamp
    /// to at least 1.
    pub fn durable_delta(dir: impl Into<PathBuf>, every: u32, full_every: u32) -> Self {
        CheckpointPolicy::DurableDelta {
            dir: dir.into(),
            every: every.max(1),
            full_every: full_every.max(1),
        }
    }
}

/// Why a snapshot could not be written or read back. Every variant carries
/// the file (or directory) involved; read-side variants add the byte
/// offset at which decoding failed — from the start of the file for
/// header fields, from the start of the (decoded) body for state fields —
/// mirroring the edge-list loader's hardened errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// An OS-level I/O operation failed; `op` says which one, `detail` is
    /// the rendered `io::Error`.
    Io {
        path: PathBuf,
        op: &'static str,
        detail: String,
    },
    /// The file ended before `needed` more bytes for `what` (truncation).
    ShortRead {
        path: PathBuf,
        offset: u64,
        needed: u64,
        what: &'static str,
    },
    /// The file does not start with the frame magic.
    BadMagic { path: PathBuf },
    /// The file's frame format version is not the one this build reads.
    VersionMismatch {
        path: PathBuf,
        found: u32,
        expected: u32,
    },
    /// The trailing checksum does not match the content (bit rot, or a
    /// truncation or torn write that slipped past the rename barrier).
    ChecksumMismatch {
        path: PathBuf,
        stored: u64,
        computed: u64,
    },
    /// The snapshot was taken for a different algorithm, graph, or state
    /// layout than the resuming run; `field` names the mismatch.
    FingerprintMismatch {
        path: PathBuf,
        field: &'static str,
        found: String,
        expected: String,
    },
    /// A decoded field is internally inconsistent (e.g. frontier words
    /// with tail bits past the vertex count).
    Corrupt {
        path: PathBuf,
        offset: u64,
        what: &'static str,
    },
    /// No intact snapshot exists under the directory.
    NoSnapshot { dir: PathBuf },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io { path, op, detail } => {
                write!(f, "snapshot {op} failed for {}: {detail}", path.display())
            }
            SnapshotError::ShortRead {
                path,
                offset,
                needed,
                what,
            } => write!(
                f,
                "truncated snapshot {}: needed {needed} more bytes reading {what} \
                 (at byte offset {offset})",
                path.display()
            ),
            SnapshotError::BadMagic { path } => {
                write!(f, "{} is not a GraphReduce snapshot (bad magic)", path.display())
            }
            SnapshotError::VersionMismatch {
                path,
                found,
                expected,
            } => write!(
                f,
                "snapshot {} has format version {found}, this build reads {expected}",
                path.display()
            ),
            SnapshotError::ChecksumMismatch {
                path,
                stored,
                computed,
            } => write!(
                f,
                "snapshot {} is corrupt: stored checksum {stored:#018x} != computed {computed:#018x}",
                path.display()
            ),
            SnapshotError::FingerprintMismatch {
                path,
                field,
                found,
                expected,
            } => write!(
                f,
                "snapshot {} was taken for a different run: {field} is {found}, expected {expected}",
                path.display()
            ),
            SnapshotError::Corrupt { path, offset, what } => write!(
                f,
                "snapshot {} is corrupt: invalid {what} (at byte offset {offset})",
                path.display()
            ),
            SnapshotError::NoSnapshot { dir } => {
                write!(f, "no intact snapshot found under {}", dir.display())
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

// ---------------------------------------------------------------------------
// StateBytes: fixed-width, endian-stable value serialization
// ---------------------------------------------------------------------------

/// Fixed-width little-endian serialization for GAS state values.
///
/// Every [`GasProgram`] value type (vertex, edge, gather) implements this
/// so checkpoints and spilled shards have a defined on-disk layout that is
/// independent of struct padding and host endianness. Floats round-trip by
/// bit pattern (`to_le_bytes`/`from_le_bytes`), so restored state is
/// bit-identical, NaNs included.
///
/// Composite value structs can implement it one field at a time with
/// [`impl_state_bytes!`](crate::impl_state_bytes).
pub trait StateBytes: Sized {
    /// Serialized width in bytes (fixed per type).
    const BYTES: usize;

    /// Write exactly [`Self::BYTES`] bytes into `out`.
    fn write_bytes(&self, out: &mut [u8]);

    /// Read a value back from exactly [`Self::BYTES`] bytes.
    fn read_bytes(src: &[u8]) -> Self;
}

macro_rules! impl_state_bytes_prim {
    ($($t:ty),+) => {$(
        impl StateBytes for $t {
            const BYTES: usize = std::mem::size_of::<$t>();

            fn write_bytes(&self, out: &mut [u8]) {
                out[..Self::BYTES].copy_from_slice(&self.to_le_bytes());
            }

            fn read_bytes(src: &[u8]) -> Self {
                <$t>::from_le_bytes(src[..Self::BYTES].try_into().unwrap())
            }
        }
    )+};
}

impl_state_bytes_prim!(u32, u64, i32, i64, f32, f64);

impl StateBytes for () {
    const BYTES: usize = 0;

    fn write_bytes(&self, _out: &mut [u8]) {}

    fn read_bytes(_src: &[u8]) -> Self {}
}

/// Implement [`StateBytes`] for a plain struct by concatenating its fields
/// in declaration order:
///
/// ```
/// #[derive(Clone, Copy)]
/// pub struct PrValue { pub rank: f32, pub out_degree: u32 }
/// graphreduce::impl_state_bytes!(PrValue { rank: f32, out_degree: u32 });
/// ```
#[macro_export]
macro_rules! impl_state_bytes {
    ($ty:ty { $($field:ident: $fty:ty),+ $(,)? }) => {
        impl $crate::StateBytes for $ty {
            const BYTES: usize = 0 $(+ <$fty as $crate::StateBytes>::BYTES)+;

            fn write_bytes(&self, out: &mut [u8]) {
                let mut at = 0usize;
                $(
                    let w = <$fty as $crate::StateBytes>::BYTES;
                    <$fty as $crate::StateBytes>::write_bytes(&self.$field, &mut out[at..at + w]);
                    at += w;
                )+
                let _ = at;
            }

            fn read_bytes(src: &[u8]) -> Self {
                let mut at = 0usize;
                $(
                    let w = <$fty as $crate::StateBytes>::BYTES;
                    let $field = <$fty as $crate::StateBytes>::read_bytes(&src[at..at + w]);
                    at += w;
                )+
                let _ = at;
                Self { $($field),+ }
            }
        }
    };
}

// ---------------------------------------------------------------------------
// FNV-1a checksums and fingerprints
// ---------------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming FNV-1a 64 (dependency-free; frames are read fully into
/// memory anyway, so a cryptographic hash buys nothing here).
#[derive(Clone, Copy)]
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    pub(crate) fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.0 = h;
    }

    pub(crate) fn finish(self) -> u64 {
        self.0
    }
}

/// The frame checksum.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.update(bytes);
    h.finish()
}

/// What makes a snapshot resumable by exactly one (program, graph, state
/// layout): the algorithm name, a structural hash of the graph, a hash of
/// the value-type widths and phase set, and the layout's vertex and edge
/// counts — which size every array of the state body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Fingerprint {
    pub(crate) algorithm: String,
    pub(crate) graph: u64,
    pub(crate) state: u64,
    pub(crate) n: u32,
    pub(crate) m: u64,
}

impl Fingerprint {
    /// Fail fast, naming the first field that differs, when `found` (read
    /// from `path`) was written for another run.
    pub(crate) fn check(&self, path: &Path, found: &Fingerprint) -> Result<(), SnapshotError> {
        let hex = |v: u64| format!("{v:#018x}");
        let fields = [
            ("algorithm", found.algorithm.clone(), self.algorithm.clone()),
            ("graph fingerprint", hex(found.graph), hex(self.graph)),
            (
                "state-layout fingerprint",
                hex(found.state),
                hex(self.state),
            ),
            ("vertex count", found.n.to_string(), self.n.to_string()),
            ("edge count", found.m.to_string(), self.m.to_string()),
        ];
        match fields.into_iter().find(|(_, f, e)| f != e) {
            None => Ok(()),
            Some((field, found, expected)) => Err(SnapshotError::FingerprintMismatch {
                path: path.to_path_buf(),
                field,
                found,
                expected,
            }),
        }
    }
}

/// Edges hashed exhaustively up to this count; larger graphs are
/// stride-sampled (still covering first/last edges) so fingerprinting
/// stays O(1M) however big the graph is.
const FP_EDGE_SAMPLES: u64 = 1 << 20;

/// Structural graph fingerprint: vertex/edge counts plus (sampled) edge
/// endpoints. Deterministic for a given layout; any re-partitioning or
/// edge edit changes it.
pub(crate) fn graph_fingerprint(layout: &GraphLayout) -> u64 {
    let n = layout.num_vertices();
    let m = layout.num_edges();
    let mut h = Fnv::new();
    h.update(&n.to_le_bytes());
    h.update(&m.to_le_bytes());
    let stride = (m / FP_EDGE_SAMPLES).max(1);
    let mut e = 0u64;
    while e < m {
        let (src, dst) = layout.edge_endpoints(e as u32);
        h.update(&src.to_le_bytes());
        h.update(&dst.to_le_bytes());
        e += stride;
    }
    if m > 0 {
        let (src, dst) = layout.edge_endpoints((m - 1) as u32);
        h.update(&src.to_le_bytes());
        h.update(&dst.to_le_bytes());
    }
    h.finish()
}

/// The fingerprint a run stamps into (and a resume validates against)
/// every snapshot.
pub(crate) fn fingerprint_for<P: GasProgram>(program: &P, layout: &GraphLayout) -> Fingerprint {
    let mut h = Fnv::new();
    for width in [P::VertexValue::BYTES, P::EdgeValue::BYTES, P::Gather::BYTES] {
        h.update(&(width as u64).to_le_bytes());
    }
    h.update(&[program.has_gather() as u8, program.has_scatter() as u8]);
    Fingerprint {
        algorithm: program.name().to_string(),
        graph: graph_fingerprint(layout),
        state: h.finish(),
        n: layout.num_vertices(),
        m: layout.num_edges(),
    }
}

/// FNV-1a over the serialized form of a value slice — the run report's
/// `state_fingerprint`, which the CI kill-restart smoke diffs between a
/// resumed run and its uninterrupted oracle.
pub(crate) fn values_fingerprint<V: StateBytes>(values: &[V]) -> u64 {
    let mut h = Fnv::new();
    let mut buf = vec![0u8; V::BYTES];
    for v in values {
        v.write_bytes(&mut buf);
        h.update(&buf);
    }
    h.finish()
}

// ---------------------------------------------------------------------------
// The state body: one writer, one reader
// ---------------------------------------------------------------------------

const TRACE_ENTRY_BYTES: u64 = 40;

fn put_values<'v, V: StateBytes + 'v>(out: &mut Vec<u8>, values: impl IntoIterator<Item = &'v V>) {
    for v in values {
        let at = out.len();
        out.resize(at + V::BYTES, 0);
        v.write_bytes(&mut out[at..]);
    }
}

/// Encode one snapshot frame of `host`: a full snapshot, or with
/// `delta = Some((base, dirty))` a delta holding only the vertices in
/// `dirty` (cumulative since the full snapshot at boundary `base`).
/// Returns the frame and its size had the body not been coded.
///
/// Body: `[dirty bitmap] | vertex values | gather temps` (every vertex,
/// or the dirty ones in `iter_set` order) `| edge values | frontier,
/// changed, next-frontier bitmaps | iteration trace (40 B each)`.
pub(crate) fn encode_state<P: GasProgram>(
    fp: &Fingerprint,
    host: &HostState<P>,
    delta: Option<(u32, &Bitmap)>,
    placement: Option<&Placement>,
    codec: Option<CompressionCodec>,
) -> (Vec<u8>, u64) {
    let mut body = Vec::new();
    match delta {
        None => {
            put_values(&mut body, &host.vertex_values);
            put_values(&mut body, &host.gather_temp);
        }
        Some((_, dirty)) => {
            body.extend(dirty.words().iter().flat_map(|w| w.to_le_bytes()));
            put_values(
                &mut body,
                dirty.iter_set().map(|v| &host.vertex_values[v as usize]),
            );
            put_values(
                &mut body,
                dirty.iter_set().map(|v| &host.gather_temp[v as usize]),
            );
        }
    }
    put_values(&mut body, &host.edge_values);
    for b in [&host.frontier, &host.changed, &host.next_frontier] {
        body.extend(b.words().iter().flat_map(|w| w.to_le_bytes()));
    }
    for it in &host.iterations {
        body.extend_from_slice(&it.frontier_size.to_le_bytes());
        body.extend_from_slice(&it.gathered_edges.to_le_bytes());
        body.extend_from_slice(&it.changed.to_le_bytes());
        body.extend_from_slice(&it.activated.to_le_bytes());
        body.extend_from_slice(&it.shards_processed.to_le_bytes());
        body.extend_from_slice(&it.shards_skipped.to_le_bytes());
    }
    let head = Head::State {
        fp: fp.clone(),
        iterations: host.iterations.len() as u32,
        base: delta.map(|(base, _)| base),
    };
    let (framed, stored) = frame::encode(&head, placement, codec, &body);
    let raw_len = framed.len() as u64 - stored + body.len() as u64;
    (framed, raw_len)
}

/// Decode one snapshot frame written for `fp`. The fingerprint (which
/// fixes n and m) is vetted on the raw header before the body is decoded,
/// and the body must then be consumed exactly. For a delta,
/// `state.vertex_values` and `state.gather_temp` hold only the dirty
/// vertices' entries, in `dirty.iter_set()` order, until
/// [`load_newest`](crate::snapshot_delta::load_newest) overlays them onto
/// the base full.
pub(crate) fn decode_state<P: GasProgram>(
    path: &Path,
    buf: &[u8],
    fp: &Fingerprint,
) -> Result<RestoredFromDisk<P>, SnapshotError> {
    let frame = frame::decode(path, buf)?;
    let corrupt = |what| SnapshotError::Corrupt {
        path: path.to_path_buf(),
        offset: 8,
        what,
    };
    let (iterations, base) = match &frame.head {
        Head::State {
            fp: found,
            iterations,
            base,
        } => {
            fp.check(path, found)?;
            (*iterations, *base)
        }
        Head::Shard { .. } => return Err(corrupt("frame kind")),
    };
    if base.is_some_and(|b| b >= iterations) {
        return Err(corrupt("base iteration count"));
    }
    let body = frame.body()?;
    let mut r = Reader::new(path, &body);
    let dirty = base.map(|_| r.bitmap(fp.n, "dirty bitmap")).transpose()?;
    let vertices = dirty.as_ref().map_or(u64::from(fp.n), Bitmap::count);
    let state = HostState {
        vertex_values: r.values(vertices, "vertex values")?,
        gather_temp: r.values(vertices, "gather temps")?,
        edge_values: r.values(fp.m, "edge values")?,
        frontier: r.bitmap(fp.n, "frontier bitmap")?,
        changed: r.bitmap(fp.n, "changed bitmap")?,
        next_frontier: r.bitmap(fp.n, "next-frontier bitmap")?,
        spare: Vec::new(),
        iterations: trace(&mut r, iterations)?,
        work: Vec::new(),
    };
    r.finish()?;
    Ok(RestoredFromDisk {
        state,
        bytes: buf.len() as u64,
        delta: base.zip(dirty).map(|(base_iterations, dirty)| DeltaChain {
            base_iterations,
            dirty,
        }),
        placement: frame.placement,
    })
}

fn trace(r: &mut Reader<'_>, iterations: u32) -> Result<Vec<IterationStats>, SnapshotError> {
    let raw = r.take(u64::from(iterations) * TRACE_ENTRY_BYTES, "iteration trace")?;
    let mut t = Reader::new(r.path, raw);
    (0..iterations)
        .map(|_| {
            Ok(IterationStats {
                frontier_size: t.u64("trace: frontier size")?,
                gathered_edges: t.u64("trace: gathered edges")?,
                changed: t.u64("trace: changed count")?,
                activated: t.u64("trace: activated count")?,
                shards_processed: t.u32("trace: shards processed")?,
                shards_skipped: t.u32("trace: shards skipped")?,
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Files: names, retention, directory scan
// ---------------------------------------------------------------------------

pub(crate) fn io_err(path: &Path, op: &'static str, e: std::io::Error) -> SnapshotError {
    SnapshotError::Io {
        path: path.to_path_buf(),
        op,
        detail: e.to_string(),
    }
}

/// Snapshot filename for a completed-iteration count: `ckpt-*.grck` for a
/// full, `delta-*.grcd` for a delta, zero-padded so lexicographic order
/// is iteration order.
pub(crate) fn snapshot_name(iterations: u32, delta: bool) -> String {
    if delta {
        format!("delta-{iterations:08}.grcd")
    } else {
        format!("ckpt-{iterations:08}.grck")
    }
}

fn parse_snapshot_name(name: &str) -> Option<(u32, bool)> {
    let (stem, delta) = match name.strip_prefix("ckpt-") {
        Some(rest) => (rest.strip_suffix(".grck")?, false),
        None => (name.strip_prefix("delta-")?.strip_suffix(".grcd")?, true),
    };
    Some((stem.parse().ok()?, delta))
}

/// Every snapshot file under `dir` as `(iterations, is_delta, path)`,
/// newest first; at one boundary a full sorts before a delta.
pub(crate) fn snapshot_files(dir: &Path) -> Result<Vec<(u32, bool, PathBuf)>, SnapshotError> {
    let entries = fs::read_dir(dir).map_err(|e| io_err(dir, "read directory", e))?;
    let mut found = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| io_err(dir, "read directory entry", e))?;
        if let Some((iters, delta)) = entry.file_name().to_str().and_then(parse_snapshot_name) {
            found.push((iters, delta, entry.path()));
        }
    }
    found.sort_by_key(|&(iters, delta, _)| (std::cmp::Reverse(iters), delta));
    Ok(found)
}

/// Retention: keep the [`SNAPSHOTS_RETAINED`] newest fulls and deltas
/// each, and drop every delta at or below `full_at` (a full snapshot just
/// written there makes them redundant).
pub(crate) fn prune(dir: &Path, full_at: Option<u32>) -> Result<(), SnapshotError> {
    let (mut fulls, mut deltas) = (0, 0);
    for (iters, delta, path) in snapshot_files(dir)? {
        let seen = if delta { &mut deltas } else { &mut fulls };
        *seen += 1;
        if *seen > SNAPSHOTS_RETAINED || (delta && full_at.is_some_and(|at| iters <= at)) {
            fs::remove_file(&path).map_err(|e| io_err(&path, "prune", e))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
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
}
