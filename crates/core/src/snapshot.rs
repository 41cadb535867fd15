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
        source_terms: Vec::new(),
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
#[path = "snapshot_tests.rs"]
mod tests;
