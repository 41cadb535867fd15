//! WebGraph-style compressed neighbor lists for shard streaming.
//!
//! GraphReduce is transfer-bound: every out-of-core iteration re-ships
//! shard topology over PCIe, and ROADMAP item 3 calls for shipping fewer
//! bytes per shard. The dual layout of Section 4.2 already sorts every
//! adjacency row (CSC rows by source, CSR rows by destination), which is
//! exactly the precondition for the gap-compression family WebGraph built
//! for power-law webs: successive neighbors in a sorted row are close
//! together, so the *differences* are small integers that universal codes
//! shrink to a few bits each.
//!
//! # Encoding
//!
//! Each adjacency row of vertex `v` is encoded independently:
//!
//! - the first neighbor is stored as the zig-zagged signed offset from `v`
//!   (neighbors cluster around their owner on locality-rich graphs);
//! - every following neighbor is stored as the gap from its predecessor
//!   (`>= 0`; zero gaps encode multi-edges);
//! - CSC rows stop there — canonical edge ids are *implicit* (CSC position
//!   is the canonical numbering, so `eid = csc.offsets[v] + k`);
//! - CSR rows carry their canonical edge ids in a second stream beside the
//!   neighbor stream: the first id absolutely, the rest as
//!   `eid - prev_eid - 1` (ids strictly increase along a CSR row because
//!   the canonical order sorts by destination first). FrontierActivate
//!   needs destinations only and never touches the id stream; scatter
//!   walks the two in lock-step.
//!
//! Row degrees are *not* encoded: per-vertex offsets/degrees are static
//! device metadata (see `SizeModel::static_bytes`), so decoders take the
//! count from the raw layout and the bit stream spends nothing on it.
//!
//! Two self-delimiting integer codes back the gaps, selectable via
//! [`CompressionCodec`]:
//!
//! - **varint** — LEB128, 7 payload bits per byte. Byte-aligned-ish,
//!   cheap to decode, a safe default for mild skew.
//! - **ζ_k** (Boldi–Vigna) — tuned for the power-law gap distributions of
//!   web/social graphs; `k = 3` is WebGraph's recommended default.
//!
//! Per-vertex *bit* offsets are kept alongside each stream so any vertex
//! interval's compressed extent is an O(1) subtraction — the memory
//! governor plans transfers in compressed bytes without decoding anything.
//!
//! # Decoding
//!
//! Decoding is lazy and allocation-free: [`TopoView`] hands the host
//! kernels an iterator per row that walks the bit stream in place, so the
//! Serial/Dense/Sparse phase shapes read through the view without ever
//! materializing a whole shard. All variants yield entries in exactly the
//! raw layout's order, which is what keeps compressed runs bit-identical.
//!
//! [`BitReader`] decodes a word at a time: one unaligned 64-bit load gives
//! a window of at least [`WINDOW_BITS`] bits at the cursor, the ζ prefix
//! is a `trailing_zeros`, the body one shift and mask (see
//! [`BitReader::read_zeta`] for the bit layout). The row iterators
//! override [`Iterator::fold`] and [`Iterator::any`], so `for_each`/`fold`
//! callers and pull-side activate's early-exit probe dispatch the codec
//! once per row and run a monomorphic loop; `next()` decodes through the
//! same routines.

use crate::csr::{Adjacency, GraphLayout};
use crate::edgelist::VertexId;

// ---------------------------------------------------------------------------
// Codec selection
// ---------------------------------------------------------------------------

/// Universal code used for gap values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CompressionCodec {
    /// LEB128 variable-length bytes (7 payload bits per byte).
    Varint,
    /// Boldi–Vigna ζ_k code; `k` in `1..=4` (3 is the WebGraph default).
    Zeta(u32),
}

impl Default for CompressionCodec {
    fn default() -> Self {
        CompressionCodec::Zeta(3)
    }
}

/// Values a code can carry are below `2^VALUE_BITS - 1`: far above the
/// `2^33` a zig-zagged offset between two `u32` ids needs, and small
/// enough that a code's prefix and its body each fit one reader window.
pub const VALUE_BITS: u32 = 48;

/// Bits a [`BitReader`] window is guaranteed to hold: an unaligned 64-bit
/// load minus up to seven bits of sub-byte cursor.
pub const WINDOW_BITS: u32 = 57;

#[inline(always)]
fn low_mask(n: u32) -> u64 {
    debug_assert!(n < 64);
    (1u64 << n) - 1
}

impl CompressionCodec {
    /// Stable short name (decision records, CLI flags, run reports).
    pub fn name(&self) -> &'static str {
        match self {
            CompressionCodec::Varint => "varint",
            CompressionCodec::Zeta(1) => "zeta1",
            CompressionCodec::Zeta(2) => "zeta2",
            CompressionCodec::Zeta(3) => "zeta3",
            CompressionCodec::Zeta(4) => "zeta4",
            CompressionCodec::Zeta(_) => "zeta",
        }
    }

    /// Parse a CLI-style codec name (`varint`, `zeta`, `zeta1`..`zeta4`).
    pub fn parse(s: &str) -> Option<CompressionCodec> {
        match s {
            "varint" => Some(CompressionCodec::Varint),
            "zeta" | "zeta3" => Some(CompressionCodec::Zeta(3)),
            "zeta1" => Some(CompressionCodec::Zeta(1)),
            "zeta2" => Some(CompressionCodec::Zeta(2)),
            "zeta4" => Some(CompressionCodec::Zeta(4)),
            _ => None,
        }
    }

    /// Shrinkage parameter `k` (ζ only), clamped to a sane range.
    #[inline]
    fn k(&self) -> u32 {
        match self {
            CompressionCodec::Varint => 0,
            CompressionCodec::Zeta(k) => (*k).clamp(1, 8),
        }
    }

    /// Length of the shortest code (the code of 0): bounds how many values
    /// a stream of a given size can hold.
    pub fn min_code_bits(&self) -> u32 {
        match self {
            CompressionCodec::Varint => 8,
            CompressionCodec::Zeta(_) => self.k(),
        }
    }

    /// Append the non-negative integer `x < 2^VALUE_BITS - 1` to the bit
    /// stream. See [`BitReader::read_varint`] and [`BitReader::read_zeta`]
    /// for the layouts.
    pub fn write(&self, w: &mut BitWriter, x: u64) {
        assert!(
            x < low_mask(VALUE_BITS),
            "{x} is outside the codec's value domain"
        );
        match self {
            CompressionCodec::Varint => {
                let mut rest = x;
                let mut code = 0u64;
                let mut len = 0u32;
                loop {
                    let byte = rest & 0x7f;
                    rest >>= 7;
                    let more = u64::from(rest != 0);
                    code |= (byte | more << 7) << len;
                    len += 8;
                    if rest == 0 {
                        break;
                    }
                }
                w.write_bits(code, len);
            }
            CompressionCodec::Zeta(_) => {
                // ζ_k encodes positive integers; shift the domain by one so
                // zero gaps (multi-edges) stay representable.
                let n = x + 1;
                let k = self.k();
                let h = (63 - n.leading_zeros()) / k;
                let hk = h * k;
                let hi = n >> (hk + 1);
                let lo_bits = hk + u32::from(hi != 0);
                w.write_bits(1 << h | hi << (h + 1), h + k);
                w.write_bits(n & low_mask(lo_bits), lo_bits);
            }
        }
    }

    /// Read one integer previously written with [`CompressionCodec::write`].
    #[inline]
    pub fn read(&self, r: &mut BitReader<'_>) -> u64 {
        match self {
            CompressionCodec::Varint => r.read_varint(),
            CompressionCodec::Zeta(_) => r.read_zeta(self.k()),
        }
    }
}

/// Zig-zag mapping of a signed offset into the non-negative code domain.
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

// ---------------------------------------------------------------------------
// Bit stream
// ---------------------------------------------------------------------------

/// Append-only little-endian bit sink (low bits of each byte first).
#[derive(Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits not yet flushed to `bytes`; the low `fill < 64` are valid.
    acc: u64,
    fill: u32,
}

impl BitWriter {
    pub fn new() -> BitWriter {
        BitWriter::default()
    }

    /// Append the low `n <= 57` bits of `value` (values are masked
    /// defensively).
    pub fn write_bits(&mut self, value: u64, n: u32) {
        debug_assert!(n <= WINDOW_BITS);
        let value = value & low_mask(n);
        self.acc |= value << self.fill;
        let total = self.fill + n;
        if total < 64 {
            self.fill = total;
            return;
        }
        self.bytes.extend_from_slice(&self.acc.to_le_bytes());
        // `n <= 57` and `total >= 64` leave `fill >= 7`: the shift is < 64.
        self.acc = value >> (64 - self.fill);
        self.fill = total - 64;
    }

    /// Total bits written so far.
    pub fn bit_len(&self) -> u64 {
        self.bytes.len() as u64 * 8 + self.fill as u64
    }

    /// The stream, padded with zero bits to a whole byte.
    pub fn finish(mut self) -> Vec<u8> {
        let tail = self.fill.div_ceil(8) as usize;
        self.bytes
            .extend_from_slice(&self.acc.to_le_bytes()[..tail]);
        self.bytes
    }
}

/// Cursor over a [`BitWriter`]'s byte stream.
///
/// Total on any input: bits past the end of `bytes` read as zero, a bit
/// pattern no writer produces poisons the cursor, and [`overrun`] reports
/// either afterwards — decoders of bytes from disk check it once instead
/// of bounds-checking every read.
///
/// [`overrun`]: BitReader::overrun
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: u64,
}

/// Cursor position after reading a pattern no writer produces: past the
/// end of any stream, with headroom so later advances cannot overflow.
const POISONED: u64 = 1 << 62;

impl<'a> BitReader<'a> {
    pub fn new(bytes: &'a [u8], start_bit: u64) -> BitReader<'a> {
        BitReader {
            bytes,
            pos: start_bit,
        }
    }

    /// Read `n <= 57` bits, advancing the cursor.
    #[inline]
    pub fn read_bits(&mut self, n: u32) -> u64 {
        debug_assert!(n <= WINDOW_BITS);
        let v = window_at(self.bytes, self.pos) & low_mask(n);
        self.pos += n as u64;
        v
    }

    /// Read one LEB128 integer: seven payload bits per byte, low groups
    /// first, the eighth bit set on every byte but the last. All of a
    /// code (at most seven bytes) sits in one window.
    #[inline(always)]
    pub fn read_varint(&mut self) -> u64 {
        let w = window_at(self.bytes, self.pos);
        let stops = !w & 0x0080_8080_8080_8080;
        if stops == 0 {
            self.pos = POISONED;
            return 0;
        }
        let len = stops.trailing_zeros() + 1;
        self.pos += len as u64;
        // Squeeze the continuation bits out: 7-bit groups pair up into
        // 14-, 28- and 56-bit fields.
        let x = w & low_mask(len) & 0x007f_7f7f_7f7f_7f7f;
        let x = (x & 0x007f_007f_007f_007f) | (x & 0x7f00_7f00_7f00_7f00) >> 1;
        let x = (x & 0x0000_3fff_0000_3fff) | (x & 0x3fff_0000_3fff_0000) >> 2;
        (x & 0x0000_0000_0fff_ffff) | (x & 0x0fff_ffff_0000_0000) >> 4
    }

    /// Read one ζ_k integer `x`, coded as `n = x + 1` with
    /// `h = floor(log2 n / k)`:
    ///
    /// ```text
    /// h zeros, a one | hi = n >> (hk+1), k-1 bits | lo, low bits of n
    /// ```
    ///
    /// `hi == 0` means `n < 2^(hk+1)`: bit `hk` of `n` is known to be set
    /// and `lo` holds the `hk` bits below it. Otherwise `lo` holds `hk+1`
    /// bits. These are Boldi–Vigna's lengths exactly — a unary `h`, then a
    /// minimal binary code whose threshold for ζ_k is `2^(hk)` — with the
    /// body's bits ordered so that one `trailing_zeros` and the next `k-1`
    /// bits tell the whole length before the value is assembled.
    #[inline(always)]
    pub fn read_zeta(&mut self, k: u32) -> u64 {
        let w = window_at(self.bytes, self.pos);
        let h = w.trailing_zeros();
        // The code's length if its body is the long form.
        let max_len = (h + 1) * (k + 1);
        if max_len > WINDOW_BITS {
            let (x, pos) = read_zeta_wide(self.bytes, self.pos, h, k);
            self.pos = pos;
            return x;
        }
        let (n, long) = zeta_body(w >> (h + 1), h * k, k);
        self.pos += (max_len - 1 + long) as u64;
        n - 1
    }

    /// Current bit position.
    pub fn bit_pos(&self) -> u64 {
        self.pos
    }

    /// Whether any read so far went past the end of the stream or met a
    /// bit pattern no writer produces; what it returned is then garbage.
    pub fn overrun(&self) -> bool {
        self.pos > self.bytes.len() as u64 * 8
    }
}

// The reader's cold paths are free functions over copies of its fields:
// a `&mut self` call in a decode loop would pin the cursor in memory.

/// At least [`WINDOW_BITS`] bits of `bytes` from bit `pos` on, first bit
/// lowest, zeros past the end.
#[inline(always)]
fn window_at(bytes: &[u8], pos: u64) -> u64 {
    let byte = (pos >> 3) as usize;
    let word = match bytes.get(byte..byte + 8) {
        Some(chunk) => u64::from_le_bytes(chunk.try_into().expect("eight bytes")),
        None => tail_word(bytes, byte),
    };
    word >> (pos & 7)
}

/// The last, partial word of a stream, zero-filled.
#[cold]
fn tail_word(bytes: &[u8], byte: usize) -> u64 {
    let rest = bytes.get(byte..).unwrap_or(&[]);
    let mut word = [0u8; 8];
    word[..rest.len()].copy_from_slice(rest);
    u64::from_le_bytes(word)
}

/// A ζ_k code whose prefix of `h` zeros starts at `pos` and that may not
/// fit one window: the body comes from a second one. Returns the value
/// and the cursor after it.
#[cold]
fn read_zeta_wide(bytes: &[u8], pos: u64, h: u32, k: u32) -> (u64, u64) {
    let hk = h * k;
    if hk >= VALUE_BITS {
        return (0, POISONED);
    }
    let body = pos + (h + 1) as u64;
    let (n, long) = zeta_body(window_at(bytes, body), hk, k);
    (n - 1, body + (k - 1 + hk + long) as u64)
}

/// Decode a ζ_k body (`hi`, then `lo`) from the low bits of `b`; returns
/// `n` and whether the body is the long form (1) or the short (0).
#[inline(always)]
fn zeta_body(b: u64, hk: u32, k: u32) -> (u64, u32) {
    let hi = b & low_mask(k - 1);
    let long = u32::from(hi != 0);
    let lo = b >> (k - 1) & low_mask(hk + long);
    let n = (hi << 1 | u64::from(long ^ 1)) << hk | lo;
    (n, long)
}

// ---------------------------------------------------------------------------
// Compressed adjacency
// ---------------------------------------------------------------------------

/// One coded value stream with per-vertex bit offsets.
#[derive(Clone, Debug)]
struct GapStream {
    /// `offsets[v]..offsets[v+1]` is vertex `v`'s row in `bytes`, in bits.
    offsets: Vec<u64>,
    bytes: Vec<u8>,
}

impl GapStream {
    /// Code every vertex's row with `write_row`, recording where each ends.
    fn build(n: u32, mut write_row: impl FnMut(&mut BitWriter, VertexId)) -> GapStream {
        let mut w = BitWriter::new();
        let mut offsets = Vec::with_capacity(n as usize + 1);
        offsets.push(0);
        for v in 0..n {
            write_row(&mut w, v);
            offsets.push(w.bit_len());
        }
        GapStream {
            offsets,
            bytes: w.finish(),
        }
    }

    fn interval_bits(&self, lo: VertexId, hi: VertexId) -> u64 {
        self.offsets[hi as usize] - self.offsets[lo as usize]
    }

    fn row(&self, v: VertexId) -> BitReader<'_> {
        BitReader::new(&self.bytes, self.offsets[v as usize])
    }
}

/// One gap-compressed adjacency direction.
#[derive(Clone, Debug)]
pub struct CompressedAdjacency {
    nbrs: GapStream,
    /// CSR rows carry explicit canonical edge ids; CSC ids are implicit
    /// (canonical order *is* CSC position) and have no stream.
    eids: Option<GapStream>,
    codec: CompressionCodec,
}

impl CompressedAdjacency {
    fn build(adj: &Adjacency, codec: CompressionCodec, explicit_eids: bool) -> CompressedAdjacency {
        let n = (adj.offsets.len() - 1) as u32;
        let nbrs = GapStream::build(n, |w, v| {
            if let Some((&first, rest)) = adj.neighbors[adj.range(v)].split_first() {
                codec.write(w, zigzag(first as i64 - v as i64));
                let mut prev = first;
                for &nbr in rest {
                    codec.write(w, (nbr - prev) as u64);
                    prev = nbr;
                }
            }
        });
        let eids = explicit_eids.then(|| {
            GapStream::build(n, |w, v| {
                // Canonical ids strictly increase along a CSR row; counting
                // from -1 stores the first one absolutely.
                let mut prev = u32::MAX;
                for &eid in &adj.edge_ids[adj.range(v)] {
                    debug_assert!(prev == u32::MAX || eid > prev);
                    codec.write(w, eid.wrapping_sub(prev).wrapping_sub(1) as u64);
                    prev = eid;
                }
            })
        });
        CompressedAdjacency { nbrs, eids, codec }
    }

    fn interval_bits(&self, lo: VertexId, hi: VertexId) -> u64 {
        let eids = self.eids.as_ref().map_or(0, |s| s.interval_bits(lo, hi));
        self.nbrs.interval_bits(lo, hi) + eids
    }

    /// Compressed extent of the vertex interval `[lo, hi)` in bytes (its
    /// streams' bits together, rounded up once).
    pub fn interval_bytes(&self, lo: VertexId, hi: VertexId) -> u64 {
        self.interval_bits(lo, hi).div_ceil(8)
    }

    /// Total compressed bytes of the whole direction.
    pub fn total_bytes(&self) -> u64 {
        self.interval_bytes(0, (self.nbrs.offsets.len() - 1) as VertexId)
    }

    /// Lazy decoder for vertex `v`'s row. `count` must be the raw degree
    /// (taken from static layout metadata); `eid_base` seeds implicit
    /// canonical ids for CSC rows and is ignored for CSR rows.
    pub fn row(&self, v: VertexId, count: u64, eid_base: u64) -> CompressedRowIter<'_> {
        match &self.eids {
            Some(ids) => CompressedRowIter {
                eids: Some(ids.row(v)),
                // One before the first id, so every entry is `prev + 1 + gap`.
                eid: u32::MAX,
                ..self.row_at(v, self.row_bit(v), count, 0)
            },
            None => self.row_at(v, self.row_bit(v), count, eid_base),
        }
    }

    /// Where vertex `v`'s neighbor codes start in the stream, in bits.
    #[inline]
    pub(crate) fn row_bit(&self, v: VertexId) -> u64 {
        self.nbrs.offsets[v as usize]
    }

    /// Decoder for `v`'s neighbor codes starting at `bit` (its
    /// [`row_bit`](Self::row_bit)), with ids counting up from `eid_base`:
    /// the canonical ids of a CSC row; a CSR row's id stream is not read,
    /// so beside its neighbors the ids are meaningless.
    #[inline]
    pub(crate) fn row_at(
        &self,
        v: VertexId,
        bit: u64,
        count: u64,
        eid_base: u64,
    ) -> CompressedRowIter<'_> {
        CompressedRowIter {
            codec: self.codec,
            nbrs: BitReader::new(&self.nbrs.bytes, bit),
            eids: None,
            nbr: v,
            // One before the first id, so every entry is `prev + 1 + gap`.
            eid: (eid_base as u32).wrapping_sub(1),
            first: true,
            remaining: count,
        }
    }
}

/// Streaming decoder over one compressed row; yields `(neighbor, eid)` in
/// exactly the raw layout's order.
pub struct CompressedRowIter<'a> {
    codec: CompressionCodec,
    nbrs: BitReader<'a>,
    /// `None`: ids are implicit, one after the other.
    eids: Option<BitReader<'a>>,
    /// Previous neighbor; the row's owner before the first entry.
    nbr: VertexId,
    /// Previous edge id.
    eid: u32,
    first: bool,
    remaining: u64,
}

/// A decode routine chosen at compile time, so a row's loop carries no
/// per-entry codec match. [`CompressionCodec`] itself is the routine that
/// matches on every read.
trait Decode: Copy {
    fn read(self, r: &mut BitReader<'_>) -> u64;
}

impl Decode for CompressionCodec {
    #[inline]
    fn read(self, r: &mut BitReader<'_>) -> u64 {
        CompressionCodec::read(&self, r)
    }
}

#[derive(Clone, Copy)]
struct Varint;

impl Decode for Varint {
    #[inline(always)]
    fn read(self, r: &mut BitReader<'_>) -> u64 {
        r.read_varint()
    }
}

#[derive(Clone, Copy)]
struct Zeta(u32);

impl Decode for Zeta {
    #[inline(always)]
    fn read(self, r: &mut BitReader<'_>) -> u64 {
        r.read_zeta(self.0)
    }
}

impl CompressedRowIter<'_> {
    /// Decode the next entry.
    #[inline(always)]
    fn step(&mut self, decode: impl Decode) -> (VertexId, u32) {
        let code = decode.read(&mut self.nbrs);
        let delta = if std::mem::take(&mut self.first) {
            unzigzag(code) as u32
        } else {
            code as u32
        };
        self.nbr = self.nbr.wrapping_add(delta);
        let gap = self.eids.as_mut().map_or(0, |e| decode.read(e) as u32);
        self.eid = self.eid.wrapping_add(gap).wrapping_add(1);
        (self.nbr, self.eid)
    }

    /// The rest of the row through one monomorphic decode routine.
    #[inline(always)]
    fn fold_with<B>(
        mut self,
        init: B,
        mut f: impl FnMut(B, (VertexId, u32)) -> B,
        decode: impl Decode,
    ) -> B {
        let mut acc = init;
        for _ in 0..self.remaining {
            acc = f(acc, self.step(decode));
        }
        acc
    }

    /// [`Iterator::any`] through one monomorphic decode routine: stops
    /// after the first entry `f` accepts, leaving the rest undecoded.
    #[inline(always)]
    fn any_with(
        &mut self,
        mut f: impl FnMut((VertexId, u32)) -> bool,
        decode: impl Decode,
    ) -> bool {
        while self.remaining > 0 {
            self.remaining -= 1;
            if f(self.step(decode)) {
                return true;
            }
        }
        false
    }
}

impl Iterator for CompressedRowIter<'_> {
    type Item = (VertexId, u32);

    #[inline]
    fn next(&mut self) -> Option<(VertexId, u32)> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(self.step(self.codec))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }

    /// Internal iteration: the codec is matched once per row, not once per
    /// entry, and the reader state stays in registers.
    #[inline]
    fn fold<B, F: FnMut(B, Self::Item) -> B>(self, init: B, f: F) -> B {
        match self.codec {
            CompressionCodec::Varint => self.fold_with(init, f, Varint),
            CompressionCodec::Zeta(_) => {
                let k = self.codec.k();
                self.fold_with(init, f, Zeta(k))
            }
        }
    }

    /// Early-exit walk with the codec matched once, as in `fold`.
    #[inline]
    fn any<F: FnMut(Self::Item) -> bool>(&mut self, f: F) -> bool {
        match self.codec {
            CompressionCodec::Varint => self.any_with(f, Varint),
            CompressionCodec::Zeta(_) => {
                let k = self.codec.k();
                self.any_with(f, Zeta(k))
            }
        }
    }
}

impl ExactSizeIterator for CompressedRowIter<'_> {}

// ---------------------------------------------------------------------------
// Whole-graph compressed topology
// ---------------------------------------------------------------------------

/// Both adjacency directions compressed under one codec, plus the facts
/// the byte accounting needs (whether real weights must still ship raw).
#[derive(Clone, Debug)]
pub struct CompressedTopology {
    pub csc: CompressedAdjacency,
    pub csr: CompressedAdjacency,
    pub codec: CompressionCodec,
    /// Whether the graph carries non-trivial weights. All-1.0 weights are
    /// synthesized device-side and never ship.
    pub weighted: bool,
}

impl CompressedTopology {
    /// Compress both directions of `layout` under `codec`.
    pub fn build(layout: &GraphLayout, codec: CompressionCodec) -> CompressedTopology {
        CompressedTopology {
            csc: CompressedAdjacency::build(&layout.csc, codec, false),
            csr: CompressedAdjacency::build(&layout.csr, codec, true),
            codec,
            weighted: layout.weights.iter().any(|&w| w != 1.0),
        }
    }

    /// Total compressed topology bytes (both directions).
    pub fn total_bytes(&self) -> u64 {
        self.csc.total_bytes() + self.csr.total_bytes()
    }
}

// ---------------------------------------------------------------------------
// Topology view
// ---------------------------------------------------------------------------

/// What the host GAS kernels read topology through: raw adjacency slices,
/// or lazy per-row decoders when a compressed topology is installed. Both
/// paths yield entries in identical order, so results are bit-identical.
#[derive(Clone, Copy)]
pub struct TopoView<'a> {
    layout: &'a GraphLayout,
    comp: Option<&'a CompressedTopology>,
}

impl<'a> TopoView<'a> {
    /// View over the raw dual layout.
    pub fn raw(layout: &'a GraphLayout) -> TopoView<'a> {
        TopoView { layout, comp: None }
    }

    /// View decoding rows lazily from `comp`.
    pub fn compressed(layout: &'a GraphLayout, comp: &'a CompressedTopology) -> TopoView<'a> {
        TopoView {
            layout,
            comp: Some(comp),
        }
    }

    /// The underlying raw layout (degrees, offsets, weights are static
    /// metadata and always read raw).
    pub fn layout(&self) -> &'a GraphLayout {
        self.layout
    }

    /// Whether rows decode from the compressed stream.
    pub fn is_compressed(&self) -> bool {
        self.comp.is_some()
    }

    /// In-edges of `v` as `(source, canonical eid)`, CSC order.
    #[inline]
    pub fn csc_entries(&self, v: VertexId) -> TopoRowIter<'a> {
        self.csc_row(self.csc_locate(v))
    }

    /// Where `v`'s CSC row lies: the loads [`csc_entries`](Self::csc_entries)
    /// makes before it reads an entry, so a caller can start them for a
    /// batch of rows before walking any.
    #[inline]
    pub fn csc_locate(&self, v: VertexId) -> RowLoc {
        RowLoc::of(&self.layout.csc, self.comp.map(|c| &c.csc), v)
    }

    /// The CSC row `loc` locates, as [`csc_entries`](Self::csc_entries)
    /// yields it.
    #[inline]
    pub fn csc_row(&self, loc: RowLoc) -> TopoRowIter<'a> {
        match self.comp {
            None => TopoRowIter::Raw {
                nbrs: loc.raw(&self.layout.csc),
                eids: &[],
                next_eid: loc.first as u32,
            },
            Some(c) => TopoRowIter::Decoded(c.csc.row_at(loc.v, loc.bit, loc.len, loc.first)),
        }
    }

    /// Out-edges of `v` as `(destination, canonical eid)`, CSR order.
    #[inline]
    pub fn csr_entries(&self, v: VertexId) -> TopoRowIter<'a> {
        let csr = &self.layout.csr;
        match self.comp {
            None => TopoRowIter::Raw {
                nbrs: &csr.neighbors[csr.range(v)],
                eids: &csr.edge_ids[csr.range(v)],
                next_eid: 0,
            },
            Some(c) => TopoRowIter::Decoded(c.csr.row(v, csr.degree(v), 0)),
        }
    }

    /// Destinations of `v`'s out-edges, CSR order: what FrontierActivate
    /// walks. Compressed rows decode the neighbor stream alone — one code
    /// per edge instead of [`csr_entries`](Self::csr_entries)' two.
    #[inline]
    pub fn csr_neighbors(&self, v: VertexId) -> impl ExactSizeIterator<Item = VertexId> + 'a {
        self.csr_neighbors_at(self.csr_locate(v))
    }

    /// Where `v`'s CSR neighbor row lies, as [`csc_locate`](Self::csc_locate)
    /// for [`csr_neighbors`](Self::csr_neighbors).
    #[inline]
    pub fn csr_locate(&self, v: VertexId) -> RowLoc {
        RowLoc::of(&self.layout.csr, self.comp.map(|c| &c.csr), v)
    }

    /// The CSR neighbor row `loc` locates, as
    /// [`csr_neighbors`](Self::csr_neighbors) yields it.
    #[inline]
    pub fn csr_neighbors_at(&self, loc: RowLoc) -> impl ExactSizeIterator<Item = VertexId> + 'a {
        let row = match self.comp {
            None => TopoRowIter::Raw {
                nbrs: loc.raw(&self.layout.csr),
                eids: &[],
                next_eid: 0,
            },
            Some(c) => TopoRowIter::Decoded(c.csr.row_at(loc.v, loc.bit, loc.len, 0)),
        };
        row.map(|(dst, _)| dst)
    }
}

/// A row located but not yet read: its raw entry range `first..first +
/// len` and, when the view is compressed, the bit where its neighbor
/// codes start. A CSC row's `first` is also its first canonical edge id.
#[derive(Clone, Copy, Debug, Default)]
pub struct RowLoc {
    v: VertexId,
    first: u64,
    len: u64,
    bit: u64,
}

impl RowLoc {
    #[inline]
    fn of(adj: &Adjacency, comp: Option<&CompressedAdjacency>, v: VertexId) -> RowLoc {
        let first = adj.offsets[v as usize];
        RowLoc {
            v,
            first,
            len: adj.offsets[v as usize + 1] - first,
            bit: comp.map_or(0, |c| c.row_bit(v)),
        }
    }

    #[inline]
    fn raw<'a>(&self, adj: &'a Adjacency) -> &'a [VertexId] {
        &adj.neighbors[self.first as usize..(self.first + self.len) as usize]
    }

    /// The row's vertex.
    #[inline]
    pub fn vertex(&self) -> VertexId {
        self.v
    }

    /// The row's entry count: the vertex's degree in that direction.
    #[inline]
    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Row iterator behind [`TopoView`]: raw slice walk or bit-stream decode.
/// `fold`/`for_each` and `any` run a plain slice loop over raw rows and one
/// monomorphic decode loop over compressed ones.
pub enum TopoRowIter<'a> {
    Raw {
        nbrs: &'a [VertexId],
        /// Explicit edge ids, as long as `nbrs`; empty when ids are
        /// implicit and count up from `next_eid`.
        eids: &'a [u32],
        next_eid: u32,
    },
    Decoded(CompressedRowIter<'a>),
}

impl Iterator for TopoRowIter<'_> {
    type Item = (VertexId, u32);

    #[inline]
    fn next(&mut self) -> Option<(VertexId, u32)> {
        match self {
            TopoRowIter::Raw {
                nbrs,
                eids,
                next_eid,
            } => {
                let (&nbr, rest) = nbrs.split_first()?;
                *nbrs = rest;
                let eid = match eids.split_first() {
                    Some((&eid, rest)) => {
                        *eids = rest;
                        eid
                    }
                    None => {
                        *next_eid += 1;
                        *next_eid - 1
                    }
                };
                Some((nbr, eid))
            }
            TopoRowIter::Decoded(it) => it.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            TopoRowIter::Raw { nbrs, .. } => (nbrs.len(), Some(nbrs.len())),
            TopoRowIter::Decoded(it) => it.size_hint(),
        }
    }

    #[inline]
    fn fold<B, F: FnMut(B, Self::Item) -> B>(self, init: B, mut f: F) -> B {
        match self {
            TopoRowIter::Raw {
                nbrs,
                eids: &[],
                next_eid,
            } => nbrs
                .iter()
                .zip(next_eid..)
                .fold(init, |acc, (&nbr, eid)| f(acc, (nbr, eid))),
            TopoRowIter::Raw { nbrs, eids, .. } => nbrs
                .iter()
                .zip(eids)
                .fold(init, |acc, (&nbr, &eid)| f(acc, (nbr, eid))),
            TopoRowIter::Decoded(it) => it.fold(init, f),
        }
    }

    #[inline]
    fn any<F: FnMut(Self::Item) -> bool>(&mut self, mut f: F) -> bool {
        match self {
            TopoRowIter::Raw {
                nbrs,
                eids,
                next_eid,
            } => {
                // Leave the row where `next` would: after the hit.
                let hit = if eids.is_empty() {
                    nbrs.iter().position(|&nbr| {
                        *next_eid += 1;
                        f((nbr, *next_eid - 1))
                    })
                } else {
                    let hit = nbrs
                        .iter()
                        .zip(*eids)
                        .position(|(&nbr, &eid)| f((nbr, eid)));
                    *eids = &eids[hit.map_or(eids.len(), |i| i + 1)..];
                    hit
                };
                *nbrs = &nbrs[hit.map_or(nbrs.len(), |i| i + 1)..];
                hit.is_some()
            }
            TopoRowIter::Decoded(it) => it.any(f),
        }
    }
}

impl ExactSizeIterator for TopoRowIter<'_> {}

#[cfg(test)]
#[path = "compress_tests.rs"]
mod tests;
