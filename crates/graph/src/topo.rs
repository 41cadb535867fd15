//! Topology as the host GAS kernels read it: [`TopoView`] over the raw
//! dual layout or over gap-coded rows ([`crate::compress`]). Every path
//! yields a row's entries in the raw layout's order, which is what keeps
//! compressed runs bit-identical.
//!
//! Rows are reached two ways, as WebGraph separates random access to one
//! node's successors from sequential iteration over a graph's nodes:
//!
//! - *random access*: [`TopoView::csc_entries`] and friends, or
//!   [`TopoView::csc_locate`] then [`TopoView::csc_row`] so a caller can
//!   start the loads of a batch of rows before walking any;
//! - *a scan*: [`TopoView::csc_fold_active`] folds every active CSC row of
//!   an id range.
//!
//! # Two decode lanes
//!
//! A coded row is one serial chain: each code's length comes from its own
//! bits, so the next code's position waits on the last one's decode. Over
//! raw rows the scan is today's per-row fold. Over coded rows it cuts the
//! range at its CSC edge midpoint into two *lanes*, each with its own
//! cursor, counters, accumulator and row term, and one loop decodes one
//! code on each lane, so two independent chains are in flight. A lane
//! whose row ends emits that row and seeks its own next active row; an
//! active empty row emits the fold's identity; neither lane waits on the
//! other, and when one is spent the other finishes alone. Every row still
//! folds in CSC order into its own slot, so results do not depend on the
//! interleaving (docs/PERFORMANCE.md, "Two decode lanes").

use std::ops::Range;

use crate::compress::{
    unzigzag, BitReader, CompressedAdjacency, CompressedRowIter, CompressedTopology,
    CompressionCodec, Decode, Varint, Zeta,
};
use crate::csr::{Adjacency, GraphLayout};
use crate::edgelist::VertexId;

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

    /// The scan over CSC rows: for every vertex `v` of `ids` that `active`
    /// accepts, fold its in-edges in CSC order from `init` through
    /// `row(v)` and hand `(v, acc)` to `emit`, exactly as
    /// `emit(v, self.csc_entries(v).fold(init, row(v)))` would. Returns
    /// `(rows folded, their in-edges)`.
    ///
    /// Raw rows fold one after the other, in id order. Coded rows fold in
    /// two lanes (module docs), so `emit` sees the rows of the range's two
    /// halves interleaved, each half in id order.
    pub fn csc_fold_active<B: Copy, F: FnMut(B, (VertexId, u32)) -> B>(
        &self,
        ids: Range<VertexId>,
        active: impl Fn(VertexId) -> bool,
        init: B,
        row: impl Fn(VertexId) -> F,
        mut emit: impl FnMut(VertexId, B),
    ) -> (u64, u64) {
        let Some(comp) = self.comp else {
            let (mut rows, mut entries) = (0, 0);
            for v in ids.filter(|&v| active(v)) {
                let loc = self.csc_locate(v);
                emit(v, self.csc_row(loc).fold(init, row(v)));
                rows += 1;
                entries += loc.len;
            }
            return (rows, entries);
        };
        let lanes = CscLanes {
            adj: &self.layout.csc,
            comp: &comp.csc,
            active,
            init,
            row,
            emit,
            rows: 0,
            entries: 0,
        };
        match comp.codec {
            CompressionCodec::Varint => lanes.fold(ids, Varint),
            CompressionCodec::Zeta(_) => lanes.fold(ids, Zeta(comp.codec.k())),
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

/// A coded scan's shared state: the rows' extents and codes, the caller's
/// fold, and the counts [`TopoView::csc_fold_active`] returns.
struct CscLanes<'a, B, A, R, E> {
    adj: &'a Adjacency,
    comp: &'a CompressedAdjacency,
    active: A,
    init: B,
    row: R,
    emit: E,
    rows: u64,
    entries: u64,
}

/// One lane: the rows `v..end`, and the fold of the open row `v`.
struct Lane<'a, B> {
    v: VertexId,
    end: VertexId,
    bits: BitReader<'a>,
    /// The open row's last neighbour and canonical edge id.
    nbr: VertexId,
    eid: u32,
    /// Codes of the open row not yet read.
    left: u64,
    acc: B,
}

impl<B: Copy> Lane<'_, B> {
    /// Decode the open row's next entry and fold it.
    #[inline(always)]
    fn step<F: FnMut(B, (VertexId, u32)) -> B>(&mut self, f: &mut F, decode: impl Decode) {
        self.nbr = self.nbr.wrapping_add(decode.read(&mut self.bits) as u32);
        self.eid = self.eid.wrapping_add(1);
        self.acc = f(self.acc, (self.nbr, self.eid));
        self.left -= 1;
    }
}

impl<'a, B, A, R, E, F> CscLanes<'a, B, A, R, E>
where
    B: Copy,
    A: Fn(VertexId) -> bool,
    R: Fn(VertexId) -> F,
    E: FnMut(VertexId, B),
    F: FnMut(B, (VertexId, u32)) -> B,
{
    /// Fold `ids` in two lanes cut at the range's CSC edge midpoint; when
    /// one lane is spent, the other finishes alone.
    fn fold(mut self, ids: Range<VertexId>, decode: impl Decode) -> (u64, u64) {
        let offsets = &self.adj.offsets;
        let (lo, hi) = (ids.start as usize, ids.end as usize);
        let half = offsets[lo] + (offsets[hi] - offsets[lo]) / 2;
        let mid = (lo + offsets[lo..hi].partition_point(|&o| o < half)) as VertexId;
        let mut a = self.lane(ids.start, mid);
        let mut b = self.lane(mid, ids.end);
        let mut fa = self.open(&mut a, false, decode);
        let mut fb = self.open(&mut b, false, decode);
        while let (Some(f), Some(g)) = (&mut fa, &mut fb) {
            a.step(f, decode);
            b.step(g, decode);
            if a.left == 0 {
                fa = self.open(&mut a, true, decode);
            }
            if b.left == 0 {
                fb = self.open(&mut b, true, decode);
            }
        }
        for (mut lane, mut f) in [(a, fa), (b, fb)] {
            while let Some(g) = &mut f {
                lane.step(g, decode);
                if lane.left == 0 {
                    f = self.open(&mut lane, true, decode);
                }
            }
        }
        (self.rows, self.entries)
    }

    fn lane(&self, v: VertexId, end: VertexId) -> Lane<'a, B> {
        Lane {
            v,
            end,
            bits: self.comp.reader(v),
            nbr: v,
            eid: 0,
            left: 0,
            acc: self.init,
        }
    }

    /// Emit the row `lane` has just finished, if `ended`, then open its
    /// next active row of two or more entries, folding and emitting the
    /// shorter ones on the way. Returns the open row's fold, or `None`
    /// once the lane is spent.
    #[inline]
    fn open(&mut self, lane: &mut Lane<'a, B>, ended: bool, decode: impl Decode) -> Option<F> {
        if ended {
            (self.emit)(lane.v, lane.acc);
            lane.v += 1;
        }
        while lane.v < lane.end {
            let v = lane.v;
            if (self.active)(v) {
                let first = self.adj.offsets[v as usize];
                let len = self.adj.offsets[v as usize + 1] - first;
                self.rows += 1;
                self.entries += len;
                let mut f = (self.row)(v);
                lane.acc = self.init;
                if len > 0 {
                    // A row's first code is its first neighbour's offset
                    // from `v`, zig-zagged; the rest are gaps.
                    lane.bits = self.comp.reader(v);
                    let offset = unzigzag(decode.read(&mut lane.bits)) as u32;
                    lane.nbr = v.wrapping_add(offset);
                    lane.eid = first as u32;
                    lane.acc = f(lane.acc, (lane.nbr, lane.eid));
                    lane.left = len - 1;
                    if lane.left > 0 {
                        return Some(f);
                    }
                }
                (self.emit)(v, lane.acc);
            }
            lane.v += 1;
        }
        None
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
