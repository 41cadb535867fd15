//! Dual CSC/CSR layout with one canonical edge numbering.
//!
//! GraphReduce's Graph Layout Engine (Section 4.2) sorts in-edges by
//! destination and out-edges by source, storing the graph in CSC and CSR
//! simultaneously so no runtime transposition is ever needed. Mutable edge
//! state must be shared between both views: the *canonical* edge id of an
//! edge is its position in CSC order, CSC entry `i` implicitly has id `i`,
//! and every CSR entry carries the canonical id of the edge it mirrors.
//! Engines keep one value array indexed by canonical id; scatter (via CSR)
//! and gather (via CSC) therefore observe the same state.
//!
//! [`GraphLayout::build`] does the paper's two sorts after one pass that
//! counts both offset arrays and checks every endpoint. The sort by
//! destination is cache-blocked, so no pass writes one entry per edge to a
//! random slot of an m-sized array except the last:
//!
//! A. cut the destinations into *buckets*: runs of whole 64-vertex blocks
//!    holding at most 2^15 in-edges, a heavier block alone. One stable pass
//!    over the edge list scatters each edge into its bucket's region of the
//!    CSC arrays: source, weight, and destination (parked in the CSR
//!    neighbor array until pass C);
//! B. sort each bucket in cache by (destination, source), stably: LSD
//!    counting passes over the source's digits, then a placement through
//!    the destinations' CSC cursors. Canonical CSC order is (destination,
//!    source, input order). The scratch is five words per entry of the
//!    biggest bucket, taken from the CSR id array before pass C fills it;
//! C. walk canonical order and scatter it by source: CSR rows come out in
//!    (destination, canonical id) order, each entry carrying its id.
//!
//! Besides its input and output the build holds O(|V|) tables, so it peaks
//! at its input, its output and one cursor array. Only when the biggest
//! bucket holds more than a fifth of the edges (a small graph, or a block
//! as heavy as a star's hub) does the scratch outgrow the CSR id array and
//! take an allocation of its own. Duplicate `(src, dst)` edges keep their
//! input order in canonical order, and so do their weights.

use crate::edgelist::{EdgeList, VertexId};

/// One adjacency direction in compressed-sparse form.
#[derive(Clone, Debug, PartialEq)]
pub struct Adjacency {
    /// `offsets[v]..offsets[v+1]` indexes this vertex's entries.
    pub offsets: Vec<u64>,
    /// Neighbor endpoint of each entry (source for CSC, destination for CSR).
    pub neighbors: Vec<VertexId>,
    /// Canonical edge id of each entry. For CSC this is the identity and is
    /// left empty to save memory; use [`Adjacency::edge_id`].
    pub edge_ids: Vec<u32>,
}

impl Adjacency {
    /// Entries of vertex `v` as `(neighbor, canonical edge id)` pairs.
    pub fn entries(&self, v: VertexId) -> impl Iterator<Item = (VertexId, u32)> + '_ {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        (lo..hi).map(move |i| (self.neighbors[i], self.edge_id(i)))
    }

    /// Canonical edge id of entry `i`.
    #[inline]
    pub fn edge_id(&self, i: usize) -> u32 {
        if self.edge_ids.is_empty() {
            i as u32
        } else {
            self.edge_ids[i]
        }
    }

    /// Degree of vertex `v` in this direction.
    #[inline]
    pub fn degree(&self, v: VertexId) -> u64 {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Entry range of vertex `v`.
    #[inline]
    pub fn range(&self, v: VertexId) -> std::ops::Range<usize> {
        self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize
    }

    /// Entry range covering the vertex interval `lo..hi` (contiguous).
    #[inline]
    pub fn interval_range(&self, lo: VertexId, hi: VertexId) -> std::ops::Range<usize> {
        self.offsets[lo as usize] as usize..self.offsets[hi as usize] as usize
    }

    fn num_vertices(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }
}

/// The full dual layout plus canonical edge weights.
///
/// ```
/// use gr_graph::{EdgeList, GraphLayout};
///
/// let el = EdgeList::from_edges(3, vec![(0, 1), (1, 2), (0, 2)]);
/// let g = GraphLayout::build(&el);
/// assert_eq!(g.num_edges(), 3);
/// // Out-edges of 0 via CSR; in-edges of 2 via CSC — same canonical ids.
/// let outs: Vec<_> = g.csr.entries(0).collect();
/// assert_eq!(outs.len(), 2);
/// for (dst, eid) in outs {
///     assert_eq!(g.edge_endpoints(eid), (0, dst));
/// }
/// assert_eq!(g.csc.degree(2), 2);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct GraphLayout {
    /// In-edges sorted by destination, then source, then input order.
    /// Canonical edge order.
    pub csc: Adjacency,
    /// Out-edges sorted by source, then destination, then canonical id,
    /// carrying canonical ids.
    pub csr: Adjacency,
    /// Per-edge weight in canonical (CSC) order; all 1.0 unless the edge
    /// list carried weights.
    pub weights: Vec<f32>,
}

impl GraphLayout {
    /// Build both layouts from an edge list: one counting pass, a bucketing
    /// scatter, an in-cache sort per bucket and one direct scatter (see the
    /// module docs).
    ///
    /// # Panics
    ///
    /// - If the list has more than `u32::MAX` edges: canonical ids are `u32`.
    /// - If an edge has an endpoint `>= num_vertices`, or the list carries
    ///   a weight vector whose length is not the edge count. [`EdgeList`]'s
    ///   fields are public, so a list need not have come through
    ///   [`EdgeList::from_edges`] and [`EdgeList::with_weights`].
    pub fn build(el: &EdgeList) -> GraphLayout {
        Self::build_blocked(el, BUCKET_CAP)
    }

    /// [`GraphLayout::build`] with buckets of at most `cap` in-edges, a
    /// heavier block alone.
    fn build_blocked(el: &EdgeList, cap: usize) -> GraphLayout {
        let n = el.num_vertices as usize;
        let m = el.edges.len();
        assert!(
            u32::try_from(m).is_ok(),
            "canonical edge ids are u32: a layout holds at most u32::MAX edges, got {m}"
        );
        let in_w = el.weights.as_deref();
        if let Some(w) = in_w {
            assert!(
                w.len() == m,
                "the edge list carries {} weights for {m} edges",
                w.len()
            );
        }
        let mut csc_off = vec![0u64; n + 1];
        let mut csr_off = vec![0u64; n + 1];
        for &(s, d) in &el.edges {
            assert!(
                s.max(d) < el.num_vertices,
                "edge ({s}, {d}) has an endpoint out of range for {n} vertices"
            );
            csr_off[s as usize + 1] += 1;
            csc_off[d as usize + 1] += 1;
        }
        for v in 0..n {
            csc_off[v + 1] += csc_off[v];
            csr_off[v + 1] += csr_off[v];
        }

        // Pass A: each edge into its destination bucket, in input order.
        // `csr_dst` holds the destinations until pass C refills it.
        let (bucket_of, starts) = cut_buckets(&csc_off, cap);
        let mut csc_src = vec![0; m];
        let mut weights = vec![1.0f32; m];
        let mut csr_dst = vec![0; m];
        let mut fill = starts.clone();
        for (k, &(s, d)) in el.edges.iter().enumerate() {
            let at = claim(&mut fill, bucket_of[(d >> BLOCK_SHIFT) as usize]);
            csc_src[at] = s;
            csr_dst[at] = d;
            if let Some(w) = in_w {
                weights[at] = w[k];
            }
        }
        drop((fill, bucket_of));

        // Pass B: each bucket sorted by (destination, source). Canonical.
        // Until pass C fills it, the CSR id array is the bucket scratch,
        // unless the biggest bucket needs more than it holds.
        let mut csr_eid = vec![0u32; m];
        let biggest = starts.windows(2).map(|b| b[1] - b[0]).max();
        let words = SCRATCH_WORDS * biggest.unwrap_or(0) as usize;
        let mut spill = vec![0; if words > m { words } else { 0 }];
        let scratch = if words > m { &mut spill } else { &mut csr_eid };
        let mut sorter = BucketSort::new(n, scratch);
        let mut cursor = csc_off.clone();
        for b in starts.windows(2) {
            let (lo, hi) = (b[0] as usize, b[1] as usize);
            let w = if in_w.is_some() {
                &mut weights[lo..hi]
            } else {
                &mut []
            };
            sorter.sort(&mut csc_src[lo..hi], &csr_dst[lo..hi], w, lo, &mut cursor);
        }
        drop(spill);

        // Pass C: canonical order scattered by source, ids attached.
        cursor.copy_from_slice(&csr_off);
        for (d, row) in csc_off.windows(2).enumerate() {
            let row = row[0] as usize..row[1] as usize;
            for (eid, &s) in row.clone().zip(&csc_src[row]) {
                let at = claim(&mut cursor, s);
                csr_dst[at] = d as VertexId;
                csr_eid[at] = eid as u32;
            }
        }

        GraphLayout {
            csc: Adjacency {
                offsets: csc_off,
                neighbors: csc_src,
                edge_ids: Vec::new(),
            },
            csr: Adjacency {
                offsets: csr_off,
                neighbors: csr_dst,
                edge_ids: csr_eid,
            },
            weights,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> u32 {
        self.csc.num_vertices()
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> u64 {
        self.csc.neighbors.len() as u64
    }

    /// The endpoints of the canonical edge `eid` as `(src, dst)`.
    /// O(log n) via binary search over CSC offsets (debug/test helper).
    pub fn edge_endpoints(&self, eid: u32) -> (VertexId, VertexId) {
        let src = self.csc.neighbors[eid as usize];
        let dst = match self.csc.offsets.binary_search(&(eid as u64)) {
            Ok(mut i) => {
                // offsets can repeat for empty rows; advance to the row that
                // actually contains eid.
                while self.csc.offsets[i + 1] == eid as u64 {
                    i += 1;
                }
                i as u32
            }
            Err(i) => (i - 1) as u32,
        };
        (src, dst)
    }
}

/// log2 of the vertices in a destination block, the unit buckets are cut
/// from: the block-to-bucket table is |V|/16 bytes.
const BLOCK_SHIFT: u32 = 6;

/// In-edges a bucket holds unless one block alone holds more. A weighted
/// bucket (12 bytes an entry) and its scratch (20) take 1 MiB.
const BUCKET_CAP: usize = 1 << 15;

/// Widest source digit one LSD pass sorts by: an 8 KiB histogram.
const DIGIT_BITS: u32 = 11;

/// Cut the destination blocks into buckets of whole blocks holding at most
/// `cap` in-edges, a heavier block alone. Returns each block's bucket and
/// each bucket's first CSC position, followed by the edge count.
fn cut_buckets(csc_off: &[u64], cap: usize) -> (Vec<u32>, Vec<u64>) {
    let n = csc_off.len() - 1;
    let mut bucket_of = Vec::with_capacity(n.div_ceil(1 << BLOCK_SHIFT));
    let (mut starts, mut start) = (vec![0], 0);
    for first in (0..n).step_by(1 << BLOCK_SHIFT) {
        let lo = csc_off[first];
        let hi = csc_off[n.min(first + (1 << BLOCK_SHIFT))];
        if lo > start && hi - start > cap as u64 {
            start = lo;
            starts.push(lo);
        }
        bucket_of.push(starts.len() as u32 - 1);
    }
    starts.push(csc_off[n]);
    (bucket_of, starts)
}

/// Scratch words per entry of a bucket: two arrays of (source, position)
/// keys and a copy of the bucket's weights.
const SCRATCH_WORDS: usize = 5;

/// The histograms and scratch that sort one bucket at a time. The digit
/// passes move one key per entry, its source and its position in the
/// bucket; the placement fetches destination and weight by position.
struct BucketSort<'a> {
    /// Bits per source digit.
    width: u32,
    /// One histogram of `1 << width` counters per digit of a source id.
    counts: Vec<u32>,
    /// At least `SCRATCH_WORDS` words per entry of the biggest bucket.
    scratch: &'a mut [u32],
}

impl<'a> BucketSort<'a> {
    fn new(num_vertices: usize, scratch: &'a mut [u32]) -> Self {
        let bits = u32::BITS - (num_vertices.saturating_sub(1) as u32).leading_zeros();
        let passes = bits.div_ceil(DIGIT_BITS).max(1);
        let width = bits.div_ceil(passes);
        BucketSort {
            width,
            counts: vec![0; (passes as usize) << width],
            scratch,
        }
    }

    /// Sort the bucket at CSC position `lo` by (destination, source),
    /// stably: its sources `src`, destinations `dst` and weights `w` (empty
    /// for an unweighted list) in input order come out as sources and
    /// weights at their destinations' `cursor` slots.
    fn sort(
        &mut self,
        src: &mut [VertexId],
        dst: &[VertexId],
        w: &mut [f32],
        lo: usize,
        cursor: &mut [u64],
    ) {
        let k = src.len();
        let radix = 1 << self.width;
        let (mut keys, rest) = self.scratch.split_at_mut(2 * k);
        let (mut spare, rest) = rest.split_at_mut(2 * k);
        self.counts.fill(0);
        for (i, (&s, key)) in src.iter().zip(keys.chunks_exact_mut(2)).enumerate() {
            key.copy_from_slice(&[s, i as u32]);
            for (p, count) in self.counts.chunks_exact_mut(radix).enumerate() {
                count[(s >> (p as u32 * self.width)) as usize & (radix - 1)] += 1;
            }
        }
        for (p, next) in self.counts.chunks_exact_mut(radix).enumerate() {
            let mut sum = 0;
            for c in next.iter_mut() {
                (*c, sum) = (sum, sum + *c);
            }
            let shift = p as u32 * self.width;
            for key in keys.chunks_exact(2) {
                let digit = (key[0] >> shift) as usize & (radix - 1);
                let at = 2 * next[digit] as usize;
                next[digit] += 1;
                spare[at..at + 2].copy_from_slice(key);
            }
            std::mem::swap(&mut keys, &mut spare);
        }

        let weights = &mut rest[..w.len()];
        for (copy, x) in weights.iter_mut().zip(w.iter()) {
            *copy = x.to_bits();
        }
        for key in keys.chunks_exact(2) {
            let i = key[1] as usize;
            let at = claim(cursor, dst[i]) - lo;
            src[at] = key[0];
            if !weights.is_empty() {
                w[at] = f32::from_bits(weights[i]);
            }
        }
    }
}

/// Take the next slot of run `v` (a row or a bucket) in a counting scatter.
#[inline]
fn claim(cursor: &mut [u64], v: VertexId) -> usize {
    let at = cursor[v as usize];
    cursor[v as usize] += 1;
    at as usize
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::gen;

    /// The three-pass builder this module shipped before the blocked
    /// passes, kept verbatim as the differential oracle: one counting
    /// pass, then stable scatters by source, by destination and by source.
    fn three_pass(el: &EdgeList) -> GraphLayout {
        let n = el.num_vertices as usize;
        let m = el.edges.len();
        assert!(
            u32::try_from(m).is_ok(),
            "canonical edge ids are u32: a layout holds at most u32::MAX edges, got {m}"
        );
        let mut csc_off = vec![0u64; n + 1];
        let mut csr_off = vec![0u64; n + 1];
        for &(s, d) in &el.edges {
            csr_off[s as usize + 1] += 1;
            csc_off[d as usize + 1] += 1;
        }
        for v in 0..n {
            csc_off[v + 1] += csc_off[v];
            csr_off[v + 1] += csr_off[v];
        }

        // Pass 1: scatter by source in input order. `csr_dst` is scratch
        // until pass 3 refills it.
        let mut csr_dst = vec![0; m];
        let mut row_w = vec![0f32; el.weights.as_ref().map_or(0, Vec::len)];
        let mut cursor = csr_off.clone();
        for (k, &(s, d)) in el.edges.iter().enumerate() {
            let at = claim(&mut cursor, s);
            csr_dst[at] = d;
            if let Some(w) = &el.weights {
                row_w[at] = w[k];
            }
        }

        // Pass 2: rows in source order, scattered by destination. Canonical.
        let mut csc_src = vec![0; m];
        let mut weights = vec![1.0f32; m];
        let mut cursor = csc_off.clone();
        for (s, row) in csr_off.windows(2).enumerate() {
            let row = row[0] as usize..row[1] as usize;
            for (i, &d) in row.clone().zip(&csr_dst[row]) {
                let eid = claim(&mut cursor, d);
                csc_src[eid] = s as VertexId;
                if el.weights.is_some() {
                    weights[eid] = row_w[i];
                }
            }
        }
        drop(row_w);

        // Pass 3: canonical order scattered by source, ids attached.
        let mut csr_eid = vec![0u32; m];
        let mut cursor = csr_off.clone();
        for (d, row) in csc_off.windows(2).enumerate() {
            let row = row[0] as usize..row[1] as usize;
            for (eid, &s) in row.clone().zip(&csc_src[row]) {
                let at = claim(&mut cursor, s);
                csr_dst[at] = d as VertexId;
                csr_eid[at] = eid as u32;
            }
        }

        GraphLayout {
            csc: Adjacency {
                offsets: csc_off,
                neighbors: csc_src,
                edge_ids: Vec::new(),
            },
            csr: Adjacency {
                offsets: csr_off,
                neighbors: csr_dst,
                edge_ids: csr_eid,
            },
            weights,
        }
    }

    fn diamond() -> EdgeList {
        // 0->1, 0->2, 1->3, 2->3, 3->0
        EdgeList::from_edges(4, vec![(3, 0), (1, 3), (0, 1), (2, 3), (0, 2)])
    }

    #[test]
    fn csc_sorted_by_destination_then_source() {
        let g = GraphLayout::build(&diamond());
        // Canonical order: dst 0: (3,0); dst 1: (0,1); dst 2: (0,2); dst 3: (1,3),(2,3)
        assert_eq!(g.csc.offsets, vec![0, 1, 2, 3, 5]);
        assert_eq!(g.csc.neighbors, vec![3, 0, 0, 1, 2]);
    }

    #[test]
    fn csr_sorted_by_source_with_canonical_ids() {
        let g = GraphLayout::build(&diamond());
        assert_eq!(g.csr.offsets, vec![0, 2, 3, 4, 5]);
        assert_eq!(g.csr.neighbors, vec![1, 2, 3, 3, 0]);
        // Edge (0,1) is canonical id 1; (0,2) id 2; (1,3) id 3; (2,3) id 4; (3,0) id 0.
        assert_eq!(g.csr.edge_ids, vec![1, 2, 3, 4, 0]);
    }

    #[test]
    fn csr_and_csc_agree_on_every_edge() {
        let g = GraphLayout::build(&diamond());
        for v in 0..4u32 {
            for (dst, eid) in g.csr.entries(v) {
                assert_eq!(g.edge_endpoints(eid), (v, dst));
            }
        }
        for v in 0..4u32 {
            for (src, eid) in g.csc.entries(v) {
                assert_eq!(g.edge_endpoints(eid), (src, v));
            }
        }
    }

    #[test]
    fn weights_follow_canonical_order() {
        let el = EdgeList::from_edges(3, vec![(1, 2), (0, 2), (0, 1)])
            .with_weights(vec![12.0, 2.0, 1.0]);
        let g = GraphLayout::build(&el);
        // Canonical: dst1:(0,1) w=1; dst2:(0,2) w=2, (1,2) w=12.
        assert_eq!(g.weights, vec![1.0, 2.0, 12.0]);
        // CSR row 0: (1, id0), (2, id1); row 1: (2, id2).
        let row0: Vec<_> = g.csr.entries(0).collect();
        assert_eq!(row0, vec![(1, 0), (2, 1)]);
        assert_eq!(g.weights[g.csr.entries(1).next().unwrap().1 as usize], 12.0);
    }

    #[test]
    fn interval_ranges_are_contiguous() {
        let g = GraphLayout::build(&diamond());
        assert_eq!(g.csc.interval_range(0, 4), 0..5);
        assert_eq!(g.csc.interval_range(1, 3), 1..3);
        assert_eq!(g.csr.interval_range(2, 4), 3..5);
    }

    #[test]
    fn degrees() {
        let g = GraphLayout::build(&diamond());
        assert_eq!(g.csr.degree(0), 2);
        assert_eq!(g.csc.degree(3), 2);
        assert_eq!(g.csc.degree(0), 1);
    }

    #[test]
    fn empty_rows_handled() {
        let el = EdgeList::from_edges(5, vec![(0, 4)]);
        let g = GraphLayout::build(&el);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_endpoints(0), (0, 4));
        assert_eq!(g.csc.degree(2), 0);
        assert_eq!(g.csr.entries(1).count(), 0);
    }

    #[test]
    fn empty_graph() {
        let g = GraphLayout::build(&EdgeList::new(3));
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 0);
    }

    /// A hub whose out-row and in-row both hold 60 entries over six
    /// neighbors in scrambled order, so each row has long duplicate runs.
    fn multi_edge_hub() -> EdgeList {
        let mut edges = Vec::new();
        for i in 0..60u32 {
            edges.push((0, 1 + (i * 7) % 6));
            edges.push((1 + (i * 5) % 6, 0));
        }
        edges.push((3, 3));
        EdgeList::from_edges(9, edges)
    }

    fn unweighted_corpus() -> Vec<EdgeList> {
        let mut lists = vec![
            gen::rmat_g500(10, 20_000, 1),
            gen::rmat(8, 5_000, 0.45, 0.22, 0.22, 2).symmetrize(),
            gen::grid2d_with_edges(4_000, 12_000, 3),
            gen::uniform(500, 8_000, 4),
            EdgeList::from_edges(50, vec![(49, 0), (7, 7), (0, 49), (20, 3), (20, 3)]),
            multi_edge_hub(),
            EdgeList::new(0),
        ];
        lists.extend((5..9).map(|seed| gen::rmat_g500(6, 3_000, seed)));
        lists
    }

    /// Caps that cut the corpus into buckets of one block, of a few blocks,
    /// and of every block.
    const CAPS: [usize; 5] = [1, 2, 7, 64, BUCKET_CAP];

    fn assert_blocked_builds_match_the_oracle(el: &EdgeList) {
        let want = three_pass(el);
        for cap in CAPS {
            assert_eq!(
                GraphLayout::build_blocked(el, cap),
                want,
                "cap {cap}: {el:?}"
            );
        }
    }

    #[test]
    fn blocked_build_matches_the_three_pass_oracle() {
        for el in unweighted_corpus() {
            assert_blocked_builds_match_the_oracle(&el);
        }
    }

    /// Weighted lists match weights and all: both builders keep duplicate
    /// `(src, dst)` edges in input order.
    #[test]
    fn weighted_layouts_match_the_three_pass_oracle() {
        for (seed, el) in (1..).zip(unweighted_corpus()) {
            assert_blocked_builds_match_the_oracle(&gen::with_random_weights(el, 9.0, seed));
        }
    }

    /// Lists that put bucket boundaries where they can go wrong.
    fn bucket_edge_cases() -> Vec<EdgeList> {
        let block = 1 << BLOCK_SHIFT;
        // A hub (vertex 70, in the second block) heavier than every cap,
        // between two blocks of ordinary edges.
        let mut hub: Vec<_> = (0..BUCKET_CAP as u32 + 100)
            .map(|i| (i % 300, 70))
            .collect();
        hub.extend((0..900u32).map(|i| ((i * 31) % 300, (i * 17) % 300)));
        // Edges among the first three blocks, isolated vertices after.
        let tail = (0..600u32).map(|i| ((i * 13) % 150, (i * 7 + 3) % 150));
        // Self-loops, repeated, some on block boundaries.
        let loops = (0..400u32).map(|i| {
            let v = [0, 1, block - 1, block, 2 * block + 5][i as usize % 5];
            (v, v)
        });
        // Runs of one (src, dst) pair, each run's weights distinct.
        let runs = (0..500u32).map(|i| (i / 50 % 3, 64 + i / 150));
        vec![
            EdgeList::from_edges(300, hub),
            EdgeList::from_edges(3 * block + 17, tail.collect()),
            EdgeList::from_edges(200, (0..500).map(|i| (i % 200, 137)).collect()),
            EdgeList::new(0),
            EdgeList::new(2 * block + 1),
            EdgeList::from_edges(3 * block, loops.collect()),
            EdgeList::from_edges(130, runs.collect()),
        ]
    }

    #[test]
    fn bucket_edges_match_the_three_pass_oracle() {
        for (seed, el) in (100..).zip(bucket_edge_cases()) {
            assert_blocked_builds_match_the_oracle(&el);
            assert_blocked_builds_match_the_oracle(&gen::with_random_weights(el, 9.0, seed));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any list, weighted or not, at any cap: the oracle's layout.
        #[test]
        fn blocked_build_matches_the_oracle_at_any_cap(
            el in (1u32..400).prop_flat_map(|n| {
                prop::collection::vec((0..n, 0..n), 0..800)
                    .prop_map(move |edges| EdgeList::from_edges(n, edges))
            }),
            cap in 0usize..300,
            weighted in any::<bool>(),
        ) {
            let el = if weighted { gen::with_random_weights(el, 9.0, cap as u64) } else { el };
            prop_assert_eq!(GraphLayout::build_blocked(&el, cap), three_pass(&el));
        }
    }

    #[test]
    #[should_panic(expected = "edge (3, 9) has an endpoint out of range for 5 vertices")]
    fn an_endpoint_past_the_last_vertex_is_refused() {
        let el = EdgeList {
            num_vertices: 5,
            edges: vec![(0, 1), (3, 9)],
            weights: None,
        };
        GraphLayout::build(&el);
    }

    #[test]
    #[should_panic(expected = "the edge list carries 1 weights for 2 edges")]
    fn a_short_weight_vector_is_refused() {
        let el = EdgeList {
            num_vertices: 5,
            edges: vec![(0, 1), (3, 4)],
            weights: Some(vec![2.0]),
        };
        GraphLayout::build(&el);
    }

    #[test]
    fn duplicate_edges_keep_input_order() {
        let el = EdgeList::from_edges(3, vec![(1, 2), (0, 2), (1, 2), (1, 2), (0, 2)])
            .with_weights(vec![5.0, 4.0, 3.0, 7.0, 1.0]);
        let g = GraphLayout::build(&el);
        assert_eq!(g.csc.neighbors, vec![0, 0, 1, 1, 1]);
        assert_eq!(g.weights, vec![4.0, 1.0, 5.0, 3.0, 7.0]);
        assert_eq!(g.csr.edge_ids, vec![0, 1, 2, 3, 4]);
    }
}
