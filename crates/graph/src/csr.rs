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
//! [`GraphLayout::build`] does the paper's two sorts as three stable
//! counting passes, sequential over their input and O(|V|) in working
//! state, after one pass that counts both offset arrays:
//!
//! 1. scatter the edge list by source (into the CSR neighbor array, used as
//!    scratch; weights, if any, ride along in one m-sized array);
//! 2. walk those rows in source order and scatter them by destination:
//!    canonical CSC order is (destination, source, input order);
//! 3. walk canonical order and scatter it by source: CSR rows come out in
//!    (destination, canonical id) order, each entry carrying its id.
//!
//! The weight scratch of pass 1 is freed before pass 3 allocates the CSR id
//! array, so the build never holds more than its input and its output.
//! Duplicate `(src, dst)` edges keep their input order in canonical order,
//! and so do their weights.

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
    /// Build both layouts from an edge list: one counting pass and three
    /// stable scatters (see the module docs).
    ///
    /// # Panics
    ///
    /// If the list has more than `u32::MAX` edges: canonical ids are `u32`.
    pub fn build(el: &EdgeList) -> GraphLayout {
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

/// Take the next slot of row `v` in a counting scatter.
#[inline]
fn claim(cursor: &mut [u64], v: VertexId) -> usize {
    let at = cursor[v as usize];
    cursor[v as usize] += 1;
    at as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    /// The row-sorting builder this module shipped before the counting
    /// passes, kept verbatim as the differential oracle.
    fn build_by_row_sort(el: &EdgeList) -> GraphLayout {
        let n = el.num_vertices as usize;
        let m = el.edges.len();

        // --- CSC: counting sort by destination. Canonical order. ---
        let mut csc_off = vec![0u64; n + 1];
        for &(_, d) in &el.edges {
            csc_off[d as usize + 1] += 1;
        }
        for i in 0..n {
            csc_off[i + 1] += csc_off[i];
        }
        let mut csc_src = vec![0u32; m];
        let mut weights = vec![1.0f32; m];
        let mut cursor = csc_off.clone();
        // Position of input edge k in canonical order.
        let mut canon_of_input = vec![0u32; m];
        for (k, &(s, d)) in el.edges.iter().enumerate() {
            let pos = cursor[d as usize] as usize;
            cursor[d as usize] += 1;
            csc_src[pos] = s;
            canon_of_input[k] = pos as u32;
            if let Some(w) = &el.weights {
                weights[pos] = w[k];
            }
        }
        // Sort each CSC row by source for deterministic, coalesced layout.
        // Rows are typically short; sort index pairs per row.
        // (We must keep canon ids consistent: re-sorting within the row
        // permutes canonical ids, so do it *before* handing out ids — i.e.
        // sort here and rebuild canon_of_input accordingly.)
        {
            let mut perm: Vec<u32> = (0..m as u32).collect();
            for v in 0..n {
                let lo = csc_off[v] as usize;
                let hi = csc_off[v + 1] as usize;
                perm[lo..hi].sort_unstable_by_key(|&p| csc_src[p as usize]);
            }
            // Apply permutation: new canonical position i holds old pos perm[i].
            let mut inv = vec![0u32; m];
            for (i, &p) in perm.iter().enumerate() {
                inv[p as usize] = i as u32;
            }
            let old_src = csc_src.clone();
            let old_w = weights.clone();
            for i in 0..m {
                csc_src[i] = old_src[perm[i] as usize];
                weights[i] = old_w[perm[i] as usize];
            }
            for c in canon_of_input.iter_mut() {
                *c = inv[*c as usize];
            }
        }

        // --- CSR: counting sort by source, carrying canonical ids. ---
        let mut csr_off = vec![0u64; n + 1];
        for &(s, _) in &el.edges {
            csr_off[s as usize + 1] += 1;
        }
        for i in 0..n {
            csr_off[i + 1] += csr_off[i];
        }
        let mut csr_dst = vec![0u32; m];
        let mut csr_eid = vec![0u32; m];
        let mut cursor = csr_off.clone();
        for (k, &(s, d)) in el.edges.iter().enumerate() {
            let pos = cursor[s as usize] as usize;
            cursor[s as usize] += 1;
            csr_dst[pos] = d;
            csr_eid[pos] = canon_of_input[k];
        }
        // Sort each CSR row by destination (keeps eids paired).
        for v in 0..n {
            let lo = csr_off[v] as usize;
            let hi = csr_off[v + 1] as usize;
            let row: &mut Vec<(u32, u32)> = &mut csr_dst[lo..hi]
                .iter()
                .copied()
                .zip(csr_eid[lo..hi].iter().copied())
                .collect();
            row.sort_unstable();
            for (i, &(d, e)) in row.iter().enumerate() {
                csr_dst[lo + i] = d;
                csr_eid[lo + i] = e;
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
    /// neighbors in scrambled order, so each row has long duplicate runs
    /// and is longer than the 20 entries below which pdqsort is an
    /// insertion sort.
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

    #[test]
    fn counting_passes_match_the_row_sort_oracle() {
        for el in unweighted_corpus() {
            assert_eq!(GraphLayout::build(&el), build_by_row_sort(&el), "{el:?}");
        }
    }

    /// Weighted lists: the topology is identical and each run of duplicate
    /// `(src, dst)` edges holds the same weights; only the order within a
    /// run may differ, since the oracle's unstable sort left it undefined.
    #[test]
    fn weighted_layouts_match_the_oracle_up_to_duplicate_order() {
        for (seed, el) in (1..).zip(unweighted_corpus()) {
            let el = gen::with_random_weights(el, 9.0, seed);
            let (got, want) = (GraphLayout::build(&el), build_by_row_sort(&el));
            assert_eq!((&got.csc, &got.csr), (&want.csc, &want.csr));
            let mut lo = 0;
            while lo < got.weights.len() {
                let e = got.edge_endpoints(lo as u32);
                let mut hi = lo + 1;
                while hi < got.weights.len() && got.edge_endpoints(hi as u32) == e {
                    hi += 1;
                }
                let run = |w: &[f32]| {
                    let mut bits: Vec<u32> = w[lo..hi].iter().map(|x| x.to_bits()).collect();
                    bits.sort_unstable();
                    bits
                };
                assert_eq!(run(&got.weights), run(&want.weights), "run {e:?}");
                lo = hi;
            }
        }
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
