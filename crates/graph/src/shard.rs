//! The shard data structure (Figure 7).
//!
//! A shard is the unit of host↔device streaming: for one vertex interval it
//! names every edge with a destination in the interval (the CSC slice — used
//! by gatherMap) and every edge with a source in the interval (the CSR
//! slice — used by scatter and FrontierActivate). Because both layouts sort
//! by the interval's own endpoint, a shard's edges occupy *contiguous*
//! ranges of the global CSC/CSR arrays — the property that makes shard
//! transfers large sequential copies rather than gathers (Section 4.2's
//! first reason for sorted edges).
//!
//! Shards here are descriptors: the backing arrays live in the
//! [`crate::csr::GraphLayout`] (the host's master copy), and engines
//! materialize device-resident buffers from these ranges.

use std::ops::Range;

use crate::csr::GraphLayout;
use crate::partition::Interval;

/// Descriptor of one shard.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Shard {
    /// Shard index within the partition.
    pub id: usize,
    /// The vertex interval this shard owns.
    pub interval: Interval,
    /// Contiguous range of canonical edge ids (CSC positions) whose
    /// destination lies in the interval: the shard's in-edges.
    pub in_edges: Range<usize>,
    /// Contiguous range of CSR positions whose source lies in the interval:
    /// the shard's out-edges.
    pub out_edges: Range<usize>,
}

impl Shard {
    /// Vertices in this shard's interval.
    pub fn num_vertices(&self) -> u64 {
        self.interval.len() as u64
    }

    /// In-edge count.
    pub fn num_in_edges(&self) -> u64 {
        self.in_edges.len() as u64
    }

    /// Out-edge count.
    pub fn num_out_edges(&self) -> u64 {
        self.out_edges.len() as u64
    }

    /// Total edge mass (in + out), the load-balancing quantity.
    pub fn edge_mass(&self) -> u64 {
        self.num_in_edges() + self.num_out_edges()
    }
}

/// Materialize shard descriptors for a partition of `layout`.
pub fn build_shards(layout: &GraphLayout, intervals: &[Interval]) -> Vec<Shard> {
    intervals
        .iter()
        .enumerate()
        .map(|(id, &interval)| Shard {
            id,
            interval,
            in_edges: layout.csc.interval_range(interval.start, interval.end),
            out_edges: layout.csr.interval_range(interval.start, interval.end),
        })
        .collect()
}

/// Split `shard` into two sub-shards of approximately equal edge mass —
/// the memory governor's adaptive response when one shard's buffer set
/// exceeds device capacity. The cut point walks the interval accumulating
/// in+out degree and closes the left half once it holds half the mass,
/// so a skewed interval splits where the bytes are, not at the vertex
/// midpoint. Returns `None` for single-vertex intervals (the split floor:
/// a hub vertex's edges cannot be divided by interval surgery). Both
/// halves inherit `shard.id`; the caller renumbers.
pub fn split_shard(layout: &GraphLayout, shard: &Shard) -> Option<(Shard, Shard)> {
    let iv = shard.interval;
    if iv.len() < 2 {
        return None;
    }
    let total: u64 = (iv.start..iv.end)
        .map(|v| layout.csc.degree(v) + layout.csr.degree(v) + 1)
        .sum();
    let mut acc = 0u64;
    let mut mid = iv.start + 1;
    for v in iv.start..iv.end - 1 {
        acc += layout.csc.degree(v) + layout.csr.degree(v) + 1;
        if acc * 2 >= total {
            mid = v + 1;
            break;
        }
    }
    let (left, right) = iv.split_at(mid)?;
    let make = |interval: Interval| Shard {
        id: shard.id,
        interval,
        in_edges: layout.csc.interval_range(interval.start, interval.end),
        out_edges: layout.csr.interval_range(interval.start, interval.end),
    };
    Some((make(left), make(right)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::partition::partition_even_edges;

    fn layout() -> GraphLayout {
        GraphLayout::build(&gen::rmat_g500(10, 8000, 77))
    }

    fn shards(g: &GraphLayout, p: usize) -> Vec<Shard> {
        build_shards(g, &partition_even_edges(g, p))
    }

    #[test]
    fn shards_cover_all_edges_exactly_once() {
        let g = layout();
        let shards = shards(&g, 7);
        let total_in: u64 = shards.iter().map(Shard::num_in_edges).sum();
        let total_out: u64 = shards.iter().map(Shard::num_out_edges).sum();
        assert_eq!(total_in, g.num_edges());
        assert_eq!(total_out, g.num_edges());
        // Ranges are contiguous and abut.
        for w in shards.windows(2) {
            assert_eq!(w[0].in_edges.end, w[1].in_edges.start);
            assert_eq!(w[0].out_edges.end, w[1].out_edges.start);
        }
        assert_eq!(shards[0].in_edges.start, 0);
        assert_eq!(shards.last().unwrap().in_edges.end as u64, g.num_edges());
    }

    #[test]
    fn shard_edges_match_interval_membership() {
        let g = layout();
        let shards = shards(&g, 5);
        for sh in &shards {
            // Every in-edge's destination is in the interval.
            for eid in sh.in_edges.clone() {
                let (_, dst) = g.edge_endpoints(eid as u32);
                assert!(sh.interval.contains(dst));
            }
            // Every out-edge's source is in the interval.
            for pos in sh.out_edges.clone() {
                let eid = g.csr.edge_id(pos);
                let (src, _) = g.edge_endpoints(eid);
                assert!(sh.interval.contains(src));
            }
        }
    }

    #[test]
    fn edge_mass_is_balanced() {
        let g = layout();
        let shards = shards(&g, 8);
        let avg = shards.iter().map(Shard::edge_mass).sum::<u64>() as f64 / shards.len() as f64;
        for sh in &shards {
            assert!((sh.edge_mass() as f64) < 3.0 * avg);
        }
    }

    #[test]
    fn split_shard_conserves_edges_and_balances_mass() {
        let g = layout();
        let shards = shards(&g, 3);
        for sh in &shards {
            let (l, r) = split_shard(&g, sh).unwrap();
            // Halves abut and cover the parent exactly.
            assert_eq!(l.interval.start, sh.interval.start);
            assert_eq!(l.interval.end, r.interval.start);
            assert_eq!(r.interval.end, sh.interval.end);
            assert_eq!(l.in_edges.start, sh.in_edges.start);
            assert_eq!(l.in_edges.end, r.in_edges.start);
            assert_eq!(r.in_edges.end, sh.in_edges.end);
            assert_eq!(l.out_edges.start, sh.out_edges.start);
            assert_eq!(l.out_edges.end, r.out_edges.start);
            assert_eq!(r.out_edges.end, sh.out_edges.end);
            // The cut lands near the mass midpoint, not just the vertex
            // midpoint (rmat graphs are heavily skewed).
            let lm = l.edge_mass() + l.num_vertices();
            let rm = r.edge_mass() + r.num_vertices();
            let total = lm + rm;
            assert!(lm * 2 >= total / 2, "left half too light: {lm} of {total}");
        }
    }

    #[test]
    fn split_shard_floor_is_one_vertex() {
        let g = layout();
        let shards = shards(&g, 2);
        let mut sh = shards[0].clone();
        // Split all the way down the left spine; must terminate at 1 vertex.
        while let Some((l, _)) = split_shard(&g, &sh) {
            assert!(l.num_vertices() < sh.num_vertices());
            sh = l;
        }
        assert_eq!(sh.num_vertices(), 1);
    }

    #[test]
    fn ids_are_sequential() {
        let g = layout();
        let shards = shards(&g, 4);
        for (i, sh) in shards.iter().enumerate() {
            assert_eq!(sh.id, i);
        }
    }
}
