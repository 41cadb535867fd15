//! Load-balanced vertex-interval partitioning (Partition Engine, §4.2).
//!
//! The vertex set is divided into disjoint contiguous intervals; each
//! interval's shard holds every edge with a source *or* destination inside
//! the interval. The Shard Creator balances intervals so each shard carries
//! approximately the same number of edges (in-degree + out-degree mass),
//! which balances both transfer sizes and kernel work across streams.

use crate::csr::GraphLayout;
use crate::edgelist::VertexId;

/// A half-open vertex interval `[start, end)`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Interval {
    pub start: VertexId,
    pub end: VertexId,
}

impl Interval {
    /// Number of vertices in the interval.
    pub fn len(&self) -> u32 {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Whether `v` falls inside the interval.
    pub fn contains(&self, v: VertexId) -> bool {
        (self.start..self.end).contains(&v)
    }

    /// Split at `mid` into `[start, mid)` and `[mid, end)`. Returns `None`
    /// unless both halves are non-empty (the partition invariant).
    pub fn split_at(&self, mid: VertexId) -> Option<(Interval, Interval)> {
        if mid <= self.start || mid >= self.end {
            return None;
        }
        Some((
            Interval {
                start: self.start,
                end: mid,
            },
            Interval {
                start: mid,
                end: self.end,
            },
        ))
    }

    /// Split at the vertex midpoint. `None` for intervals of fewer than two
    /// vertices — the floor of adaptive shard splitting.
    pub fn split(&self) -> Option<(Interval, Interval)> {
        self.split_at(self.start + self.len() / 2)
    }
}

/// Split the vertex set into at most `max_shards` contiguous intervals with
/// approximately equal in+out edge mass each. Returns at least one interval
/// (the whole set) for any non-empty graph; intervals are non-empty,
/// disjoint, ordered, and cover `[0, num_vertices)`.
pub fn partition_even_edges(layout: &GraphLayout, max_shards: usize) -> Vec<Interval> {
    let n = layout.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let shards = max_shards.max(1).min(n as usize) as u64;
    // Work mass of vertex v = in_deg + out_deg + 1 (the +1 keeps progress on
    // isolated vertices and bounds interval length for sparse regions).
    let total: u64 = layout.num_edges() * 2 + n as u64;
    let mut out = Vec::with_capacity(shards as usize);
    let mut acc = 0u64;
    let mut start = 0u32;
    let mut next_boundary = total.div_ceil(shards);
    let mut produced = 0u64;
    for v in 0..n {
        acc += layout.csc.degree(v) + layout.csr.degree(v) + 1;
        let remaining_vertices = n - v - 1;
        let remaining_shards = shards - produced - 1;
        // Close the interval when we pass the boundary, but always leave at
        // least one vertex per remaining shard.
        if (acc >= next_boundary && remaining_shards > 0 && v + 1 > start)
            || remaining_vertices == remaining_shards as u32
        {
            if remaining_shards == 0 {
                break;
            }
            out.push(Interval { start, end: v + 1 });
            produced += 1;
            start = v + 1;
            next_boundary = total * (produced + 1) / shards;
        }
    }
    out.push(Interval { start, end: n });
    out
}

/// Check the partition invariants (used by tests and debug assertions):
/// non-empty, ordered, disjoint, covering.
pub fn validate_partition(intervals: &[Interval], num_vertices: u32) -> Result<(), String> {
    if num_vertices == 0 {
        return if intervals.is_empty() {
            Ok(())
        } else {
            Err("empty graph must have empty partition".into())
        };
    }
    if intervals.is_empty() {
        return Err("no intervals".into());
    }
    if intervals[0].start != 0 {
        return Err(format!("first interval starts at {}", intervals[0].start));
    }
    for w in intervals.windows(2) {
        if w[0].end != w[1].start {
            return Err(format!("gap/overlap between {:?} and {:?}", w[0], w[1]));
        }
    }
    for iv in intervals {
        if iv.is_empty() {
            return Err(format!("empty interval {iv:?}"));
        }
    }
    let last = intervals.last().unwrap();
    if last.end != num_vertices {
        return Err(format!(
            "last interval ends at {} != {num_vertices}",
            last.end
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edgelist::EdgeList;
    use crate::gen;

    fn layout(v: u32, e: u64, seed: u64) -> GraphLayout {
        GraphLayout::build(&gen::rmat_g500((v as f64).log2().ceil() as u32, e, seed))
    }

    #[test]
    fn covers_and_validates() {
        let g = layout(1024, 10_000, 1);
        for p in [1, 2, 3, 7, 16, 100] {
            let ivs = partition_even_edges(&g, p);
            validate_partition(&ivs, g.num_vertices()).unwrap();
            assert!(ivs.len() <= p);
        }
    }

    #[test]
    fn single_shard_is_whole_graph() {
        let g = layout(256, 1000, 2);
        let ivs = partition_even_edges(&g, 1);
        assert_eq!(ivs, vec![Interval { start: 0, end: 256 }]);
    }

    #[test]
    fn balanced_within_factor() {
        let g = layout(4096, 100_000, 3);
        let ivs = partition_even_edges(&g, 8);
        assert_eq!(ivs.len(), 8);
        let masses: Vec<u64> = ivs
            .iter()
            .map(|iv| {
                (iv.start..iv.end)
                    .map(|v| g.csc.degree(v) + g.csr.degree(v))
                    .sum()
            })
            .collect();
        let avg = masses.iter().sum::<u64>() as f64 / masses.len() as f64;
        // Power-law graphs can't be perfectly balanced by contiguous
        // intervals, but no shard should be wildly off.
        for m in &masses {
            assert!((*m as f64) < 3.0 * avg, "shard mass {m} vs avg {avg}");
        }
    }

    #[test]
    fn more_shards_than_vertices_clamps() {
        let g = layout(16, 60, 4);
        let ivs = partition_even_edges(&g, 64);
        validate_partition(&ivs, 16).unwrap();
        assert!(ivs.len() <= 16);
    }

    #[test]
    fn empty_graph_has_no_intervals() {
        let g = GraphLayout::build(&EdgeList::new(0));
        assert!(partition_even_edges(&g, 4).is_empty());
        validate_partition(&[], 0).unwrap();
    }

    #[test]
    fn split_balances_and_respects_bounds() {
        let iv = Interval { start: 10, end: 20 };
        let (l, r) = iv.split().unwrap();
        assert_eq!(l, Interval { start: 10, end: 15 });
        assert_eq!(r, Interval { start: 15, end: 20 });
        validate_partition(&[l, r], 20).err(); // halves abut
        assert!(iv.split_at(10).is_none(), "empty left half");
        assert!(iv.split_at(20).is_none(), "empty right half");
        assert!(Interval { start: 3, end: 4 }.split().is_none());
        let odd = Interval { start: 0, end: 3 };
        let (l, r) = odd.split().unwrap();
        assert_eq!((l.len(), r.len()), (1, 2));
    }

    #[test]
    fn validate_catches_violations() {
        assert!(validate_partition(&[], 5).is_err());
        assert!(validate_partition(&[Interval { start: 1, end: 5 }], 5).is_err());
        assert!(validate_partition(&[Interval { start: 0, end: 3 }], 5).is_err());
        assert!(validate_partition(
            &[Interval { start: 0, end: 2 }, Interval { start: 3, end: 5 }],
            5
        )
        .is_err());
        assert!(validate_partition(
            &[
                Interval { start: 0, end: 2 },
                Interval { start: 2, end: 2 },
                Interval { start: 2, end: 5 }
            ],
            5
        )
        .is_err());
    }
}
