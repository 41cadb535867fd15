//! Multi-source BFS: bit-parallel reachability from up to 64 sources at
//! once.
//!
//! Each vertex carries a 64-bit mask of the sources that have reached it;
//! Gather ORs the in-neighbors' masks, Apply records newly arrived bits
//! (and the iteration at which the *first* source arrived). One run
//! answers 64 reachability queries — the classic MS-BFS trick, and a GAS
//! program whose reduction (`|`) differs from the min/sum family the
//! paper's four algorithms use, exercising the framework's generality
//! claim (Section 2.1).

use graphreduce::{GasProgram, InitialFrontier};

/// The sources of one sweep, checked: 1 to 64 lanes.
fn checked_lanes(sources: Vec<u32>) -> Vec<u32> {
    assert!(
        (1..=64).contains(&sources.len()),
        "MS-BFS runs 1..=64 sources per pass"
    );
    sources
}

/// Vertex `v`'s seed mask: bit `i` set iff `sources[i] == v`.
fn initial_mask(sources: &[u32], v: u32) -> u64 {
    let mut m = 0;
    for (i, &s) in sources.iter().enumerate() {
        if s == v {
            m |= 1 << i;
        }
    }
    m
}

/// Per-vertex MS-BFS state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct MsBfsValue {
    /// Bit `i` set ⇔ source `i` reaches this vertex.
    pub reached_by: u64,
    /// Iteration at which the first source arrived (`u32::MAX` = never).
    pub first_hit: u32,
}

graphreduce::impl_state_bytes!(MsBfsValue {
    reached_by: u64,
    first_hit: u32,
});

/// Multi-source BFS from up to 64 sources.
#[derive(Clone, Debug)]
pub struct MsBfs {
    /// Source vertices (bit `i` of every mask corresponds to
    /// `sources[i]`). At most 64.
    pub sources: Vec<u32>,
}

impl MsBfs {
    pub fn new(sources: Vec<u32>) -> Self {
        MsBfs {
            sources: checked_lanes(sources),
        }
    }
}

impl GasProgram for MsBfs {
    type VertexValue = MsBfsValue;
    type EdgeValue = ();
    type Gather = u64;

    fn name(&self) -> &'static str {
        "ms-bfs"
    }

    fn init_vertex(&self, v: u32, _out_degree: u32) -> MsBfsValue {
        let mask = initial_mask(&self.sources, v);
        MsBfsValue {
            reached_by: mask,
            first_hit: if mask != 0 { 0 } else { u32::MAX },
        }
    }

    fn initial_frontier(&self) -> InitialFrontier {
        // Iteration 0 activates the seeds alone; its apply reports each
        // one changed, so iteration 1's frontier is their neighborhood.
        InitialFrontier::Sources(self.sources.clone())
    }

    fn gather_identity(&self) -> u64 {
        0
    }

    fn gather_map(&self, _dst: &MsBfsValue, src: &MsBfsValue, _e: &(), _w: f32) -> u64 {
        src.reached_by
    }

    fn gather_reduce(&self, a: u64, b: u64) -> u64 {
        a | b
    }

    /// The map is the source's mask alone.
    fn gather_is_source_only(&self) -> bool {
        true
    }

    fn apply(&self, v: &mut MsBfsValue, r: u64, iteration: u32) -> bool {
        if iteration == 0 {
            // Seeding round: only the sources propagate.
            return v.reached_by != 0;
        }
        let new_bits = r & !v.reached_by;
        if new_bits == 0 {
            return false;
        }
        v.reached_by |= new_bits;
        if v.first_hit == u32::MAX {
            v.first_hit = iteration;
        }
        true
    }

    fn scatter(&self, _s: &MsBfsValue, _d: &MsBfsValue, _e: &mut ()) {}
}

/// Per-vertex state for [`MsBfsLevels`]: the reachability mask plus one
/// BFS depth *per source lane*.
///
/// `levels[i]` is the iteration at which source `i`'s wave first reached
/// this vertex — exactly the depth the standalone [`crate::Bfs`] program
/// records (its Apply writes the iteration number on first touch, and the
/// MS-BFS wave advances one hop per iteration from the same seeds), with
/// [`crate::UNREACHED`] for lanes that never arrive. This is what lets a
/// serving layer batch K point-BFS queries into one sweep and demultiplex
/// bit-identical per-query answers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MsBfsLevelsValue {
    /// Bit `i` set ⇔ source `i` reaches this vertex.
    pub reached_by: u64,
    /// Per-lane BFS depth (`u32::MAX` = lane never arrived).
    pub levels: [u32; 64],
}

impl Default for MsBfsLevelsValue {
    fn default() -> Self {
        MsBfsLevelsValue {
            reached_by: 0,
            levels: [u32::MAX; 64],
        }
    }
}

// `impl_state_bytes!` handles named scalar fields only; the lane array is
// serialized manually (fixed-width little-endian, like every other state).
impl graphreduce::StateBytes for MsBfsLevelsValue {
    const BYTES: usize = 8 + 4 * 64;

    fn write_bytes(&self, out: &mut [u8]) {
        out[..8].copy_from_slice(&self.reached_by.to_le_bytes());
        for (i, l) in self.levels.iter().enumerate() {
            let o = 8 + i * 4;
            out[o..o + 4].copy_from_slice(&l.to_le_bytes());
        }
    }

    fn read_bytes(src: &[u8]) -> Self {
        let reached_by = u64::from_le_bytes(src[..8].try_into().unwrap());
        let mut levels = [u32::MAX; 64];
        for (i, l) in levels.iter_mut().enumerate() {
            let o = 8 + i * 4;
            *l = u32::from_le_bytes(src[o..o + 4].try_into().unwrap());
        }
        MsBfsLevelsValue { reached_by, levels }
    }
}

/// Multi-source BFS recording a full per-lane depth vector: the batched
/// form of K independent [`crate::Bfs`] runs (up to 64 per sweep).
///
/// Same wavefront as [`MsBfs`] — `Gather` ORs in-neighbor masks, the
/// seeding round activates the sources alone — but Apply stamps the arrival
/// iteration into every newly set lane instead of collapsing to a single
/// first-hit, so each lane demultiplexes to the exact standalone BFS
/// depth vector for its source.
#[derive(Clone, Debug)]
pub struct MsBfsLevels {
    /// Source vertices (lane `i` answers the query "BFS from
    /// `sources[i]`"). At most 64; duplicates are allowed (identical
    /// lanes).
    pub sources: Vec<u32>,
}

impl MsBfsLevels {
    pub fn new(sources: Vec<u32>) -> Self {
        MsBfsLevels {
            sources: checked_lanes(sources),
        }
    }

    /// Lane `i`'s depth vector over `values` — the standalone
    /// `Bfs::new(sources[i])` answer.
    pub fn lane_depths(values: &[MsBfsLevelsValue], lane: usize) -> Vec<u32> {
        values.iter().map(|v| v.levels[lane]).collect()
    }

    /// Demultiplex the first `lanes` lanes in one pass over `values`:
    /// `result[i] == lane_depths(values, i)`. A serving batch demuxes
    /// every lane. The pass walks the values in cache-sized tiles and
    /// appends each tile's column to every lane in turn, so the (large)
    /// value array is read once and each output grows sequentially
    /// without being zero-filled first.
    pub fn all_lane_depths(values: &[MsBfsLevelsValue], lanes: usize) -> Vec<Vec<u32>> {
        /// Vertices per tile: 256 values (66 KB) stay cache-resident
        /// while every lane reads its column out of them.
        const TILE: usize = 256;
        assert!(lanes <= 64, "at most 64 lanes per sweep");
        let mut out: Vec<Vec<u32>> = (0..lanes)
            .map(|_| Vec::with_capacity(values.len()))
            .collect();
        for tile in values.chunks(TILE) {
            for (lane, depths) in out.iter_mut().enumerate() {
                depths.extend(tile.iter().map(|v| v.levels[lane]));
            }
        }
        out
    }
}

impl GasProgram for MsBfsLevels {
    type VertexValue = MsBfsLevelsValue;
    type EdgeValue = ();
    type Gather = u64;

    fn name(&self) -> &'static str {
        "ms-bfs-levels"
    }

    fn init_vertex(&self, v: u32, _out_degree: u32) -> MsBfsLevelsValue {
        let mask = initial_mask(&self.sources, v);
        let mut levels = [u32::MAX; 64];
        let mut bits = mask;
        while bits != 0 {
            levels[bits.trailing_zeros() as usize] = 0;
            bits &= bits - 1;
        }
        MsBfsLevelsValue {
            reached_by: mask,
            levels,
        }
    }

    fn initial_frontier(&self) -> InitialFrontier {
        InitialFrontier::Sources(self.sources.clone())
    }

    fn gather_identity(&self) -> u64 {
        0
    }

    fn gather_map(&self, _dst: &MsBfsLevelsValue, src: &MsBfsLevelsValue, _e: &(), _w: f32) -> u64 {
        src.reached_by
    }

    fn gather_reduce(&self, a: u64, b: u64) -> u64 {
        a | b
    }

    /// The map is the source's mask alone.
    fn gather_is_source_only(&self) -> bool {
        true
    }

    fn apply(&self, v: &mut MsBfsLevelsValue, r: u64, iteration: u32) -> bool {
        if iteration == 0 {
            // Seeding round: only the sources propagate.
            return v.reached_by != 0;
        }
        let new_bits = r & !v.reached_by;
        if new_bits == 0 {
            return false;
        }
        v.reached_by |= new_bits;
        let mut bits = new_bits;
        while bits != 0 {
            v.levels[bits.trailing_zeros() as usize] = iteration;
            bits &= bits - 1;
        }
        true
    }

    fn scatter(&self, _s: &MsBfsLevelsValue, _d: &MsBfsLevelsValue, _e: &mut ()) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use gr_graph::{gen, GraphLayout};
    use gr_sim::Platform;
    use graphreduce::{GraphSession, Options};

    fn run(layout: &GraphLayout, sources: Vec<u32>) -> Vec<MsBfsValue> {
        GraphSession::new(layout, Platform::paper_node(), Options::optimized())
            .query(&MsBfs::new(sources))
            .run()
            .unwrap()
            .vertex_values
    }

    #[test]
    fn matches_64_individual_bfs_runs() {
        let layout = GraphLayout::build(&gen::uniform(300, 1800, 21));
        let sources: Vec<u32> = (0..64).map(|i| i * 4 + 1).collect();
        let got = run(&layout, sources.clone());
        for (bit, &s) in sources.iter().enumerate() {
            let depths = reference::bfs(&layout, s);
            for v in 0..300usize {
                let reachable = depths[v] != u32::MAX;
                assert_eq!(
                    got[v].reached_by >> bit & 1 == 1,
                    reachable,
                    "source {s} vs vertex {v}"
                );
            }
        }
    }

    #[test]
    fn first_hit_is_min_depth_over_sources() {
        let layout = GraphLayout::build(&gen::uniform(200, 1400, 22));
        let sources = vec![3u32, 77, 150];
        let got = run(&layout, sources.clone());
        let per_source: Vec<Vec<u32>> = sources
            .iter()
            .map(|&s| reference::bfs(&layout, s))
            .collect();
        for v in 0..200usize {
            let best = per_source.iter().map(|d| d[v]).min().unwrap();
            if best == 0 {
                // A source itself: first_hit 0 by initialization.
                assert_eq!(got[v].first_hit, 0);
            } else if best == u32::MAX {
                assert_eq!(got[v].first_hit, u32::MAX, "vertex {v}");
            } else {
                // Iteration 0 seeds; the wave then advances one hop per
                // iteration, so depth-d vertices are applied at iteration d.
                assert_eq!(got[v].first_hit, best, "vertex {v}");
            }
        }
    }

    #[test]
    fn single_source_degenerates_to_bfs_reachability() {
        let layout = GraphLayout::build(&gen::grid2d_with_edges(400, 1500, 23));
        let got = run(&layout, vec![0]);
        let depths = reference::bfs(&layout, 0);
        for v in 0..400usize {
            assert_eq!(got[v].reached_by == 1, depths[v] != u32::MAX);
        }
    }

    #[test]
    #[should_panic(expected = "1..=64")]
    fn rejects_too_many_sources() {
        MsBfs::new((0..65).collect());
    }

    fn run_levels(layout: &GraphLayout, sources: Vec<u32>) -> Vec<MsBfsLevelsValue> {
        GraphSession::new(layout, Platform::paper_node(), Options::optimized())
            .query(&MsBfsLevels::new(sources))
            .run()
            .unwrap()
            .vertex_values
    }

    #[test]
    fn every_lane_matches_its_standalone_bfs_depths() {
        let layout = GraphLayout::build(&gen::uniform(300, 1800, 21));
        let sources: Vec<u32> = (0..64).map(|i| i * 4 + 1).collect();
        let got = run_levels(&layout, sources.clone());
        for (lane, &s) in sources.iter().enumerate() {
            assert_eq!(
                MsBfsLevels::lane_depths(&got, lane),
                reference::bfs(&layout, s),
                "lane {lane} (source {s})"
            );
        }
    }

    #[test]
    fn lane_depths_match_the_engine_bfs_bit_for_bit() {
        let layout = GraphLayout::build(&gen::rmat_g500(9, 4000, 33).symmetrize());
        let sources = vec![0u32, 7, 500, 7]; // duplicate lanes allowed
        let got = run_levels(&layout, sources.clone());
        for (lane, &s) in sources.iter().enumerate() {
            let standalone =
                GraphSession::new(&layout, Platform::paper_node(), Options::optimized())
                    .query(&crate::Bfs::new(s))
                    .run()
                    .unwrap();
            assert_eq!(
                MsBfsLevels::lane_depths(&got, lane),
                standalone.vertex_values,
                "lane {lane} (source {s})"
            );
        }
    }

    #[test]
    fn all_lane_depths_matches_per_lane_demux() {
        // 150 vertices fit in one partial tile; 600 span two whole tiles
        // and a partial one.
        for n in [150u32, 600] {
            let layout = GraphLayout::build(&gen::uniform(n, u64::from(n) * 6, 34));
            let sources: Vec<u32> = (0..64).map(|i| i * 37 % n).collect();
            let got = run_levels(&layout, sources);
            for lanes in [1, 3, 63, 64] {
                let all = MsBfsLevels::all_lane_depths(&got, lanes);
                assert_eq!(all.len(), lanes);
                for (lane, depths) in all.iter().enumerate() {
                    assert_eq!(
                        *depths,
                        MsBfsLevels::lane_depths(&got, lane),
                        "n {n}, {lanes} lanes, lane {lane}"
                    );
                }
            }
        }
    }

    #[test]
    fn sweep_iteration_zero_gathers_only_its_sources() {
        let layout = GraphLayout::build(&gen::rmat_g500(9, 4000, 35).symmetrize());
        // Eight lanes over five distinct sources.
        let sources = vec![3u32, 40, 3, 200, 511, 40, 3, 77];
        let res = GraphSession::new(&layout, Platform::paper_node(), Options::optimized())
            .query(&MsBfsLevels::new(sources.clone()))
            .run()
            .unwrap();
        let mut distinct = sources;
        distinct.sort_unstable();
        distinct.dedup();
        let it0 = &res.stats.per_iteration[0];
        assert_eq!(it0.frontier_size, distinct.len() as u64);
        assert_eq!(
            it0.gathered_edges,
            distinct.iter().map(|&s| layout.csc.degree(s)).sum::<u64>()
        );
        assert_eq!(it0.changed, distinct.len() as u64);
    }

    #[test]
    fn duplicate_and_isolated_sources_match_the_queue_bfs() {
        // A 4-cycle with a tail 2 → 7 → 8, a separate 3-cycle, and vertex
        // 9 with no edges at all; 0, 4 and 9 repeat across lanes.
        let edges = [(0, 1), (1, 2), (2, 3), (3, 0), (2, 7), (7, 8)];
        let cycle = [(4, 5), (5, 6), (6, 4)];
        let el = gr_graph::EdgeList::from_edges(10, [edges.as_slice(), &cycle].concat());
        let layout = GraphLayout::build(&el);
        let sources = vec![0u32, 9, 4, 0, 9, 4, 8];
        let got = run_levels(&layout, sources.clone());
        for (lane, &s) in sources.iter().enumerate() {
            assert_eq!(
                MsBfsLevels::lane_depths(&got, lane),
                reference::bfs(&layout, s),
                "lane {lane} (source {s})"
            );
        }
        let isolated = MsBfsLevels::lane_depths(&got, 1);
        assert_eq!(isolated.iter().filter(|&&d| d != u32::MAX).count(), 1);
    }

    #[test]
    fn levels_state_bytes_round_trip() {
        use graphreduce::StateBytes;
        let mut v = MsBfsLevelsValue {
            reached_by: 0xdead_beef_0451,
            ..Default::default()
        };
        v.levels[0] = 3;
        v.levels[63] = 41;
        let mut buf = vec![0u8; MsBfsLevelsValue::BYTES];
        v.write_bytes(&mut buf);
        assert_eq!(MsBfsLevelsValue::read_bytes(&buf), v);
    }
}
