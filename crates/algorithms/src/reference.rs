//! Sequential reference implementations used to validate every engine
//! (GraphReduce and all baselines).
//!
//! Two kinds of oracle:
//!
//! * [`run_gas`] — a tiny, obviously-correct sequential interpreter of the
//!   GAS semantics (BSP phases, frontier gating, change-driven activation).
//!   Engines must match it **exactly**, including float bit patterns: both
//!   fold gather contributions in CSC order.
//! * Independent classical algorithms (queue BFS, Bellman-Ford, power
//!   iteration, union-find) that validate the GAS formulations themselves,
//!   so the check is not circular.

use gr_graph::{Bitmap, GraphLayout};
use graphreduce::GasProgram;

/// Sequential GAS interpreter: the semantic ground truth.
pub fn run_gas<P: GasProgram>(
    program: &P,
    layout: &GraphLayout,
) -> (Vec<P::VertexValue>, Vec<P::EdgeValue>, u32) {
    let n = layout.num_vertices();
    let m = layout.num_edges() as usize;
    let mut values: Vec<P::VertexValue> = (0..n)
        .map(|v| program.init_vertex(v, layout.csr.degree(v) as u32))
        .collect();
    let mut edges = vec![P::EdgeValue::default(); m];
    let mut frontier = program.initial_frontier().bitmap(n);
    let mut iter = 0;
    while iter < program.max_iterations() && frontier.count() > 0 {
        // Gather (reads pre-iteration values).
        let mut temp: Vec<P::Gather> = Vec::with_capacity(n as usize);
        for v in 0..n {
            let mut acc = program.gather_identity();
            if program.has_gather() && frontier.get(v) {
                let dst_val = values[v as usize];
                for eid in layout.csc.range(v) {
                    let src = layout.csc.neighbors[eid];
                    acc = program.gather_reduce(
                        acc,
                        program.gather_map(
                            &dst_val,
                            &values[src as usize],
                            &edges[eid],
                            layout.weights[eid],
                        ),
                    );
                }
            }
            temp.push(acc);
        }
        // Apply.
        let mut changed = Bitmap::new(n);
        for v in 0..n {
            if frontier.get(v) && program.apply(&mut values[v as usize], temp[v as usize], iter) {
                changed.set(v);
            }
        }
        // Scatter.
        if program.has_scatter() {
            for v in changed.iter_set() {
                let src_val = values[v as usize];
                for (dst, eid) in layout.csr.entries(v) {
                    let dst_val = values[dst as usize];
                    program.scatter(&src_val, &dst_val, &mut edges[eid as usize]);
                }
            }
        }
        // FrontierActivate.
        let mut next = Bitmap::new(n);
        for v in changed.iter_set() {
            for (dst, _) in layout.csr.entries(v) {
                next.set(dst);
            }
        }
        frontier = next;
        iter += 1;
    }
    (values, edges, iter)
}

/// Classical queue-based BFS depths from `source` (u32::MAX = unreached).
pub fn bfs(layout: &GraphLayout, source: u32) -> Vec<u32> {
    let n = layout.num_vertices();
    let mut depth = vec![u32::MAX; n as usize];
    if n == 0 {
        return depth;
    }
    depth[source as usize] = 0;
    let mut queue = std::collections::VecDeque::from([source]);
    while let Some(v) = queue.pop_front() {
        for (dst, _) in layout.csr.entries(v) {
            if depth[dst as usize] == u32::MAX {
                depth[dst as usize] = depth[v as usize] + 1;
                queue.push_back(dst);
            }
        }
    }
    depth
}

/// Bellman-Ford shortest distances from `source` over `layout.weights`.
pub fn sssp(layout: &GraphLayout, source: u32) -> Vec<f32> {
    let n = layout.num_vertices() as usize;
    let mut dist = vec![f32::INFINITY; n];
    if n == 0 {
        return dist;
    }
    dist[source as usize] = 0.0;
    loop {
        let mut changed = false;
        for v in 0..layout.num_vertices() {
            if dist[v as usize].is_finite() {
                let dv = dist[v as usize];
                for (dst, eid) in layout.csr.entries(v) {
                    let nd = dv + layout.weights[eid as usize];
                    if nd < dist[dst as usize] {
                        dist[dst as usize] = nd;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    dist
}

/// Frontier-gated PageRank, sequentially (exact oracle for the GAS
/// programs): identical formula, tolerance, and gating.
pub fn pagerank_frontier(
    layout: &GraphLayout,
    damping: f32,
    epsilon: f32,
    max_iters: u32,
) -> Vec<f32> {
    let (values, _, _) = run_gas(
        &crate::pagerank::PageRank {
            damping,
            epsilon,
            max_iters,
        },
        layout,
    );
    values.into_iter().map(|v| v.rank).collect()
}

/// Classical synchronous power iteration (approximate oracle).
pub fn pagerank_power(layout: &GraphLayout, damping: f32, iters: u32) -> Vec<f32> {
    let n = layout.num_vertices();
    let out_deg: Vec<u32> = (0..n).map(|v| layout.csr.degree(v) as u32).collect();
    let mut rank = vec![1.0 - damping; n as usize];
    for _ in 0..iters {
        let mut next = vec![0.0f32; n as usize];
        for v in 0..n {
            let mut acc = 0.0f32;
            for (src, _) in layout.csc.entries(v) {
                if out_deg[src as usize] > 0 {
                    acc += rank[src as usize] / out_deg[src as usize] as f32;
                }
            }
            next[v as usize] = (1.0 - damping) + damping * acc;
        }
        rank = next;
    }
    rank
}

/// Validate CC labels: every vertex's label must equal the minimum vertex
/// id of its (undirected) connected component. Panics with context on
/// mismatch.
pub fn check_cc_labels(layout: &GraphLayout, labels: &[u32]) {
    let n = layout.num_vertices() as usize;
    assert_eq!(labels.len(), n);
    // Union-find over undirected edges.
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            parent[x as usize] = parent[parent[x as usize] as usize];
            x = parent[x as usize];
        }
        x
    }
    for v in 0..layout.num_vertices() {
        for (dst, _) in layout.csr.entries(v) {
            let (a, b) = (find(&mut parent, v), find(&mut parent, dst));
            if a != b {
                parent[a.max(b) as usize] = a.min(b);
            }
        }
    }
    // Component minimum per root.
    let mut min_of_root = vec![u32::MAX; n];
    for v in 0..n as u32 {
        let r = find(&mut parent, v) as usize;
        min_of_root[r] = min_of_root[r].min(v);
    }
    for v in 0..n as u32 {
        let r = find(&mut parent, v) as usize;
        assert_eq!(
            labels[v as usize], min_of_root[r],
            "vertex {v}: label {} but component minimum is {}",
            labels[v as usize], min_of_root[r]
        );
    }
}

/// Direct SpMV: `y[v] = Σ_{(u,v)} w(u,v) · x[u]`, folded in CSC order for
/// bit-exact agreement with the GAS formulation.
pub fn spmv(layout: &GraphLayout, x: &[f32]) -> Vec<f32> {
    (0..layout.num_vertices())
        .map(|v| {
            let mut acc = 0.0f32;
            for eid in layout.csc.range(v) {
                let src = layout.csc.neighbors[eid];
                acc += layout.weights[eid] * x[src as usize];
            }
            acc
        })
        .collect()
}

/// Heat-diffusion oracle: the GAS interpreter over [`crate::heat::Heat`].
pub fn heat(layout: &GraphLayout, alpha: f32, epsilon: f32, max_iters: u32, hot: f32) -> Vec<f32> {
    let (values, _, _) = run_gas(
        &crate::heat::Heat {
            alpha,
            epsilon,
            max_iters,
            hot,
        },
        layout,
    );
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use gr_graph::gen;

    #[test]
    fn bfs_on_a_cycle() {
        let el = gr_graph::EdgeList::from_edges(5, vec![(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let layout = GraphLayout::build(&el);
        assert_eq!(bfs(&layout, 0), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn sssp_prefers_cheap_detours() {
        // 0 -> 1 (10), 0 -> 2 (1), 2 -> 1 (2): best 0->1 is 3.
        let el = gr_graph::EdgeList::from_edges(3, vec![(0, 1), (0, 2), (2, 1)])
            .with_weights(vec![10.0, 1.0, 2.0]);
        let layout = GraphLayout::build(&el);
        assert_eq!(sssp(&layout, 0), vec![0.0, 3.0, 1.0]);
    }

    #[test]
    fn power_iteration_sums_to_n() {
        // With the non-normalized formula, total rank approaches |V| on
        // closed graphs (every vertex has out-edges).
        let el = gr_graph::EdgeList::from_edges(4, vec![(0, 1), (1, 2), (2, 3), (3, 0)]);
        let layout = GraphLayout::build(&el);
        let r = pagerank_power(&layout, 0.85, 200);
        let total: f32 = r.iter().sum();
        assert!((total - 4.0).abs() < 1e-3, "total {total}");
    }

    #[test]
    fn cc_checker_catches_bad_labels() {
        let el = gr_graph::EdgeList::from_edges(4, vec![(0, 1)]).symmetrize();
        let layout = GraphLayout::build(&el);
        check_cc_labels(&layout, &[0, 0, 2, 3]); // correct
        let bad = std::panic::catch_unwind(|| {
            let layout =
                GraphLayout::build(&gr_graph::EdgeList::from_edges(4, vec![(0, 1)]).symmetrize());
            check_cc_labels(&layout, &[0, 1, 2, 3]);
        });
        assert!(bad.is_err());
    }

    #[test]
    fn gas_interpreter_is_deterministic() {
        let layout = GraphLayout::build(&gen::uniform(100, 700, 71).symmetrize());
        let (a, _, ia) = run_gas(&crate::cc::Cc, &layout);
        let (b, _, ib) = run_gas(&crate::cc::Cc, &layout);
        assert_eq!(a, b);
        assert_eq!(ia, ib);
    }
}
