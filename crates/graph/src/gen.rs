//! Deterministic synthetic graph generators.
//!
//! Each generator is seeded and hits an exact vertex/edge count, so the
//! dataset stand-ins of [`crate::datasets`] can match Table 1's |V| and |E|
//! at any scale. Structural classes:
//!
//! * [`rmat`] — Kronecker/R-MAT power-law graphs (kron_g500, social and web
//!   crawls);
//! * [`uniform`] — Erdős–Rényi-style random digraphs;
//! * [`grid2d_with_edges`] — planar 4-neighbor lattices (road networks,
//!   redistricting meshes): huge diameter, tiny degree;
//! * [`stencil3d`] — 3-D volume meshes with near-constant degree (PDE
//!   matrices like nlpkkt160, cage15): regular, high locality;
//! * [`smallworld`] — Watts-Strogatz ring lattices with rewiring
//!   (collaboration networks);
//! * [`preferential`] — Barabási–Albert preferential attachment.

use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::edgelist::EdgeList;

fn rng(seed: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed)
}

/// R-MAT generator with the Graph500 parameters `(a, b, c, d)`.
/// `scale` is log2 of the vertex count; exactly `num_edges` directed edges
/// are produced (duplicates and self-loops possible, as in the raw
/// kron_g500 inputs).
///
/// Each level draws one uniform `x` and picks quadrant a, b, c or d by the
/// thresholds `a`, `a + b`, `a + b + c`. The quadrant bits are computed
/// without branches: at the Graph500 parameters every threshold compare is
/// close to a coin flip, so an if/else chain mispredicts about once a level.
pub fn rmat(scale: u32, num_edges: u64, a: f64, b: f64, c: f64, seed: u64) -> EdgeList {
    assert!(scale <= 31, "scale too large for u32 vertex ids");
    let d = 1.0 - a - b - c;
    assert!(d >= -1e-9, "rmat probabilities exceed 1");
    let (ab, abc) = (a + b, a + b + c);
    let n = 1u32 << scale;
    let mut r = rng(seed);
    let mut edges = Vec::with_capacity(num_edges as usize);
    for _ in 0..num_edges {
        let (mut lo_s, mut lo_d) = (0u32, 0u32);
        for bit in (0..scale).rev() {
            let x: f64 = r.random();
            // Quadrants c and d set the source bit; b and d the target bit.
            let sbit = x >= ab;
            let dbit = ((a <= x) & (x < ab)) | (x >= abc);
            lo_s |= u32::from(sbit) << bit;
            lo_d |= u32::from(dbit) << bit;
        }
        edges.push((lo_s, lo_d));
    }
    EdgeList::from_edges(n, edges)
}

/// Graph500 reference R-MAT parameters.
pub fn rmat_g500(scale: u32, num_edges: u64, seed: u64) -> EdgeList {
    rmat(scale, num_edges, 0.57, 0.19, 0.19, seed)
}

/// Uniform random digraph with exactly `num_edges` edges, no self-loops.
pub fn uniform(num_vertices: u32, num_edges: u64, seed: u64) -> EdgeList {
    assert!(num_vertices >= 2, "need at least two vertices");
    let mut r = rng(seed);
    let mut edges = Vec::with_capacity(num_edges as usize);
    for _ in 0..num_edges {
        let s = r.random_range(0..num_vertices);
        let mut d = r.random_range(0..num_vertices - 1);
        if d >= s {
            d += 1;
        }
        edges.push((s, d));
    }
    EdgeList::from_edges(num_vertices, edges)
}

/// Select exactly `take` items from `0..total` uniformly without
/// replacement (partial Fisher-Yates), deterministic in `r`.
fn sample_indices(total: usize, take: usize, r: &mut impl RngExt) -> Vec<u32> {
    assert!(take <= total);
    let mut idx: Vec<u32> = (0..total as u32).collect();
    for i in 0..take {
        let j = r.random_range(i..total);
        idx.swap(i, j);
    }
    idx.truncate(take);
    idx
}

/// Planar road-network lattice with exactly `num_edges` directed edges.
///
/// Road networks are *connected* and have huge diameter; a random sample of
/// lattice edges fragments below the percolation threshold and loses both
/// properties. Instead, the edge budget first buys a **connected subgrid**:
/// a serpentine bidirectional spanning path over `v_used ≈ num_edges/4`
/// grid vertices (guaranteeing one large component with diameter
/// `Θ(√v_used)` once filled), then the remaining budget draws from the
/// other 4-neighbor lattice edges. Vertices beyond `v_used` stay isolated
/// (a sampled road sub-network with the same |V|, |E| as the target).
pub fn grid2d_with_edges(num_vertices: u32, num_edges: u64, seed: u64) -> EdgeList {
    assert!(num_vertices >= 2, "need at least two vertices");
    let v_used = (num_edges / 4).clamp(2, num_vertices as u64) as u32;
    let w = (v_used as f64).sqrt().ceil() as u32;
    let h = v_used.div_ceil(w.max(1)).max(1);
    let id = |x: u32, y: u32| y * w + x;
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(num_edges as usize);

    // Serpentine bidirectional spanning path: connects all v_used vertices.
    let order: Vec<u32> = (0..h)
        .flat_map(|y| {
            let xs: Box<dyn Iterator<Item = u32>> = if y % 2 == 0 {
                Box::new(0..w)
            } else {
                Box::new((0..w).rev())
            };
            xs.map(move |x| id(x, y))
        })
        .filter(|&u| u < v_used)
        .collect();
    for pair in order.windows(2) {
        if (edges.len() as u64) + 2 > num_edges {
            break;
        }
        edges.push((pair[0], pair[1]));
        edges.push((pair[1], pair[0]));
    }

    // Remaining lattice candidates (not already on the serpentine path).
    let mut candidates: Vec<(u32, u32)> = Vec::new();
    for y in 0..h {
        for x in 0..w {
            let u = id(x, y);
            if u >= v_used {
                continue;
            }
            // Vertical links are never on the serpentine path except at row
            // turns; accept the tiny duplication chance there (road graphs
            // tolerate parallel edges; engines do too).
            if y + 1 < h && id(x, y + 1) < v_used {
                candidates.push((u, id(x, y + 1)));
                candidates.push((id(x, y + 1), u));
            }
            // Horizontal links on odd/even row boundaries already exist; add
            // the distance-2 "avenue" links for degree variety.
            if x + 2 < w && id(x + 2, y) < v_used {
                candidates.push((u, id(x + 2, y)));
            }
        }
    }
    let mut r = rng(seed);
    let need = (num_edges as usize).saturating_sub(edges.len());
    let take = need.min(candidates.len());
    for i in sample_indices(candidates.len(), take, &mut r) {
        edges.push(candidates[i as usize]);
    }
    // Exact budget: any remainder becomes short local hops inside the grid.
    while (edges.len() as u64) < num_edges {
        let u = r.random_range(0..v_used);
        let hop = r.random_range(1..=w.min(v_used - 1).max(1));
        edges.push((u, (u + hop) % v_used));
    }
    edges.truncate(num_edges as usize);
    EdgeList::from_edges(num_vertices, edges)
}

/// 3-D volume mesh: vertices on a cubic lattice, each connected to its
/// nearest lattice neighbors (offsets ordered by distance) until the global
/// edge budget is met. High locality and near-constant degree, like the
/// PDE-derived matrices (nlpkkt160: 27-point stencil ⇒ ~26 edges/vertex).
pub fn stencil3d(num_vertices: u32, num_edges: u64, seed: u64) -> EdgeList {
    let s = (num_vertices as f64).cbrt().ceil() as u32;
    let s = s.max(2);
    let id = |x: u32, y: u32, z: u32| (z * s + y) * s + x;
    // Neighbor offsets within a radius-2 cube, sorted by squared distance,
    // excluding the origin. 124 offsets: enough for degree up to ~124.
    let mut offsets: Vec<(i32, i32, i32)> = Vec::new();
    for dz in -2i32..=2 {
        for dy in -2i32..=2 {
            for dx in -2i32..=2 {
                if (dx, dy, dz) != (0, 0, 0) {
                    offsets.push((dx, dy, dz));
                }
            }
        }
    }
    offsets.sort_by_key(|&(x, y, z)| (x * x + y * y + z * z, z, y, x));

    let degree = (num_edges / num_vertices.max(1) as u64) as usize;
    let degree = degree.min(offsets.len());
    let mut edges = Vec::with_capacity(num_edges as usize);
    'outer: for z in 0..s {
        for y in 0..s {
            for x in 0..s {
                let u = id(x, y, z);
                if u >= num_vertices {
                    continue;
                }
                for &(dx, dy, dz) in offsets.iter().take(degree) {
                    let (nx, ny, nz) = (x as i32 + dx, y as i32 + dy, z as i32 + dz);
                    if nx < 0 || ny < 0 || nz < 0 {
                        continue;
                    }
                    let (nx, ny, nz) = (nx as u32, ny as u32, nz as u32);
                    if nx >= s || ny >= s || nz >= s {
                        continue;
                    }
                    let v = id(nx, ny, nz);
                    if v < num_vertices {
                        edges.push((u, v));
                        if edges.len() as u64 == num_edges {
                            break 'outer;
                        }
                    }
                }
            }
        }
    }
    // Top up: boundary vertices have truncated stencils, so give the
    // missing edges back to *them* (keeping near-constant degree), as
    // local-ish random connections.
    let mut r = rng(seed);
    if (edges.len() as u64) < num_edges {
        let mut emitted = vec![0u32; num_vertices as usize];
        for &(u, _) in &edges {
            emitted[u as usize] += 1;
        }
        'fill: loop {
            let mut progressed = false;
            for u in 0..num_vertices {
                if (emitted[u as usize] as usize) < degree.max(1) {
                    let jump = r.random_range(1..=(2 * s * s).min(num_vertices - 1).max(1));
                    edges.push((u, (u + jump) % num_vertices));
                    emitted[u as usize] += 1;
                    progressed = true;
                    if edges.len() as u64 == num_edges {
                        break 'fill;
                    }
                }
            }
            if !progressed {
                // Everyone is at quota but the budget remains (rounding):
                // spread the remainder round-robin.
                for u in 0.. {
                    let u = u % num_vertices;
                    let jump = r.random_range(1..=(2 * s * s).min(num_vertices - 1).max(1));
                    edges.push((u, (u + jump) % num_vertices));
                    if edges.len() as u64 == num_edges {
                        break 'fill;
                    }
                }
            }
        }
    }
    EdgeList::from_edges(num_vertices, edges)
}

/// Watts-Strogatz-style small world: ring lattice edges (distance 1, 2, ...)
/// in both directions until `num_edges`, each rewired to a random endpoint
/// with probability `rewire_p`.
pub fn smallworld(num_vertices: u32, num_edges: u64, rewire_p: f64, seed: u64) -> EdgeList {
    assert!(num_vertices >= 3, "ring needs at least 3 vertices");
    let mut r = rng(seed);
    let n = num_vertices;
    let mut edges = Vec::with_capacity(num_edges as usize);
    let mut dist = 1u32;
    'outer: loop {
        for u in 0..n {
            for &v in &[(u + dist) % n, (u + n - dist % n) % n] {
                if edges.len() as u64 == num_edges {
                    break 'outer;
                }
                let v = if r.random::<f64>() < rewire_p {
                    let mut w = r.random_range(0..n - 1);
                    if w >= u {
                        w += 1;
                    }
                    w
                } else {
                    v
                };
                if u != v {
                    edges.push((u, v));
                }
            }
        }
        dist += 1;
        if dist >= n {
            // Dense request: wrap around and add parallel ring edges (the
            // engines tolerate multigraphs) so |E| is always exact.
            dist = 1;
        }
    }
    EdgeList::from_edges(n, edges)
}

/// Barabási–Albert preferential attachment: each new vertex attaches to
/// `m` existing vertices chosen proportional to degree; both edge
/// directions are emitted. Produces `~2*m*num_vertices` edges.
pub fn preferential(num_vertices: u32, m: u32, seed: u64) -> EdgeList {
    assert!(m >= 1 && num_vertices > m, "need num_vertices > m >= 1");
    let mut r = SmallRng::seed_from_u64(seed);
    // Repeated-endpoints list: picking uniformly from it is proportional to
    // degree (the standard O(E) BA construction).
    let mut endpoints: Vec<u32> = (0..=m).collect();
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(2 * m as usize * num_vertices as usize);
    // Seed clique over vertices 0..=m.
    for u in 0..=m {
        for v in 0..u {
            edges.push((u, v));
            edges.push((v, u));
        }
    }
    for u in (m + 1)..num_vertices {
        for _ in 0..m {
            let v = endpoints[r.random_range(0..endpoints.len())];
            edges.push((u, v));
            edges.push((v, u));
            endpoints.push(v);
        }
        endpoints.push(u);
    }
    EdgeList::from_edges(num_vertices, edges)
}

/// Attach deterministic pseudo-random weights in `[1.0, max_w)` to an edge
/// list (for SSSP inputs).
pub fn with_random_weights(el: EdgeList, max_w: f32, seed: u64) -> EdgeList {
    let mut r = rng(seed);
    let w = (0..el.edges.len())
        .map(|_| 1.0 + r.random::<f32>() * (max_w - 1.0))
        .collect();
    el.with_weights(w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmat_counts_and_determinism() {
        let g1 = rmat_g500(10, 5000, 42);
        let g2 = rmat_g500(10, 5000, 42);
        assert_eq!(g1.num_vertices, 1024);
        assert_eq!(g1.num_edges(), 5000);
        assert_eq!(g1, g2);
        let g3 = rmat_g500(10, 5000, 43);
        assert_ne!(g1, g3);
    }

    /// FNV-1a over |V| and every `(src, dst)` pair, little-endian.
    fn fnv1a(el: &EdgeList) -> u64 {
        let pairs = el.edges.iter().flat_map(|&(s, d)| [s, d]);
        std::iter::once(el.num_vertices)
            .chain(pairs)
            .flat_map(u32::to_le_bytes)
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    /// The edge lists of every R-MAT parameter set in use, pinned by hash:
    /// a quadrant draw that moves any edge fails here. CI runs this under
    /// `--release` too, so the draw is checked in the codegen that ships.
    #[test]
    fn rmat_golden_edge_lists() {
        // Graph500, then the two parameter sets of the `datasets` stand-ins.
        type Draw = fn(u64) -> EdgeList;
        let pins: [(Draw, [u64; 3]); 3] = [
            (
                |s| rmat_g500(12, 1 << 16, s),
                [0x11bf1dc7b825d042, 0xf0c0466c897a5e3d, 0xc8de56b829467243],
            ),
            (
                |s| rmat(12, 1 << 16, 0.50, 0.22, 0.22, s),
                [0xf341a70aa0ebcc3e, 0x6b9eb8ab8b9e55af, 0xbe202fbbcdc1004e],
            ),
            (
                |s| rmat(12, 1 << 16, 0.45, 0.22, 0.22, s),
                [0xbbe9c0c9941c8e00, 0x097ebf357a1f8867, 0x1be337f2018d42eb],
            ),
        ];
        for (set, (draw, want)) in pins.into_iter().enumerate() {
            for (seed, want) in (1..).zip(want) {
                assert_eq!(fnv1a(&draw(seed)), want, "parameter set {set}, seed {seed}");
            }
        }
    }

    #[test]
    fn rmat_is_skewed() {
        let g = rmat_g500(12, 40_000, 7);
        let mut deg = g.out_degrees();
        deg.sort_unstable_by(|a, b| b.cmp(a));
        // Power-law-ish: the top 1% of vertices hold far more than 1% of edges.
        let top: u64 = deg.iter().take(41).map(|&d| d as u64).sum();
        assert!(top > 40_000 / 10, "top-1% edges: {top}");
    }

    #[test]
    fn uniform_counts() {
        let g = uniform(100, 1000, 1);
        assert_eq!(g.num_edges(), 1000);
        assert!(g.edges.iter().all(|&(s, d)| s != d));
    }

    /// Vertices reachable from `src` following directed edges.
    fn reachable(g: &EdgeList, src: u32) -> usize {
        let mut adj = vec![Vec::new(); g.num_vertices as usize];
        for &(s, d) in &g.edges {
            adj[s as usize].push(d);
        }
        let mut seen = vec![false; g.num_vertices as usize];
        let mut stack = vec![src];
        seen[src as usize] = true;
        let mut n = 0;
        while let Some(v) = stack.pop() {
            n += 1;
            for &d in &adj[v as usize] {
                if !seen[d as usize] {
                    seen[d as usize] = true;
                    stack.push(d);
                }
            }
        }
        n
    }

    #[test]
    fn grid2d_exact_edges_and_connected_core() {
        let g = grid2d_with_edges(1000, 1500, 3);
        assert_eq!(g.num_vertices, 1000);
        assert_eq!(g.num_edges(), 1500);
        // The edge budget buys a connected subgrid of ~e/4 vertices.
        let core = 1500 / 4;
        assert!(
            reachable(&g, 0) >= core,
            "road core must be connected: {} < {core}",
            reachable(&g, 0)
        );
    }

    #[test]
    fn grid2d_is_road_like_high_diameter() {
        // BFS depth from corner should scale like the grid side, not log n.
        let g = grid2d_with_edges(10_000, 40_000, 4);
        let mut adj = vec![Vec::new(); g.num_vertices as usize];
        for &(s, d) in &g.edges {
            adj[s as usize].push(d);
        }
        let mut depth = vec![u32::MAX; g.num_vertices as usize];
        depth[0] = 0;
        let mut q = std::collections::VecDeque::from([0u32]);
        let mut max_depth = 0;
        while let Some(v) = q.pop_front() {
            for &d in &adj[v as usize] {
                if depth[d as usize] == u32::MAX {
                    depth[d as usize] = depth[v as usize] + 1;
                    max_depth = max_depth.max(depth[d as usize]);
                    q.push_back(d);
                }
            }
        }
        assert!(max_depth > 30, "road diameter too small: {max_depth}");
    }

    #[test]
    fn grid2d_tops_up_when_oversubscribed() {
        // Tiny lattice, many edges: must still hit the exact count.
        let g = grid2d_with_edges(16, 200, 5);
        assert_eq!(g.num_edges(), 200);
    }

    #[test]
    fn stencil3d_regular_degree() {
        let g = stencil3d(4096, 4096 * 20, 9);
        assert_eq!(g.num_edges(), 4096 * 20);
        let deg = g.out_degrees();
        // Interior vertices all get exactly the stencil degree.
        let modal = deg.iter().filter(|&&d| d == 20).count();
        assert!(modal > 2000, "modal-degree vertices: {modal}");
    }

    #[test]
    fn smallworld_counts() {
        let g = smallworld(500, 2000, 0.1, 11);
        assert_eq!(g.num_edges(), 2000);
        assert!(g.edges.iter().all(|&(s, d)| s != d));
    }

    #[test]
    fn preferential_attachment_grows_hubs() {
        let g = preferential(2000, 3, 13);
        let mut deg = g.out_degrees();
        deg.sort_unstable_by(|a, b| b.cmp(a));
        assert!(
            deg[0] > 3 * deg[1000],
            "hub degree {} vs median {}",
            deg[0],
            deg[1000]
        );
    }

    #[test]
    fn random_weights_in_range() {
        let g = with_random_weights(uniform(50, 500, 2), 64.0, 3);
        let w = g.weights.unwrap();
        assert_eq!(w.len(), 500);
        assert!(w.iter().all(|&x| (1.0..64.0).contains(&x)));
    }

    #[test]
    fn sample_indices_unique_and_exact() {
        let mut r = rng(0);
        let s = sample_indices(100, 40, &mut r);
        assert_eq!(s.len(), 40);
        let mut t = s.clone();
        t.sort_unstable();
        t.dedup();
        assert_eq!(t.len(), 40);
        assert!(t.iter().all(|&i| i < 100));
    }
}
