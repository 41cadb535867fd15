//! Property tests for the GraphReduce engine: on arbitrary graphs and
//! arbitrary optimization settings, results must equal the sequential GAS
//! oracle bit-for-bit, the partition plan must satisfy Equation (1), and
//! optimizations must never *increase* data movement.

use proptest::prelude::*;

use gr_graph::{EdgeList, GraphLayout};
use gr_sim::Platform;
use graphreduce::{
    plan_partition, GasProgram, GatherMode, GraphSession, InitialFrontier, Options, SizeModel,
};

/// Min-label flood (CC) — the Figure 6 program.
struct Cc;

impl GasProgram for Cc {
    type VertexValue = u32;
    type EdgeValue = ();
    type Gather = u32;

    fn name(&self) -> &'static str {
        "cc"
    }

    fn init_vertex(&self, v: u32, _d: u32) -> u32 {
        v
    }

    fn initial_frontier(&self) -> InitialFrontier {
        InitialFrontier::All
    }

    fn gather_identity(&self) -> u32 {
        u32::MAX
    }

    fn gather_map(&self, _d: &u32, src: &u32, _e: &(), _w: f32) -> u32 {
        *src
    }

    fn gather_reduce(&self, a: u32, b: u32) -> u32 {
        a.min(b)
    }

    fn apply(&self, v: &mut u32, r: u32, _i: u32) -> bool {
        if r < *v {
            *v = r;
            true
        } else {
            false
        }
    }

    fn scatter(&self, _s: &u32, _d: &u32, _e: &mut ()) {}
}

/// Sequential oracle with identical BSP semantics.
fn oracle(layout: &GraphLayout) -> Vec<u32> {
    let n = layout.num_vertices();
    let mut label: Vec<u32> = (0..n).collect();
    let mut frontier: Vec<bool> = vec![true; n as usize];
    loop {
        let mut changed = vec![false; n as usize];
        let mut any = false;
        let snapshot = label.clone();
        for v in 0..n {
            if !frontier[v as usize] {
                continue;
            }
            let mut best = u32::MAX;
            for (src, _) in layout.csc.entries(v) {
                best = best.min(snapshot[src as usize]);
            }
            if best < label[v as usize] {
                label[v as usize] = best;
                changed[v as usize] = true;
                any = true;
            }
        }
        if !any {
            break;
        }
        let mut next = vec![false; n as usize];
        for v in 0..n {
            if changed[v as usize] {
                for (dst, _) in layout.csr.entries(v) {
                    next[dst as usize] = true;
                }
            }
        }
        frontier = next;
    }
    label
}

fn graphs() -> impl Strategy<Value = EdgeList> {
    (2u32..120).prop_flat_map(|n| {
        prop::collection::vec((0..n, 0..n), 1..500)
            .prop_map(move |edges| EdgeList::from_edges(n, edges))
    })
}

fn options() -> impl Strategy<Value = Options> {
    (
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
        1u32..4,
        prop_oneof![
            Just(GatherMode::Hybrid),
            Just(GatherMode::VertexCentric),
            Just(GatherMode::EdgeCentricAtomic)
        ],
    )
        .prop_map(|(a, s, f, ph, cta, k, gm)| Options {
            spray: s,
            frontier_management: f,
            phase_fusion: ph,
            cta_load_balance: cta,
            gather_mode: gm,
            ..Options::optimized()
                .with_async_streams(a)
                .with_concurrent_shards(k)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Results are oracle-exact under every option combination and device
    /// size (in-memory and out-of-core paths).
    #[test]
    fn engine_matches_oracle(el in graphs(), opts in options(), scale_log in 0u32..22) {
        let layout = GraphLayout::build(&el);
        let want = oracle(&layout);
        let platform = Platform::paper_node_scaled(1u64 << scale_log);
        match GraphSession::new(&layout, platform, opts).query(&Cc).run() {
            Ok(out) => prop_assert_eq!(out.vertex_values, want),
            // Tiny devices may legitimately refuse the vertex set / shard.
            Err(e) => prop_assert!(scale_log > 12, "unexpected plan failure {e:?}"),
        }
    }

    /// The plan satisfies Equation (1): K slots of the largest shard plus
    /// the static buffers fit device memory, and shards partition V.
    #[test]
    fn plan_satisfies_equation_one(el in graphs(), k in 1u32..5, scale_log in 0u32..16) {
        let layout = GraphLayout::build(&el);
        let sizes = SizeModel {
            vertex_value: 4,
            gather: 4,
            edge_value: 0,
            has_gather: true,
            has_scatter: false,
        };
        let platform = Platform::paper_node_scaled(1u64 << scale_log);
        if let Ok(plan) = plan_partition(&layout, &sizes, &platform.device, &platform.pcie, k, None) {
            prop_assert!(
                plan.static_bytes + plan.concurrent as u64 * plan.max_shard_bytes
                    <= platform.device.mem_capacity
            );
            prop_assert!(plan.concurrent >= 1 && plan.concurrent <= k.max(1));
            gr_graph::validate_partition(
                &plan.shards.iter().map(|s| s.interval).collect::<Vec<_>>(),
                layout.num_vertices(),
            )
            .unwrap();
        }
    }

    /// Each optimization may only reduce (never increase) bytes moved,
    /// holding everything else fixed.
    #[test]
    fn optimizations_never_add_traffic(el in graphs()) {
        let layout = GraphLayout::build(&el);
        let platform = Platform::paper_node_scaled(1 << 10);
        let run = |o: Options| {
            GraphSession::new(&layout, platform.clone(), o).query(&Cc).run()
                .map(|r| r.stats.bytes_h2d + r.stats.bytes_d2h)
        };
        if let (Ok(base), Ok(fm), Ok(fused)) = (
            run(Options::unoptimized()),
            run(Options { frontier_management: true, ..Options::unoptimized() }),
            run(Options { phase_fusion: true, ..Options::unoptimized() }),
        ) {
            prop_assert!(fm <= base, "frontier management added traffic: {fm} > {base}");
            prop_assert!(fused <= base, "fusion added traffic: {fused} > {base}");
        }
    }
}
