//! Property tests for the baseline engines: on arbitrary graphs, every
//! engine prices the work trace of a GraphReduce run that agrees with the
//! sequential GAS oracle, and their structural cost characteristics hold
//! (X-Stream streams |E| per iteration; GPU engines refuse graphs beyond
//! device memory).

use proptest::prelude::*;

use gr_algorithms::{reference, Bfs, Cc};
use gr_baselines::{CuSha, GraphChi, MapGraph, Totem, XStream};
use gr_graph::{EdgeList, GraphLayout};
use gr_sim::{HostConfig, Platform};
use graphreduce::{GasProgram, GraphSession, Options, RunResult};

fn graphs() -> impl Strategy<Value = EdgeList> {
    (2u32..100).prop_flat_map(|n| {
        prop::collection::vec((0..n, 0..n), 1..400)
            .prop_map(move |edges| EdgeList::from_edges(n, edges))
    })
}

/// A cold GraphReduce run on the full device.
fn gr<P: GasProgram>(program: P, layout: &GraphLayout) -> RunResult<P> {
    let platform = Platform::paper_node();
    GraphSession::new(layout, platform, Options::optimized())
        .query(&program)
        .run()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn all_engines_agree_with_the_oracle(el in graphs(), src in 0u32..100) {
        let layout = GraphLayout::build(&el);
        let src = src % layout.num_vertices();
        let host = HostConfig::xeon_e5_2670();
        let plat = Platform::paper_node();

        let (cc_want, _, cc_iters) = reference::run_gas(&Cc, &layout);
        let (bfs_want, _, bfs_iters) = reference::run_gas(&Bfs::new(src), &layout);
        let (cc, bfs) = (gr(Cc, &layout), gr(Bfs::new(src), &layout));
        prop_assert_eq!(&cc.vertex_values, &cc_want);
        prop_assert_eq!(&bfs.vertex_values, &bfs_want);

        // Every engine prices that run and reports the oracle's iteration count.
        for (work, want) in [(&cc.work, cc_iters), (&bfs.work, bfs_iters)] {
            prop_assert_eq!(GraphChi::default().run(work, &layout, &host).iterations, want);
            prop_assert_eq!(XStream::default().run(work, &layout, &host).iterations, want);
            prop_assert_eq!(CuSha::default().run(work, &layout, &plat).unwrap().iterations, want);
            prop_assert_eq!(MapGraph::default().run(work, &layout, &plat).unwrap().iterations, want);
            prop_assert_eq!(Totem::default().run(work, &layout, &plat).0.iterations, want);
        }
    }

    #[test]
    fn xstream_traffic_scales_with_edges_times_iterations(el in graphs()) {
        let layout = GraphLayout::build(&el);
        let work = gr(Cc, &layout).work;
        let run = XStream::default().run(&work, &layout, &HostConfig::xeon_e5_2670());
        let xs = XStream::default();
        let floor = run.iterations as u64 * layout.num_edges() * xs.edge_record_bytes;
        prop_assert!(run.bytes_streamed >= floor);
    }

    #[test]
    fn gpu_engines_respect_device_capacity(el in graphs()) {
        let layout = GraphLayout::build(&el);
        // A device sized just under the engine's requirement must refuse;
        // one sized just over must accept. Capacity does not read the trace.
        let work = [];
        let need = CuSha::default().device_bytes(&layout);
        let mut small = Platform::paper_node();
        small.device.mem_capacity = need.saturating_sub(1);
        prop_assert!(CuSha::default().run(&work, &layout, &small).is_err());
        let mut big = Platform::paper_node();
        big.device.mem_capacity = need;
        prop_assert!(CuSha::default().run(&work, &layout, &big).is_ok());

        let need = MapGraph::default().device_bytes(&layout);
        let mut small = Platform::paper_node();
        small.device.mem_capacity = need.saturating_sub(1);
        prop_assert!(MapGraph::default().run(&work, &layout, &small).is_err());
    }

    #[test]
    fn engine_timings_are_deterministic(el in graphs()) {
        let layout = GraphLayout::build(&el);
        let work = gr(Cc, &layout).work;
        let host = HostConfig::xeon_e5_2670();
        let a = XStream::default().run(&work, &layout, &host);
        let b = XStream::default().run(&work, &layout, &host);
        prop_assert_eq!(a, b);
        let plat = Platform::paper_node();
        let c = CuSha::default().run(&work, &layout, &plat).unwrap();
        let d = CuSha::default().run(&work, &layout, &plat).unwrap();
        prop_assert_eq!(c, d);
    }
}
