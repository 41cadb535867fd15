//! What one query returns: [`RunResult`], the final state, statistics and
//! work trace of a [`Query`](crate::session::Query) run on a
//! [`GraphSession`](crate::session::GraphSession), on one device or the
//! several [`Options::devices`](crate::Options::devices) lists; and the
//! engine's end-to-end tests.
//!
//! Execution is Bulk-Synchronous across phases (Section 4.4): every
//! iteration runs Gather over all shards, then Apply, then
//! Scatter+FrontierActivate, with device barriers between stages. Within a
//! stage, shards are independent and pipeline across `K` CUDA streams
//! (copy/compute overlap, Section 5.1); the spray operation spreads each
//! shard's sub-array copies over dynamically cycled streams so issue
//! overheads and DMA latencies pipeline through Hyper-Q.
//!
//! *Results* are computed eagerly on the host with identical semantics
//! regardless of the optimization flags — the flags only change what the
//! virtual device copies and launches, which is exactly the paper's claim
//! (the optimizations are pure data-movement/scheduling transformations).
//!
//! The planning, data-movement, compute-spec, device, and iteration-loop
//! layers live under `exec`; the graph-lifetime / query-lifetime split
//! lives in [`crate::session`].

use crate::api::GasProgram;
use crate::phases::ShardWork;
use crate::stats::RunStats;

/// Output of one query run.
pub struct RunResult<P: GasProgram> {
    /// Final vertex values, indexed by vertex id.
    pub vertex_values: Vec<P::VertexValue>,
    /// Final mutable edge state, indexed by canonical edge id.
    pub edge_values: Vec<P::EdgeValue>,
    /// Everything the evaluation section measures.
    pub stats: RunStats,
    /// The work of each iteration this call computed, summed over shards:
    /// one entry per iteration, independent of the shard plan and the
    /// codec. A resumed run's restored iterations are not in it, so only
    /// a cold run's trace has `stats.iterations` entries. The baseline
    /// engines price this trace.
    pub work: Vec<ShardWork>,
}

#[cfg(test)]
mod tests {
    use crate::options::Options;
    use crate::options::{DeviceSpec, GatherMode};
    use crate::recovery::EngineError;
    use crate::session::GraphSession;
    use crate::testprog::{Bfs, Cc};
    use gr_graph::gen;
    use gr_graph::GraphLayout;
    use gr_observe::Observer;
    use gr_sim::Platform;

    fn small_graph() -> GraphLayout {
        GraphLayout::build(&gen::uniform(512, 4096, 3).symmetrize())
    }

    fn reference_cc(layout: &GraphLayout) -> Vec<u32> {
        // Sequential min-label flooding to a fixed point.
        let n = layout.num_vertices();
        let mut label: Vec<u32> = (0..n).collect();
        loop {
            let mut changed = false;
            for v in 0..n {
                for (src, _) in layout.csc.entries(v) {
                    if label[src as usize] < label[v as usize] {
                        label[v as usize] = label[src as usize];
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        label
    }

    #[test]
    fn cc_matches_reference_under_every_option_set() {
        let layout = small_graph();
        let want = reference_cc(&layout);
        let plat = Platform::paper_node_scaled(16384); // force out-of-core
        for opts in [
            Options::optimized(),
            Options::unoptimized(),
            Options {
                spray: false,
                ..Options::optimized()
            },
            Options {
                frontier_management: false,
                ..Options::optimized()
            },
            Options {
                phase_fusion: false,
                ..Options::optimized()
            },
            Options::optimized().with_async_streams(false),
            Options {
                gather_mode: GatherMode::VertexCentric,
                ..Options::optimized()
            },
            Options {
                gather_mode: GatherMode::EdgeCentricAtomic,
                ..Options::optimized()
            },
        ] {
            let out = GraphSession::new(&layout, plat.clone(), opts.clone())
                .query(&Cc)
                .run()
                .unwrap();
            assert_eq!(out.vertex_values, want, "opts {opts:?}");
        }
    }

    #[test]
    fn bfs_depths_match_reference() {
        let layout = small_graph();
        // Reference BFS from 0.
        let n = layout.num_vertices();
        let mut depth = vec![u32::MAX; n as usize];
        depth[0] = 0;
        let mut queue = std::collections::VecDeque::from([0u32]);
        while let Some(v) = queue.pop_front() {
            for (dst, _) in layout.csr.entries(v) {
                if depth[dst as usize] == u32::MAX {
                    depth[dst as usize] = depth[v as usize] + 1;
                    queue.push_back(dst);
                }
            }
        }
        let out = GraphSession::new(
            &layout,
            Platform::paper_node_scaled(16384),
            Options::optimized(),
        )
        .query(&Bfs(0))
        .run()
        .unwrap();
        assert_eq!(out.vertex_values, depth);
    }

    #[test]
    fn optimized_moves_fewer_bytes_than_unoptimized() {
        let layout = small_graph();
        let plat = Platform::paper_node_scaled(16384);
        let opt = GraphSession::new(&layout, plat.clone(), Options::optimized())
            .query(&Cc)
            .run()
            .unwrap();
        let unopt = GraphSession::new(&layout, plat, Options::unoptimized())
            .query(&Cc)
            .run()
            .unwrap();
        assert_eq!(opt.vertex_values, unopt.vertex_values);
        let ob = opt.stats.bytes_h2d + opt.stats.bytes_d2h;
        let ub = unopt.stats.bytes_h2d + unopt.stats.bytes_d2h;
        assert!(ob < ub, "optimized {ob} B vs unoptimized {ub} B");
        assert!(opt.stats.memcpy_time < unopt.stats.memcpy_time);
        assert!(opt.stats.elapsed < unopt.stats.elapsed);
    }

    #[test]
    fn frontier_management_skips_shards_for_bfs() {
        // A long path: most shards are inactive most iterations.
        let n = 2048u32;
        let el =
            gr_graph::EdgeList::from_edges(n, (0..n - 1).map(|v| (v, v + 1)).collect::<Vec<_>>())
                .symmetrize();
        let layout = GraphLayout::build(&el);
        let plat = Platform::paper_node_scaled(1 << 16); // tiny device: many shards
        let with = GraphSession::new(&layout, plat.clone(), Options::optimized())
            .query(&Bfs(0))
            .run()
            .unwrap();
        let without = GraphSession::new(
            &layout,
            plat,
            Options {
                frontier_management: false,
                ..Options::optimized()
            },
        )
        .query(&Bfs(0))
        .run()
        .unwrap();
        assert_eq!(with.vertex_values, without.vertex_values);
        assert!(with.stats.skipped_shard_copies > 0);
        assert!(with.stats.num_shards > 1, "need an out-of-core setup");
        assert!(
            (with.stats.bytes_h2d as f64) < 0.7 * without.stats.bytes_h2d as f64,
            "frontier mgmt should slash copies: {} vs {}",
            with.stats.bytes_h2d,
            without.stats.bytes_h2d
        );
    }

    #[test]
    fn phase_elimination_skips_in_edges_for_bfs() {
        let layout = small_graph();
        let plat = Platform::paper_node_scaled(16384);
        let fused = GraphSession::new(
            &layout,
            plat.clone(),
            Options {
                frontier_management: false,
                ..Options::optimized()
            },
        )
        .query(&Bfs(0))
        .run()
        .unwrap();
        let unfused = GraphSession::new(
            &layout,
            plat,
            Options {
                frontier_management: false,
                phase_fusion: false,
                ..Options::optimized()
            },
        )
        .query(&Bfs(0))
        .run()
        .unwrap();
        // Elimination drops in-edge buffers entirely; unfused mode hauls
        // them every iteration despite BFS never using them.
        assert!(fused.stats.bytes_h2d * 2 < unfused.stats.bytes_h2d);
    }

    #[test]
    fn in_memory_graph_runs_resident() {
        let layout = small_graph();
        // Full-size device: everything fits.
        let out = GraphSession::new(&layout, Platform::paper_node(), Options::optimized())
            .query(&Cc)
            .run()
            .unwrap();
        assert!(out.stats.all_resident);
        assert_eq!(out.stats.num_shards, 1);
        // Resident mode copies each buffer at most once: bytes are bounded
        // by ~one traversal of the graph's full records + static in/out.
        let one_pass = layout.num_edges() * 60 + layout.num_vertices() as u64 * 40;
        assert!(out.stats.bytes_h2d < one_pass);
    }

    #[test]
    fn iteration_trace_matches_frontier_dynamics() {
        let layout = small_graph();
        let out = GraphSession::new(&layout, Platform::paper_node(), Options::optimized())
            .query(&Bfs(0))
            .run()
            .unwrap();
        let sizes = out.stats.frontier_sizes();
        assert_eq!(sizes[0], 1); // BFS starts at one source
        assert!(out.stats.max_frontier() > 1);
        // The per-iteration activation chain is consistent: frontier of
        // iteration i+1 equals activated set of iteration i.
        for w in out.stats.per_iteration.windows(2) {
            assert_eq!(w[1].frontier_size, w[0].activated);
        }
    }

    #[test]
    fn spray_speeds_up_small_copy_heavy_runs() {
        let layout = small_graph();
        let plat = Platform::paper_node_scaled(1 << 14); // many tiny shards
        let spray = GraphSession::new(&layout, plat.clone(), Options::optimized())
            .query(&Cc)
            .run()
            .unwrap();
        let no_spray = GraphSession::new(
            &layout,
            plat,
            Options {
                spray: false,
                ..Options::optimized()
            },
        )
        .query(&Cc)
        .run()
        .unwrap();
        assert_eq!(spray.vertex_values, no_spray.vertex_values);
        assert!(
            spray.stats.elapsed <= no_spray.stats.elapsed,
            "spray {:?} vs {:?}",
            spray.stats.elapsed,
            no_spray.stats.elapsed
        );
    }

    #[test]
    fn empty_graph_runs_zero_iterations() {
        let layout = GraphLayout::build(&gr_graph::EdgeList::new(0));
        let out = GraphSession::new(&layout, Platform::paper_node(), Options::optimized())
            .query(&Cc)
            .run()
            .unwrap();
        assert_eq!(out.stats.iterations, 0);
        assert!(out.vertex_values.is_empty());
    }

    #[test]
    fn isolated_vertices_converge_immediately_for_bfs() {
        let el = gr_graph::EdgeList::from_edges(8, vec![(0, 1)]);
        let layout = GraphLayout::build(&el);
        let out = GraphSession::new(&layout, Platform::paper_node(), Options::optimized())
            .query(&Bfs(0))
            .run()
            .unwrap();
        assert_eq!(out.stats.iterations, 2); // source, then vertex 1
        assert_eq!(out.vertex_values[0], 0);
        assert_eq!(out.vertex_values[1], 1);
        assert!(out.vertex_values[2..].iter().all(|&d| d == u32::MAX));
    }

    // Several devices (the paper's Section 8 multi-GPU future work): the
    // same engine with more than one `Options::devices` entry.

    fn rmat11() -> GraphLayout {
        GraphLayout::build(&gen::rmat_g500(11, 30_000, 17).symmetrize())
    }

    fn plat14() -> Platform {
        Platform::paper_node_scaled(1 << 14)
    }

    /// The optimized options on `n` uncapped, fault-free devices.
    fn on_gpus(n: usize) -> Options {
        Options {
            devices: vec![DeviceSpec::default(); n],
            ..Options::optimized()
        }
    }

    /// CC on `n` devices of the out-of-core platform.
    fn cc(l: &GraphLayout, n: usize) -> GraphSession<'_> {
        GraphSession::new(l, plat14(), on_gpus(n))
    }

    #[test]
    fn multi_gpu_matches_single_device_results() {
        let l = rmat11();
        let single = GraphSession::new(&l, plat14(), Options::optimized())
            .query(&Cc)
            .run()
            .unwrap();
        for n in [1, 2, 4] {
            let multi = cc(&l, n).query(&Cc).run().unwrap();
            assert_eq!(multi.vertex_values, single.vertex_values, "{n} GPUs");
            assert_eq!(multi.stats.num_gpus(), n);
            assert_eq!(multi.stats.per_gpu_memcpy.len(), n);
        }
    }

    #[test]
    fn more_gpus_reduce_wall_time_on_streaming_runs() {
        let l = rmat11();
        let one = cc(&l, 1).query(&Cc).run().unwrap();
        let four = cc(&l, 4).query(&Cc).run().unwrap();
        assert!(
            four.stats.elapsed < one.stats.elapsed,
            "4 GPUs {:?} vs 1 GPU {:?}",
            four.stats.elapsed,
            one.stats.elapsed
        );
        assert!(four.stats.exchange_bytes > 0, "exchange traffic expected");
        assert_eq!(
            one.stats.exchange_bytes, 0,
            "single device exchanges nothing"
        );
    }

    #[test]
    fn scaling_is_sublinear_because_of_exchange() {
        let l = rmat11();
        let one = cc(&l, 1).query(&Cc).run().unwrap();
        let eight = cc(&l, 8).query(&Cc).run().unwrap();
        let speedup = one.stats.elapsed.as_secs_f64() / eight.stats.elapsed.as_secs_f64();
        assert!(speedup > 1.0 && speedup < 8.0, "speedup {speedup:.2}");
    }

    #[test]
    fn observer_tags_devices_and_marks_barriers() {
        let l = rmat11();
        let (obs, sink) = Observer::recording();
        let res = cc(&l, 2).query(&Cc).with_observer(obs).run().unwrap();
        let rec = sink.recorded();
        // Every device's sim lanes carry its tag.
        for tag in ["gpu0/", "gpu1/"] {
            let tagged = |s: &&gr_observe::SpanEvent| s.track == "sim" && s.lane.starts_with(tag);
            assert!(rec.spans.iter().any(|s| tagged(&s)), "{tag}");
        }
        // BSP barriers and iteration windows land on the multi track.
        let barriers = rec
            .instants
            .iter()
            .filter(|i| i.track == "multi" && i.lane == "barriers")
            .count();
        // init + final + (gather, apply, exchange) per iteration.
        assert_eq!(barriers as u32, 2 + 3 * res.stats.iterations);
        let iters = rec
            .spans
            .iter()
            .filter(|s| s.track == "multi" && s.lane == "iterations")
            .count() as u32;
        assert_eq!(iters, res.stats.iterations);
        // One end-of-run metrics snapshot per device.
        assert_eq!(
            rec.snapshots
                .iter()
                .filter(|(scope, _)| scope.starts_with("gpu"))
                .count(),
            2
        );
    }

    /// Plan the same partition the runner uses so tests can derive caps
    /// relative to the real static/shard footprints.
    fn reference_plan(l: &GraphLayout) -> crate::sizes::PartitionPlan {
        let (sizes, plat) = (crate::sizes::SizeModel::for_program(&Cc), plat14());
        crate::sizes::plan_partition(l, &sizes, &plat.device, &plat.pcie, 2, None).unwrap()
    }

    #[test]
    fn uncapped_multi_run_makes_no_governor_decisions() {
        let l = rmat11();
        let (obs, sink) = Observer::recording();
        let res = cc(&l, 2).query(&Cc).with_observer(obs).run().unwrap();
        assert_eq!(res.stats.mem_pressure_events, 0);
        assert_eq!(res.stats.redistributions, 0);
        assert_eq!(res.stats.shard_splits, 0);
        assert_eq!(sink.recorded().memory_decisions(), 0);
    }

    #[test]
    fn capped_device_redistributes_before_splitting() {
        let l = rmat11();
        let plan = reference_plan(&l);
        let baseline = cc(&l, 2).query(&Cc).run().unwrap();
        // Device 0 can hold its static buffers but not a single shard
        // slot: everything it owned must move to device 1, which has
        // full headroom. No splits are needed.
        let mut opts = on_gpus(2);
        opts.devices[0].mem_cap = Some(plan.static_bytes + 1);
        let (obs, sink) = Observer::recording();
        let capped = GraphSession::new(&l, plat14(), opts)
            .query(&Cc)
            .with_observer(obs)
            .run()
            .unwrap();
        assert_eq!(capped.vertex_values, baseline.vertex_values);
        assert!(capped.stats.redistributions > 0);
        assert_eq!(
            capped.stats.mem_pressure_events,
            capped.stats.redistributions
        );
        assert_eq!(capped.stats.shard_splits, 0);
        assert_eq!(
            sink.recorded().memory_decisions() as u64,
            capped.stats.redistributions
        );
    }

    #[test]
    fn capped_device_splits_when_no_peer_has_headroom() {
        let l = rmat11();
        let plan = reference_plan(&l);
        let baseline = cc(&l, 1).query(&Cc).run().unwrap();
        // A single device just below one slot of the largest shard has
        // nowhere to redistribute, and even one shard in flight does not
        // fit: concurrency drops to 1, then the largest shard must split.
        let cap = plan.static_bytes + plan.max_shard_bytes - 1;
        let capped = GraphSession::new(&l, plat14(), on_gpus(1).with_mem_cap(cap))
            .query(&Cc)
            .run()
            .unwrap();
        assert_eq!(capped.vertex_values, baseline.vertex_values);
        assert!(capped.stats.shard_splits > 0);
        assert_eq!(capped.stats.redistributions, 0);
    }

    #[test]
    fn cap_below_static_footprint_is_a_clean_alloc_error() {
        let l = rmat11();
        let plan = reference_plan(&l);
        // Without host fallback, devices none of which can hold the static
        // buffers fail the run.
        let opts = Options {
            recovery: crate::RecoveryPolicy {
                host_fallback: false,
                ..Default::default()
            },
            ..on_gpus(2).with_mem_cap(plan.static_bytes - 1)
        };
        match GraphSession::new(&l, plat14(), opts).query(&Cc).run() {
            Err(EngineError::Alloc(_)) => {}
            Err(other) => panic!("expected Alloc, got {other:?}"),
            Ok(_) => panic!("expected Alloc error, run succeeded"),
        }
    }

    /// One device of two capped below the static buffers is left out of
    /// the placement: its peer runs every shard on-device, with or without
    /// host fallback, and the answer is the one-device run's.
    #[test]
    fn device_below_static_footprint_is_left_out() {
        let l = rmat11();
        let plan = reference_plan(&l);
        let baseline = cc(&l, 1).query(&Cc).run().unwrap();
        for host_fallback in [true, false] {
            let mut opts = Options {
                recovery: crate::RecoveryPolicy {
                    host_fallback,
                    ..Default::default()
                },
                ..on_gpus(2)
            };
            opts.devices[1].mem_cap = Some(plan.static_bytes - 1);
            let (obs, sink) = Observer::recording();
            let run = GraphSession::new(&l, plat14(), opts)
                .query(&Cc)
                .with_observer(obs)
                .run()
                .unwrap();
            let s = &run.stats;
            assert!(!s.host_fallback, "fallback {host_fallback}");
            assert_eq!(run.vertex_values, baseline.vertex_values);
            assert!(s.per_gpu_kernel[0] > gr_sim::SimDuration::ZERO);
            assert_eq!(
                s.per_gpu_kernel[1],
                gr_sim::SimDuration::ZERO,
                "device 1 ran"
            );
            assert_eq!(
                s.per_gpu_memcpy[1],
                gr_sim::SimDuration::ZERO,
                "device 1 copied"
            );
            assert_eq!(s.mem_pressure_events, 1);
            assert_eq!(sink.recorded().memory_decisions(), 1);
        }
    }

    /// A device that owns no shard receives neither the vertex replica nor
    /// the exchange, so extra devices cost a one-shard graph nothing.
    #[test]
    fn idle_devices_pay_no_replica_and_no_exchange() {
        let l = small_graph();
        let run = |n| {
            GraphSession::new(&l, Platform::paper_node(), on_gpus(n))
                .query(&Bfs(0))
                .run()
                .unwrap()
        };
        let (one, two) = (run(1), run(2));
        assert_eq!(one.stats.num_shards, 1, "needs a one-shard plan");
        assert_eq!(two.vertex_values, one.vertex_values);
        assert_eq!(two.stats.exchange_bytes, 0, "nothing to exchange");
        assert!(
            two.stats.elapsed <= one.stats.elapsed,
            "2 GPUs {} vs 1 GPU {}",
            two.stats.elapsed,
            one.stats.elapsed
        );
        // Losing the owner mid-run hands the shard to the idle device,
        // which uploads the replica before its first op.
        let mut opts = on_gpus(2);
        let loss_at = one.stats.elapsed.as_nanos() / 2;
        opts.devices[0].fault_plan = gr_sim::FaultPlan::none().lose_device_at_ns(loss_at);
        let (obs, sink) = Observer::recording();
        let evicted = GraphSession::new(&l, Platform::paper_node(), opts)
            .query(&Bfs(0))
            .with_observer(obs)
            .run()
            .unwrap();
        assert_eq!(evicted.vertex_values, one.vertex_values);
        assert_eq!(evicted.stats.evictions, 1);
        let rec = sink.recorded();
        let gpu1: Vec<&str> = rec
            .spans
            .iter()
            .filter(|s| s.track == "sim" && s.lane.starts_with("gpu1/"))
            .map(|s| s.name.as_str())
            .filter(|&name| name != "issue")
            .collect();
        assert_eq!(gpu1.first(), Some(&"init.vertices"), "{gpu1:?}");
    }

    #[test]
    fn iteration_counts_match_single_device() {
        let l = rmat11();
        let single = GraphSession::new(&l, plat14(), Options::optimized())
            .query(&Cc)
            .run()
            .unwrap();
        let multi = cc(&l, 3).query(&Cc).run().unwrap();
        assert_eq!(multi.stats.iterations, single.stats.iterations);
        assert_eq!(single.stats.frontier_sizes(), multi.stats.frontier_sizes());
    }
}

#[cfg(test)]
mod extension_tests {
    use crate::options::Options;
    use crate::recovery::EngineError;
    use crate::session::{GraphSession, WarmStart};
    use crate::testprog::{Bfs, Cc};
    use gr_graph::GraphLayout;
    use gr_graph::{gen, EdgeList};
    use gr_sim::Platform;

    #[test]
    fn out_of_host_core_streams_from_storage() {
        let layout = GraphLayout::build(&gen::uniform(512, 8000, 5).symmetrize());
        // Device forces sharding; host memory smaller than the graph.
        let mut plat = Platform::paper_node_scaled(1 << 13);
        plat.host.mem_capacity = 100_000; // ~1/8 of the graph footprint
        let ssd = GraphSession::new(&layout, plat.clone(), Options::optimized())
            .query(&Cc)
            .run()
            .unwrap();
        plat.host.mem_capacity = 1 << 40;
        let ram = GraphSession::new(&layout, plat, Options::optimized())
            .query(&Cc)
            .run()
            .unwrap();
        assert_eq!(ssd.vertex_values, ram.vertex_values);
        assert!(
            ssd.stats.elapsed > ram.stats.elapsed * 2,
            "SSD-backed run {:?} must be much slower than RAM-backed {:?}",
            ssd.stats.elapsed,
            ram.stats.elapsed
        );
        // Data volume over PCIe is identical — the tier only adds latency.
        assert_eq!(ssd.stats.bytes_h2d, ram.stats.bytes_h2d);
    }

    #[test]
    fn warm_start_converges_in_fewer_iterations() {
        // Build a graph, run CC, append a bridging edge, rerun warm.
        let base = gen::uniform(600, 3000, 9).symmetrize();
        let layout = GraphLayout::build(&base);
        let plat = Platform::paper_node();
        let first = GraphSession::new(&layout, plat.clone(), Options::optimized())
            .query(&Cc)
            .run()
            .unwrap();

        // Mutate: connect vertex 0's component to an isolated-ish pair.
        let mut edges = base.edges.clone();
        edges.push((0, 599));
        edges.push((599, 0));
        let updated = EdgeList::from_edges(600, edges);
        let layout2 = GraphLayout::build(&updated);

        let gr2 = GraphSession::new(&layout2, plat.clone(), Options::optimized());
        let warm = gr2
            .query(&Cc)
            .warm(WarmStart {
                vertex_values: first.vertex_values.clone(),
                frontier: vec![0, 599],
            })
            .run()
            .unwrap();
        let cold = gr2.query(&Cc).run().unwrap();
        assert_eq!(warm.vertex_values, cold.vertex_values);
        assert!(
            warm.stats.iterations <= cold.stats.iterations,
            "incremental run took {} iterations vs {} cold",
            warm.stats.iterations,
            cold.stats.iterations
        );
        assert!(
            warm.stats.per_iteration[0].frontier_size <= 2,
            "warm start seeds only the mutation endpoints"
        );
    }

    #[test]
    fn warm_start_handles_added_vertices() {
        let base = gen::uniform(100, 500, 11).symmetrize();
        let layout = GraphLayout::build(&base);
        let plat = Platform::paper_node();
        let first = GraphSession::new(&layout, plat.clone(), Options::optimized())
            .query(&Cc)
            .run()
            .unwrap();
        // Grow the vertex set and attach the new vertex.
        let mut edges = base.edges.clone();
        edges.push((5, 100));
        edges.push((100, 5));
        let layout2 = GraphLayout::build(&EdgeList::from_edges(101, edges));
        let gr2 = GraphSession::new(&layout2, plat, Options::optimized());
        let warm = gr2
            .query(&Cc)
            .warm(WarmStart {
                vertex_values: first.vertex_values,
                frontier: vec![5, 100],
            })
            .run()
            .unwrap();
        assert_eq!(
            warm.vertex_values,
            gr2.query(&Cc).run().unwrap().vertex_values
        );
    }

    /// A 100-vertex graph: its frontier bitmap has 28 bits of padding in
    /// the last word, where a stray id would once have been counted.
    fn warm_target() -> GraphLayout {
        GraphLayout::build(&gen::uniform(100, 500, 11).symmetrize())
    }

    #[test]
    fn warm_start_rejects_more_values_than_vertices() {
        let layout = warm_target();
        let gr = GraphSession::new(&layout, Platform::paper_node(), Options::optimized());
        let err = gr
            .query(&Cc)
            .warm(WarmStart {
                vertex_values: vec![0; 101],
                frontier: vec![0],
            })
            .run()
            .err()
            .expect("101 values for 100 vertices must be rejected");
        assert_eq!(
            err,
            EngineError::BadStart {
                what: "vertex-value count",
                found: 101,
                num_vertices: 100
            }
        );
        assert!(err.to_string().contains("100-vertex graph"), "{err}");
    }

    #[test]
    fn warm_start_rejects_frontier_ids_past_the_last_vertex() {
        let layout = warm_target();
        let gr = GraphSession::new(&layout, Platform::paper_node(), Options::optimized());
        // 120 sits in the last bitmap word's padding; 100 is the first id
        // past the end.
        for id in [120, 100] {
            let err = gr
                .query(&Cc)
                .warm(WarmStart {
                    vertex_values: Vec::new(),
                    frontier: vec![3, id],
                })
                .run()
                .err()
                .expect("an id past the last vertex must be rejected");
            assert_eq!(
                err,
                EngineError::BadStart {
                    what: "frontier vertex",
                    found: u64::from(id),
                    num_vertices: 100
                }
            );
        }
    }

    #[test]
    fn cold_start_rejects_seeds_past_the_last_vertex() {
        let layout = warm_target();
        for id in [120, 100] {
            let err = GraphSession::new(&layout, Platform::paper_node(), Options::optimized())
                .query(&Bfs(id))
                .run()
                .err()
                .expect("a seed past the last vertex must be rejected");
            assert_eq!(
                err,
                EngineError::BadStart {
                    what: "initial seed",
                    found: u64::from(id),
                    num_vertices: 100
                }
            );
        }
    }
}

#[cfg(test)]
mod streaming_mode_tests {
    use crate::options::Options;
    use crate::options::StreamingMode;
    use crate::session::GraphSession;
    use crate::testprog::Cc;
    use gr_graph::gen;
    use gr_graph::GraphLayout;
    use gr_sim::Platform;

    #[test]
    fn zero_copy_streaming_matches_results_and_shaves_time() {
        // The Section 3.2 future-work exploration: with GR's fully
        // sequential streamed buffers, zero-copy access wins slightly
        // (pinned sequential beats explicit staging — Figure 4) without
        // changing a single result bit.
        let layout = GraphLayout::build(&gen::stencil3d(8192, 140_000, 31).symmetrize());
        let plat = Platform::paper_node_scaled(1 << 12);
        let explicit = GraphSession::new(&layout, plat.clone(), Options::optimized())
            .query(&Cc)
            .run()
            .unwrap();
        let zero_copy = GraphSession::new(
            &layout,
            plat,
            Options {
                streaming_mode: StreamingMode::ZeroCopySequential,
                ..Options::optimized()
            },
        )
        .query(&Cc)
        .run()
        .unwrap();
        assert_eq!(explicit.vertex_values, zero_copy.vertex_values);
        assert!(!explicit.stats.all_resident, "needs the streaming path");
        assert!(
            zero_copy.stats.memcpy_time < explicit.stats.memcpy_time,
            "zero-copy {:?} should undercut explicit staging {:?}",
            zero_copy.stats.memcpy_time,
            explicit.stats.memcpy_time
        );
        // Same byte volume crosses the link either way.
        assert_eq!(explicit.stats.bytes_h2d, zero_copy.stats.bytes_h2d);
    }
}
