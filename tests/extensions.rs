//! Facade-level integration tests for the Section 8 future-work
//! extensions: multi-GPU, SSD-backed out-of-host-core, incremental
//! processing — plus the Totem-style hybrid comparator.

use graphreduce_repro::algorithms::{reference, Cc, Heat, PageRank};
use graphreduce_repro::baselines::Totem;
use graphreduce_repro::core::{DeviceSpec, GraphSession, Options, WarmStart};
use graphreduce_repro::graph::{gen, Dataset, EdgeList, GraphLayout};
use graphreduce_repro::observe::Observer;
use graphreduce_repro::sim::Platform;

const SCALE: u64 = 1024;

/// The optimized options on `n` devices.
fn on_gpus(n: usize) -> Options {
    Options {
        devices: vec![DeviceSpec::default(); n],
        ..Options::optimized()
    }
}

#[test]
fn multi_gpu_agrees_with_single_gpu_and_scales() {
    let layout = GraphLayout::build(&Dataset::Orkut.generate(SCALE).symmetrize());
    let plat = Platform::paper_node_scaled(SCALE);
    let single = GraphSession::new(&layout, plat.clone(), Options::optimized())
        .query(&Cc)
        .run()
        .unwrap();
    let mut last = None;
    for n in [1, 2, 4] {
        let multi = GraphSession::new(&layout, plat.clone(), on_gpus(n))
            .query(&Cc)
            .run()
            .unwrap();
        assert_eq!(multi.vertex_values, single.vertex_values, "{n} GPUs");
        if let Some(prev) = last {
            assert!(
                multi.stats.elapsed <= prev,
                "{n} GPUs should not be slower than {}",
                n / 2
            );
        }
        last = Some(multi.stats.elapsed);
    }
}

/// Scatter on several GPUs is priced like on one: every device launches
/// `scatter` kernels over the shards it owns and downloads their edge
/// values (`final.edges`), and vertex and edge values match the single
/// engine bit for bit.
#[test]
fn multi_gpu_prices_scatter_on_every_device() {
    let layout = GraphLayout::build(&gen::rmat_g500(11, 30_000, 17).symmetrize());
    let plat = Platform::paper_node_scaled(1 << 14);
    let heat = Heat {
        max_iters: 20,
        ..Heat::default()
    };
    let single = GraphSession::new(&layout, plat.clone(), Options::optimized())
        .query(&heat)
        .run()
        .unwrap();
    let (obs, sink) = Observer::recording();
    let multi = GraphSession::new(&layout, plat, on_gpus(2))
        .query(&heat)
        .with_observer(obs)
        .run()
        .unwrap();
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&multi.vertex_values), bits(&single.vertex_values));
    assert_eq!(bits(&multi.edge_values), bits(&single.edge_values));
    let rec = sink.recorded();
    for gpu in ["gpu0/", "gpu1/"] {
        for op in ["scatter", "final.edges"] {
            assert!(
                rec.spans
                    .iter()
                    .any(|s| s.track == "sim" && s.lane.starts_with(gpu) && s.name == op),
                "no {op} on {gpu}"
            );
        }
    }
}

#[test]
fn ssd_tier_changes_time_not_results() {
    let layout = GraphLayout::build(&Dataset::Cage15.generate(SCALE));
    let pr = PageRank {
        epsilon: 1e-3,
        max_iters: 20,
        ..Default::default()
    };
    let mut plat = Platform::paper_node_scaled(SCALE);
    let in_ram = GraphSession::new(&layout, plat.clone(), Options::optimized())
        .query(&pr)
        .run()
        .unwrap();
    plat.host.mem_capacity = 1 << 20; // force the storage tier
    let from_ssd = GraphSession::new(&layout, plat, Options::optimized())
        .query(&pr)
        .run()
        .unwrap();
    assert_eq!(in_ram.vertex_values, from_ssd.vertex_values);
    assert_eq!(in_ram.stats.bytes_h2d, from_ssd.stats.bytes_h2d);
    assert!(from_ssd.stats.elapsed > in_ram.stats.elapsed);
}

#[test]
fn incremental_cc_tracks_edge_insertions() {
    let mut el = Dataset::CoAuthorsDblp.generate(SCALE).symmetrize();
    let plat = Platform::paper_node_scaled(SCALE);
    let layout = GraphLayout::build(&el);
    let mut state = GraphSession::new(&layout, plat.clone(), Options::optimized())
        .query(&Cc)
        .run()
        .unwrap();

    for step in 0..3 {
        let u = (step * 37) % el.num_vertices;
        let v = (step * 113 + el.num_vertices / 2) % el.num_vertices;
        if u == v {
            continue;
        }
        el.edges.push((u, v));
        el.edges.push((v, u));
        let layout = GraphLayout::build(&el);
        let gr = GraphSession::new(&layout, plat.clone(), Options::optimized());
        let warm = gr
            .query(&Cc)
            .warm(WarmStart {
                vertex_values: state.vertex_values,
                frontier: vec![u, v],
            })
            .run()
            .unwrap();
        // Incremental result must equal recomputation and the union-find
        // ground truth.
        reference::check_cc_labels(&layout, &warm.vertex_values);
        let cold = gr.query(&Cc).run().unwrap();
        assert_eq!(warm.vertex_values, cold.vertex_values, "step {step}");
        state = warm;
    }
}

#[test]
fn totem_handles_out_of_memory_graphs_but_underutilizes() {
    let layout = GraphLayout::build(&Dataset::Nlpkkt160.generate(SCALE));
    let plat = Platform::paper_node_scaled(SCALE);
    let gr = GraphSession::new(&layout, plat.clone(), Options::optimized())
        .query(&Cc)
        .run()
        .unwrap();
    let (run, split) = Totem::default().run(&gr.work, &layout, &plat);
    // Never refuses — but the device holds only part of the edge set.
    assert!(
        split.gpu_fraction() < 1.0,
        "share {:.2}",
        split.gpu_fraction()
    );
    assert!(split.boundary_edges > 0);
    // Totem prices the GraphReduce run whose results it shares.
    assert_eq!(run.iterations, gr.stats.iterations);
}

#[test]
fn warm_start_noop_converges_immediately() {
    // Re-running warm with no mutation and an empty seed set terminates in
    // zero iterations and moves almost nothing.
    let el = EdgeList::from_edges(64, (0..63).map(|i| (i, i + 1)).collect::<Vec<_>>());
    let layout = GraphLayout::build(&el);
    let plat = Platform::paper_node();
    let gr = GraphSession::new(&layout, plat, Options::optimized());
    let first = gr.query(&Cc).run().unwrap();
    let warm = gr
        .query(&Cc)
        .warm(WarmStart {
            vertex_values: first.vertex_values.clone(),
            frontier: vec![],
        })
        .run()
        .unwrap();
    assert_eq!(warm.stats.iterations, 0);
    assert_eq!(warm.vertex_values, first.vertex_values);
}
