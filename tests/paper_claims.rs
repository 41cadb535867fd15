//! Integration tests pinning the paper's headline *claims* (the shapes the
//! benchmark harness regenerates) at test scale, so regressions in the cost
//! models or the engines fail CI rather than silently bending the figures.

use graphreduce_repro::algorithms::{Bfs, Cc};
use graphreduce_repro::baselines::{CuSha, GraphChi, XStream};
use graphreduce_repro::core::{GraphSession, Options};
use graphreduce_repro::graph::{Dataset, GraphLayout};
use graphreduce_repro::sim::xfer::{transfer_access_time, AccessPattern, TransferMode};
use graphreduce_repro::sim::Platform;

fn source(layout: &GraphLayout) -> u32 {
    (0..layout.num_vertices())
        .max_by_key(|&v| layout.csr.degree(v))
        .unwrap_or(0)
}

/// Section 1 / Table 3: GR beats the CPU out-of-memory frameworks on
/// out-of-memory graphs.
#[test]
fn gr_outperforms_cpu_frameworks_out_of_core() {
    let scale = 512;
    let plat = Platform::paper_node_scaled(scale);
    for ds in [Dataset::KronLogn21, Dataset::Orkut] {
        let layout = GraphLayout::build(&ds.generate(scale));
        let src = source(&layout);
        let gr = GraphSession::new(&layout, plat.clone(), Options::optimized())
            .query(&Bfs::new(src))
            .run()
            .unwrap();
        assert!(!gr.stats.all_resident, "{} must stream", ds.name());
        let chi = GraphChi::scaled(scale).run(&gr.work, &layout, &plat.host);
        let xs = XStream::default().run(&gr.work, &layout, &plat.host);
        let s_chi = chi.elapsed.as_secs_f64() / gr.stats.elapsed.as_secs_f64();
        let s_xs = xs.elapsed.as_secs_f64() / gr.stats.elapsed.as_secs_f64();
        assert!(
            s_chi > 2.0,
            "{}: GR vs GraphChi only {s_chi:.2}x",
            ds.name()
        );
        assert!(s_xs > 1.5, "{}: GR vs X-Stream only {s_xs:.2}x", ds.name());
        assert!(s_chi > s_xs, "GraphChi must trail X-Stream (Table 3)");
    }
}

/// Section 6.2.3: memcpy dominates unoptimized execution and the Section 5
/// optimizations cut it substantially; BFS benefits the most.
#[test]
fn optimizations_cut_memcpy_time() {
    let scale = 256;
    let plat = Platform::paper_node_scaled(scale);
    let layout = GraphLayout::build(&Dataset::Cage15.generate(scale));
    let src = source(&layout);

    let unopt = GraphSession::new(&layout, plat.clone(), Options::unoptimized())
        .query(&Bfs::new(src))
        .run()
        .unwrap();
    let opt = GraphSession::new(&layout, plat.clone(), Options::optimized())
        .query(&Bfs::new(src))
        .run()
        .unwrap();
    assert!(
        unopt.stats.memcpy_share() > 0.85,
        "memcpy must dominate the unoptimized run ({:.1}%)",
        100.0 * unopt.stats.memcpy_share()
    );
    let reduction =
        1.0 - opt.stats.memcpy_time.as_secs_f64() / unopt.stats.memcpy_time.as_secs_f64();
    assert!(
        reduction > 0.4,
        "BFS memcpy reduction only {:.1}%",
        100.0 * reduction
    );

    // CC (gather + dense start) improves less than BFS.
    let sym = GraphLayout::build(&Dataset::Cage15.generate(scale).symmetrize());
    let unopt_cc = GraphSession::new(&sym, plat.clone(), Options::unoptimized())
        .query(&Cc)
        .run()
        .unwrap();
    let opt_cc = GraphSession::new(&sym, plat, Options::optimized())
        .query(&Cc)
        .run()
        .unwrap();
    let cc_reduction =
        1.0 - opt_cc.stats.memcpy_time.as_secs_f64() / unopt_cc.stats.memcpy_time.as_secs_f64();
    assert!(
        reduction > cc_reduction,
        "BFS ({:.1}%) must improve more than CC ({:.1}%)",
        100.0 * reduction,
        100.0 * cc_reduction
    );
}

/// Table 1: the in-/out-of-memory split is preserved at every power-of-two
/// scale the harness supports.
#[test]
fn memory_split_is_scale_invariant() {
    for scale in [16u64, 64, 256, 1024] {
        let cap = graphreduce_repro::sim::DeviceConfig::k20c_scaled(scale).mem_capacity;
        for ds in Dataset::IN_MEMORY {
            assert!(
                graphreduce_repro::graph::dataset_bytes(ds, scale) <= cap,
                "{} at /{scale} should fit",
                ds.name()
            );
        }
        for ds in Dataset::OUT_OF_MEMORY {
            assert!(
                graphreduce_repro::graph::dataset_bytes(ds, scale) > cap,
                "{} at /{scale} should exceed device memory",
                ds.name()
            );
        }
    }
}

/// Figure 4: the transfer-technique asymmetry that justifies explicit
/// copies with sorted layouts (Section 3.2).
#[test]
fn transfer_technique_asymmetry() {
    let p = Platform::paper_node();
    let n = 10_000_000u64;
    let t = |m, a| transfer_access_time(&p.pcie, &p.device, m, a, n * 8, n, 8);
    assert!(
        t(TransferMode::PinnedUva, AccessPattern::Sequential)
            < t(TransferMode::Explicit, AccessPattern::Sequential)
    );
    assert!(
        t(TransferMode::Explicit, AccessPattern::Random)
            < t(TransferMode::Managed, AccessPattern::Random)
    );
    assert!(
        t(TransferMode::Managed, AccessPattern::Random)
            < t(TransferMode::PinnedUva, AccessPattern::Random)
    );
}

/// Section 2.2 / Table 2 motivation: the GPU engines refuse out-of-memory
/// graphs (GraphReduce exists precisely to lift this restriction).
#[test]
fn in_memory_engines_refuse_large_graphs() {
    let scale = 512;
    let plat = Platform::paper_node_scaled(scale);
    let layout = GraphLayout::build(&Dataset::Nlpkkt160.generate(scale));
    assert!(CuSha::default().run(&[], &layout, &plat).is_err());
    // GraphReduce handles the same graph on the same device.
    let gr = GraphSession::new(&layout, plat, Options::optimized())
        .query(&Cc)
        .run();
    assert!(gr.is_ok());
}
