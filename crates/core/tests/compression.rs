//! Differential harness for compressed shards: a run with
//! [`Options::with_shard_compression`] must be bit-identical to the raw
//! run — same vertex state, same mutable edge state, same per-iteration
//! trace — because compression only changes how topology crosses PCIe,
//! never what the kernels compute. Covers every test program, both codec
//! families, every host-kernel mode (each reads rows through the coded
//! `TopoView`), the memory-governed (25% cap) regime, the spill-armed
//! fingerprint path, and the paper's headline claim: compressed shards
//! cut host↔device traffic by well over 2.5x on scale-16 RMAT and on a
//! 2-D grid.
//!
//! See docs/COMPRESSION.md for the encoding and where the bytes go.

use gr_graph::{gen, CompressionCodec, GraphLayout};
use gr_observe::{Decision, Observer};
use gr_sim::Platform;
use graphreduce::testprog::{Bfs, Cc, Pr, Sssp};
use graphreduce::{DeviceSpec, GasProgram, GraphSession, HostKernels, Options, RunResult};

/// Weighted graph so compressed runs still ship the raw weight array
/// (weights stay uncompressed; only topology is coded).
fn weighted_graph() -> GraphLayout {
    let el = gen::with_random_weights(gen::uniform(512, 4096, 3).symmetrize(), 64.0, 11);
    GraphLayout::build(&el)
}

/// Out-of-core platform: shards actually stream, so the codec is on the
/// hot path rather than a no-op against a resident graph.
fn platform() -> Platform {
    Platform::paper_node_scaled(16384)
}

fn run<P: GasProgram + Copy>(prog: P, layout: &GraphLayout, opts: Options) -> RunResult<P> {
    GraphSession::new(layout, platform(), opts)
        .query(&prog)
        .run()
        .unwrap()
}

/// Every codec × host-kernel mode × {streamed, memory-governed} cell must
/// match the raw run bit-for-bit and must actually have exercised the
/// codec.
fn assert_differential<P>(prog: P, tag: &str)
where
    P: GasProgram + Copy,
    P::VertexValue: PartialEq + std::fmt::Debug,
    P::EdgeValue: PartialEq + std::fmt::Debug,
{
    let layout = weighted_graph();
    let base = run(prog, &layout, Options::optimized());
    assert_eq!(base.stats.compression_codec, None);
    assert_eq!(base.stats.decompress_launches, 0);
    let modes = [HostKernels::Adaptive, HostKernels::Serial];
    for codec in [CompressionCodec::Varint, CompressionCodec::Zeta(3)] {
        for (mode, capped) in modes.into_iter().flat_map(|m| [(m, false), (m, true)]) {
            let mut opts = Options {
                host_kernels: mode,
                ..Options::optimized().with_shard_compression(codec)
            };
            if capped {
                opts = opts.with_mem_cap(platform().device.mem_capacity / 4);
            }
            let z = run(prog, &layout, opts);
            let cell = format!("{tag}/{}/{mode:?}/capped={capped}", codec.name());
            assert_eq!(z.vertex_values, base.vertex_values, "{cell}: vertex state");
            assert_eq!(z.edge_values, base.edge_values, "{cell}: edge state");
            assert_eq!(
                z.stats.per_iteration, base.stats.per_iteration,
                "{cell}: iteration trace"
            );
            assert_eq!(z.stats.compression_codec, Some(codec.name()), "{cell}");
            assert!(
                z.stats.compression_ratio() > Some(1.0),
                "{cell}: topology must shrink (ratio {:?})",
                z.stats.compression_ratio()
            );
            assert!(
                z.stats.decompress_launches > 0,
                "{cell}: decompress kernels must be priced"
            );
            assert!(
                z.stats.bytes_h2d < base.stats.bytes_h2d,
                "{cell}: compressed run must move fewer bytes ({} vs {})",
                z.stats.bytes_h2d,
                base.stats.bytes_h2d
            );
        }
    }
}

#[test]
fn cc_compressed_runs_are_bit_identical() {
    assert_differential(Cc, "cc");
}

#[test]
fn bfs_compressed_runs_are_bit_identical() {
    assert_differential(Bfs(0), "bfs");
}

#[test]
fn sssp_compressed_runs_are_bit_identical() {
    assert_differential(Sssp(0), "sssp");
}

#[test]
fn pr_compressed_runs_are_bit_identical() {
    assert_differential(Pr, "pr");
}

/// Fresh scratch directory (no tempfile crate in the workspace).
fn scratch(tag: &str) -> std::path::PathBuf {
    static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = N.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("gr-compress-{tag}-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Spill-armed runs compute a state fingerprint; compression must not
/// perturb it (the fingerprint hashes decoded state, not frames), and
/// the compressed frames must shrink on the medium (`with_spill_dir`
/// rebuilds the file store with the codec).
#[test]
fn spill_armed_fingerprint_matches_raw() {
    let layout = weighted_graph();
    let mut plat = platform();
    plat.host.mem_capacity = 100_000;
    let run_with = |opts: Options| {
        GraphSession::new(&layout, plat.clone(), opts)
            .query(&Cc)
            .run()
            .unwrap()
    };
    let dir = scratch("spill");
    let raw = run_with(Options::optimized().with_spill_dir(&dir));
    let zdir = scratch("spill-z");
    let z = run_with(
        Options::optimized()
            .with_spill_dir(&zdir)
            .with_shard_compression(CompressionCodec::Zeta(3)),
    );
    assert!(raw.stats.spilled_shards > 0, "host cap must force spilling");
    assert!(z.stats.spilled_shards > 0);
    assert!(
        z.stats.spilled_bytes < raw.stats.spilled_bytes,
        "compressed spill frames must shrink on the medium ({} vs {})",
        z.stats.spilled_bytes,
        raw.stats.spilled_bytes
    );
    assert_eq!(z.vertex_values, raw.vertex_values);
    assert!(raw.stats.state_fingerprint.is_some());
    assert_eq!(z.stats.state_fingerprint, raw.stats.state_fingerprint);
}

/// Compression, the spill store and several devices compose: CC and BFS
/// with ζ₃ shards spilled from a host-capped platform on 2 GPUs match the
/// raw 1-GPU spill run's values and state fingerprint bit for bit.
#[test]
fn zeta_spill_runs_on_two_gpus_match_the_one_gpu_raw_run() {
    fn check<P>(prog: P, tag: &str)
    where
        P: GasProgram + Copy,
        P::VertexValue: PartialEq + std::fmt::Debug,
    {
        let layout = weighted_graph();
        // A device small enough that BFS's byte model plans several
        // shards too, so both devices own some.
        let mut plat = Platform::paper_node_scaled(1 << 16);
        plat.host.mem_capacity = 100_000;
        let run_with = |opts: Options| {
            GraphSession::new(&layout, plat.clone(), opts)
                .query(&prog)
                .run()
                .unwrap()
        };
        let raw = run_with(Options::optimized().with_spill_dir(scratch(tag)));
        let two = run_with(
            Options {
                devices: vec![DeviceSpec::default(); 2],
                ..Options::optimized()
            }
            .with_spill_dir(scratch(&format!("{tag}-z2")))
            .with_shard_compression(CompressionCodec::Zeta(3)),
        );
        assert_eq!(two.vertex_values, raw.vertex_values, "{tag}");
        assert!(raw.stats.state_fingerprint.is_some(), "{tag}");
        assert_eq!(
            two.stats.state_fingerprint, raw.stats.state_fingerprint,
            "{tag}"
        );
        let s = &two.stats;
        assert_eq!(s.num_gpus(), 2, "{tag}");
        assert!(s.exchange_bytes > 0, "{tag}: both devices own shards");
        assert!(s.spilled_shards > 0 && s.spill_loads > 0, "{tag}");
        assert!(s.decompress_launches > 0, "{tag}");
    }
    check(Cc, "cc");
    check(Bfs(0), "bfs");
}

/// Acceptance: on scale-16 RMAT (power-law gaps) and on a 2-D grid
/// (near-constant small gaps), compressed shards cut host↔device bytes by
/// at least 2.5x, the ratio is visible in `RunStats`, and the codec's
/// decisions land in the observer log.
#[test]
fn scale_16_rmat_compressed_cuts_transfers_2_5x() {
    // Each device is large enough for the static vertex state and small
    // enough that the topology still streams shard by shard.
    let inputs = [
        (
            "scale-16 RMAT",
            GraphLayout::build(&gen::rmat_g500(16, 1 << 20, 42).symmetrize()),
            Platform::paper_node_scaled(1024),
        ),
        (
            "2-D grid",
            GraphLayout::build(&gen::grid2d_with_edges(1 << 14, 1 << 16, 7)),
            Platform::paper_node_scaled(1 << 12),
        ),
    ];
    for (input, layout, plat) in inputs {
        let raw = GraphSession::new(&layout, plat.clone(), Options::optimized())
            .query(&Bfs(0))
            .run()
            .unwrap();
        let (obs, sink) = Observer::recording();
        let z = GraphSession::new(
            &layout,
            plat,
            Options::optimized().with_shard_compression(CompressionCodec::Zeta(3)),
        )
        .query(&Bfs(0))
        .with_observer(obs)
        .run()
        .unwrap();
        assert_eq!(z.vertex_values, raw.vertex_values, "{input}");
        assert!(raw.stats.num_shards > 1, "{input}: topology must stream");
        let raw_moved = raw.stats.bytes_h2d + raw.stats.bytes_d2h;
        let z_moved = z.stats.bytes_h2d + z.stats.bytes_d2h;
        let transfer_ratio = raw_moved as f64 / z_moved as f64;
        assert!(
            transfer_ratio >= 2.5,
            "{input} must cut PCIe traffic >= 2.5x, got {transfer_ratio:.2}x \
             ({raw_moved} -> {z_moved} bytes)"
        );
        assert!(
            z.stats.compression_ratio() >= Some(2.5),
            "{input}: topology ratio must be reported in RunStats, got {:?}",
            z.stats.compression_ratio()
        );
        assert!(z.stats.decompress_launches > 0, "{input}");
        let rec = sink.recorded();
        // Decompression is priced on the device timeline, so the compressed
        // run cannot claim the transfer savings for free.
        let decompress_ns: u64 = rec
            .spans
            .iter()
            .filter(|s| s.name == "decompress")
            .map(|s| s.dur_ns)
            .sum();
        assert!(
            decompress_ns > 0,
            "{input}: decompress kernels must occupy simulated time"
        );
        let compress = rec
            .decisions
            .iter()
            .filter(|d| matches!(d, Decision::CompressShard { .. }))
            .count();
        assert_eq!(
            compress, z.stats.num_shards,
            "{input}: one CompressShard decision per shard"
        );
    }
}
