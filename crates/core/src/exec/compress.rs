//! Compression glue for the exec core: per-shard byte accounting over a
//! [`CompressedTopology`] plus the compressed buffer sets the movement
//! layer ships instead of raw `(neighbor, edge id)` sub-arrays.
//!
//! The device never materializes decoded topology in global memory: the
//! consuming kernels read through the bit-packed gap streams per interval
//! (mirroring the host-side [`TopoView`] lazy decode), so a shard's device
//! footprint *is* its compressed footprint and the governor budgets in
//! compressed bytes. What compression cannot elide still ships raw: the
//! mutable per-edge values, real (non-unit) static weights, and the
//! frontier bitmaps. The decode work is charged honestly as a
//! `decompress` kernel per topology stream-in (see
//! `ComputeSpecs::decompress_spec` in [`super::compute`] and
//! `docs/COMPRESSION.md`).

use gr_graph::{CompressedTopology, CompressionCodec, GraphLayout, Shard, TopoView};
use gr_observe::{Decision, MetricsRegistry, Observer};

use crate::sizes::SizeModel;

use super::movement::{in_bufs_for, out_bufs_for, BufSet};
use super::EngineMetric;

/// Raw bytes per decoded topology entry: neighbor id (4) + weight (4) +
/// canonical edge id (4) — what the decompress kernel writes through
/// registers/shared memory per edge, and the apples-to-apples raw side of
/// every compression ratio.
pub(crate) const RAW_TOPO_ENTRY_BYTES: u64 = 12;

/// One run's compressed shard representation: both adjacency directions
/// gap-coded under one codec, with per-shard byte queries for the
/// governor, the movement layer, and the observability surface.
pub struct ShardCompression {
    topo: CompressedTopology,
}

impl ShardCompression {
    pub fn new(layout: &GraphLayout, codec: CompressionCodec) -> ShardCompression {
        ShardCompression {
            topo: CompressedTopology::build(layout, codec),
        }
    }

    pub fn codec(&self) -> CompressionCodec {
        self.topo.codec
    }

    /// The host kernels' decoded read path over this representation.
    pub fn view<'a>(&'a self, layout: &'a GraphLayout) -> TopoView<'a> {
        TopoView::compressed(layout, &self.topo)
    }

    /// Compressed bytes of the shard's in-edge (CSC) gap stream.
    pub fn csc_bytes(&self, sh: &Shard) -> u64 {
        self.topo
            .csc
            .interval_bytes(sh.interval.start, sh.interval.end)
    }

    /// Compressed bytes of the shard's out-edge (CSR) gap stream.
    pub fn csr_bytes(&self, sh: &Shard) -> u64 {
        self.topo
            .csr
            .interval_bytes(sh.interval.start, sh.interval.end)
    }

    /// In-edge sub-arrays under compression, mirroring
    /// [`super::movement::in_bufs_for`]: the gap stream replaces the raw
    /// `(src, weight, canonical idx)` triples, static weights ship raw
    /// only when the graph carries non-unit weights (all-1.0 weights are
    /// synthesized device-side), and the per-edge update/state scratch is
    /// device-initialized by the decompress kernel instead of copied.
    pub(crate) fn in_bufs(&self, sizes: &SizeModel, sh: &Shard, force: bool) -> BufSet {
        let mut set = BufSet::default();
        if !sizes.has_gather && !force {
            return set;
        }
        set.push((self.csc_bytes(sh), "in.topo.z"));
        let e = sh.num_in_edges();
        if self.topo.weighted {
            set.push((e * 4, "in.weight"));
        }
        if sizes.edge_value > 0 {
            set.push((e * sizes.edge_value, "in.value"));
        }
        set
    }

    /// Out-edge sub-arrays under compression, mirroring
    /// [`super::movement::out_bufs_for`]: the CSR gap stream carries both
    /// destinations and canonical ids (FrontierActivate and scatter decode
    /// through it), so only mutable edge values still ship raw.
    pub(crate) fn out_bufs(&self, sizes: &SizeModel, sh: &Shard, force: bool) -> BufSet {
        let mut set = BufSet::default();
        set.push((self.csr_bytes(sh), "out.topo.z"));
        if (sizes.has_scatter || force) && sizes.edge_value > 0 {
            set.push((sh.num_out_edges() * sizes.edge_value, "out.value"));
        }
        set
    }

    /// Per-shard device footprint in compressed form — the governor's and
    /// resident allocator's cost function instead of
    /// [`SizeModel::shard_bytes`]. Component-for-component mirror of the
    /// raw model: in-edge arrays exist only for gathering programs,
    /// out-edge values only for scattering ones, frontier bitmaps always.
    pub fn shard_bytes(&self, sizes: &SizeModel, sh: &Shard) -> u64 {
        let mut total = sh.num_vertices().div_ceil(8) * 2;
        total += self.csr_bytes(sh);
        if sizes.has_scatter {
            total += sh.num_out_edges() * sizes.edge_value;
        }
        if sizes.has_gather {
            total += self.csc_bytes(sh) + sh.num_in_edges() * sizes.edge_value;
            if self.topo.weighted {
                total += sh.num_in_edges() * 4;
            }
        }
        total
    }

    /// One CompressShard decision per governed shard, with the honest
    /// ratio the run will see on the wire (full raw buffer set vs
    /// compressed set, `force`d as the unfused pipeline ships them);
    /// totals land in `RunStats` via the engine counters.
    pub(crate) fn account(
        &self,
        sizes: &SizeModel,
        shards: &[Shard],
        force: bool,
        metrics: &mut MetricsRegistry<EngineMetric>,
        observer: &Observer,
    ) {
        let codec = self.codec().name();
        let total = |bufs: [BufSet; 2]| -> u64 {
            bufs.iter().flat_map(|b| b.as_slice()).map(|b| b.0).sum()
        };
        for (i, sh) in shards.iter().enumerate() {
            let raw = total([
                in_bufs_for(sizes, sh, force),
                out_bufs_for(sizes, sh, force),
            ]);
            let z = total([
                self.in_bufs(sizes, sh, force),
                self.out_bufs(sizes, sh, force),
            ]);
            metrics.inc(EngineMetric::CompressedRawBytes, raw);
            metrics.inc(EngineMetric::CompressedBytes, z);
            observer.decision(|| Decision::CompressShard {
                shard: i as u32,
                raw_bytes: raw,
                compressed_bytes: z,
                codec,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gr_graph::{build_shards, gen, partition_even_edges, GraphLayout};

    fn setup(weighted: bool) -> (GraphLayout, Vec<Shard>) {
        let mut el = gen::rmat_g500(8, 4096, 7);
        if weighted {
            el = gen::with_random_weights(el, 64.0, 11);
        }
        let layout = GraphLayout::build(&el);
        let shards = build_shards(&layout, &partition_even_edges(&layout, 4));
        (layout, shards)
    }

    fn size_model(gather: bool, scatter: bool) -> SizeModel {
        SizeModel {
            vertex_value: 8,
            gather: 8,
            edge_value: if scatter { 8 } else { 0 },
            has_gather: gather,
            has_scatter: scatter,
        }
    }

    #[test]
    fn compressed_footprint_beats_raw_on_skewed_graphs() {
        let (layout, shards) = setup(false);
        let comp = ShardCompression::new(&layout, CompressionCodec::default());
        let sizes = size_model(true, true);
        let raw: u64 = shards.iter().map(|s| sizes.shard_bytes(s)).sum();
        let z: u64 = shards.iter().map(|s| comp.shard_bytes(&sizes, s)).sum();
        assert!(
            z * 5 < raw * 2,
            "compressed footprint {z} not ≥2.5x below raw {raw}"
        );
    }

    #[test]
    fn buf_sets_mirror_raw_gating() {
        let (layout, shards) = setup(false);
        let comp = ShardCompression::new(&layout, CompressionCodec::Varint);
        // Gather-less, unforced: no in-edge movement at all (phase
        // elimination), exactly like the raw builder.
        let sizes = size_model(false, false);
        assert!(comp
            .in_bufs(&sizes, &shards[0], false)
            .as_slice()
            .is_empty());
        assert_eq!(comp.in_bufs(&sizes, &shards[0], true).as_slice().len(), 1);
        // Scatter-less: out set is the topology stream alone.
        let out = comp.out_bufs(&sizes, &shards[0], false);
        assert_eq!(out.as_slice().len(), 1);
        assert_eq!(out.as_slice()[0].1, "out.topo.z");
    }

    #[test]
    fn unit_weights_never_ship_but_real_weights_do() {
        let sizes = size_model(true, false);
        let (layout, shards) = setup(false);
        let comp = ShardCompression::new(&layout, CompressionCodec::default());
        let labels: Vec<_> = comp
            .in_bufs(&sizes, &shards[0], false)
            .as_slice()
            .iter()
            .map(|b| b.1)
            .collect();
        assert!(!labels.contains(&"in.weight"), "unit weights shipped");

        let (layout, shards) = setup(true);
        let comp = ShardCompression::new(&layout, CompressionCodec::default());
        let labels: Vec<_> = comp
            .in_bufs(&sizes, &shards[0], false)
            .as_slice()
            .iter()
            .map(|b| b.1)
            .collect();
        assert!(labels.contains(&"in.weight"), "real weights must ship");
    }

    #[test]
    fn interval_bytes_cover_the_whole_graph() {
        let (layout, shards) = setup(false);
        let comp = ShardCompression::new(&layout, CompressionCodec::Zeta(3));
        let csc: u64 = shards.iter().map(|s| comp.csc_bytes(s)).sum();
        let csr: u64 = shards.iter().map(|s| comp.csr_bytes(s)).sum();
        // Per-shard byte extents tile the stream; rounding each interval
        // up to bytes can only add.
        assert!(csc >= comp.topo.csc.total_bytes());
        assert!(csr >= comp.topo.csr.total_bytes());
        assert!(csc <= comp.topo.csc.total_bytes() + shards.len() as u64);
        assert!(csr <= comp.topo.csr.total_bytes() + shards.len() as u64);
    }
}
