//! Data Movement Engine: shard copy-in/copy-out over PCIe.
//!
//! Owns the streaming policy a run was configured and governed into —
//! explicit staged copies, spray copies over cycled streams, zero-copy
//! sequential access, bounded chunking through the staging slot, and the
//! out-of-host-core storage stall. Every byte that crosses the link goes
//! through `Movement::copy_in`/`Movement::copy_out`; the ops
//! themselves are issued via [`DeviceCtx`] so
//! the fault-retry path is shared.

use gr_graph::Shard;
use gr_sim::{SimDuration, StreamId};

use crate::options::{Options, StreamingMode};
use crate::sizes::SizeModel;

use super::device::{Abort, DeviceCtx};
use super::EngineMetric;

/// One buffer of a shard copy: (bytes, trace label).
pub(crate) type Buf = (u64, &'static str);

/// A shard's fixed buffer list, precomputed once per run (satellite of the
/// sparse-kernels PR: the per-iteration `Vec<Buf>` rebuilds were pure
/// allocator churn). Stack-inline and `Copy` so the emit loops can grab a
/// shard's set without borrowing the driver.
#[derive(Clone, Copy, Default)]
pub(crate) struct BufSet {
    n: usize,
    bufs: [Buf; 4],
}

impl BufSet {
    pub(crate) fn push(&mut self, b: Buf) {
        self.bufs[self.n] = b;
        self.n += 1;
    }

    pub(crate) fn as_slice(&self) -> &[Buf] {
        &self.bufs[..self.n]
    }
}

/// In-edge sub-arrays of a shard: source ids, static weights, mutable
/// edge values. `force` includes them even when the program has no gather
/// (the unoptimized mode's behaviour that phase elimination removes).
pub(crate) fn in_bufs_for(sizes: &SizeModel, sh: &Shard, force: bool) -> BufSet {
    let mut set = BufSet::default();
    if !sizes.has_gather && !force {
        return set;
    }
    let e = sh.num_in_edges();
    set.push((e * 12, "in.topo"));
    set.push((e * (sizes.gather + 4), "in.update"));
    set.push((e * 16, "in.state"));
    if sizes.edge_value > 0 {
        set.push((e * sizes.edge_value, "in.value"));
    }
    set
}

/// Out-edge sub-arrays: destination ids always (FrontierActivate needs
/// the topology regardless — Section 5.3), canonical ids + mutable
/// values when scattering (or when `force`d by unoptimized mode).
pub(crate) fn out_bufs_for(sizes: &SizeModel, sh: &Shard, force: bool) -> BufSet {
    let e = sh.num_out_edges();
    let mut set = BufSet::default();
    set.push((e * 12, "out.topo"));
    set.push((e * 8, "out.state"));
    if (sizes.has_scatter || force) && sizes.edge_value > 0 {
        set.push((e * sizes.edge_value, "out.value"));
    }
    set
}

/// The movement policy for one run: how shard buffers cross PCIe.
pub struct Movement {
    spray: bool,
    spray_width: u32,
    streaming_mode: StreamingMode,
    // Out-of-host-core: graphs beyond host DRAM stream shards from
    // storage before they can cross PCIe.
    storage_read_secs_per_byte: Option<f64>,
    storage_latency: SimDuration,
    // Memory governor outcome: shards streamed in bounded chunks through
    // their device's staging slot (`DeviceCtx::slot_bytes`).
    chunked: Vec<bool>,
    // Out-of-host-core spill: shards whose topology was evicted to the
    // shard store pay a storage read on their *first* stream-in — the
    // driver reads each spilled blob back exactly once per run
    // (`load_spilled`), after which the shard is host-resident, so later
    // stream-ins are plain PCIe copies. Takes precedence over the blanket
    // `storage_read_secs_per_byte` (which models a host that mmaps the
    // whole graph from storage with no store configured and re-reads on
    // every pass).
    spilled: Vec<bool>,
    spill_charged: Vec<bool>,
    spill_read_secs_per_byte: Option<f64>,
}

impl Movement {
    /// Assemble the movement policy from the run options, the governed
    /// chunking outcome, and the host-memory tier.
    pub(crate) fn new(
        opts: &Options,
        chunked: Vec<bool>,
        storage_read_secs_per_byte: Option<f64>,
        storage_latency: SimDuration,
    ) -> Self {
        let num_shards = chunked.len();
        Movement {
            spray: opts.spray,
            spray_width: opts.spray_width,
            streaming_mode: opts.streaming_mode,
            storage_read_secs_per_byte,
            storage_latency,
            chunked,
            spilled: vec![false; num_shards],
            spill_charged: vec![false; num_shards],
            spill_read_secs_per_byte: None,
        }
    }

    /// Arm the spill rung: `spilled` shards charge one storage read on
    /// first stream-in, and the blanket whole-graph storage stall (if
    /// any) is dropped — spilled shards are charged precisely instead.
    /// A shard therefore pays exactly one of `spill.read` or `ssd.read`
    /// per load, never both and never twice.
    pub(crate) fn set_spilled(&mut self, spilled: Vec<bool>, read_secs_per_byte: f64) {
        self.spilled = spilled;
        self.spill_read_secs_per_byte = Some(read_secs_per_byte);
        self.storage_read_secs_per_byte = None;
    }

    /// Copy a shard's buffers host→device on (or sprayed around) `stream`,
    /// each copy routed through the fault-retry path. When the graph
    /// exceeds host memory, the shard is first read from storage into the
    /// host's streaming window. Governor-chunked shards stream each
    /// sub-array in bounded pieces through the reusable staging slot
    /// instead of landing whole (and never spray — the slot is the
    /// contention point).
    pub(crate) fn copy_in(
        &mut self,
        ctx: &mut DeviceCtx,
        shard: usize,
        stream: StreamId,
        bufs: &[Buf],
        iter: u32,
    ) -> Result<(), Abort> {
        if bufs.is_empty() {
            return Ok(());
        }
        if self.spilled[shard] {
            // One stall per run: the store read happens once; after it
            // the payload sits in host RAM (the latch mirrors the
            // driver's `spill_loaded`). Charging it per stream-in
            // double-counted the spill on every revisit.
            if !self.spill_charged[shard] {
                if let Some(per_byte) = self.spill_read_secs_per_byte {
                    let bytes: u64 = bufs.iter().map(|b| b.0).sum();
                    let dur =
                        self.storage_latency + SimDuration::from_secs_f64(bytes as f64 * per_byte);
                    ctx.stall(stream, dur, "spill.read");
                    ctx.metrics.inc(EngineMetric::SpillStalls, 1);
                    self.spill_charged[shard] = true;
                }
            }
        } else if let Some(per_byte) = self.storage_read_secs_per_byte {
            let bytes: u64 = bufs.iter().map(|b| b.0).sum();
            let dur = self.storage_latency + SimDuration::from_secs_f64(bytes as f64 * per_byte);
            ctx.stall(stream, dur, "ssd.read");
            ctx.metrics.inc(EngineMetric::SsdStalls, 1);
        }
        if self.chunked[shard] {
            for &(bytes, label) in bufs {
                let mut left = bytes;
                while left > 0 {
                    let b = ctx.slot_bytes.min(left);
                    left -= b;
                    ctx.h2d(stream, b, label, iter)?;
                    ctx.metrics.inc(EngineMetric::ChunkedCopies, 1);
                }
            }
            return Ok(());
        }
        if self.streaming_mode == StreamingMode::ZeroCopySequential {
            // Zero-copy: the consuming kernels stream the buffers over
            // PCIe directly; the link is occupied for the access volume
            // but no staging DMA or per-copy latency is paid. GR's sorted
            // shard layout makes every streamed buffer sequential, so the
            // pinned-sequential rate applies (Figure 4's best case).
            for &(bytes, label) in bufs {
                if bytes > 0 {
                    ctx.h2d_zero_copy(stream, bytes, label, iter)?;
                }
            }
            return Ok(());
        }
        if self.spray && ctx.has_spray() {
            // Spray: split every sub-array over dynamically cycled streams;
            // the consuming stream waits on each piece's event.
            let chunks = (self.spray_width.max(1) as usize / bufs.len()).max(1);
            for &(bytes, label) in bufs {
                if bytes == 0 {
                    continue;
                }
                let per = bytes.div_ceil(chunks as u64);
                let mut left = bytes;
                while left > 0 {
                    let b = per.min(left);
                    left -= b;
                    let ss = ctx.next_spray_stream();
                    ctx.h2d(ss, b, label, iter)?;
                    ctx.fence(ss, stream);
                }
            }
        } else {
            for &(bytes, label) in bufs {
                if bytes > 0 {
                    ctx.h2d(stream, bytes, label, iter)?;
                }
            }
        }
        Ok(())
    }

    /// Copy a shard's buffers device→host after the work on `stream`,
    /// chunked through the staging slot for governor-chunked shards.
    pub(crate) fn copy_out(
        &self,
        ctx: &mut DeviceCtx,
        shard: usize,
        stream: StreamId,
        bufs: &[Buf],
        iter: u32,
    ) -> Result<(), Abort> {
        if self.chunked[shard] {
            for &(bytes, label) in bufs {
                let mut left = bytes;
                while left > 0 {
                    let b = ctx.slot_bytes.min(left);
                    left -= b;
                    ctx.d2h(stream, b, label, iter)?;
                    ctx.metrics.inc(EngineMetric::ChunkedCopies, 1);
                }
            }
            return Ok(());
        }
        for &(bytes, label) in bufs {
            if bytes > 0 {
                ctx.d2h(stream, bytes, label, iter)?;
            }
        }
        Ok(())
    }
}
