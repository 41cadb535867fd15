//! Partition Engine, planning layer: derive an executable plan from the
//! byte model, the options, and each device's (possibly capped) capacity.
//!
//! Everything here is a pure function of `(SizeModel, Options, caps)` —
//! no device ops, no streams, no host state. The output is an explicit
//! [`ExecPlan`]: the (possibly degraded) partition, the owner device of
//! every shard, and the memory governor's verdict for every shard. The
//! static fusion/elimination decisions ([`emit_plan_decisions`]) are made
//! here too.

use gr_graph::{split_shard, GraphLayout, Shard};
use gr_observe::{Decision, MetricsRegistry, Observer};
use gr_sim::OutOfMemory;

use crate::options::Options;
use crate::recovery::EngineError;
use crate::sizes::{PartitionPlan, SizeModel};

use super::compress::ShardCompression;
use super::EngineMetric;

/// The executable plan: the partition (after any governor degradation),
/// shard placement, and per-shard movement verdicts. All-default governed
/// fields when no device is capped: the governor makes no decisions and
/// the run is byte-identical to an ungoverned one.
pub struct ExecPlan {
    /// The partition plan, with shards split/renumbered as governed.
    pub partition: PartitionPlan,
    /// The device each shard runs on (all 0 on one device).
    pub owners: Vec<usize>,
    /// Rung 6: even per-shard degradation cannot fit the cap — the whole
    /// run executes on the host CPU and nothing is allocated on-device.
    pub host_run: bool,
    /// Per-device streaming allocation size (== `partition.max_shard_bytes`
    /// unless chunking shrank it to that device's governed budget).
    pub slot_bytes: Vec<u64>,
    /// Shards streamed in bounded chunks through the staging slot.
    pub chunked: Vec<bool>,
    /// Shards degraded to host-CPU execution.
    pub host_shards: Vec<bool>,
    /// Shards evicted to the configured [`ShardStore`]
    /// (out-of-host-core): their topology lives in the store, and every
    /// stream-in pays a storage read instead of a host-RAM read. Always
    /// all-false without a store.
    ///
    /// [`ShardStore`]: crate::store::ShardStore
    pub spilled: Vec<bool>,
}

/// Chunking policy for the memory governor's bounded staging slot: when a
/// shard's streaming footprint exceeds the per-slot budget even after
/// adaptive splitting, its sub-arrays are streamed through one reusable
/// device allocation of `bytes` in `chunks_for(total)` pieces instead of
/// landing whole. The slot is a plain streaming allocation — the same
/// RAII [`gr_sim::Allocation`] the engine holds for ordinary shards —
/// just sized to the governed budget rather than the largest shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StagingBuffer {
    bytes: u64,
}

impl StagingBuffer {
    /// Smallest slot worth chunking through: below one page of staging,
    /// per-copy latency dominates and host fallback is cheaper.
    pub const MIN_BYTES: u64 = 4096;
    /// Most pieces one transfer may be cut into; past this the copy-issue
    /// overhead swamps any benefit of staying on the device.
    pub const MAX_CHUNKS: u64 = 4096;

    pub fn new(bytes: u64) -> Self {
        StagingBuffer { bytes }
    }

    /// Pieces a `total`-byte transfer splits into through this slot.
    pub fn chunks_for(&self, total: u64) -> u64 {
        total.div_ceil(self.bytes.max(1))
    }

    /// Whether a `total`-byte transfer is worth staging at all, or should
    /// escalate to the governor's next rung (host fallback).
    pub fn can_stage(&self, total: u64) -> bool {
        self.bytes >= Self::MIN_BYTES && self.chunks_for(total) <= Self::MAX_CHUNKS
    }
}

/// The device-memory governor: degrade the optimistic partition plan until
/// it fits every (possibly capped) device pool, escalating through
///
/// 0. redistribute a pressured device's largest shard to the least-loaded
///    peer that can take it whole (more than one device only),
/// 1. drop residency (stream instead of caching every shard),
/// 2. reduce concurrency `K`,
/// 3. adaptively split oversized shards ([`split_shard`]),
/// 4. chunk transfers of unsplittable shards through a bounded staging
///    slot ([`StagingBuffer`]),
/// 5. per-shard host fallback — or, when a shard store is configured,
///    spill the shard to storage and stream it back chunked (the
///    out-of-host-core rung; see [`crate::store`]),
/// 6. whole-run host execution, when no device can hold the static
///    buffers (a device that cannot, among several, is first left out of
///    the placement),
///
/// and surfacing [`EngineError::Alloc`] only when the recovery policy
/// forbids host fallback at a terminal rung. Each rung judges a shard
/// against the budget of the device that owns it (`owners`, indexing
/// `capacities`). Every degradation emits exactly one decision
/// ([`Decision::MemoryPressure`], [`Decision::ShardSplit`],
/// [`Decision::ChunkedXfer`]) and bumps the matching `engine.*` counter;
/// with no device `capped` this is a single branch and zero decisions.
///
/// With shard compression armed (`comp`), every per-shard cost the ladder
/// compares against the budget is the *compressed* footprint — compressed
/// shards stay resident, keep concurrency, or stage whole where raw ones
/// would split, chunk, or spill. Partitioning itself stays optimistic and
/// raw ("plan optimistically, govern at runtime").
#[allow(clippy::too_many_arguments)] // the planning context really is this wide
pub fn build_exec_plan(
    partition: PartitionPlan,
    owners: Vec<usize>,
    capacities: &[u64],
    capped: bool,
    sizes: &SizeModel,
    layout: &GraphLayout,
    opts: &Options,
    comp: Option<&ShardCompression>,
    metrics: &mut MetricsRegistry<EngineMetric>,
    observer: &Observer,
) -> Result<ExecPlan, EngineError> {
    let cost = |s: &Shard| match comp {
        Some(c) => c.shard_bytes(sizes, s),
        None => sizes.shard_bytes(s),
    };
    let mut partition = partition;
    if comp.is_some() {
        // Streaming slots and every rung below budget what actually
        // crosses PCIe and lands on the device: compressed bytes.
        partition.max_shard_bytes = partition.shards.iter().map(cost).max().unwrap_or(0);
    }
    let num_shards = partition.shards.len();
    let mut out = ExecPlan {
        slot_bytes: vec![partition.max_shard_bytes; capacities.len()],
        partition,
        owners,
        host_run: false,
        chunked: vec![false; num_shards],
        host_shards: vec![false; num_shards],
        spilled: vec![false; num_shards],
    };
    if !capped {
        return Ok(out);
    }
    let ExecPlan {
        partition: plan,
        owners,
        ..
    } = &mut out;
    let ndev = capacities.len();
    let oom = |requested: u64, available: u64, d: usize| OutOfMemory {
        requested,
        available,
        capacity: capacities[d],
    };
    let pressure = |d: usize, requested: u64, available: u64, response, scope| {
        let capacity = capacities[d];
        observer.decision(|| Decision::MemoryPressure {
            device: d as u32,
            requested,
            available,
            capacity,
            response,
            scope,
        });
    };
    // Per device: the largest shard cost it owns, and the bytes it owns.
    let owned = |plan: &PartitionPlan, owners: &[usize]| {
        let (mut worst, mut bytes) = (vec![0u64; ndev], vec![0u64; ndev]);
        for (s, &o) in plan.shards.iter().zip(owners) {
            worst[o] = worst[o].max(cost(s));
            bytes[o] += cost(s);
        }
        (worst, bytes)
    };

    // Rung 6 first (it gates everything): a device whose cap is below the
    // static buffers cannot execute at all. When no device holds them, no
    // device execution is possible; otherwise each such device's shards
    // move round-robin to the devices that do.
    let holders: Vec<usize> = (0..ndev)
        .filter(|&d| plan.static_bytes <= capacities[d])
        .collect();
    if holders.is_empty() {
        if !opts.recovery.host_fallback {
            return Err(EngineError::Alloc(oom(plan.static_bytes, capacities[0], 0)));
        }
        metrics.inc(EngineMetric::MemPressure, 1);
        pressure(0, plan.static_bytes, capacities[0], "host-run", "run");
        out.host_run = true;
        return Ok(out);
    }
    for d in (0..ndev).filter(|d| !holders.contains(d)) {
        for (k, o) in owners.iter_mut().filter(|o| **o == d).enumerate() {
            *o = holders[k % holders.len()];
        }
        metrics.inc(EngineMetric::MemPressure, 1);
        pressure(
            d,
            plan.static_bytes,
            capacities[d],
            "exclude-device",
            "device",
        );
    }
    let budgets: Vec<u64> = capacities
        .iter()
        .map(|c| c.saturating_sub(plan.static_bytes))
        .collect();

    // Rung 0: redistribution. A device is pressured when K slots of its
    // largest shard exceed its budget; move that shard to the
    // least-loaded peer that can take it whole. Each move leaves the
    // receiver unpressured, so the loop terminates; on one device there
    // is no peer and nothing moves.
    let slots = plan.concurrent.max(1) as u64;
    loop {
        let (worst, load) = owned(plan, owners);
        let moved = (0..ndev)
            .filter(|&d| slots * worst[d] > budgets[d])
            .find_map(|d| {
                let (idx, bytes) = (0..plan.shards.len())
                    .filter(|&i| owners[i] == d)
                    .map(|i| (i, cost(&plan.shards[i])))
                    .max_by_key(|&(_, b)| b)?;
                let t = (0..ndev)
                    .filter(|&t| t != d && slots * bytes.max(worst[t]) <= budgets[t])
                    .min_by_key(|&t| load[t])?;
                Some((d, idx, bytes, t))
            });
        let Some((d, idx, bytes, t)) = moved else {
            break;
        };
        owners[idx] = t;
        metrics.inc(EngineMetric::MemPressure, 1);
        metrics.inc(EngineMetric::Redistributions, 1);
        pressure(d, slots * bytes, budgets[d], "redistribute", "device");
    }

    // Rung 1: residency. Caching every shard needs each device's whole
    // streaming working set on-device; under pressure, stream instead.
    if opts.cache_resident && plan.all_resident {
        let (_, totals) = owned(plan, owners);
        if let Some(d) = (0..ndev).find(|&d| totals[d] > budgets[d]) {
            metrics.inc(EngineMetric::MemPressure, 1);
            pressure(d, totals[d], budgets[d], "stream", "plan");
            plan.all_resident = false;
        }
    }

    // Rung 2: concurrency. K slots of each device's largest shard must
    // fit its streaming budget (Equation (1) against the governed
    // capacity); the device that needs the smallest K sets it.
    let k0 = plan.concurrent.max(1);
    let mut k = k0;
    let mut pressed = None;
    for (d, w) in owned(plan, owners).0.into_iter().enumerate() {
        let before = k;
        while k > 1 && k as u64 * w > budgets[d] {
            k -= 1;
        }
        if k < before {
            pressed = Some((d, w));
        }
    }
    if let Some((d, w)) = pressed {
        metrics.inc(EngineMetric::MemPressure, 1);
        pressure(d, k0 as u64 * w, budgets[d], "reduce-concurrency", "plan");
        plan.concurrent = k;
    }
    let slot_budgets: Vec<u64> = budgets
        .iter()
        .map(|b| (b / plan.concurrent.max(1) as u64).max(1))
        .collect();

    // Rung 3: adaptive shard splitting. Repeatedly split the largest
    // shard over its owner's slot budget at its edge-mass midpoint. The
    // right half goes to the device owning the fewest shard bytes whose
    // slot holds it (ties, or none, keep the owner). Results stay
    // bit-identical; stops when nothing over-budget can shrink further
    // (a hub vertex's own edge lists).
    let mut split_any = false;
    while let Some((idx, bytes)) = plan
        .shards
        .iter()
        .enumerate()
        .map(|(i, s)| (i, cost(s)))
        .filter(|&(i, b)| b > slot_budgets[owners[i]])
        .max_by_key(|&(_, b)| b)
    {
        let shard = plan.shards[idx].clone();
        let Some((left, right)) = split_shard(layout, &shard) else {
            break;
        };
        if cost(&left).max(cost(&right)) >= bytes {
            // Degenerate split (all mass on one side): no progress.
            break;
        }
        metrics.inc(EngineMetric::ShardSplits, 1);
        let vertices = shard.num_vertices();
        observer.decision(|| Decision::ShardSplit {
            shard: idx as u32,
            vertices,
            bytes,
        });
        let (o, half) = (owners[idx], cost(&right));
        let (_, mut load) = owned(plan, owners);
        load[o] -= bytes - cost(&left);
        let to = (0..ndev)
            .filter(|&t| half <= slot_budgets[t])
            .min_by_key(|&t| (load[t], t != o))
            .unwrap_or(o);
        plan.shards.splice(idx..=idx, [left, right]);
        owners.insert(idx + 1, to);
        split_any = true;
    }
    if split_any {
        for (i, sh) in plan.shards.iter_mut().enumerate() {
            sh.id = i;
        }
        plan.max_shard_bytes = plan.shards.iter().map(cost).max().unwrap_or(0);
    }
    let num_shards = plan.shards.len();
    let mut chunked = vec![false; num_shards];
    let mut host_shards = vec![false; num_shards];
    let mut spilled = vec![false; num_shards];
    let slot_bytes = slot_budgets
        .iter()
        .map(|&b| plan.max_shard_bytes.min(b).max(1))
        .collect();

    // Rungs 4-5: shards that still exceed their owner's slot stream
    // through the bounded staging slot in chunks — or, when even chunking
    // is unreasonable, degrade to host-CPU execution for that shard alone.
    for (i, sh) in plan.shards.iter().enumerate() {
        let (bytes, d) = (cost(sh), owners[i]);
        let slot_budget = slot_budgets[d];
        if bytes <= slot_budget {
            continue;
        }
        let mut chunk = |i: usize| {
            metrics.inc(EngineMetric::ChunkedShards, 1);
            let chunks = StagingBuffer::new(slot_budget).chunks_for(bytes) as u32;
            observer.decision(|| Decision::ChunkedXfer {
                shard: i as u32,
                shard_bytes: bytes,
                chunk_bytes: slot_budget,
                chunks,
            });
        };
        if StagingBuffer::new(slot_budget).can_stage(bytes) {
            chunk(i);
            chunked[i] = true;
        } else if opts.spill_dir.is_some() {
            // Spill rung: with a shard store configured, an unstageable
            // shard streams from storage in bounded chunks instead of
            // abandoning the device. One governor decision (it *is* a
            // chunked transfer); the matching ShardSpill decision is
            // emitted by the runner when the bytes actually move to the
            // store.
            chunk(i);
            chunked[i] = true;
            spilled[i] = true;
        } else {
            if !opts.recovery.host_fallback {
                return Err(EngineError::Alloc(oom(bytes, slot_budget, d)));
            }
            metrics.inc(EngineMetric::MemPressure, 1);
            metrics.inc(EngineMetric::HostShards, 1);
            pressure(d, bytes, slot_budget, "host-shard", "shard");
            host_shards[i] = true;
        }
    }
    out.slot_bytes = slot_bytes;
    out.chunked = chunked;
    out.host_shards = host_shards;
    out.spilled = spilled;
    Ok(out)
}

/// Record a run's static optimization decisions (made once, from the
/// program shape and the `phase_fusion` option, not per iteration).
pub fn emit_plan_decisions(observer: &Observer, fusion: bool, has_gather: bool, has_scatter: bool) {
    if fusion {
        observer.decision(|| Decision::PhaseFusion {
            phases: "gatherMap+gatherReduce | scatter+frontierActivate",
            rationale: "intermediates (edge updates, gather temps) stay device-resident; \
                        scatter and activate share one out-edge copy",
        });
    }
    if !has_gather {
        observer.decision(|| Decision::PhaseElimination {
            phase: "gather",
            rationale: "program defines no gather: in-edge sub-arrays never cross PCIe",
        });
    }
    if !has_scatter {
        observer.decision(|| Decision::PhaseElimination {
            phase: "scatter",
            rationale: "program defines no scatter: out-edge values never move",
        });
    }
}

/// Max/mean degree ratio over an interval: the per-CTA imbalance a
/// vertex-centric kernel suffers without CTA load balancing. Capped at 16
/// (blocks internally mitigate extreme skew).
pub(crate) fn interval_skew(layout: &GraphLayout, sh: &Shard, in_edges: bool) -> f64 {
    let adj = if in_edges { &layout.csc } else { &layout.csr };
    let mut max = 0u64;
    let mut sum = 0u64;
    for v in sh.interval.start..sh.interval.end {
        let d = adj.degree(v);
        max = max.max(d);
        sum += d;
    }
    if sum == 0 {
        return 1.0;
    }
    let mean = sum as f64 / sh.interval.len() as f64;
    (max as f64 / mean.max(1.0)).clamp(1.0, 16.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staging_chunk_math() {
        let s = StagingBuffer::new(4096);
        assert_eq!(s.chunks_for(0), 0);
        assert_eq!(s.chunks_for(1), 1);
        assert_eq!(s.chunks_for(4096), 1);
        assert_eq!(s.chunks_for(4097), 2);
        assert_eq!(s.chunks_for(40960), 10);
        assert!(s.can_stage(4096 * StagingBuffer::MAX_CHUNKS));
        assert!(!s.can_stage(4096 * StagingBuffer::MAX_CHUNKS + 1));
    }

    #[test]
    fn staging_floor_rejects_tiny_slots() {
        let tiny = StagingBuffer::new(StagingBuffer::MIN_BYTES - 1);
        assert!(!tiny.can_stage(1));
        let zero = StagingBuffer::new(0);
        // No division panic, and nothing stages through a zero slot.
        assert_eq!(zero.chunks_for(10), 10);
        assert!(!zero.can_stage(10));
    }
}
