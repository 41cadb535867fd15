//! PCIe data-exchange cost models.
//!
//! Reproduces the behaviour measured in Figure 4 of the paper, which compares
//! three host/device data-exchange techniques under sequential and random
//! access:
//!
//! * **Explicit H2D** (`cudaMemcpy`): pay a bulk DMA copy up front, then all
//!   device accesses hit fast device memory. Best for *random* access.
//! * **Pinned / UVA zero-copy**: no staging copy; every device access is a
//!   load/store over PCIe. Sequential accesses enjoy memory-level parallelism
//!   and prefetching (best for *sequential*); random accesses each pay the
//!   full PCIe round trip with little MLP (worst for random).
//! * **Managed (unified) memory**: pages migrate on demand; page-fault
//!   servicing overhead dominates, making it the slowest sequential option
//!   and intermediate for random.

use crate::config::{DeviceConfig, PcieConfig};
use crate::time::SimDuration;

/// Data-exchange technique between host and device (Figure 4).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TransferMode {
    /// Explicit bulk DMA copy (`cudaMemcpy` / `cudaMemcpyAsync`).
    Explicit,
    /// Zero-copy access to pinned host memory through UVA.
    PinnedUva,
    /// CUDA 6 managed memory: on-demand page migration.
    Managed,
}

/// Device-side access pattern over the transferred buffer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessPattern {
    /// Fully coalesced streaming access.
    Sequential,
    /// Uniformly random element accesses.
    Random,
}

/// Time for one copy of `bytes` over the link (either direction): the
/// cost of every simulated copy op. An explicit bulk DMA pays the fixed
/// setup latency plus the data phase at the explicit rate; zero-copy
/// streaming of a sequentially read pinned buffer has no staging DMA and
/// streams at the pinned-sequential rate. `factor` ≥ 1 slows the data
/// phase (fault injection: contention or retraining windows); 1.0 is the
/// nominal rate.
pub fn copy_time(pcie: &PcieConfig, bytes: u64, zero_copy: bool, factor: f64) -> SimDuration {
    let data = |gbps: f64| SimDuration::from_secs_f64(bytes as f64 * factor / (gbps * 1e9));
    if zero_copy {
        data(pcie.pinned_seq_bandwidth_gbps)
    } else {
        pcie.transfer_latency + data(pcie.explicit_bandwidth_gbps)
    }
}

/// Time for the device to perform `accesses` reads of `elem_bytes` each over
/// a buffer of `bytes` total, where the buffer was made available with
/// `mode`, and accesses follow `pattern`. This models the *whole* exchange:
/// any up-front staging plus the device-side access stream — exactly the
/// quantity Figure 4 plots.
pub fn transfer_access_time(
    pcie: &PcieConfig,
    dev: &DeviceConfig,
    mode: TransferMode,
    pattern: AccessPattern,
    bytes: u64,
    accesses: u64,
    elem_bytes: u64,
) -> SimDuration {
    let dev_seq = |b: u64| SimDuration::from_secs_f64(b as f64 / (dev.mem_bandwidth_gbps * 1e9));
    let dev_rand = |n: u64| {
        SimDuration::from_secs_f64(
            n as f64 * dev.random_access_latency.as_secs_f64() / dev.mlp as f64,
        )
    };
    match (mode, pattern) {
        (TransferMode::Explicit, AccessPattern::Sequential) => {
            copy_time(pcie, bytes, false, 1.0) + dev_seq(accesses * elem_bytes)
        }
        (TransferMode::Explicit, AccessPattern::Random) => {
            copy_time(pcie, bytes, false, 1.0) + dev_rand(accesses)
        }
        (TransferMode::PinnedUva, AccessPattern::Sequential) => {
            // Loads stream over PCIe with full MLP + prefetch: link-limited.
            SimDuration::from_secs_f64(
                (accesses * elem_bytes).max(bytes) as f64 / (pcie.pinned_seq_bandwidth_gbps * 1e9),
            )
        }
        (TransferMode::PinnedUva, AccessPattern::Random) => {
            // Each access is an individual non-posted PCIe read; only a small
            // number are in flight, and prefetching cannot help.
            SimDuration::from_secs_f64(
                accesses as f64 * pcie.pinned_random_latency.as_secs_f64()
                    / pcie.pinned_random_mlp as f64,
            )
        }
        (TransferMode::Managed, pattern) => {
            // Pages migrate on first touch. For sequential sweeps every page
            // is faulted in order; for random access over a large buffer,
            // essentially every page is eventually faulted too (accesses >>
            // pages in the Figure 4 setup), after which accesses hit device
            // memory.
            let pages = bytes.div_ceil(pcie.managed_page_size).max(1);
            let fault =
                SimDuration::from_secs_f64(
                    pages as f64 * pcie.managed_fault_overhead.as_secs_f64(),
                ) + SimDuration::from_secs_f64(bytes as f64 / (pcie.explicit_bandwidth_gbps * 1e9));
            let access = match pattern {
                AccessPattern::Sequential => dev_seq(accesses * elem_bytes),
                AccessPattern::Random => dev_rand(accesses),
            };
            fault + access
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Platform;

    /// The Figure 4 experiment: 100,000,000 doubles, one access per element.
    fn fig4(mode: TransferMode, pattern: AccessPattern) -> SimDuration {
        let p = Platform::paper_node();
        let n = 100_000_000u64;
        transfer_access_time(&p.pcie, &p.device, mode, pattern, n * 8, n, 8)
    }

    #[test]
    fn sequential_ordering_matches_figure4() {
        let explicit = fig4(TransferMode::Explicit, AccessPattern::Sequential);
        let pinned = fig4(TransferMode::PinnedUva, AccessPattern::Sequential);
        let managed = fig4(TransferMode::Managed, AccessPattern::Sequential);
        // Figure 4 (sequential): pinned best, explicit close behind, managed worst.
        assert!(pinned < explicit, "pinned {pinned} !< explicit {explicit}");
        assert!(
            explicit < managed,
            "explicit {explicit} !< managed {managed}"
        );
    }

    #[test]
    fn random_ordering_matches_figure4() {
        let explicit = fig4(TransferMode::Explicit, AccessPattern::Random);
        let pinned = fig4(TransferMode::PinnedUva, AccessPattern::Random);
        let managed = fig4(TransferMode::Managed, AccessPattern::Random);
        // Figure 4 (random): explicit best, pinned worst, managed between.
        assert!(
            explicit < managed,
            "explicit {explicit} !< managed {managed}"
        );
        assert!(managed < pinned, "managed {managed} !< pinned {pinned}");
    }

    #[test]
    fn random_penalty_is_large_for_pinned() {
        // Pinned random must be catastrophically worse than pinned
        // sequential — this asymmetry is what rules out the all-zero-copy
        // design in Section 3.2.
        let seq = fig4(TransferMode::PinnedUva, AccessPattern::Sequential);
        let rand = fig4(TransferMode::PinnedUva, AccessPattern::Random);
        assert!(rand.as_nanos() > 10 * seq.as_nanos());
    }

    #[test]
    fn explicit_copy_scales_linearly() {
        let p = Platform::paper_node();
        let t1 = copy_time(&p.pcie, 1_000_000, false, 1.0);
        let t2 = copy_time(&p.pcie, 2_000_000, false, 1.0);
        let body1 = t1 - p.pcie.transfer_latency;
        let body2 = t2 - p.pcie.transfer_latency;
        assert!((body2.as_nanos() as i64 - 2 * body1.as_nanos() as i64).abs() <= 2);
    }

    #[test]
    fn zero_bytes_costs_only_latency() {
        let p = Platform::paper_node();
        assert_eq!(copy_time(&p.pcie, 0, false, 1.0), p.pcie.transfer_latency);
    }
}
