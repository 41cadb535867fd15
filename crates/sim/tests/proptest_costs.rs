//! Property tests over the cost models: monotonicity and scale-freedom
//! properties that every calibration must preserve (regressions here mean
//! a figure of the reproduction can silently invert).

use proptest::prelude::*;

use gr_sim::xfer::{copy_time, transfer_access_time, AccessPattern, TransferMode};
use gr_sim::{cpu_time, kernel_time, CpuWork, KernelSpec, Platform};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Kernel time is monotone in items, bytes, random accesses, and
    /// imbalance.
    #[test]
    fn kernel_time_is_monotone(
        items in 1u64..1_000_000_000,
        flops in 0.0f64..64.0,
        seq in 0u64..1_000_000_000,
        rand in 0u64..1_000_000_000,
        imb in 1.0f64..16.0,
    ) {
        let d = Platform::paper_node().device;
        let base = KernelSpec {
            label: "k",
            items,
            flops_per_item: flops,
            seq_bytes: seq,
            rand_accesses: rand,
            imbalance: imb,
        };
        let t = kernel_time(&d, &base);
        let mut more_items = base.clone();
        more_items.items = items.saturating_mul(2);
        prop_assert!(kernel_time(&d, &more_items) >= t);
        let mut more_bytes = base.clone();
        more_bytes.seq_bytes = seq.saturating_mul(2);
        prop_assert!(kernel_time(&d, &more_bytes) >= t);
        let mut more_rand = base.clone();
        more_rand.rand_accesses = rand.saturating_mul(2);
        prop_assert!(kernel_time(&d, &more_rand) >= t);
        let mut more_imb = base.clone();
        more_imb.imbalance = imb * 2.0;
        prop_assert!(kernel_time(&d, &more_imb) >= t);
        // Launch overhead is a hard floor.
        prop_assert!(t >= d.kernel_launch_overhead);
    }

    /// CPU time is monotone in work and antitone in thread count.
    #[test]
    fn cpu_time_is_monotone(
        items in 1u64..1_000_000_000,
        ops in 0.1f64..64.0,
        seq in 0u64..1_000_000_000,
        rand in 0u64..100_000_000,
        threads in 1u32..16,
    ) {
        let h = Platform::paper_node().host;
        let w = CpuWork::new("w", items, ops, seq, rand);
        let t = cpu_time(&h, threads, &w);
        let double = CpuWork::new("w", items.saturating_mul(2), ops, seq.saturating_mul(2), rand.saturating_mul(2));
        prop_assert!(cpu_time(&h, threads, &double) >= t);
        prop_assert!(cpu_time(&h, threads + 1, &w) <= t);
    }

    /// Explicit copies: monotone in bytes, and latency-dominated only for
    /// small transfers.
    #[test]
    fn copy_time_monotone(bytes in 0u64..10_000_000_000) {
        let p = Platform::paper_node().pcie;
        let t = copy_time(&p, bytes, false, 1.0);
        prop_assert!(t >= p.transfer_latency);
        prop_assert!(copy_time(&p, bytes.saturating_mul(2), false, 1.0) >= t);
    }

    /// The Figure 4 orderings hold for any buffer larger than a few pages,
    /// not just the paper's 100M-double point.
    #[test]
    fn figure4_orderings_are_robust(n in 10_000u64..1_000_000_000) {
        let p = Platform::paper_node();
        let t = |m, a| transfer_access_time(&p.pcie, &p.device, m, a, n * 8, n, 8);
        prop_assert!(
            t(TransferMode::PinnedUva, AccessPattern::Sequential)
                <= t(TransferMode::Explicit, AccessPattern::Sequential)
        );
        prop_assert!(
            t(TransferMode::Explicit, AccessPattern::Random)
                <= t(TransferMode::Managed, AccessPattern::Random)
        );
        prop_assert!(
            t(TransferMode::Managed, AccessPattern::Random)
                <= t(TransferMode::PinnedUva, AccessPattern::Random)
        );
    }
}
