//! Pins the simulated device timeline of one fixed op script, with and
//! without a fault plan, to exact values: every copy, launch and
//! allocation path of `Gpu` is priced, accounted and scheduled here, so a
//! refactor of those paths must leave each number below unchanged.

use gr_observe::export::snapshot_body;
use gr_sim::{DeviceHealth, FaultPlan, Gpu, GpuStats, KernelSpec, Platform, SimDuration};

/// FNV-1a 64 of a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What the script observed: both barrier times, the final stats, the
/// injected-fault count and a fingerprint of the full metrics snapshot.
#[derive(Debug, PartialEq)]
struct Pin {
    syncs: [u64; 2],
    stats: [u64; 7],
    faults: u64,
    metrics_fnv: u64,
}

/// Two phases on three streams. Ops that fault are dropped, not retried:
/// the per-class fault counters advance either way.
fn run(gpu: &mut Gpu) -> Pin {
    let gather = KernelSpec::balanced("gather", 400_000, 2.0, 3_200_000, 400_000);
    let apply = KernelSpec::balanced("apply", 50_000, 4.0, 400_000, 0);
    let (s0, s1, s2) = (
        gpu.create_stream(),
        gpu.create_stream(),
        gpu.create_stream(),
    );
    let mut live = Vec::new();

    // Phase 1 (device clock 0).
    live.extend(gpu.try_alloc(32 << 20).ok());
    live.extend(gpu.try_alloc(16 << 20).ok());
    gpu.try_h2d(s0, 4 << 20, "in").ok();
    gpu.try_h2d(s0, 2 << 20, "in").ok();
    gpu.try_h2d_zero_copy(s1, 8 << 20, "zc").ok();
    let ready = gpu.record_event(s0);
    gpu.wait_event(s1, ready);
    gpu.try_launch(s1, &gather).ok();
    gpu.try_launch(s2, &apply).ok();
    gpu.try_launch(s2, &apply).ok();
    gpu.stall(s2, SimDuration::from_micros(5), "host");
    gpu.try_d2h(s1, 1 << 20, "out").ok();
    gpu.try_d2h(s2, 4096, "bits").ok();
    let t1 = gpu.synchronize().as_nanos();

    // Phase 2 (device clock t1).
    gpu.try_h2d(s0, 1 << 20, "in").ok();
    gpu.try_launch(s1, &gather).ok();
    gpu.try_h2d_zero_copy(s2, 3 << 20, "zc").ok();
    gpu.try_d2h(s0, 512 << 10, "out").ok();
    live.extend(gpu.try_alloc(8 << 20).ok());
    let t2 = gpu.synchronize().as_nanos();

    let GpuStats {
        elapsed,
        memcpy_busy,
        kernel_busy,
        bytes_h2d,
        bytes_d2h,
        copy_ops,
        kernel_launches,
    } = gpu.stats();
    Pin {
        syncs: [t1, t2],
        stats: [
            elapsed.as_nanos(),
            memcpy_busy.as_nanos(),
            kernel_busy.as_nanos(),
            bytes_h2d,
            bytes_d2h,
            copy_ops,
            kernel_launches,
        ],
        faults: gpu.faults_injected(),
        metrics_fnv: fnv1a(snapshot_body(&gpu.metrics().snapshot()).as_bytes()),
    }
}

#[test]
fn healthy_device_timeline_is_pinned() {
    let mut gpu = Gpu::new(&Platform::paper_node());
    let pin = run(&mut gpu);
    assert_eq!(gpu.health(), DeviceHealth::Healthy);
    assert_eq!(
        pin,
        Pin {
            syncs: [2_587_736, 3_244_124],
            stats: [3_244_124, 3_233_792, 158_126, 18_874_368, 1_576_960, 8, 4],
            faults: 0,
            metrics_fnv: 11_361_844_376_346_343_364,
        }
    );
}

#[test]
fn faulted_device_timeline_is_pinned() {
    // Phase 1 runs inside a 3x degradation window and meets a transient
    // fault on each op class (on H2D both an explicit and a zero-copy
    // copy abort) plus an ECC stall on the third launch; the
    // device is lost from the first barrier on, so phase 2's copies and
    // launches fail while its allocation still succeeds.
    let mut gpu = Gpu::new(&Platform::paper_node());
    gpu.set_fault_plan(
        FaultPlan::none()
            .fail_h2d(1, 2)
            .fail_d2h(0, 1)
            .fail_launch(1, 1)
            .fail_alloc(0, 1)
            .ecc_stall_on_launch(2)
            .degrade_bandwidth(0, 1, 3.0)
            .lose_device_at_ns(1),
    );
    let pin = run(&mut gpu);
    assert_eq!(gpu.health(), DeviceHealth::Lost);
    assert_eq!(
        pin,
        Pin {
            syncs: [3_151_743, 3_151_743],
            stats: [3_151_743, 3_060_395, 87_063, 9_437_184, 528_384, 5, 3],
            faults: 6,
            metrics_fnv: 17_045_473_080_401_776_345,
        }
    );
}
