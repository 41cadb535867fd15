//! Device-memory capacity accounting.
//!
//! The virtual accelerator does not need a real address space: kernels run on
//! host-resident data. What the framework *does* need — and what the paper's
//! out-of-core behaviour hinges on — is a hard capacity limit: allocations
//! past the device's global-memory size must fail, forcing graph data to be
//! streamed in shards. `MemoryPool` provides that limit with RAII
//! allocations, peak tracking, and an exact OOM error.

use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;

/// Error returned when a device allocation exceeds remaining capacity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Bytes requested by the failing allocation.
    pub requested: u64,
    /// Bytes still free at the time of the request.
    pub available: u64,
    /// Total pool capacity.
    pub capacity: u64,
}

impl fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "device out of memory: requested {} B, {} B free of {} B",
            self.requested, self.available, self.capacity
        )
    }
}

impl std::error::Error for OutOfMemory {}

#[derive(Debug)]
struct PoolState {
    capacity: u64,
    used: u64,
    peak: u64,
    min_available: u64,
    live_allocs: u64,
    failed_allocs: u64,
}

impl PoolState {
    fn note_pressure(&mut self) {
        self.peak = self.peak.max(self.used);
        self.min_available = self
            .min_available
            .min(self.capacity.saturating_sub(self.used));
    }
}

/// A capacity-accounted device memory pool. Cheap to clone (shared handle).
#[derive(Clone, Debug)]
pub struct MemoryPool {
    state: Arc<Mutex<PoolState>>,
}

impl MemoryPool {
    /// Create a pool with `capacity` bytes of device memory.
    pub fn new(capacity: u64) -> Self {
        MemoryPool {
            state: Arc::new(Mutex::new(PoolState {
                capacity,
                used: 0,
                peak: 0,
                min_available: capacity,
                live_allocs: 0,
                failed_allocs: 0,
            })),
        }
    }

    /// Reserve `bytes` of device memory. Zero-byte allocations succeed and
    /// consume nothing (matching `cudaMalloc(0)` semantics loosely).
    pub fn alloc(&self, bytes: u64) -> Result<Allocation, OutOfMemory> {
        let mut s = self.state.lock();
        let available = s.capacity.saturating_sub(s.used);
        if bytes > available {
            s.failed_allocs += 1;
            return Err(OutOfMemory {
                requested: bytes,
                available,
                capacity: s.capacity,
            });
        }
        s.used += bytes;
        s.note_pressure();
        s.live_allocs += 1;
        Ok(Allocation {
            pool: self.state.clone(),
            bytes,
        })
    }

    /// Bytes currently allocated.
    pub fn used(&self) -> u64 {
        self.state.lock().used
    }

    /// Bytes still available.
    pub fn available(&self) -> u64 {
        let s = self.state.lock();
        s.capacity.saturating_sub(s.used)
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.state.lock().capacity
    }

    /// High-water mark of allocated bytes over the pool lifetime.
    pub fn peak(&self) -> u64 {
        self.state.lock().peak
    }

    /// Number of currently live allocations.
    pub fn live_allocations(&self) -> u64 {
        self.state.lock().live_allocs
    }

    /// Number of allocation requests the pool has refused for lack of
    /// capacity (pressure the memory governor reacts to).
    pub fn failed_allocations(&self) -> u64 {
        self.state.lock().failed_allocs
    }

    /// Low-water mark of free bytes over the pool lifetime: the least
    /// headroom the device ever had. Starts at `capacity`.
    pub fn min_headroom(&self) -> u64 {
        self.state.lock().min_available
    }

    /// Change the pool's capacity at runtime — the memory governor's model
    /// of a device with less free memory than its nominal size (other
    /// tenants, fragmentation, driver reservations). Live allocations are
    /// untouched; shrinking below `used` simply makes every further
    /// allocation fail until enough is released.
    pub fn set_capacity(&self, capacity: u64) {
        let mut s = self.state.lock();
        s.capacity = capacity;
        s.min_available = s.min_available.min(capacity.saturating_sub(s.used));
    }
}

/// An RAII reservation of device memory; releases its bytes on drop.
#[derive(Debug)]
pub struct Allocation {
    pool: Arc<Mutex<PoolState>>,
    bytes: u64,
}

impl Allocation {
    /// Size of this reservation in bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Grow or shrink the reservation in place. Growing can fail with OOM,
    /// in which case the reservation is unchanged.
    pub fn resize(&mut self, new_bytes: u64) -> Result<(), OutOfMemory> {
        let mut s = self.pool.lock();
        if new_bytes > self.bytes {
            let extra = new_bytes - self.bytes;
            let available = s.capacity.saturating_sub(s.used);
            if extra > available {
                s.failed_allocs += 1;
                return Err(OutOfMemory {
                    requested: extra,
                    available,
                    capacity: s.capacity,
                });
            }
            s.used += extra;
            s.note_pressure();
        } else {
            s.used -= self.bytes - new_bytes;
        }
        self.bytes = new_bytes;
        Ok(())
    }
}

impl Drop for Allocation {
    fn drop(&mut self) {
        let mut s = self.pool.lock();
        s.used -= self.bytes;
        s.live_allocs -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_roundtrip() {
        let pool = MemoryPool::new(1000);
        let a = pool.alloc(400).unwrap();
        assert_eq!(pool.used(), 400);
        assert_eq!(pool.available(), 600);
        drop(a);
        assert_eq!(pool.used(), 0);
        assert_eq!(pool.peak(), 400);
    }

    #[test]
    fn oom_exactly_past_capacity() {
        let pool = MemoryPool::new(1000);
        let _a = pool.alloc(1000).unwrap(); // exactly full is fine
        let err = pool.alloc(1).unwrap_err();
        assert_eq!(err.requested, 1);
        assert_eq!(err.available, 0);
        assert_eq!(err.capacity, 1000);
    }

    #[test]
    fn zero_byte_alloc_succeeds() {
        let pool = MemoryPool::new(0);
        let a = pool.alloc(0).unwrap();
        assert_eq!(a.bytes(), 0);
        assert_eq!(pool.live_allocations(), 1);
    }

    #[test]
    fn failed_alloc_changes_nothing() {
        let pool = MemoryPool::new(100);
        let _a = pool.alloc(60).unwrap();
        assert!(pool.alloc(50).is_err());
        assert_eq!(pool.used(), 60);
        assert_eq!(pool.live_allocations(), 1);
        let _b = pool.alloc(40).unwrap();
        assert_eq!(pool.used(), 100);
    }

    #[test]
    fn resize_grow_and_shrink() {
        let pool = MemoryPool::new(100);
        let mut a = pool.alloc(10).unwrap();
        a.resize(80).unwrap();
        assert_eq!(pool.used(), 80);
        a.resize(20).unwrap();
        assert_eq!(pool.used(), 20);
        // Growing past capacity fails and leaves the reservation intact.
        let _b = pool.alloc(70).unwrap();
        assert!(a.resize(40).is_err());
        assert_eq!(a.bytes(), 20);
        assert_eq!(pool.used(), 90);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let pool = MemoryPool::new(100);
        {
            let _a = pool.alloc(70).unwrap();
        }
        let _b = pool.alloc(30).unwrap();
        assert_eq!(pool.peak(), 70);
    }

    #[test]
    fn oom_error_displays() {
        let pool = MemoryPool::new(10);
        let err = pool.alloc(20).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("requested 20"));
        assert!(msg.contains("10 B free"));
        assert!(msg.contains("of 10 B"), "capacity missing from {msg:?}");
    }

    #[test]
    fn resize_past_capacity_reports_exact_fields() {
        // The fault paths surface resize/alloc OOMs verbatim; the error
        // must carry the *delta* requested, the free bytes at the time,
        // and the pool capacity.
        let pool = MemoryPool::new(100);
        let mut a = pool.alloc(30).unwrap();
        let _b = pool.alloc(50).unwrap();
        let err = a.resize(90).unwrap_err(); // needs 60 more, 20 free
        assert_eq!(err.requested, 60);
        assert_eq!(err.available, 20);
        assert_eq!(err.capacity, 100);
        assert_eq!(a.bytes(), 30, "failed resize must not change the size");
        assert_eq!(pool.used(), 80);
    }

    #[test]
    fn zero_byte_operations_never_oom() {
        // Fault-recovery replays re-allocate whatever the plan asks for,
        // including empty slots; those must succeed even on a full pool.
        let pool = MemoryPool::new(10);
        let _full = pool.alloc(10).unwrap();
        let z = pool.alloc(0).unwrap();
        assert_eq!(z.bytes(), 0);
        assert_eq!(pool.available(), 0);
        let mut a = z;
        a.resize(0).unwrap();
        assert!(a.resize(1).is_err());
        assert_eq!(pool.live_allocations(), 2);
    }

    #[test]
    fn set_capacity_caps_future_allocations() {
        let pool = MemoryPool::new(1000);
        let _a = pool.alloc(300).unwrap();
        pool.set_capacity(400);
        assert_eq!(pool.capacity(), 400);
        assert_eq!(pool.available(), 100);
        assert!(pool.alloc(200).is_err());
        let _b = pool.alloc(100).unwrap();
        assert_eq!(pool.used(), 400);
    }

    #[test]
    fn shrinking_below_used_preserves_live_allocations() {
        let pool = MemoryPool::new(1000);
        let a = pool.alloc(600).unwrap();
        pool.set_capacity(100);
        assert_eq!(pool.used(), 600, "live reservations survive the cap");
        assert_eq!(pool.available(), 0);
        assert!(pool.alloc(1).is_err());
        drop(a);
        assert_eq!(pool.available(), 100);
        let _b = pool.alloc(100).unwrap();
    }

    #[test]
    fn failed_allocations_count_refusals() {
        let pool = MemoryPool::new(100);
        assert_eq!(pool.failed_allocations(), 0);
        assert!(pool.alloc(200).is_err());
        assert!(pool.alloc(101).is_err());
        let _a = pool.alloc(100).unwrap();
        assert_eq!(pool.failed_allocations(), 2);
        let mut b = pool.alloc(0).unwrap();
        assert!(b.resize(1).is_err());
        assert_eq!(pool.failed_allocations(), 3, "failed grows count too");
    }

    #[test]
    fn min_headroom_tracks_low_water_mark() {
        let pool = MemoryPool::new(100);
        assert_eq!(pool.min_headroom(), 100);
        {
            let _a = pool.alloc(70).unwrap();
        }
        assert_eq!(pool.min_headroom(), 30, "low water survives the free");
        pool.set_capacity(20);
        assert_eq!(pool.min_headroom(), 20, "capping tightens headroom");
    }

    #[test]
    fn oom_fields_are_copyable_for_error_plumbing() {
        // EngineError::Alloc carries the struct by value across crates.
        let pool = MemoryPool::new(5);
        let err = pool.alloc(7).unwrap_err();
        let copied: OutOfMemory = err;
        assert_eq!(copied, err);
        assert_eq!(
            copied,
            OutOfMemory {
                requested: 7,
                available: 5,
                capacity: 5
            }
        );
    }
}
