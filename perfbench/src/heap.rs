//! A counting wrapper around the system allocator: live heap bytes and
//! their peak since the last reset.
//!
//! The process's resident set (`VmHWM`) swings by a quarter from run to
//! run with the same work, because the C allocator keeps freed memory
//! in per-thread arenas in whatever state thread scheduling left them.
//! Live heap bytes count only what the program holds, so they repeat.
//!
//! The client's own per-request records grow with the number of
//! requests served (half a million on a cache-hit workload), so their
//! buffers are registered with [`exclude`] and left out of the live
//! total: the peak measures the program, not the benchmark's bookkeeping.
//!
//! Each thread counts into its own cache-line slot, so counting adds no
//! contended write to an allocation (a shared counter slowed the served
//! workloads by a fifth). The total is the sum of the slots. The peak
//! folds in that total after every allocation of at least
//! [`PEAK_CHECK_BYTES`], which is where working sets jump (state
//! vectors, density matrices, result tables), and whenever
//! [`sample`] is called; small allocations between those points can
//! lift the true peak by a little more than the sampled one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

const SLOTS: usize = 16;

/// Allocations at least this large fold the live total into the peak.
pub const PEAK_CHECK_BYTES: usize = 64 << 10;

#[repr(align(64))]
struct Slot(AtomicIsize);

/// Bytes allocated minus bytes freed, per slot (a block freed on another
/// thread than the one that allocated it makes single slots negative;
/// the sum is exact).
static LIVE: [Slot; SLOTS] = [const { Slot(AtomicIsize::new(0)) }; SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);
/// Bytes of live blocks that [`exclude`] keeps out of the total.
static EXCLUDED: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn count(delta: isize) {
    let slot = MY_SLOT
        .try_with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed) % SLOTS);
            }
            s.get()
        })
        .unwrap_or(0);
    LIVE[slot].0.fetch_add(delta, Ordering::Relaxed);
    if delta >= PEAK_CHECK_BYTES as isize {
        sample();
    }
}

/// The system allocator, counting bytes handed out and returned.
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System` upholds the `GlobalAlloc` contract. The
// counters are statistics that publish no other data (Relaxed), and
// counting allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller guarantees a non-zero size.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller passes a block this allocator (and so
        // `System`) returned, with the layout it was allocated with.
        unsafe { System.dealloc(ptr, layout) };
        count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's guarantees for `realloc` are exactly
        // `System`'s.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        p
    }
}

/// Live heap bytes now, less the excluded ones.
pub fn live() -> usize {
    let sum: isize = LIVE.iter().map(|s| s.0.load(Ordering::Relaxed)).sum();
    (sum - EXCLUDED.load(Ordering::Relaxed)).max(0) as usize
}

/// Leaves `bytes` of live blocks out of the total (negative: takes
/// them back in, as they are freed). Register a block before allocating
/// it, so a peak sampled during the allocation does not count it.
pub fn exclude(bytes: isize) {
    EXCLUDED.fetch_add(bytes, Ordering::Relaxed);
}

/// Folds the live total into the peak.
pub fn sample() {
    let now = live();
    if now > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(now, Ordering::Relaxed);
    }
}

/// Restarts the peak from the bytes live now.
pub fn reset_peak() {
    PEAK.store(live(), Ordering::Relaxed);
}

/// Live heap now, less the excluded bytes, in MiB.
pub fn live_mb() -> f64 {
    live() as f64 / (1024.0 * 1024.0)
}

/// Peak live heap since the last reset, in MiB.
pub fn peak_mb() -> f64 {
    PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_bytes_follow_allocations_and_exclusions() {
        // far more than the other tests hold at once (untouched, so it
        // costs address space, not memory)
        const BIG: usize = 256 << 20;
        let before = live();
        let block: Vec<u8> = Vec::with_capacity(BIG);
        assert!(live() >= before + BIG / 2);
        // freed on another thread than the one that allocated it
        std::thread::spawn(move || drop(block))
            .join()
            .expect("joined");
        assert!(live() < before + BIG / 2);
        reset_peak();
        let again: Vec<u8> = Vec::with_capacity(BIG);
        assert!(peak_mb() >= (BIG >> 21) as f64);
        drop(again);
        // (in the same test: the counters are global)
        reset_peak();
        exclude(BIG as isize);
        let excluded: Vec<u8> = Vec::with_capacity(BIG);
        assert!(peak_mb() < (BIG >> 21) as f64);
        drop(excluded);
        exclude(-(BIG as isize));
    }
}
