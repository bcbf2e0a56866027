//! What the harness reads from the operating system, and the counting
//! allocator behind the `*.allocs_*` and `report.bytes_per_delivery`
//! per-layer metrics.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, ts: *mut Timespec) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time of the whole process, every thread alive or
/// joined, in nanoseconds. This is the only clock that still counts the
/// scoped solver threads after `solve_topics` has joined them.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `timespec` (two `i64`s on 64-bit
    // Linux, the only target this harness runs on) and the clock id is a
    // valid constant; the call writes `ts` and nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// glibc's `M_MMAP_THRESHOLD`.
const M_MMAP_THRESHOLD: i32 = -3;

/// Pins glibc malloc's mmap threshold at its initial 128 KiB. Left alone,
/// malloc raises the threshold (up to 32 MiB) each time a larger mapped
/// block is freed, and from then on a growing `Vec` of that size is copied
/// around the heap instead of remapped. How many dead copies of the
/// simulator's delivery log sat in the heap at the peak then depended on
/// thread timing: `VmHWM` read 12, 20, 27 or 35 MB for one `wide_regions`
/// seed. Pinned, big blocks are always mapped and unmapped on their own,
/// and the peak is the program's live memory (within 0.2 MB run to run).
pub fn pin_malloc_mmap_threshold() {
    // SAFETY: `mallopt` only stores the value in malloc's parameters; it is
    // called once, first thing in `main`, before any other thread exists.
    let accepted = unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) };
    assert_eq!(accepted, 1, "mallopt(M_MMAP_THRESHOLD) was refused");
}

/// Peak resident set size (`VmHWM`) in megabytes, from `/proc/self/status`.
///
/// # Errors
///
/// Returns a message when the file or the field cannot be read.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unparsable VmHWM line: {line}"))?;
    Ok(kb / 1024.0)
}

/// A pass-through to the system allocator that counts while switched on.
/// Switched off (every untraced run) it costs one relaxed load per call.
#[derive(Debug)]
pub struct CountingAllocator;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are statistics
// (`Relaxed`) and publish no other data.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: the caller's obligations for `alloc` are passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Ordering::Relaxed) {
            LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: the caller's obligations for `dealloc` are passed on as is.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        }
        // SAFETY: the caller's obligations for `realloc` are passed on as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation calls and net bytes retained by one closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocDelta {
    /// `alloc` + `realloc` calls made.
    pub allocations: u64,
    /// Bytes allocated minus bytes freed (what the closure's result holds).
    pub retained_bytes: i64,
}

/// Runs `work` with counting on. Reads zero unless [`CountingAllocator`]
/// is the global allocator (it is in the `benchkit` binary and its tests).
pub fn count_allocations<T>(work: impl FnOnce() -> T) -> (T, AllocDelta) {
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    let live = LIVE_BYTES.load(Ordering::Relaxed);
    let was_on = COUNTING.swap(true, Ordering::Relaxed);
    let out = work();
    COUNTING.store(was_on, Ordering::Relaxed);
    let delta = AllocDelta {
        allocations: ALLOCATIONS.load(Ordering::Relaxed) - allocations,
        retained_bytes: LIVE_BYTES.load(Ordering::Relaxed) - live,
    };
    (out, delta)
}
