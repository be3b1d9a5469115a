//! A counting global allocator for tests that bound what a code path
//! allocates. A test binary opts in with
//!
//! ```ignore
//! mod common;
//! #[global_allocator]
//! static ALLOC: common::CountingAlloc = common::CountingAlloc;
//! ```
//!
//! and brackets the code under test with [`measure`]. The tallies are
//! process-wide, so such a binary holds one `#[test]` (the harness thread
//! sleeps while it runs) and the measured code spawns no threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static BLOCKS: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);

/// The system allocator, with live bytes, their high-water mark, live
/// blocks and the number of allocations tallied.
pub struct CountingAlloc;

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// `GlobalAlloc`'s contract; the tallies are atomics and touch no memory the
// allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BLOCKS.fetch_add(1, Ordering::Relaxed);
        grew(layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        BLOCKS.fetch_sub(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        // Old and new block can coexist while the bytes are copied.
        grew(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `layout` and `new_size` are the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What one [`measure`]d call allocated. (The tests and benches that include
/// this file each read some of it.)
#[allow(dead_code)]
#[derive(Debug, Clone, Copy)]
pub struct Allocated {
    /// Calls to `alloc` and `realloc`.
    pub calls: usize,
    /// Most bytes live at once during the call, beyond those live at its
    /// start.
    pub transient_peak: usize,
    /// Bytes still live at its end, beyond those live at its start (negative
    /// when it freed more than it kept).
    pub retained: isize,
    /// Blocks still live at its end, beyond those live at its start.
    pub retained_blocks: isize,
}

/// Run `f` and report what it allocated.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Allocated) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let calls = CALLS.load(Ordering::Relaxed);
    let blocks = BLOCKS.load(Ordering::Relaxed);
    let value = f();
    let allocated = Allocated {
        calls: CALLS.load(Ordering::Relaxed) - calls,
        transient_peak: PEAK.load(Ordering::Relaxed) - before,
        retained: LIVE.load(Ordering::Relaxed) as isize - before as isize,
        retained_blocks: BLOCKS.load(Ordering::Relaxed) as isize - blocks as isize,
    };
    (value, allocated)
}
