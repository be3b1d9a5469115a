//! Per-thread stripes: state every request thread writes, split so that two
//! threads write two cache lines.
//!
//! A thread takes the lowest free stripe the first time it asks and gives
//! it back when it ends, so up to [`STRIPES`] threads alive at once each
//! write their own. A reader sums or drains every stripe. This is how the request path's tallies and logs
//! avoid a cache line or a mutex that all request threads share.
//!
//! `cacheportal-obs` compiles this file in by `#[path]` for its instruments,
//! so it uses nothing but `std`.

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

/// Stripes per striped value. More than the request threads a deployment
/// runs on one box; a thread past them shares a stripe, which stays correct
/// and only costs contention.
pub const STRIPES: usize = 8;

/// The stripes held by a live thread, one bit each.
static TAKEN: AtomicU32 = AtomicU32::new(0);
/// Turns for the threads that find every stripe held.
static SHARED: AtomicUsize = AtomicUsize::new(0);

/// A thread's stripe, given back when the thread ends: the next thread
/// takes the lowest free one, so a process's striped state follows the
/// threads alive at once, not every thread it ever ran.
struct Claim {
    index: usize,
    owned: bool,
}

impl Claim {
    fn take() -> Claim {
        let mut taken = TAKEN.load(Ordering::Relaxed);
        loop {
            let free = (!taken).trailing_zeros() as usize;
            if free >= STRIPES {
                let index = SHARED.fetch_add(1, Ordering::Relaxed) % STRIPES;
                return Claim {
                    index,
                    owned: false,
                };
            }
            let mine = taken | 1 << free;
            match TAKEN.compare_exchange_weak(taken, mine, Ordering::Acquire, Ordering::Relaxed) {
                Ok(_) => {
                    return Claim {
                        index: free,
                        owned: true,
                    }
                }
                Err(now) => taken = now,
            }
        }
    }
}

impl Drop for Claim {
    fn drop(&mut self) {
        if self.owned {
            TAKEN.fetch_and(!(1 << self.index), Ordering::Release);
        }
    }
}

thread_local! {
    static MINE: Claim = Claim::take();
}

/// This thread's stripe (stripe 0 for a thread past its own end, in
/// another thread-local's destructor).
pub fn index() -> usize {
    MINE.try_with(|c| c.index).unwrap_or(0)
}

/// One value per stripe, each on cache lines of its own.
#[derive(Debug, Default)]
pub struct Striped<T>([Padded<T>; STRIPES]);

#[derive(Debug, Default)]
#[repr(align(128))]
struct Padded<T>(T);

impl<T> Striped<T> {
    /// This thread's stripe.
    pub fn mine(&self) -> &T {
        &self.0[index()].0
    }

    /// Every stripe, in stripe order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.0.iter().map(|p| &p.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn threads_write_their_own_stripes_and_a_reader_sees_them_all() {
        let cells: Striped<AtomicU64> = Striped::default();
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        cells.mine().fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        let total: u64 = cells.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        assert_eq!(total, 3000);
        assert_eq!(index(), index(), "a thread keeps its stripe");
    }
}
