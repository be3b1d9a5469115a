//! Logical time.
//!
//! The functional CachePortal system (and the sniffer's interval mapper)
//! needs timestamps, but wall-clock time would make tests flaky and the
//! request/query interval containment nondeterministic. All components take
//! a shared [`Clock`]; production code could plug a wall clock in, tests and
//! the harness use [`ManualClock`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Microsecond timestamps.
pub type Micros = u64;

/// A source of monotonic time.
pub trait Clock: Send + Sync {
    /// Current time in microseconds.
    fn now_micros(&self) -> Micros;

    /// Advance by one minimal step and return the new time. Logging
    /// wrappers call this so that consecutive events get *distinct*
    /// timestamps even under a manual clock, which keeps the sniffer's
    /// request/query intervals well-nested. Wall clocks just return now.
    fn tick(&self) -> Micros {
        self.now_micros()
    }
}

/// Deterministic, manually advanced clock.
#[derive(Debug, Default)]
pub struct ManualClock {
    now: AtomicU64,
}

impl ManualClock {
    /// Create the clock.
    pub fn new() -> Arc<Self> {
        Arc::new(ManualClock::default())
    }

    /// Advance time by `delta` microseconds; returns the new now.
    pub fn advance(&self, delta: Micros) -> Micros {
        self.now.fetch_add(delta, Ordering::SeqCst) + delta
    }

    /// Jump to an absolute time.
    pub fn set(&self, micros: Micros) {
        self.now.store(micros, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_micros(&self) -> Micros {
        self.now.load(Ordering::SeqCst)
    }

    fn tick(&self) -> Micros {
        self.advance(1)
    }
}

/// Wall clock (monotonic since process start).
#[derive(Debug)]
pub struct SystemClock {
    start: std::time::Instant,
}

impl SystemClock {
    /// Create the clock.
    pub fn new() -> Arc<Self> {
        Arc::new(SystemClock {
            start: std::time::Instant::now(),
        })
    }
}

impl Clock for SystemClock {
    fn now_micros(&self) -> Micros {
        self.start.elapsed().as_micros() as Micros
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_advances() {
        let c = ManualClock::new();
        assert_eq!(c.now_micros(), 0);
        assert_eq!(c.advance(100), 100);
        assert_eq!(c.now_micros(), 100);
        c.set(5);
        assert_eq!(c.now_micros(), 5);
    }

    #[test]
    fn system_clock_is_monotonic() {
        let c = SystemClock::new();
        let a = c.now_micros();
        let b = c.now_micros();
        assert!(b >= a);
    }
}
