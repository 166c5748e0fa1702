//! Atomic-ordering clean fixture: the cross-thread mode flag publishes with
//! `Release` and observes with `Acquire`; the only Relaxed accesses are
//! on a counter never reachable from the thread lane. `skylint check`
//! must exit 0.

pub mod lanes;

use std::sync::atomic::{AtomicU8, AtomicU64, Ordering};

/// The cross-thread mode flag: written on the control side, read in the lane.
static MODE: AtomicU8 = AtomicU8::new(0);

/// Debug tally confined to the control side — never crosses a spawn.
static LOCAL_TICKS: AtomicU64 = AtomicU64::new(0);

/// Publishes the mode for the next spawned worker.
pub fn set_mode(v: u8) {
    MODE.store(v, Ordering::Release);
}

/// Observes the mode on the worker path.
pub fn current() -> u8 {
    MODE.load(Ordering::Acquire)
}

/// Relaxed is fine here: the tally stays on one thread.
pub fn tick() -> u64 {
    LOCAL_TICKS.fetch_add(1, Ordering::Relaxed);
    LOCAL_TICKS.load(Ordering::Relaxed)
}
