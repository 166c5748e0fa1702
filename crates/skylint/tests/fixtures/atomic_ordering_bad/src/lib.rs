//! Atomic-ordering bad fixture: a mode flag published and observed with
//! `Ordering::Relaxed` while the load is reachable from the thread lane
//! (src/lanes.rs). `skylint check` must exit 1 with `atomic-ordering`
//! findings carrying the witness path.

pub mod lanes;

use std::sync::atomic::{AtomicU8, Ordering};

/// The cross-thread mode flag: written on the control side, read in the lane.
static MODE: AtomicU8 = AtomicU8::new(0);

/// BAD: relaxed publication — a later spawn may still observe 0.
pub fn set_mode(v: u8) {
    MODE.store(v, Ordering::Relaxed);
}

/// BAD: relaxed observation on the worker path.
pub fn current() -> u8 {
    MODE.load(Ordering::Relaxed)
}
