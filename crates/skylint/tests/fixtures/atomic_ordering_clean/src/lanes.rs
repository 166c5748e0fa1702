//! The thread lane (spawn-allowed): reaches `current` but never the
//! lane-local counter.

use crate::current;

/// Reads the mode flag from the worker side of the spawn boundary.
pub fn worker_lane() -> u8 {
    current()
}
