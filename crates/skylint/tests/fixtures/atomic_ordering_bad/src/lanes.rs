//! The thread lane (spawn-allowed): functions here root the
//! cross-thread reachability witness.

use crate::current;

/// Reads the mode flag from the worker side of the spawn boundary.
pub fn worker_lane() -> u8 {
    current()
}
