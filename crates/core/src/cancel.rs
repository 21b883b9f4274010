//! Cooperative cancellation.
//!
//! A [`CancelToken`] is one shared flag. Three callers raise it, all of
//! them external stops (DESIGN.md "Failure domains & degradation
//! ladder"): the CLI's Ctrl-C watcher, the serve `cancel` op, and a serve
//! peer hang-up. A raised token stops every phase at its next check, and
//! unstarted conflicts get stub `Cancelled` reports. Budget exhaustion
//! never goes through the token: the grammar-wide deadline skips the
//! remaining unifying searches and keeps the cheap spine + nonunifying
//! phases (§6 graceful cutoff).
//!
//! Cancellation is *cooperative*: the search loop polls the token (one
//! relaxed atomic load) plus its wall-clock deadline every 256
//! configuration pops, so the hot loop does not pay an `Instant::now()`
//! syscall per node.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A shared, clonable cancellation flag. Cheap to poll (one relaxed atomic
/// load); once raised it stays raised.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Raises the flag for every clone of this token.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Has cancellation been requested?
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_state() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!u.is_cancelled());
        t.cancel();
        assert!(u.is_cancelled());
    }
}
