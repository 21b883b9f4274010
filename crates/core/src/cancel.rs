//! Cooperative cancellation and the soft memory governor.
//!
//! Three failure domains cancel in-flight searches (DESIGN.md "Failure
//! domains & degradation ladder"):
//!
//! * **Signal** (Ctrl-C in the CLI) — a *hard* cancel: every phase stops at
//!   its next check and unstarted conflicts get stub `Cancelled` reports.
//! * **Budget** — the grammar-wide cumulative limit died: unifying searches
//!   stop, but the cheap spine + nonunifying phases keep running so every
//!   conflict still gets a counterexample (§6 graceful cutoff).
//! * **Memory** — the soft RSS governor is over its limit: searches *shed*
//!   by tightening their cost cap so frontiers drain instead of growing.
//!
//! Cancellation is *cooperative*: the search loop polls a shared
//! [`CancelToken`] (one relaxed atomic load) plus its wall-clock deadline
//! on a stride ([`SearchConfig::cancel_stride`](crate::SearchConfig)), so
//! the hot loop does not pay an `Instant::now()` syscall per node. The
//! stride bench in `crates/bench` quantifies the difference.

use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;

/// Why a run was cancelled. Ordered by severity: `Signal` is the only
/// *hard* reason (stops even the cheap degradation phases).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CancelReason {
    /// External interrupt (the CLI's Ctrl-C handler).
    Signal,
    /// Cumulative time budget exhausted.
    Budget,
    /// Soft memory limit exceeded.
    Memory,
}

impl CancelReason {
    fn from_u8(v: u8) -> Option<CancelReason> {
        match v {
            1 => Some(CancelReason::Signal),
            2 => Some(CancelReason::Budget),
            3 => Some(CancelReason::Memory),
            _ => None,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            CancelReason::Signal => 1,
            CancelReason::Budget => 2,
            CancelReason::Memory => 3,
        }
    }
}

/// A shared, clonable cancellation flag. Cheap to poll (one relaxed atomic
/// load); the first `cancel` wins and records its reason.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    state: Arc<AtomicU8>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Cancels the token. The first reason to arrive is kept.
    pub fn cancel(&self, reason: CancelReason) {
        let _ = self
            .state
            .compare_exchange(0, reason.as_u8(), Ordering::SeqCst, Ordering::SeqCst);
    }

    /// Has any cancellation been requested?
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.state.load(Ordering::Relaxed) != 0
    }

    /// Has a *hard* (signal) cancellation been requested? Hard cancels stop
    /// even the cheap degradation phases; soft cancels (budget, memory)
    /// only stop the expensive unifying searches.
    #[inline]
    pub fn is_hard_cancelled(&self) -> bool {
        self.state.load(Ordering::Relaxed) == CancelReason::Signal.as_u8()
    }

    /// The recorded cancellation reason, if any.
    pub fn reason(&self) -> Option<CancelReason> {
        CancelReason::from_u8(self.state.load(Ordering::Relaxed))
    }
}

/// Grammar-wide soft memory accounting for the unifying searches.
///
/// Each in-flight search reports its estimated live frontier bytes through
/// a [`GovernorLease`]; when the shared total crosses the soft limit the
/// search *sheds* — it tightens its per-configuration cost cap to the cost
/// of the configuration it just popped, so no deeper successors are
/// enqueued and the frontier drains deterministically into a `TimedOut`
/// outcome instead of growing without bound.
#[derive(Debug)]
pub struct MemoryGovernor {
    soft_limit: usize,
    live: AtomicUsize,
    sheds: AtomicU64,
}

impl MemoryGovernor {
    /// A governor that never sheds.
    pub fn unlimited() -> MemoryGovernor {
        MemoryGovernor::with_limit_bytes(usize::MAX)
    }

    /// A governor with a soft limit in bytes (`usize::MAX` = unlimited).
    pub fn with_limit_bytes(bytes: usize) -> MemoryGovernor {
        MemoryGovernor {
            soft_limit: bytes,
            live: AtomicUsize::new(0),
            sheds: AtomicU64::new(0),
        }
    }

    /// A governor with a soft limit in mebibytes (`0` = unlimited).
    pub fn with_limit_mb(mb: usize) -> MemoryGovernor {
        if mb == 0 {
            MemoryGovernor::unlimited()
        } else {
            MemoryGovernor::with_limit_bytes(mb.saturating_mul(1 << 20))
        }
    }

    /// Estimated live bytes across all leases.
    pub fn live_bytes(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    /// Is the shared total over the soft limit?
    #[inline]
    pub fn over_limit(&self) -> bool {
        self.live.load(Ordering::Relaxed) > self.soft_limit
    }

    /// Number of shed events recorded across all searches.
    pub fn sheds(&self) -> u64 {
        self.sheds.load(Ordering::Relaxed)
    }

    /// Records one shed event.
    pub fn note_shed(&self) {
        self.sheds.fetch_add(1, Ordering::Relaxed);
    }
}

/// One search's slice of the governor's accounting. Dropping the lease
/// (including on unwind, so contained panics don't leak accounting)
/// releases whatever it last reported.
pub struct GovernorLease<'a> {
    governor: &'a MemoryGovernor,
    held: usize,
}

impl<'a> GovernorLease<'a> {
    /// A lease currently holding zero bytes.
    pub fn new(governor: &'a MemoryGovernor) -> GovernorLease<'a> {
        GovernorLease { governor, held: 0 }
    }

    /// Updates this lease's contribution to the shared total.
    pub fn set(&mut self, bytes: usize) {
        if bytes >= self.held {
            self.governor
                .live
                .fetch_add(bytes - self.held, Ordering::Relaxed);
        } else {
            self.governor
                .live
                .fetch_sub(self.held - bytes, Ordering::Relaxed);
        }
        self.held = bytes;
    }

    /// The governor this lease reports to.
    pub fn governor(&self) -> &'a MemoryGovernor {
        self.governor
    }
}

impl Drop for GovernorLease<'_> {
    fn drop(&mut self) {
        self.set(0);
    }
}

/// The shared cancellation context threaded through a search: who can stop
/// it ([`CancelToken`]) and who can make it shed ([`MemoryGovernor`]). The
/// engine shares one session across all of a grammar's conflict workers.
#[derive(Clone, Copy)]
pub struct SearchSession<'a> {
    /// Cooperative stop flag, polled on the cancel stride.
    pub cancel: &'a CancelToken,
    /// Soft memory governor for frontier shedding.
    pub governor: &'a MemoryGovernor,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_cancel_reason_wins() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.reason(), None);
        t.cancel(CancelReason::Budget);
        t.cancel(CancelReason::Signal);
        assert!(t.is_cancelled());
        assert!(!t.is_hard_cancelled(), "budget arrived first");
        assert_eq!(t.reason(), Some(CancelReason::Budget));
    }

    #[test]
    fn hard_cancel_is_signal_only() {
        let t = CancelToken::new();
        t.cancel(CancelReason::Signal);
        assert!(t.is_hard_cancelled());
        assert_eq!(t.reason(), Some(CancelReason::Signal));
    }

    #[test]
    fn clones_share_state() {
        let t = CancelToken::new();
        let u = t.clone();
        t.cancel(CancelReason::Memory);
        assert!(u.is_cancelled());
        assert_eq!(u.reason(), Some(CancelReason::Memory));
    }

    #[test]
    fn governor_accounting_and_limits() {
        let g = MemoryGovernor::with_limit_bytes(1000);
        {
            let mut a = GovernorLease::new(&g);
            let mut b = GovernorLease::new(&g);
            a.set(600);
            b.set(300);
            assert_eq!(g.live_bytes(), 900);
            assert!(!g.over_limit());
            b.set(500);
            assert!(g.over_limit());
            a.set(100);
            assert_eq!(g.live_bytes(), 600);
            assert!(!g.over_limit());
        }
        assert_eq!(g.live_bytes(), 0, "leases release on drop");
    }

    #[test]
    fn limit_mb_zero_is_unlimited() {
        let g = MemoryGovernor::with_limit_mb(0);
        let mut l = GovernorLease::new(&g);
        l.set(usize::MAX / 2);
        assert!(!g.over_limit());
    }
}
