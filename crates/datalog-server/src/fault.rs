//! Fault injection for the serving stack.
//!
//! A [`FaultPlan`] is a set of switches the integration tests flip to make
//! the server misbehave *deterministically*: fsync failures in the WAL,
//! a panic in the middle of a query evaluation, a failing resident drain,
//! a query let past bound-aware admission. The plan is threaded
//! through [`ServerConfig`](crate::ServerConfig) as a cheap `Arc`; the
//! default plan injects nothing and costs one atomic load per consult, so
//! it stays compiled into release builds (a deliberate choice — the fault
//! suite exercises the exact binary that ships, not a test-only variant).
//!
//! The remaining faults of the harness need no server cooperation and are
//! driven purely from the tests: a *torn WAL tail* is real bytes appended
//! to the log file, a *slow client* is a socket written one byte at a
//! time, a *deadline storm* is plain concurrent load against a server
//! configured with tiny limits, and a SIGKILL crash is exactly that (see
//! `scripts/check.sh`).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Deterministic fault switches shared by the server and the tests.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// `0` while disarmed; `n > 0` lets the next `n - 1` WAL fsyncs pass
    /// and fails every one after that with an I/O error (the write is not
    /// acknowledged; the record may or may not survive a crash — exactly
    /// the contract of a failed fsync).
    fsync_fail_in: AtomicU64,
    /// One-shot: panic inside query handling when the query predicate's
    /// base name matches. Cleared by firing, so recovery is observable.
    panic_on_query: Mutex<Option<String>>,
    /// A budget of drains to fail: each consult while the budget is
    /// positive decrements it and poisons that propagation (the drain is
    /// run under an already-cancelled token). Lets tests stage "fails
    /// once" and "fails N times, each time healed by the next query".
    fail_drains: AtomicU64,
    /// While set, bound-aware admission refuses nothing, so a query over
    /// its fact budget reaches the engine's own budget trip.
    skip_bound_admission: AtomicBool,
    /// How many injected faults have fired (for test assertions).
    fired: AtomicU64,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Arm or disarm fsync failure.
    pub fn fail_fsync(&self, on: bool) {
        self.fsync_fail_in.store(u64::from(on), Ordering::Release);
    }

    /// Let the next `n` fsyncs pass, then fail every one until disarmed:
    /// how a test reaches one particular fsync of a compaction.
    pub fn fail_fsync_after(&self, n: u64) {
        self.fsync_fail_in.store(n + 1, Ordering::Release);
    }

    /// Consulted by the WAL before each fsync (of a file or a directory).
    pub fn fsync_should_fail(&self) -> bool {
        let passed = self
            .fsync_fail_in
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n > 1).then(|| n - 1)
            });
        let fail = passed == Err(1);
        if fail {
            self.fired.fetch_add(1, Ordering::AcqRel);
        }
        fail
    }

    /// Arm a one-shot panic for the next query over `pred`.
    pub fn panic_on_query(&self, pred: &str) {
        *self
            .panic_on_query
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(pred.to_string());
    }

    /// Consulted by the query handler; fires (and clears) when armed for
    /// this predicate. The panic itself happens at the call site so the
    /// backtrace points into real handler code.
    pub fn should_panic_on_query(&self, pred: &str) -> bool {
        let mut g = self
            .panic_on_query
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if g.as_deref() == Some(pred) {
            *g = None;
            self.fired.fetch_add(1, Ordering::AcqRel);
            return true;
        }
        false
    }

    /// Arm the next `n` resident drains to fail (poisoning the form).
    pub fn fail_drains(&self, n: u64) {
        self.fail_drains.store(n, Ordering::Release);
    }

    /// Consulted once per drain attempt: while the failure budget is
    /// positive, decrements it and reports that this drain must fail.
    pub fn drain_should_fail(&self) -> bool {
        let prev = self
            .fail_drains
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
            .is_ok();
        if prev {
            self.fired.fetch_add(1, Ordering::AcqRel);
        }
        prev
    }

    /// Let every query past bound-aware admission, or restore it.
    pub fn skip_bound_admission(&self, on: bool) {
        self.skip_bound_admission.store(on, Ordering::Release);
    }

    /// Consulted by cold evaluation before it compares a form's bound with
    /// the fact budget. Not counted in [`FaultPlan::fired`]: it is read on
    /// every cold query, whether or not the bound would refuse it.
    pub fn bound_admission_skipped(&self) -> bool {
        self.skip_bound_admission.load(Ordering::Acquire)
    }

    /// Total injected faults that have fired.
    pub fn fired(&self) -> u64 {
        self.fired.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_injects_nothing() {
        let plan = FaultPlan::new();
        assert!(!plan.fsync_should_fail());
        assert!(!plan.should_panic_on_query("a"));
        assert!(!plan.bound_admission_skipped());
        assert_eq!(plan.fired(), 0);
    }

    #[test]
    fn panic_switch_is_one_shot_and_predicate_scoped() {
        let plan = FaultPlan::new();
        plan.panic_on_query("a");
        assert!(!plan.should_panic_on_query("b"), "other predicates pass");
        assert!(plan.should_panic_on_query("a"));
        assert!(!plan.should_panic_on_query("a"), "fired once, then cleared");
        assert_eq!(plan.fired(), 1);
    }

    #[test]
    fn drain_failure_budget_decrements_then_heals() {
        let plan = FaultPlan::new();
        assert!(!plan.drain_should_fail(), "disarmed by default");
        plan.fail_drains(2);
        assert!(plan.drain_should_fail());
        assert!(plan.drain_should_fail());
        assert!(!plan.drain_should_fail(), "budget exhausted — drains heal");
        assert_eq!(plan.fired(), 2);
    }

    #[test]
    fn fsync_switch_counts_fires_until_disarmed() {
        let plan = FaultPlan::new();
        plan.fail_fsync(true);
        assert!(plan.fsync_should_fail());
        assert!(plan.fsync_should_fail());
        plan.fail_fsync(false);
        assert!(!plan.fsync_should_fail());
        assert_eq!(plan.fired(), 2);
        plan.fail_fsync_after(2);
        assert!(!plan.fsync_should_fail());
        assert!(!plan.fsync_should_fail());
        assert!(plan.fsync_should_fail(), "the third fsync fails");
        assert!(plan.fsync_should_fail(), "and every one after it");
        plan.fail_fsync(false);
        assert!(!plan.fsync_should_fail());
        assert_eq!(plan.fired(), 4);
    }
}
