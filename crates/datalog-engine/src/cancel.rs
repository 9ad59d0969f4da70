//! Cooperative cancellation for long-running fixpoints.
//!
//! A [`CancelToken`] is a cheap, clonable flag shared between the party
//! that runs an evaluation and any party that may want to stop it (a
//! server draining for shutdown, a timeout watchdog, a user pressing ^C).
//! The engine polls the token at every semi-naive iteration boundary and
//! every few thousand joined rows inside a rule application, so even a
//! single pathological cross product observes a cancellation promptly.
//! Cancellation is *cooperative*: the fixpoint unwinds cleanly and returns
//! [`EngineError::Cancelled`](crate::EngineError::Cancelled) with the
//! statistics accumulated so far — no thread is ever killed, no lock is
//! ever poisoned by it.
//!
//! Tokens compose: [`CancelToken::joined`] derives a token that observes
//! several sources at once (e.g. the server's shutdown drain *and* a
//! per-operation abort), without threads or channels — `is_cancelled`
//! simply checks every linked flag.
//!
//! The deadline is polled on the same cadence, against the evaluation's
//! [`Clock`]: the monotonic clock, or a [`ManualClock`] that advances a
//! fixed step per read, so a test can say on which poll a deadline trips.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Default)]
struct Flags {
    own: AtomicBool,
    /// Upstream tokens this one also observes (set by [`CancelToken::joined`]).
    parents: Vec<Arc<Flags>>,
}

impl Flags {
    fn is_cancelled(&self) -> bool {
        self.own.load(Ordering::Acquire) || self.parents.iter().any(|p| p.is_cancelled())
    }
}

/// A shared cancellation flag. Clones observe the same flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flags: Arc<Flags>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent; wakes nothing by itself — the
    /// evaluation notices at its next cooperative check point.
    pub fn cancel(&self) {
        self.flags.own.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested on this token or any token
    /// it was joined from.
    pub fn is_cancelled(&self) -> bool {
        self.flags.is_cancelled()
    }

    /// A token cancelled when *either* `self` or `other` is cancelled.
    /// Cancelling the joined token does not cancel its sources.
    pub fn joined(&self, other: &CancelToken) -> CancelToken {
        CancelToken {
            flags: Arc::new(Flags {
                own: AtomicBool::new(false),
                parents: vec![Arc::clone(&self.flags), Arc::clone(&other.flags)],
            }),
        }
    }
}

/// Where an evaluation reads the time its deadline is checked against.
#[derive(Debug, Clone, Default)]
pub enum Clock {
    /// [`Instant::now`].
    #[default]
    Monotonic,
    /// A clock that only moves when it is read.
    Manual(Arc<ManualClock>),
}

impl Clock {
    /// The current time on this clock.
    pub fn now(&self) -> Instant {
        match self {
            Clock::Monotonic => Instant::now(),
            Clock::Manual(clock) => clock.read(),
        }
    }
}

/// A deterministic clock: read `n` (counting from 1) returns
/// `start + n * step`, whatever the wall time.
#[derive(Debug)]
pub struct ManualClock {
    start: Instant,
    step: Duration,
    reads: AtomicU32,
}

impl ManualClock {
    /// A clock starting now that advances `step` per read.
    pub fn new(step: Duration) -> ManualClock {
        ManualClock {
            start: Instant::now(),
            step,
            reads: AtomicU32::new(0),
        }
    }

    /// What read `n` returns.
    pub fn at(&self, n: u32) -> Instant {
        self.start + self.step * n
    }

    /// How often the clock has been read.
    pub fn reads(&self) -> u32 {
        self.reads.load(Ordering::Relaxed)
    }

    fn read(&self) -> Instant {
        self.at(self.reads.fetch_add(1, Ordering::Relaxed) + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_flag() {
        let t = CancelToken::new();
        let c = t.clone();
        assert!(!t.is_cancelled());
        c.cancel();
        assert!(t.is_cancelled());
        // Idempotent.
        t.cancel();
        assert!(c.is_cancelled());
    }

    #[test]
    fn joined_tokens_observe_both_sources() {
        let a = CancelToken::new();
        let b = CancelToken::new();
        let j = a.joined(&b);
        assert!(!j.is_cancelled());
        b.cancel();
        assert!(j.is_cancelled(), "either source cancels the join");
        assert!(!a.is_cancelled(), "sources stay independent");

        let a = CancelToken::new();
        let b = CancelToken::new();
        let j = a.joined(&b);
        j.cancel();
        assert!(j.is_cancelled());
        assert!(
            !a.is_cancelled() && !b.is_cancelled(),
            "cancelling the join must not propagate upstream"
        );
    }
}
