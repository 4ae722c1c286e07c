//! The fleet's retry surface: one deterministic backoff/budget policy
//! shared by failover, DSM re-sync, vault catch-up, and live migration.
//!
//! The actual machinery lives in `tinman-sim` ([`RetryPolicy`],
//! [`RetryBudget`], [`BackoffShape`]) so the core runtime and the vault
//! can use it without depending on the fleet. This module re-exports it
//! under the fleet's namespace and adds the fleet-specific constructors:
//!
//! - [`failover_policy`] — the historical failover curve
//!   (`base * 2^attempt`, exponent clamped at 16, capped at
//!   [`MAX_BACKOFF`](crate::failure::MAX_BACKOFF)), no jitter,
//!   byte-identical to the pre-policy reports.
//! - [`migration_policy`] — the same curve with seeded deterministic
//!   jitter for migration shipping: retransmits of a checkpoint should
//!   not synchronize across a draining region, but the jitter must stay
//!   a pure function of the fleet seed so reports are byte-identical
//!   across worker counts.

pub use tinman_sim::{BackoffShape, RetryBudget, RetryPolicy};

pub use crate::failure::failover_policy;

use tinman_sim::SimDuration;

/// The backoff policy charged against a session's penalty deadline while
/// shipping a migration checkpoint: the failover curve plus seeded
/// jitter (up to 25% extra per attempt). Deterministic — `seed` must
/// derive from the fleet seed and session id only.
pub fn migration_policy(base: SimDuration, seed: u64) -> RetryPolicy {
    failover_policy(base).with_jitter(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn migration_policy_is_the_failover_curve_plus_bounded_jitter() {
        let base = SimDuration::from_millis(250);
        let bare = failover_policy(base);
        let jittered = migration_policy(base, 42);
        for attempt in 0..8 {
            let b = bare.delay(attempt);
            let j = jittered.delay(attempt);
            assert!(j >= b, "jitter only adds");
            assert!(j.as_nanos() <= b.as_nanos() + b.as_nanos() / 4, "at most 25% extra");
            assert_eq!(j, migration_policy(base, 42).delay(attempt), "pure in the seed");
        }
        assert_ne!(
            (0..8).map(|a| migration_policy(base, 1).delay(a)).collect::<Vec<_>>(),
            (0..8).map(|a| migration_policy(base, 2).delay(a)).collect::<Vec<_>>(),
            "different seeds give different jitter streams"
        );
    }
}
