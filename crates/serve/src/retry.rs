//! Submit-side retry: bounded exponential backoff for backpressure.
//!
//! [`ServeError::QueueFull`] is a *transient* rejection — the queue
//! drains in microseconds under normal load — so callers that would
//! rather wait briefly than shed can wrap submission in a
//! [`RetryPolicy`]. Only `QueueFull` is retried: deadline, shutdown and
//! validation rejections are permanent and surface immediately.

use std::time::Duration;

use vortex_linalg::rng::SplitMix64;

use crate::{Result, ServeError};

/// Bounded doubling, `min(base · 2ᵏ, cap)` without overflow for any
/// `k`: the backoff of submit retries, pump respawns and job restarts.
pub fn bounded_doubling(base: Duration, k: u32, cap: Duration) -> Duration {
    base.saturating_mul(1u32.checked_shl(k).unwrap_or(u32::MAX))
        .min(cap)
}

/// A bounded exponential-backoff retry policy.
///
/// Attempt `k` (zero-based) sleeps `min(base · 2ᵏ, max)` before
/// resubmitting; after [`RetryPolicy::max_attempts`] total attempts the
/// final [`ServeError::QueueFull`] is returned. The delay sequence is a
/// pure function of the policy — deterministic by construction.
///
/// With [`RetryPolicy::with_jitter`] the delay of attempt `k` becomes a
/// seeded *decorrelated* draw over `[base, min(base · 2ᵏ, max)]`: callers
/// that hit `QueueFull` together (a burst bouncing off a full queue)
/// carry different request seeds, land on different delays, and stop
/// stampeding back in lockstep. The draw hashes `(seed, k)` through
/// SplitMix64, so it stays a pure function of the policy — two retries of
/// the same request sleep the same schedule, bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total submission attempts (≥ 1; 1 means no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base: Duration,
    /// Upper bound on any single backoff.
    pub max: Duration,
    /// Request seed for decorrelated jitter; `None` keeps the pure
    /// doubling schedule.
    pub jitter_seed: Option<u64>,
}

impl RetryPolicy {
    /// A policy of `max_attempts` total attempts with backoff doubling
    /// from `base` up to `max`.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidParameter`] for zero attempts or an
    /// inverted backoff band.
    pub fn new(max_attempts: u32, base: Duration, max: Duration) -> Result<Self> {
        if max_attempts == 0 {
            return Err(ServeError::InvalidParameter {
                name: "max_attempts",
                requirement: "must be at least 1",
            });
        }
        if max < base {
            return Err(ServeError::InvalidParameter {
                name: "max",
                requirement: "backoff cap must be at least the base",
            });
        }
        Ok(Self {
            max_attempts,
            base,
            max,
            jitter_seed: None,
        })
    }

    /// The no-retry policy: one attempt, immediate rejection.
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            base: Duration::ZERO,
            max: Duration::ZERO,
            jitter_seed: None,
        }
    }

    /// This policy with decorrelated jitter drawn from `seed` (typically
    /// the request seed, so concurrent retriers desynchronize).
    pub fn with_jitter(mut self, seed: u64) -> Self {
        self.jitter_seed = Some(seed);
        self
    }

    /// The backoff slept after failed attempt `attempt` (zero-based), or
    /// `None` when the policy is exhausted and the error should surface.
    ///
    /// Without a jitter seed this is the exact doubling schedule
    /// `min(base · 2ᵏ, max)`; with one, a deterministic draw over
    /// `[base, min(base · 2ᵏ, max)]` as described on the type.
    pub fn backoff_after(&self, attempt: u32) -> Option<Duration> {
        if attempt + 1 >= self.max_attempts {
            return None;
        }
        let ceiling = bounded_doubling(self.base, attempt, self.max);
        let Some(seed) = self.jitter_seed else {
            return Some(ceiling);
        };
        // Hash (seed, attempt) into [0, 1). SplitMix64 is seeded with the
        // request seed and stepped once per attempt index so consecutive
        // attempts of one request are themselves decorrelated.
        let mut h = SplitMix64::new(seed ^ u64::from(attempt).wrapping_mul(0xA076_1D64_78BD_642F));
        let frac = (h.next_u64() >> 11) as f64 * (1.0 / ((1u64 << 53) as f64));
        let band = ceiling.saturating_sub(self.base);
        Some(self.base + band.mul_f64(frac))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(RetryPolicy::new(0, Duration::ZERO, Duration::ZERO).is_err());
        assert!(RetryPolicy::new(3, Duration::from_millis(2), Duration::from_millis(1)).is_err());
        assert!(RetryPolicy::new(1, Duration::ZERO, Duration::ZERO).is_ok());
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy::new(5, Duration::from_millis(1), Duration::from_millis(3)).unwrap();
        assert_eq!(p.backoff_after(0), Some(Duration::from_millis(1)));
        assert_eq!(p.backoff_after(1), Some(Duration::from_millis(2)));
        assert_eq!(p.backoff_after(2), Some(Duration::from_millis(3)));
        assert_eq!(p.backoff_after(3), Some(Duration::from_millis(3)));
        assert_eq!(p.backoff_after(4), None);
    }

    #[test]
    fn none_policy_never_retries() {
        assert_eq!(RetryPolicy::none().backoff_after(0), None);
    }

    #[test]
    fn huge_shift_does_not_overflow() {
        let p = RetryPolicy::new(u32::MAX, Duration::from_secs(1), Duration::from_secs(8)).unwrap();
        assert_eq!(p.backoff_after(40), Some(Duration::from_secs(8)));
    }

    #[test]
    fn jitterless_schedule_is_the_legacy_doubling_exactly() {
        // Pinned: a policy without a jitter seed must sleep the exact
        // pre-jitter schedule, so existing callers see identical timing.
        let p = RetryPolicy::new(5, Duration::from_millis(1), Duration::from_millis(3)).unwrap();
        assert_eq!(p.jitter_seed, None);
        assert_eq!(p.backoff_after(0), Some(Duration::from_millis(1)));
        assert_eq!(p.backoff_after(1), Some(Duration::from_millis(2)));
        assert_eq!(p.backoff_after(2), Some(Duration::from_millis(3)));
        assert_eq!(p.backoff_after(3), Some(Duration::from_millis(3)));
    }

    #[test]
    fn jitter_is_deterministic_and_stays_in_band() {
        let p = RetryPolicy::new(8, Duration::from_millis(2), Duration::from_millis(40))
            .unwrap()
            .with_jitter(1234);
        let q = RetryPolicy::new(8, Duration::from_millis(2), Duration::from_millis(40))
            .unwrap()
            .with_jitter(1234);
        for k in 0..7 {
            let d = p.backoff_after(k).unwrap();
            // Same seed, same attempt: the very same delay.
            assert_eq!(d, q.backoff_after(k).unwrap());
            let ceiling = Duration::from_millis(2)
                .checked_mul(1 << k)
                .unwrap()
                .min(Duration::from_millis(40));
            assert!(d >= Duration::from_millis(2), "attempt {k} slept {d:?}");
            assert!(d <= ceiling, "attempt {k} slept {d:?} above {ceiling:?}");
        }
        // Exhaustion is unchanged by jitter.
        assert_eq!(p.backoff_after(7), None);
    }

    #[test]
    fn distinct_seeds_desynchronize() {
        // A stampede of retriers with distinct request seeds must not
        // share one delay; count collisions on a mid-schedule attempt.
        let policy = RetryPolicy::new(6, Duration::from_millis(1), Duration::from_secs(1)).unwrap();
        let delays: Vec<Duration> = (0..32u64)
            .map(|seed| policy.with_jitter(seed).backoff_after(3).unwrap())
            .collect();
        let mut unique = delays.clone();
        unique.sort_unstable();
        unique.dedup();
        assert!(
            unique.len() >= 30,
            "expected ≥30 distinct delays across 32 seeds, got {}",
            unique.len()
        );
    }
}
