//! Bounded retries with exponential backoff and deterministic jitter.
//!
//! Used by the remote-store client for transient connection/5xx failures
//! and by the worker loop for lease-acquire races. Jitter is derived from
//! a caller-supplied seed (owner id, shard number), not wall-clock or OS
//! randomness, so retry schedules are reproducible run-to-run while still
//! de-synchronizing distinct workers.

use std::io;
use std::time::Duration;

/// A bounded retry schedule: `max_attempts` tries total, sleeping
/// `base_delay * 2^attempt` (capped at `max_delay`) between them, scaled
/// by a deterministic jitter factor in `[0.5, 1.0)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RetryPolicy {
    /// Total attempts, including the first (`1` = no retries).
    pub max_attempts: u32,
    /// Backoff base: the delay before the first retry (pre-jitter).
    pub base_delay: Duration,
    /// Upper bound on any single delay (pre-jitter).
    pub max_delay: Duration,
}

impl RetryPolicy {
    /// The remote client's default: 5 attempts, 50 ms doubling to 800 ms.
    pub(crate) const fn remote() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_millis(800),
        }
    }

    /// Lease-acquire races resolve in milliseconds: 3 attempts, 5 ms base.
    pub(crate) const fn lease_race() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(40),
        }
    }

    /// The pre-retry sleep after failed attempt number `attempt`
    /// (0-based), jittered deterministically by `seed`.
    pub(crate) fn delay_for(&self, attempt: u32, seed: u64) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.max_delay);
        // splitmix64 of (seed, attempt) -> jitter factor in [0.5, 1.0).
        let mix = splitmix64(seed ^ (u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        let frac = (mix >> 11) as f64 / (1u64 << 53) as f64;
        exp.mul_f64(0.5 + frac / 2.0)
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Whether an I/O error kind is worth retrying: connection-level
/// failures that a healthy peer (or a restarted server) would not repeat.
/// `TimedOut` covers HTTP 5xx, which the remote client maps onto it.
pub(crate) fn is_transient(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::TimedOut
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::Interrupted
            | io::ErrorKind::WouldBlock
    )
}

/// Runs `op` until it succeeds, fails permanently, or the policy's
/// attempts are exhausted. Only errors for which [`is_transient`] holds
/// are retried; the last error is returned annotated with the attempt
/// count and `what`. `on_retry(attempt, delay, error)` is called before
/// each back-off sleep (never for the final failure or a permanent
/// error), so callers can surface retry activity — the campaign event log
/// records one `retry_attempt` event per call.
///
/// # Errors
///
/// The first permanent error, or the final transient error once
/// `policy.max_attempts` is exhausted.
pub(crate) fn retry_transient<T>(
    policy: &RetryPolicy,
    seed: u64,
    what: &str,
    mut on_retry: impl FnMut(u32, Duration, &io::Error),
    mut op: impl FnMut() -> io::Result<T>,
) -> io::Result<T> {
    let mut attempt = 0;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if is_transient(e.kind()) && attempt + 1 < policy.max_attempts => {
                let delay = policy.delay_for(attempt, seed);
                on_retry(attempt, delay, &e);
                std::thread::sleep(delay);
                attempt += 1;
            }
            Err(e) if is_transient(e.kind()) => {
                return Err(io::Error::new(
                    e.kind(),
                    format!("{what}: still failing after {} attempts: {e}", attempt + 1),
                ));
            }
            Err(e) => return Err(e),
        }
    }
}

/// A stable jitter seed from an owner id and shard number.
pub(crate) fn seed_for(owner: &str, shard: usize) -> u64 {
    let h = owner.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
    });
    h ^ (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Error, ErrorKind};

    #[test]
    fn delays_are_deterministic_bounded_and_growing() {
        let p = RetryPolicy::remote();
        let a: Vec<Duration> = (0..6).map(|i| p.delay_for(i, 42)).collect();
        let b: Vec<Duration> = (0..6).map(|i| p.delay_for(i, 42)).collect();
        assert_eq!(a, b, "same seed must give the same schedule");
        for (i, d) in a.iter().enumerate() {
            assert!(*d <= p.max_delay, "attempt {i} exceeds the cap: {d:?}");
            assert!(*d >= p.base_delay / 2, "attempt {i} under-sleeps: {d:?}");
        }
        assert!(a[2] > a[0], "backoff must grow before the cap");
        let other: Vec<Duration> = (0..6).map(|i| p.delay_for(i, 43)).collect();
        assert_ne!(a, other, "different seeds must de-synchronize");
    }

    #[test]
    fn retries_transient_until_success() {
        let p = RetryPolicy {
            max_attempts: 4,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(2),
        };
        let mut calls = 0;
        let out = retry_transient(
            &p,
            1,
            "op",
            |_, _, _| {},
            || {
                calls += 1;
                if calls < 3 {
                    Err(Error::new(ErrorKind::ConnectionRefused, "down"))
                } else {
                    Ok(calls)
                }
            },
        )
        .unwrap();
        assert_eq!(out, 3);
    }

    #[test]
    fn observer_sees_each_backoff_but_not_the_final_failure() {
        let p = RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(1),
        };
        let mut seen = Vec::new();
        let err = retry_transient::<()>(
            &p,
            5,
            "op",
            |attempt, delay, e| seen.push((attempt, delay, e.kind())),
            || Err(Error::new(ErrorKind::ConnectionReset, "flaky")),
        )
        .unwrap_err();
        assert_eq!(err.kind(), ErrorKind::ConnectionReset);
        assert_eq!(seen.len(), 2, "one callback per back-off sleep");
        assert_eq!(seen[0].0, 0);
        assert_eq!(seen[1].0, 1);
        assert!(seen
            .iter()
            .all(|(_, _, k)| *k == ErrorKind::ConnectionReset));
    }

    #[test]
    fn permanent_errors_fail_immediately() {
        let p = RetryPolicy::remote();
        let mut calls = 0;
        let err = retry_transient::<()>(
            &p,
            1,
            "op",
            |_, _, _| {},
            || {
                calls += 1;
                Err(Error::new(ErrorKind::InvalidData, "bad record"))
            },
        )
        .unwrap_err();
        assert_eq!(calls, 1, "permanent errors must not retry");
        assert_eq!(err.kind(), ErrorKind::InvalidData);
    }

    #[test]
    fn transient_errors_exhaust_with_attempt_count() {
        let p = RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(1),
        };
        let mut calls = 0;
        let err = retry_transient::<()>(
            &p,
            7,
            "append",
            |_, _, _| {},
            || {
                calls += 1;
                Err(Error::new(ErrorKind::BrokenPipe, "gone"))
            },
        )
        .unwrap_err();
        assert_eq!(calls, 3);
        assert!(err.to_string().contains("append"), "{err}");
        assert!(err.to_string().contains("3 attempts"), "{err}");
    }
}
