//! Per-client token-bucket rate limiting on a logical clock.
//!
//! Buckets refill continuously at `rate` tokens per second and hold at
//! most `burst` tokens; each admitted request spends one token. All
//! arithmetic is integer (millitokens) on caller-supplied nanosecond
//! timestamps, so decisions are exactly reproducible: the limiter never
//! reads a wall clock.

use std::collections::HashMap;

/// Millitokens per token — the fixed-point scale of bucket levels.
const MILLI: u64 = 1_000;

/// One client's bucket: current level and the time it was last refilled.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    /// Fill level in millitokens.
    level: u64,
    /// Timestamp of the last refill, nanoseconds.
    refilled_at: u64,
}

/// A deterministic per-client token-bucket rate limiter.
///
/// `rate == 0` disables limiting entirely ([`RateLimiter::allow`] always
/// returns `true`); otherwise each client sustains `rate` requests per
/// second with bursts up to `burst` (clamped to at least 1 so an enabled
/// limiter can always admit a first request).
#[derive(Debug)]
pub(crate) struct RateLimiter {
    /// Sustained tokens per second (0 = disabled).
    rate: u64,
    /// Bucket depth in millitokens.
    burst_milli: u64,
    buckets: HashMap<u64, Bucket>,
}

impl RateLimiter {
    /// Creates a limiter granting `rate` requests/second with bursts of
    /// `burst` per client.
    pub(crate) fn new(rate: u64, burst: u64) -> RateLimiter {
        RateLimiter {
            rate,
            burst_milli: burst.max(1).saturating_mul(MILLI),
            buckets: HashMap::new(),
        }
    }

    /// Decides one request from `client` arriving at `now_ns`: spends a
    /// token and returns `true`, or returns `false` when the bucket is
    /// empty. Timestamps may repeat but must not go backwards per client
    /// (a regression is treated as "no time passed").
    pub(crate) fn allow(&mut self, client: u64, now_ns: u64) -> bool {
        if self.rate == 0 {
            return true;
        }
        let bucket = self.buckets.entry(client).or_insert(Bucket {
            level: self.burst_milli,
            refilled_at: now_ns,
        });
        let elapsed = now_ns.saturating_sub(bucket.refilled_at);
        // elapsed ns × rate tokens/s = elapsed × rate / 1e9 tokens
        //                            = elapsed × rate / 1e6 millitokens.
        let refill = elapsed.saturating_mul(self.rate) / 1_000_000;
        if refill > 0 {
            bucket.level = (bucket.level + refill).min(self.burst_milli);
            // Advance by the time actually converted into millitokens so
            // sub-millitoken remainders are never silently discarded.
            bucket.refilled_at += refill.saturating_mul(1_000_000) / self.rate;
        } else if now_ns > bucket.refilled_at && bucket.level >= self.burst_milli {
            // A full bucket accrues nothing; keep the clock current so a
            // long idle gap is not double-counted later.
            bucket.refilled_at = now_ns;
        }
        if bucket.level >= MILLI {
            bucket.level -= MILLI;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: u64 = 1_000_000_000;

    #[test]
    fn zero_rate_disables_limiting() {
        let mut l = RateLimiter::new(0, 0);
        for i in 0..10_000 {
            assert!(l.allow(1, i));
        }
    }

    #[test]
    fn burst_then_shed_then_refill() {
        // 2 tokens/s, burst 5: the first 5 back-to-back requests pass,
        // the 6th sheds, and after 500 ms one more token is available.
        let mut l = RateLimiter::new(2, 5);
        for _ in 0..5 {
            assert!(l.allow(7, 0));
        }
        assert!(!l.allow(7, 0));
        assert!(!l.allow(7, SEC / 4), "250 ms refills only half a token");
        assert!(l.allow(7, SEC / 2 + SEC / 4));
        assert!(!l.allow(7, SEC / 2 + SEC / 4));
    }

    #[test]
    fn sustained_rate_is_honoured() {
        // 100 tokens/s, burst 1: a client arriving every 10 ms is never
        // shed; one arriving every 5 ms is shed about half the time.
        let mut l = RateLimiter::new(100, 1);
        let mut ok = 0;
        for i in 0..200u64 {
            if l.allow(1, i * SEC / 100) {
                ok += 1;
            }
        }
        assert_eq!(ok, 200, "at-rate client never sheds");
        let mut ok = 0;
        for i in 0..200u64 {
            if l.allow(2, i * SEC / 200) {
                ok += 1;
            }
        }
        assert!((95..=105).contains(&ok), "2x-rate client sheds ~half: {ok}");
    }

    #[test]
    fn clients_have_independent_buckets() {
        let mut l = RateLimiter::new(1, 1);
        assert!(l.allow(1, 0));
        assert!(!l.allow(1, 0));
        assert!(l.allow(2, 0), "client 2 has its own bucket");
        assert_eq!(l.buckets.len(), 2);
    }

    #[test]
    fn bucket_never_exceeds_burst() {
        let mut l = RateLimiter::new(10, 3);
        // A decade of idling still only buys `burst` back-to-back admits.
        assert!(l.allow(9, 0));
        let far = 315 * 1_000_000 * SEC / 1_000_000;
        let mut ok = 0;
        for _ in 0..10 {
            if l.allow(9, far) {
                ok += 1;
            }
        }
        assert_eq!(ok, 3);
    }

    #[test]
    fn decisions_are_deterministic() {
        let run = || {
            let mut l = RateLimiter::new(50, 10);
            (0..500u64)
                .map(|i| l.allow(i % 7, i * 3_000_000))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
