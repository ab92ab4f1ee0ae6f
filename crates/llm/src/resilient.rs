//! The resilience layer: bounded retries, deterministic backoff and a
//! circuit breaker over any [`LmTransport`].
//!
//! [`ResilientLm`] is what the repair pipelines actually hold. Around every
//! transport call it provides:
//!
//! - **bounded retries** with exponential backoff and *deterministic*
//!   jitter (a hash of the policy seed and a per-instance sleep counter —
//!   no wall clock, no global RNG, so two identical runs back off
//!   identically);
//! - **cancellation-aware sleeps**: every backoff wait goes through
//!   [`CancelToken::sleep`], so a deadline or explicit cancel cuts the wait
//!   short instead of blocking the worker;
//! - **a circuit breaker**, the workspace's one call-count
//!   [`CallBreaker`] (the disk tier and the router's shard links run the
//!   same rule): five consecutive given-up calls trip it, it then sheds
//!   eight calls and lets the ninth through as a probe, a successful probe
//!   closes it, and a failed one restarts the cooldown without a new trip.
//!   [`ResilientLm::degraded`] reads the breaker's sticky "has tripped"
//!   bit.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rand_chacha::ChaCha8Rng;
use specrepair_core::CancelToken;
use specrepair_faults::{mix, CallBreaker, FaultStats};
use specrepair_telemetry::Counter;

use crate::model::{Guidance, SyntheticLm};
use crate::prompt::Prompt;
use crate::transport::{LmTransport, LmTransportError};

/// Retry/backoff policy for [`ResilientLm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries allowed after the first attempt.
    pub max_retries: usize,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub base_backoff: Duration,
    /// Upper bound on a single backoff wait (before jitter).
    pub max_backoff: Duration,
    /// Extra multiplier applied when the error was a rate limit — quota
    /// pressure wants longer waits than a connection blip.
    pub rate_limit_factor: u32,
    /// Seed for the deterministic jitter sequence.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 4,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(200),
            rate_limit_factor: 4,
            jitter_seed: 0x5eed_b0ff,
        }
    }
}

impl RetryPolicy {
    /// A near-zero-latency policy for studies and tests: full retry
    /// semantics, microscopic waits.
    pub fn snappy() -> RetryPolicy {
        RetryPolicy {
            max_retries: 6,
            base_backoff: Duration::from_micros(50),
            max_backoff: Duration::from_micros(400),
            rate_limit_factor: 2,
            jitter_seed: 0x5eed_b0ff,
        }
    }

    /// Sets the retry bound.
    pub fn with_max_retries(mut self, n: usize) -> RetryPolicy {
        self.max_retries = n;
        self
    }

    /// The wait before retry number `attempt` (0-based) of a call that
    /// failed with `err`, jittered deterministically by `sleep_index`.
    fn backoff(&self, attempt: usize, err: &LmTransportError, sleep_index: u64) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << attempt.min(16) as u32)
            .min(self.max_backoff);
        let exp = if matches!(err, LmTransportError::RateLimited) {
            exp.saturating_mul(self.rate_limit_factor.max(1))
        } else {
            exp
        };
        // Deterministic jitter in [50%, 150%): SplitMix64 of (seed, index),
        // whose state at `index` is `seed + index·γ` (`mix` adds one γ).
        let z = mix(self.jitter_seed.wrapping_add(
            sleep_index
                .wrapping_sub(1)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15),
        ));
        let jitter_pct = 50 + (z % 100); // 50..149
        exp.saturating_mul(jitter_pct as u32) / 100
    }
}

/// Consecutive given-up calls that trip the LM breaker open.
const TRIP_AFTER: u32 = 5;
/// While open, every `HALFOPEN_AFTER`-th call probes: eight are shed first.
const HALFOPEN_AFTER: u32 = 9;

/// Monotone counters describing the resilience layer's work, carried as
/// lock-free telemetry [`Counter`] handles so the same cells can be
/// registered in a metric registry. Shared via `Arc` between the layer
/// and whoever reports metrics.
#[derive(Debug, Default)]
pub struct TransportStats {
    /// Retried attempts (each retry counts once).
    pub retries: Counter,
    /// Calls whose retry budget was exhausted.
    pub giveups: Counter,
    /// Times the breaker tripped open from closed (a failed probe only
    /// restarts the cooldown).
    pub breaker_trips: Counter,
    /// Calls rejected by an open breaker.
    pub breaker_rejections: Counter,
    /// Backoff waits cut short by cancellation.
    pub cancelled_backoffs: Counter,
    /// Injected-fault counters (shared with any [`FaultyLm`] decorators).
    ///
    /// [`FaultyLm`]: crate::transport::FaultyLm
    pub faults: Arc<FaultStats>,
}

impl TransportStats {
    /// Fresh zeroed stats.
    pub fn new() -> TransportStats {
        TransportStats::default()
    }
}

/// The resilient LM client the repair pipelines hold: retries, backoff and
/// circuit breaking over an arbitrary transport.
///
/// Cloning shares the transport, breaker and stats — a clone is another
/// handle onto the same resilience state, which is what a technique's
/// `Clone` derive wants.
#[derive(Clone)]
pub struct ResilientLm {
    inner: Arc<dyn LmTransport>,
    policy: RetryPolicy,
    breaker: Arc<CallBreaker>,
    stats: Arc<TransportStats>,
    sleeps: Arc<AtomicU64>,
}

impl std::fmt::Debug for ResilientLm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResilientLm")
            .field("inner", &self.inner)
            .field("policy", &self.policy)
            .field("breaker_open", &self.breaker.is_open())
            .finish()
    }
}

impl Default for ResilientLm {
    fn default() -> Self {
        ResilientLm::synthetic()
    }
}

impl ResilientLm {
    /// The default stack: a perfect in-process [`SyntheticLm`], no faults.
    /// Behaves call-for-call identically to the bare model.
    pub fn synthetic() -> ResilientLm {
        ResilientLm::over(SyntheticLm::default())
    }

    /// Wraps an arbitrary transport with the default policy and breaker.
    pub fn over(transport: impl LmTransport + 'static) -> ResilientLm {
        ResilientLm {
            inner: Arc::new(transport),
            policy: RetryPolicy::default(),
            breaker: Arc::new(CallBreaker::new(TRIP_AFTER, HALFOPEN_AFTER)),
            stats: Arc::new(TransportStats::new()),
            sleeps: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Replaces the retry policy.
    pub fn with_policy(mut self, policy: RetryPolicy) -> ResilientLm {
        self.policy = policy;
        self
    }

    /// Shares an externally owned stats block (e.g. the daemon's).
    pub fn with_stats(mut self, stats: Arc<TransportStats>) -> ResilientLm {
        self.stats = stats;
        self
    }

    /// The stats block, for metrics reporting.
    pub fn stats(&self) -> &Arc<TransportStats> {
        &self.stats
    }

    /// Whether the stack is degraded: the breaker tripped at least once.
    /// Multi-Round uses this to fall back to its no-feedback setting.
    pub fn degraded(&self) -> bool {
        self.breaker.has_tripped()
    }

    /// One logical completion: up to `1 + max_retries` transport attempts
    /// with cancellable exponential backoff between them.
    pub fn propose(
        &self,
        prompt: &Prompt,
        guidance: Option<&Guidance>,
        rng: &mut ChaCha8Rng,
        cancel: &CancelToken,
    ) -> Result<Option<String>, LmTransportError> {
        if !self.breaker.allow() {
            self.stats.breaker_rejections.inc();
            return Err(LmTransportError::CircuitOpen);
        }
        let mut attempt = 0usize;
        loop {
            match self.inner.call(prompt, guidance, rng) {
                Ok(out) => {
                    self.breaker.success();
                    return Ok(out);
                }
                Err(err) => {
                    let out_of_budget = attempt >= self.policy.max_retries || !err.is_retryable();
                    if out_of_budget || cancel.is_cancelled() {
                        if self.breaker.failure() {
                            self.stats.breaker_trips.inc();
                        }
                        self.stats.giveups.inc();
                        return Err(err);
                    }
                    self.stats.retries.inc();
                    let sleep_index = self.sleeps.fetch_add(1, Ordering::Relaxed);
                    let wait = self.policy.backoff(attempt, &err, sleep_index);
                    if !cancel.sleep(wait) {
                        // Deadline fired mid-backoff: give up with the
                        // original error; the caller maps cancellation.
                        self.stats.cancelled_backoffs.inc();
                        self.stats.giveups.inc();
                        return Err(err);
                    }
                    attempt += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::FaultyLm;
    use rand::SeedableRng;
    use specrepair_faults::FaultPlan;

    const FAULTY: &str = "sig N { next: lone N }\n\
        fact Acyclic { some n: N | n in n.^next }\n\
        assert NoSelf { all n: N | n not in n.next }\n\
        check NoSelf for 3 expect 0\n";

    fn prompt() -> Prompt {
        Prompt {
            source: FAULTY.to_string(),
            ..Prompt::default()
        }
    }

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn retries_absorb_transient_faults() {
        // Rate 0.4, retries 6: essentially every logical call succeeds and
        // matches the fault-free stream byte for byte.
        let plan = FaultPlan::new(13, 0.4);
        let resilient = ResilientLm::over(FaultyLm::new(SyntheticLm::default(), plan))
            .with_policy(RetryPolicy::snappy());
        let clean = SyntheticLm::default();
        let cancel = CancelToken::none();
        let mut ra = rng(4);
        let mut rb = rng(4);
        for _ in 0..20 {
            let a = resilient
                .propose(&prompt(), None, &mut ra, &cancel)
                .unwrap();
            let b = clean.propose(&prompt(), None, &mut rb);
            assert_eq!(a, b);
        }
        assert!(
            resilient.stats().retries.get() > 0,
            "rate 0.4 must have forced retries"
        );
        assert_eq!(resilient.stats().giveups.get(), 0);
    }

    #[test]
    fn exhausted_retries_surface_the_error() {
        let plan = FaultPlan::new(1, 1.0); // every attempt faults
        let resilient = ResilientLm::over(FaultyLm::new(SyntheticLm::default(), plan))
            .with_policy(RetryPolicy::snappy().with_max_retries(2));
        let cancel = CancelToken::none();
        let err = resilient
            .propose(&prompt(), None, &mut rng(0), &cancel)
            .unwrap_err();
        assert_ne!(err, LmTransportError::CircuitOpen);
        assert_eq!(resilient.stats().giveups.get(), 1);
        assert_eq!(resilient.stats().retries.get(), 2);
    }

    /// Sheds `n` calls, each with `CircuitOpen`.
    fn assert_shed(resilient: &ResilientLm, r: &mut ChaCha8Rng, n: usize) {
        for _ in 0..n {
            let e = resilient
                .propose(&prompt(), None, r, &CancelToken::none())
                .unwrap_err();
            assert_eq!(e, LmTransportError::CircuitOpen);
        }
    }

    #[test]
    fn breaker_opens_then_recovers_through_half_open() {
        let plan = FaultPlan::new(2, 1.0);
        let resilient = ResilientLm::over(FaultyLm::new(SyntheticLm::default(), plan))
            .with_policy(RetryPolicy::snappy().with_max_retries(0));
        let cancel = CancelToken::none();
        let mut r = rng(0);
        // 5 exhausted calls trip the breaker...
        for _ in 0..5 {
            let e = resilient
                .propose(&prompt(), None, &mut r, &cancel)
                .unwrap_err();
            assert_ne!(e, LmTransportError::CircuitOpen);
        }
        assert!(resilient.degraded());
        assert_eq!(resilient.stats().breaker_trips.get(), 1);
        // ...the next 8 calls are shed...
        assert_shed(&resilient, &mut r, 8);
        assert_eq!(resilient.stats().breaker_rejections.get(), 8);
        // ...and the 9th probes the (still faulty) transport.
        let e = resilient
            .propose(&prompt(), None, &mut r, &cancel)
            .unwrap_err();
        assert_ne!(e, LmTransportError::CircuitOpen);
        // The failed probe restarts the cooldown without a new trip.
        assert_eq!(resilient.stats().breaker_trips.get(), 1);
        assert_shed(&resilient, &mut r, 8);
        assert_eq!(resilient.stats().breaker_rejections.get(), 16);
        assert_eq!(resilient.stats().giveups.get(), 6);
    }

    /// A transport failing its first `failures` calls, then answering like
    /// the bare model.
    #[derive(Debug)]
    struct Recovering {
        failures: u64,
        calls: AtomicU64,
    }

    impl LmTransport for Recovering {
        fn call(
            &self,
            prompt: &Prompt,
            guidance: Option<&Guidance>,
            rng: &mut ChaCha8Rng,
        ) -> Result<Option<String>, LmTransportError> {
            if self.calls.fetch_add(1, Ordering::Relaxed) < self.failures {
                return Err(LmTransportError::Transient);
            }
            SyntheticLm::default().call(prompt, guidance, rng)
        }
    }

    #[test]
    fn breaker_closes_after_successful_probe() {
        let resilient = ResilientLm::over(Recovering {
            failures: 5,
            calls: AtomicU64::new(0),
        })
        .with_policy(RetryPolicy::snappy().with_max_retries(0));
        let cancel = CancelToken::none();
        let mut r = rng(0);
        for _ in 0..5 {
            assert!(resilient.propose(&prompt(), None, &mut r, &cancel).is_err());
        }
        assert_shed(&resilient, &mut r, 8);
        // The 9th call probes the recovered transport and closes the breaker.
        assert!(resilient.propose(&prompt(), None, &mut r, &cancel).is_ok());
        assert!(resilient.propose(&prompt(), None, &mut r, &cancel).is_ok());
        assert_eq!(resilient.stats().breaker_trips.get(), 1);
        assert_eq!(resilient.stats().breaker_rejections.get(), 8);
        assert!(resilient.degraded(), "the trip stays on record");
    }

    #[test]
    fn backoff_grows_and_respects_cap() {
        let p = RetryPolicy {
            max_retries: 8,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(80),
            rate_limit_factor: 4,
            jitter_seed: 1,
        };
        let early = p.backoff(0, &LmTransportError::Transient, 0);
        let late = p.backoff(6, &LmTransportError::Transient, 0);
        // Same jitter index: growth is visible despite jitter.
        assert!(late > early);
        // Cap: 80ms * 150% jitter max = 120ms.
        assert!(late <= Duration::from_millis(120));
        // Rate-limit factor stretches the wait.
        let rl = p.backoff(0, &LmTransportError::RateLimited, 0);
        assert!(rl >= early.saturating_mul(2));
    }

    #[test]
    fn jitter_is_deterministic() {
        let p = RetryPolicy::default();
        for i in 0..10u64 {
            assert_eq!(
                p.backoff(1, &LmTransportError::Transient, i),
                p.backoff(1, &LmTransportError::Transient, i)
            );
        }
        // ...and actually varies across indices.
        let distinct: std::collections::HashSet<_> = (0..10u64)
            .map(|i| p.backoff(1, &LmTransportError::Transient, i))
            .collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn cancelled_backoff_aborts_promptly() {
        let plan = FaultPlan::new(3, 1.0);
        let resilient = ResilientLm::over(FaultyLm::new(SyntheticLm::default(), plan)).with_policy(
            RetryPolicy {
                max_retries: 50,
                base_backoff: Duration::from_millis(50),
                max_backoff: Duration::from_secs(5),
                rate_limit_factor: 1,
                jitter_seed: 0,
            },
        );
        let cancel = CancelToken::with_deadline(Duration::from_millis(20));
        let start = std::time::Instant::now();
        let err = resilient
            .propose(&prompt(), None, &mut rng(0), &cancel)
            .unwrap_err();
        assert!(
            err.is_retryable(),
            "original error surfaces, not CircuitOpen"
        );
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "cancellation must cut the 50-retry backoff chain short"
        );
        assert!(resilient.stats().cancelled_backoffs.get() >= 1);
    }

    #[test]
    fn synthetic_stack_matches_bare_model() {
        let resilient = ResilientLm::synthetic();
        let clean = SyntheticLm::default();
        let cancel = CancelToken::none();
        let mut ra = rng(17);
        let mut rb = rng(17);
        for _ in 0..5 {
            assert_eq!(
                resilient
                    .propose(&prompt(), None, &mut ra, &cancel)
                    .unwrap(),
                clean.propose(&prompt(), None, &mut rb)
            );
        }
    }
}
