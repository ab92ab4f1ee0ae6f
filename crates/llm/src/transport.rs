//! The LM transport abstraction and the fault-injecting decorator.
//!
//! A real deployment talks to a hosted model over a network: calls time
//! out, get rate-limited, fail transiently, or return truncated bodies.
//! [`LmTransport`] makes that failure surface explicit —
//! `Result<Option<String>, LmTransportError>` separates *the model declined
//! to propose* (`Ok(None)`) from *the transport failed* (`Err`) — and
//! [`FaultyLm`] injects exactly reproducible failures from a [`FaultPlan`]
//! schedule so the study can measure resilience without any
//! nondeterminism.
//!
//! # Determinism contract
//!
//! No injected fault may advance the caller's [`ChaCha8Rng`]. Pure
//! transport faults (timeout / rate limit / transient) never reach the
//! inner model at all; a [`Truncated`](LmTransportError::Truncated) fault
//! produces its partial payload on a **clone** of the rng. A retried call
//! therefore replays exactly the completion stream a fault-free run would
//! have seen — which is what makes the resilience proptest's
//! byte-identity invariant (same seed, faults on vs. off) hold.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand_chacha::ChaCha8Rng;
use specrepair_faults::{FaultKind, FaultPlan, FaultStats};

use crate::model::{Guidance, SyntheticLm};
use crate::prompt::Prompt;

/// The ways an LM transport call can fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LmTransportError {
    /// The call exceeded its deadline with no response.
    Timeout,
    /// The endpoint rejected the call for quota reasons.
    RateLimited,
    /// A transient endpoint error (connection reset, 5xx, ...).
    Transient,
    /// The completion arrived cut off mid-body; the partial payload is
    /// attached (it is almost never parseable, which is the point).
    Truncated(String),
    /// The resilience layer refused the call: its circuit breaker is open.
    CircuitOpen,
}

impl LmTransportError {
    /// Stable snake_case label for metrics and logs.
    pub fn label(&self) -> &'static str {
        match self {
            LmTransportError::Timeout => "timeout",
            LmTransportError::RateLimited => "rate_limited",
            LmTransportError::Transient => "transient",
            LmTransportError::Truncated(_) => "truncated",
            LmTransportError::CircuitOpen => "circuit_open",
        }
    }

    /// Whether a retry can plausibly succeed. Breaker rejections are not
    /// retryable at this level — the breaker already decided to shed load.
    pub fn is_retryable(&self) -> bool {
        !matches!(self, LmTransportError::CircuitOpen)
    }
}

impl std::fmt::Display for LmTransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LmTransportError::Truncated(body) => {
                write!(f, "truncated completion ({} bytes)", body.len())
            }
            other => f.write_str(other.label()),
        }
    }
}

impl std::error::Error for LmTransportError {}

/// A transport capable of producing LM completions.
///
/// `Ok(None)` means the model itself had nothing to propose (e.g. the
/// prompt's specification does not parse) — a *model* outcome, not a
/// transport failure. Implementations must be usable from multiple threads
/// (the study runner shards problems across a rayon pool).
pub trait LmTransport: Send + Sync + std::fmt::Debug {
    /// Produces one completion for the prompt.
    fn call(
        &self,
        prompt: &Prompt,
        guidance: Option<&Guidance>,
        rng: &mut ChaCha8Rng,
    ) -> Result<Option<String>, LmTransportError>;
}

impl LmTransport for SyntheticLm {
    /// The in-process model is a perfect network: it never fails.
    fn call(
        &self,
        prompt: &Prompt,
        guidance: Option<&Guidance>,
        rng: &mut ChaCha8Rng,
    ) -> Result<Option<String>, LmTransportError> {
        Ok(self.propose(prompt, guidance, rng))
    }
}

/// A fault-injecting decorator around any transport.
///
/// Each call consumes one index of the shared [`FaultPlan`] schedule (a
/// fresh index per *attempt*, so a retried call re-rolls rather than
/// hitting the same scheduled fault forever). Injected faults are counted
/// in a [`FaultStats`] that outlives the decorator, so a server can report
/// totals across many per-request decorators.
#[derive(Debug)]
pub struct FaultyLm<T> {
    inner: T,
    plan: FaultPlan,
    calls: AtomicU64,
    stats: Arc<FaultStats>,
}

impl<T> FaultyLm<T> {
    /// Wraps `inner` with the given fault schedule.
    pub fn new(inner: T, plan: FaultPlan) -> FaultyLm<T> {
        FaultyLm {
            inner,
            plan,
            calls: AtomicU64::new(0),
            stats: Arc::new(FaultStats::new()),
        }
    }

    /// Shares an externally owned fault counter (e.g. the daemon's
    /// server-wide one).
    pub fn with_stats(mut self, stats: Arc<FaultStats>) -> FaultyLm<T> {
        self.stats = stats;
        self
    }

    /// The injected-fault counters.
    pub fn stats(&self) -> &Arc<FaultStats> {
        &self.stats
    }

    /// How many transport attempts this decorator has seen.
    pub fn calls_made(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

impl<T: LmTransport> LmTransport for FaultyLm<T> {
    fn call(
        &self,
        prompt: &Prompt,
        guidance: Option<&Guidance>,
        rng: &mut ChaCha8Rng,
    ) -> Result<Option<String>, LmTransportError> {
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        let Some(kind) = self.plan.fault_at(call) else {
            return self.inner.call(prompt, guidance, rng);
        };
        self.stats.record(kind);
        Err(match kind {
            FaultKind::Timeout => LmTransportError::Timeout,
            FaultKind::RateLimit => LmTransportError::RateLimited,
            FaultKind::Transient => LmTransportError::Transient,
            FaultKind::Truncated => {
                // Produce the payload on a clone: the caller's rng must not
                // advance, so the retry replays the fault-free stream.
                let mut probe = rng.clone();
                let body = self
                    .inner
                    .call(prompt, guidance, &mut probe)
                    .ok()
                    .flatten()
                    .unwrap_or_default();
                let cut = body.len() / 2;
                // Cut on a char boundary at roughly the halfway point.
                let cut = (0..=cut).rev().find(|i| body.is_char_boundary(*i));
                LmTransportError::Truncated(body[..cut.unwrap_or(0)].to_string())
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

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

    #[test]
    fn synthetic_transport_never_fails() {
        let lm = SyntheticLm::default();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let out = lm.call(&prompt(), None, &mut rng).unwrap();
        assert!(out.is_some());
    }

    #[test]
    fn pure_faults_do_not_advance_the_rng() {
        let plan = FaultPlan::new(7, 1.0); // every call faults
        let faulty = FaultyLm::new(SyntheticLm::default(), plan);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let pristine = rng.clone();
        for _ in 0..8 {
            assert!(faulty.call(&prompt(), None, &mut rng).is_err());
        }
        // Byte-compare the stream positions via the next completion.
        let mut a = rng;
        let mut b = pristine;
        let clean = SyntheticLm::default();
        assert_eq!(
            clean.call(&prompt(), None, &mut a).unwrap(),
            clean.call(&prompt(), None, &mut b).unwrap(),
        );
    }

    #[test]
    fn truncated_fault_attaches_partial_payload() {
        let plan = FaultPlan::new(11, 1.0).with_kinds(&[FaultKind::Truncated]);
        let faulty = FaultyLm::new(SyntheticLm::default(), plan);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let full_len = SyntheticLm::default()
            .call(&prompt(), None, &mut rng.clone())
            .unwrap()
            .unwrap()
            .len();
        match faulty.call(&prompt(), None, &mut rng) {
            Err(LmTransportError::Truncated(body)) => {
                assert!(!body.is_empty());
                assert!(body.len() < full_len, "payload must be cut off");
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn fault_stats_count_injections() {
        let plan = FaultPlan::new(5, 0.5);
        let faulty = FaultyLm::new(SyntheticLm::default(), plan);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut errs = 0u64;
        for _ in 0..50 {
            if faulty.call(&prompt(), None, &mut rng).is_err() {
                errs += 1;
            }
        }
        assert_eq!(faulty.stats().total(), errs);
        assert!(errs > 5, "rate 0.5 over 50 calls injected only {errs}");
        assert_eq!(faulty.calls_made(), 50);
    }

    #[test]
    fn same_plan_same_schedule() {
        let mk = || FaultyLm::new(SyntheticLm::default(), FaultPlan::new(21, 0.3));
        let (a, b) = (mk(), mk());
        for _ in 0..40 {
            let mut ra = ChaCha8Rng::seed_from_u64(2);
            let mut rb = ChaCha8Rng::seed_from_u64(2);
            let x = a.call(&prompt(), None, &mut ra);
            let y = b.call(&prompt(), None, &mut rb);
            assert_eq!(x, y);
        }
    }

    #[test]
    fn error_labels_are_stable() {
        assert_eq!(LmTransportError::Timeout.label(), "timeout");
        assert_eq!(LmTransportError::CircuitOpen.label(), "circuit_open");
        assert!(!LmTransportError::CircuitOpen.is_retryable());
        assert!(LmTransportError::Truncated(String::new()).is_retryable());
    }
}
