//! The repair-side face of the shared oracle service: a cloneable handle
//! every [`RepairContext`](crate::RepairContext) carries, plus metered
//! validation sessions that centralize budget charging.
//!
//! Budget semantics: **one candidate validated = one budget unit**. A
//! [`OracleSession`] is opened per repair attempt; techniques no longer
//! count validations by hand — they ask the session, which charges the
//! unit, refuses once the cap is reached, and otherwise asks the oracle
//! directly. A candidate any technique sharing the handle has already
//! validated — or is validating right now, on another thread — is answered
//! by the oracle's verdict chain (memo, tier, or waiting on the in-flight
//! leader) instead of a fresh solve. The unit is charged either way, so
//! repair outcomes never depend on which layer answered.

use std::sync::Arc;

use mualloy_analyzer::{IncrementalStats, Oracle, OracleCacheStats, VerdictStore};
use mualloy_syntax::{Fingerprint, Spec};

use crate::cancel::CancelToken;

pub use mualloy_analyzer::DedupStats;

/// A cheap, cloneable handle to a shared [`Oracle`] service.
///
/// Cloning the handle shares the underlying memo table; a fresh handle
/// ([`OracleHandle::fresh`]) starts an independent one.
#[derive(Clone, Debug)]
pub struct OracleHandle {
    service: Arc<Oracle>,
}

impl Default for OracleHandle {
    fn default() -> Self {
        OracleHandle::fresh()
    }
}

impl OracleHandle {
    /// A handle to a fresh memoizing oracle.
    pub fn fresh() -> OracleHandle {
        OracleHandle {
            service: Arc::new(Oracle::new()),
        }
    }

    /// A handle to the reference-arm oracle ([`Oracle::disabled`]: no
    /// memo, singleflight, tier or engine) — the control arm of the
    /// cache-on/cache-off equivalence gate.
    pub fn disabled() -> OracleHandle {
        OracleHandle {
            service: Arc::new(Oracle::disabled()),
        }
    }

    /// A handle to a memoizing oracle bounded at `per_shard` spec entries
    /// per shard (see [`Oracle::bounded`]) — the configuration long-running
    /// services use so the memo table cannot leak.
    pub fn bounded(per_shard: usize) -> OracleHandle {
        OracleHandle {
            service: Arc::new(Oracle::bounded(per_shard)),
        }
    }

    /// Attaches a persistent verdict tier to this handle's service
    /// (builder style): probed after an in-memory verdict miss, fed every
    /// freshly computed verdict, so a restarted process boots warm. See
    /// [`mualloy_analyzer::VerdictStore`]. A no-op on a disabled oracle
    /// (the cache-off control arm stays pure pass-through).
    pub fn with_persistent(self, store: Arc<dyn VerdictStore>) -> OracleHandle {
        self.service.attach_persist(store);
        self
    }

    /// The underlying oracle service.
    pub fn service(&self) -> &Oracle {
        &self.service
    }

    /// Snapshot of the service's cache counters.
    pub fn stats(&self) -> OracleCacheStats {
        self.service.stats()
    }

    /// Snapshot of the service's verdict-chain counters.
    pub fn dedup_stats(&self) -> DedupStats {
        self.service.dedup_stats()
    }

    /// Snapshot of the service's incremental-engine counters.
    pub fn incremental_stats(&self) -> IncrementalStats {
        self.service.incremental_stats()
    }

    /// Opens a metered validation session capped at `max_candidates`.
    pub fn session(&self, max_candidates: usize) -> OracleSession<'_> {
        OracleSession {
            oracle: &self.service,
            cap: max_candidates,
            validated: 0,
            cancel: CancelToken::none(),
        }
    }
}

/// Central budget accounting for one repair attempt: every candidate
/// validation is charged here, one unit each.
#[derive(Debug)]
pub struct OracleSession<'a> {
    oracle: &'a Oracle,
    cap: usize,
    validated: usize,
    cancel: CancelToken,
}

impl<'a> OracleSession<'a> {
    /// Wires a cancellation token into the session: once it fires, the
    /// session behaves as exhausted and refuses further validations, which
    /// is how deadline-bound callers (the `specrepaird` service) abort
    /// technique search loops mid-flight.
    pub fn with_cancel(mut self, cancel: CancelToken) -> OracleSession<'a> {
        self.cancel = cancel;
        self
    }

    /// Budget units charged so far (= candidates validated).
    pub fn validated(&self) -> usize {
        self.validated
    }

    /// Whether the session's attempt has been cancelled (deadline or
    /// explicit cancel).
    pub fn cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// Whether the session refuses further validations: budget spent or
    /// attempt cancelled.
    pub fn exhausted(&self) -> bool {
        self.validated >= self.cap || self.cancelled()
    }

    /// Charges one budget unit and answers whether `candidate` satisfies
    /// its own command oracle. Returns `None` — charging nothing and not
    /// solving — once the budget is exhausted or the attempt cancelled.
    ///
    /// A candidate any entrant has already validated (or is validating
    /// right now, on another thread) is answered by the oracle's verdict
    /// chain without a solve of its own. The budget unit is charged either
    /// way.
    ///
    /// An oracle *error* counts the candidate as explored-but-invalid: the
    /// unit is charged, `Some(false)` is returned, and the error is tallied
    /// in the service's [`OracleCacheStats::errors`] counter.
    pub fn validate(&mut self, candidate: &Spec) -> Option<bool> {
        self.validate_with(candidate, None)
    }

    /// [`OracleSession::validate`] with a precomputed canonical
    /// fingerprint (e.g. from an incremental
    /// [`mualloy_syntax::SpecHasher`] rehash), skipping the full hash
    /// walk. The caller guarantees `key` is the candidate's canonical
    /// fingerprint.
    pub fn validate_keyed(&mut self, candidate: &Spec, key: Fingerprint) -> Option<bool> {
        self.validate_with(candidate, Some(key))
    }

    fn validate_with(&mut self, candidate: &Spec, key: Option<Fingerprint>) -> Option<bool> {
        if self.exhausted() {
            return None;
        }
        self.validated += 1;
        let span = specrepair_trace::span(
            "technique.oracle_check",
            specrepair_trace::Phase::Orchestration,
        );
        let key = key.unwrap_or_else(|| Oracle::fingerprint(candidate));
        let verdict = self
            .oracle
            .satisfies_oracle_keyed(candidate, key)
            .unwrap_or(false);
        if span.is_active() {
            span.attr_bool("valid", verdict);
            span.attr_u64("validated", self.validated as u64);
        }
        Some(verdict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mualloy_syntax::parse_spec;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;

    const GOOD: &str = "sig N { next: lone N } \
        fact { no n: N | n in n.^next } \
        assert NoSelf { all n: N | n not in n.next } \
        check NoSelf for 3 expect 0";

    #[test]
    fn session_charges_one_unit_per_validation() {
        let handle = OracleHandle::fresh();
        let spec = parse_spec(GOOD).unwrap();
        let mut session = handle.session(2);
        assert_eq!(session.validate(&spec), Some(true));
        assert_eq!(session.validate(&spec), Some(true));
        assert_eq!(session.validated(), 2);
        assert!(session.exhausted());
        assert_eq!(session.validate(&spec), None, "budget spent: no charge");
        assert_eq!(session.validated(), 2);
    }

    #[test]
    fn sessions_share_the_handle_cache() {
        // The duplicate is answered by the shared memo table: one solve,
        // one hit, counted once in the oracle and once in the chain.
        let handle = OracleHandle::fresh();
        let spec = parse_spec(GOOD).unwrap();
        assert_eq!(handle.session(5).validate(&spec), Some(true));
        assert_eq!(handle.session(5).validate(&spec), Some(true));
        let stats = handle.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.solver_invocations, 1);
        assert_eq!(handle.dedup_stats().hits, 1);
    }

    #[test]
    fn disabled_handle_still_validates() {
        let handle = OracleHandle::disabled();
        let spec = parse_spec(GOOD).unwrap();
        assert_eq!(handle.session(1).validate(&spec), Some(true));
        assert_eq!(handle.stats().hits, 0);
        assert_eq!(handle.dedup_stats(), DedupStats::default());
    }

    #[test]
    fn duplicate_candidates_dedup_across_sessions() {
        let handle = OracleHandle::fresh();
        let spec = parse_spec(GOOD).unwrap();
        assert_eq!(handle.session(5).validate(&spec), Some(true));
        assert_eq!(handle.session(5).validate(&spec), Some(true));
        let stats = handle.dedup_stats();
        assert_eq!(stats.misses, 1, "first validation solves");
        assert_eq!(stats.hits, 1, "second is answered without a solve");
        assert_eq!(stats.dedup_rate(), 0.5);
        assert_eq!(handle.stats().solver_invocations, 1);
    }

    #[test]
    fn dedup_hit_still_charges_the_budget_unit() {
        let handle = OracleHandle::fresh();
        let spec = parse_spec(GOOD).unwrap();
        let mut session = handle.session(2);
        assert_eq!(session.validate(&spec), Some(true));
        assert_eq!(session.validate(&spec), Some(true), "dedup hit");
        assert_eq!(session.validated(), 2, "hit charged its unit");
        assert_eq!(session.validate(&spec), None, "budget spent");
    }

    #[test]
    fn validate_keyed_agrees_with_validate() {
        let handle = OracleHandle::fresh();
        let spec = parse_spec(GOOD).unwrap();
        let key = mualloy_analyzer::Oracle::fingerprint(&spec);
        assert_eq!(handle.session(5).validate_keyed(&spec, key), Some(true));
        assert_eq!(handle.session(5).validate(&spec), Some(true));
        assert_eq!(handle.dedup_stats().hits, 1, "same fingerprint deduped");
    }

    /// A one-shot gate: the first caller of `hold` meets the test at
    /// `wait_until_held`, then stays until the test calls `open`; later
    /// callers pass straight through.
    struct Gate {
        taken: AtomicBool,
        arrive: Barrier,
        release: Barrier,
    }

    impl Default for Gate {
        fn default() -> Gate {
            Gate {
                taken: AtomicBool::new(false),
                arrive: Barrier::new(2),
                release: Barrier::new(2),
            }
        }
    }

    impl Gate {
        fn hold(&self) {
            if !self.taken.swap(true, Ordering::SeqCst) {
                self.arrive.wait();
                self.release.wait();
            }
        }

        fn wait_until_held(&self) {
            self.arrive.wait();
        }

        fn open(&self) {
            self.release.wait();
        }
    }

    /// A verdict tier that knows nothing and holds its first lookup and
    /// its first write-through at gates the test opens.
    #[derive(Default)]
    struct GatedTier {
        lookup: Gate,
        record: Gate,
    }

    impl VerdictStore for GatedTier {
        fn lookup(&self, _key: Fingerprint) -> Option<bool> {
            self.lookup.hold();
            None
        }

        fn record(&self, _key: Fingerprint, _verdict: bool) {
            self.record.hold();
        }
    }

    #[test]
    fn concurrent_duplicates_coalesce_onto_one_solve() {
        let tier = Arc::new(GatedTier::default());
        let handle = OracleHandle::fresh().with_persistent(tier.clone());
        let spec = parse_spec(GOOD).unwrap();
        std::thread::scope(|s| {
            // The waiter misses the memo and is held at the tier …
            let waiter = s.spawn(|| handle.session(1).validate(&spec));
            tier.lookup.wait_until_held();
            // … while the leader solves and is held inside its flight.
            let leader = s.spawn(|| handle.session(1).validate(&spec));
            tier.record.wait_until_held();
            tier.lookup.open();
            // `collapsed` moves once the waiter has found the flight taken.
            while handle.stats().collapsed == 0 {
                std::thread::yield_now();
            }
            tier.record.open();
            assert_eq!(leader.join().unwrap(), Some(true));
            assert_eq!(waiter.join().unwrap(), Some(true));
        });
        assert_eq!(handle.stats().solver_invocations, 1, "one solve for both");
        let stats = handle.dedup_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.coalesced, 1, "the hit waited for the in-flight solve");
    }

    #[test]
    fn bounded_handle_resolves_evicted_candidates() {
        // Nothing outside the capped memo table remembers a candidate: 64
        // distinct validations keep at most one entry per shard, and an
        // evicted candidate solves again, to the same verdict. Validating
        // the specs a second time in order finds the evicted ones by the
        // solver-invocation counter: a kept candidate is a memo hit, an
        // evicted one exactly one more solve.
        let handle = OracleHandle::bounded(1);
        let specs: Vec<Spec> = (0..64)
            .map(|i| {
                parse_spec(&format!(
                    "sig A{i} {{}} pred p {{ some A{i} }} run p for 2 expect 1"
                ))
                .unwrap()
            })
            .collect();
        for spec in &specs {
            assert_eq!(handle.session(1).validate(spec), Some(true));
        }
        assert!(handle.service().memoized_specs() <= 16);
        let mut resolved = 0;
        for spec in &specs {
            let before = handle.stats();
            assert_eq!(handle.session(1).validate(spec), Some(true));
            let after = handle.stats();
            match after.solver_invocations - before.solver_invocations {
                0 => assert_eq!(after.hits, before.hits + 1, "kept: a memo hit"),
                1 => resolved += 1,
                n => panic!("{n} solves for one candidate"),
            }
        }
        assert!(
            resolved > 0,
            "64 specs across 16 single-entry shards must evict"
        );
    }
}
