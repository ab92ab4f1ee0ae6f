//! The shared memoizing oracle service.
//!
//! Every repair technique in the study asks the same questions — "does this
//! candidate satisfy its command oracle?", "which commands fail?", "give me
//! counterexamples" — and candidate populations overlap heavily: mutation
//! engines regenerate the same mutants across techniques and rounds, and
//! ICEBAR/Multi-Round revisit earlier candidates. The [`Oracle`] memoizes
//! every [`Analyzer`] query behind a thread-safe sharded table keyed by the
//! *content fingerprint* of the specification — the 128-bit canonical
//! Merkle hash of [`mualloy_syntax::hash`], which is span-insensitive and
//! agrees with print-equality — (plus the assertion or formula, scope and
//! limit for the enumeration queries), so a question is solved at most once
//! per process. Callers that already know a candidate's fingerprint (e.g.
//! from an incremental [`mualloy_syntax::SpecHasher`] rehash) pass it to
//! [`Oracle::satisfies_oracle_keyed`] and skip the hash walk entirely.
//!
//! Results are cached including errors: an `Err` answer is as deterministic
//! as an `Ok` one. Ground evaluations ([`Oracle::evaluate`]) are pass-through
//! — they never touch the solver and are cheaper than a table probe.
//!
//! # The verdict chain
//!
//! The boolean verdict ([`Oracle::satisfies_oracle`], the question every
//! technique's accept/reject loop asks) takes one path, probed in order:
//!
//! 1. the memo table — a full [`Oracle::execute_all`] answer first (it may
//!    be a cached error), then the verdict-only line;
//! 2. the attached [`VerdictStore`] tier ([`Oracle::attach_persist`]: the
//!    disk log), whose hits are memoized back with zeroed solver counters —
//!    the solve happened in an earlier process;
//! 3. singleflight: concurrent identical queries (daemon workers, portfolio
//!    entrants racing one candidate) wait for one leader and re-probe;
//! 4. the leader solves with the strategy fixed at construction — the
//!    incremental engine ([`Oracle::new`]), or cold [`Analyzer::execute_all`]
//!    ([`Oracle::cold`], and whenever the engine declines) — then memoizes
//!    the verdict and writes it through to the tier.
//!
//! Narrower yes/no questions take the same chain as verdicts on a *probe*:
//! the spec with its commands replaced by the ones asked about (REP, the
//! localizer's relaxation probes, Single-Round's Pass self-check).
//!
//! [`DedupStats`] count the chain once: hits are verdict queries answered
//! without a solve of their own (memo, tier, or waiting on the leader),
//! misses are those that solved, and `coalesced` is the waiting subset.
//!
//! A disabled oracle ([`Oracle::disabled`]) is the one reference arm: no
//! memo, singleflight, tier or engine — every query solves afresh, and the
//! study's correctness gate asserts that it produces byte-identical
//! results.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex};

use mualloy_relational::{elaborate_formula, Evaluator, Instance};
use mualloy_sat::{stats as sat_stats, SolverStats};
use mualloy_syntax::ast::{Formula, Spec};
use mualloy_syntax::{spec_fingerprint, Fingerprint};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use specrepair_trace::{Phase, SpanGuard};

use crate::analyzer::{Analyzer, CommandOutcome};
use crate::error::AnalyzerError;
use crate::incremental::{IncrementalEngine, IncrementalStats};
use crate::persist::VerdictStore;

/// Number of independently-locked shards; a power of two so the fingerprint
/// maps to a shard with a mask.
const SHARDS: usize = 16;

/// A memoized answer together with the SAT solver statistics of the solve
/// that originally computed it, so a cache hit can report the same
/// counters the miss did (the answer *is* that solve's answer).
#[derive(Debug, Clone)]
struct Memo<T> {
    value: T,
    solver: SolverStats,
}

/// A memoized instance enumeration (counterexamples or satisfying
/// instances), as stored in a [`SpecEntry`].
type InstancesMemo = Memo<Result<Vec<Instance>, AnalyzerError>>;

/// Memoized answers for one canonical specification.
#[derive(Debug, Default)]
struct SpecEntry {
    /// Outcome of [`Analyzer::execute_all`] — `satisfies_oracle` and
    /// `failing_commands` are derived views of this single answer.
    execute_all: Option<Memo<Result<Vec<CommandOutcome>, AnalyzerError>>>,
    /// Boolean oracle verdict from the incremental engine or a tier. The
    /// verdict chain probes `execute_all` first, so a full answer is never
    /// shadowed by this line.
    verdict: Option<Memo<bool>>,
    /// Counterexample enumerations keyed by (assertion, scope, limit).
    counterexamples: HashMap<(String, u32, usize), InstancesMemo>,
    /// Instance enumerations keyed by (formula, scope, limit).
    enumerations: HashMap<(Formula, u32, usize), InstancesMemo>,
}

/// Whether every command's outcome matches its `expect` annotation.
fn all_match(outcomes: &[CommandOutcome]) -> bool {
    outcomes.iter().all(CommandOutcome::matches_expectation)
}

/// Tags an `oracle.*` query span with its cache verdict and the solver
/// counters of the (original) solve — identical on hit and miss.
fn tag_query(span: &SpanGuard, hit: bool, solver: &SolverStats) {
    if !span.is_active() {
        return;
    }
    span.attr_bool("hit", hit);
    span.attr_u64("solves", solver.solves);
    span.attr_u64("conflicts", solver.conflicts);
    span.attr_u64("decisions", solver.decisions);
    span.attr_u64("propagations", solver.propagations);
    span.attr_u64("restarts", solver.restarts);
    span.attr_u64("learned_clauses", solver.learned_clauses);
}

/// One independently-locked shard of the memo table: the entries plus the
/// FIFO insertion order used for eviction when a capacity is configured.
#[derive(Debug, Default)]
struct Shard {
    entries: HashMap<Fingerprint, SpecEntry>,
    /// Spec keys in insertion order; oldest specs are evicted first. Only
    /// maintained when the table is bounded.
    order: VecDeque<Fingerprint>,
}

/// A point-in-time snapshot of the oracle's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct OracleCacheStats {
    /// Queries answered from the memo table.
    pub hits: u64,
    /// Queries that had to solve (or re-solve, when disabled).
    pub misses: u64,
    /// Underlying analyzer invocations actually executed.
    pub solver_invocations: u64,
    /// Queries whose answer was an analyzer error (counted once per
    /// *computed* error; cached error replays count as hits).
    pub errors: u64,
    /// Memoized spec entries dropped to honor the per-shard capacity
    /// (always 0 for the default unbounded table).
    pub evictions: u64,
    /// Verdict queries answered by the persistent disk tier (a subset of
    /// `hits`: the solve happened in a previous process life).
    pub persist_hits: u64,
    /// Queries that arrived while an identical solve was already in flight
    /// and blocked on its leader instead of re-solving (singleflight).
    pub collapsed: u64,
}

impl OracleCacheStats {
    /// Fraction of queries answered from the cache (0.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Accumulates another snapshot into this one.
    pub fn absorb(&mut self, other: &OracleCacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.solver_invocations += other.solver_invocations;
        self.errors += other.errors;
        self.evictions += other.evictions;
        self.persist_hits += other.persist_hits;
        self.collapsed += other.collapsed;
    }
}

/// A point-in-time snapshot of the verdict chain's counters — the
/// `candidate_dedup` telemetry section.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DedupStats {
    /// Verdict queries answered without a solve of their own: by the memo,
    /// by the tier, or by waiting on a concurrent leader.
    pub hits: u64,
    /// Verdict queries that solved.
    pub misses: u64,
    /// Hits that waited on a concurrent leader's solve (a subset of
    /// `hits`).
    pub coalesced: u64,
}

impl DedupStats {
    /// Fraction of verdict queries answered without a solve (0.0 when
    /// idle).
    pub fn dedup_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Accumulates another snapshot into this one.
    pub fn absorb(&mut self, other: &DedupStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.coalesced += other.coalesced;
    }
}

/// A query kind discriminant for singleflight keys: `execute_all` and the
/// boolean verdict are distinct solves and must not block one another.
const FLIGHT_EXECUTE_ALL: u8 = 0;
const FLIGHT_VERDICT: u8 = 1;

/// The in-flight solve registry behind singleflight collapsing. `std::sync`
/// because waiting needs a [`Condvar`] (the vendored `parking_lot` has
/// none); poisoning is absorbed — a leader that panicked mid-solve just
/// releases its slot.
#[derive(Default)]
struct Inflight {
    set: StdMutex<HashSet<(u128, u8)>>,
    cond: Condvar,
}

/// RAII leadership of one in-flight solve: dropping (normally or by panic
/// unwind) releases the slot and wakes every waiter.
struct FlightGuard<'a> {
    oracle: &'a Oracle,
    key: (u128, u8),
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        let mut set = self
            .oracle
            .inflight
            .set
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        set.remove(&self.key);
        self.oracle.inflight.cond.notify_all();
    }
}

/// The shared memoizing oracle service. Cheap to share behind an `Arc`;
/// all methods take `&self` and are safe to call from rayon workers.
pub struct Oracle {
    enabled: bool,
    /// Per-shard cap on memoized spec entries; `None` = unbounded (the
    /// default, and what one-shot study runs use). Long-running services
    /// bound the table so it cannot grow without limit.
    shard_capacity: Option<usize>,
    shards: Vec<Mutex<Shard>>,
    /// The verdict solve strategy: the incremental engine, or `None` to
    /// solve cold ([`Oracle::cold`], [`Oracle::disabled`]).
    engine: Option<IncrementalEngine>,
    /// The attached persistent verdict tier, if any (`attach_persist`).
    persist: parking_lot::RwLock<Option<Arc<dyn VerdictStore>>>,
    /// In-flight solve registry for singleflight collapsing.
    inflight: Inflight,
    hits: AtomicU64,
    misses: AtomicU64,
    solver_invocations: AtomicU64,
    errors: AtomicU64,
    evictions: AtomicU64,
    persist_hits: AtomicU64,
    collapsed: AtomicU64,
    dedup_hits: AtomicU64,
    dedup_misses: AtomicU64,
    dedup_coalesced: AtomicU64,
}

impl Default for Oracle {
    fn default() -> Oracle {
        Oracle::new()
    }
}

impl std::fmt::Debug for Oracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("Oracle")
            .field("enabled", &self.enabled)
            .field("stats", &stats)
            .finish()
    }
}

impl Oracle {
    /// A fresh memoizing oracle whose verdicts solve incrementally.
    pub fn new() -> Oracle {
        Oracle::build(true, true)
    }

    /// A memoizing oracle whose verdicts solve cold, through
    /// [`Analyzer::execute_all`]: for helper oracles outside a measured run
    /// (corpus generation), whose solves must not show up as engine
    /// activity, and for tests comparing the two strategies.
    pub fn cold() -> Oracle {
        Oracle::build(true, false)
    }

    /// The reference arm: no memo, singleflight, tier or engine — every
    /// query solves afresh. The cache-on/cache-off equivalence gate
    /// compares every other configuration against it.
    pub fn disabled() -> Oracle {
        Oracle::build(false, false)
    }

    /// A memoizing oracle whose table is bounded at `per_shard` spec
    /// entries per shard (clamped to ≥ 1; total capacity ≈ `16 × per_shard`
    /// specs). When a shard fills up, its oldest entries are evicted FIFO
    /// and counted in [`OracleCacheStats::evictions`]. Use this for
    /// long-running processes (the `specrepaird` daemon) where an unbounded
    /// memo table is a slow leak.
    pub fn bounded(per_shard: usize) -> Oracle {
        let mut oracle = Oracle::new();
        oracle.shard_capacity = Some(per_shard.max(1));
        oracle
    }

    fn build(enabled: bool, incremental: bool) -> Oracle {
        Oracle {
            enabled,
            shard_capacity: None,
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            engine: incremental.then(IncrementalEngine::new),
            persist: parking_lot::RwLock::new(None),
            inflight: Inflight::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            solver_invocations: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            persist_hits: AtomicU64::new(0),
            collapsed: AtomicU64::new(0),
            dedup_hits: AtomicU64::new(0),
            dedup_misses: AtomicU64::new(0),
            dedup_coalesced: AtomicU64::new(0),
        }
    }

    /// Whether memoization is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Snapshot of the incremental engine's counters (all zero when
    /// verdicts solve cold).
    pub fn incremental_stats(&self) -> IncrementalStats {
        self.engine
            .as_ref()
            .map(IncrementalEngine::stats)
            .unwrap_or_default()
    }

    /// The configured per-shard entry cap (`None` = unbounded).
    pub fn shard_capacity(&self) -> Option<usize> {
        self.shard_capacity
    }

    /// Snapshot of the hit/miss/solver counters.
    pub fn stats(&self) -> OracleCacheStats {
        OracleCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            solver_invocations: self.solver_invocations.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            persist_hits: self.persist_hits.load(Ordering::Relaxed),
            collapsed: self.collapsed.load(Ordering::Relaxed),
        }
    }

    /// Snapshot of the verdict chain's hit/miss/coalesced counters.
    pub fn dedup_stats(&self) -> DedupStats {
        DedupStats {
            hits: self.dedup_hits.load(Ordering::Relaxed),
            misses: self.dedup_misses.load(Ordering::Relaxed),
            coalesced: self.dedup_coalesced.load(Ordering::Relaxed),
        }
    }

    /// Attaches a persistent verdict tier: probed after an in-memory
    /// verdict miss, fed every freshly computed verdict. Ignored on a
    /// disabled oracle (the cache-off control arm stays pure pass-through).
    pub fn attach_persist(&self, store: Arc<dyn VerdictStore>) {
        if self.enabled {
            *self.persist.write() = Some(store);
        }
    }

    /// Whether a persistent tier is attached.
    pub fn persist_attached(&self) -> bool {
        self.persist.read().is_some()
    }

    /// Number of spec entries currently memoized across all shards.
    pub fn memoized_specs(&self) -> usize {
        self.shards.iter().map(|s| s.lock().entries.len()).sum()
    }

    /// The canonical cache key of a specification: the 128-bit Merkle
    /// fingerprint of [`mualloy_syntax::hash`], which normalizes spans,
    /// node ids and whitespace provenance (hash-equal ⟺ print-equal).
    pub fn fingerprint(spec: &Spec) -> Fingerprint {
        spec_fingerprint(spec)
    }

    fn shard_of(&self, key: Fingerprint) -> &Mutex<Shard> {
        // The fingerprint is already a strong hash; its low bits pick the
        // shard directly.
        &self.shards[(key.0 as usize) & (SHARDS - 1)]
    }

    /// Stores a computed answer under `key`, evicting the shard's oldest
    /// spec entries when a capacity is configured.
    fn memoize(&self, shard: &Mutex<Shard>, key: Fingerprint, store: impl FnOnce(&mut SpecEntry)) {
        let mut guard = shard.lock();
        if self.shard_capacity.is_some() && !guard.entries.contains_key(&key) {
            guard.order.push_back(key);
        }
        store(guard.entries.entry(key).or_default());
        if let Some(cap) = self.shard_capacity {
            while guard.entries.len() > cap {
                let Some(oldest) = guard.order.pop_front() else {
                    break;
                };
                if guard.entries.remove(&oldest).is_some() {
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    fn record<T>(&self, computed: Result<T, AnalyzerError>) -> Result<T, AnalyzerError> {
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.solver_invocations.fetch_add(1, Ordering::Relaxed);
        if computed.is_err() {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        computed
    }

    fn hit<T>(&self, cached: T) -> T {
        self.hits.fetch_add(1, Ordering::Relaxed);
        cached
    }

    /// Joins the in-flight solve for `(key, kind)`. Returns `Some(guard)`
    /// when this caller is the leader (it must solve and memoize; dropping
    /// the guard wakes the waiters). Returns `None` after having waited for
    /// another leader to finish — the caller re-probes the memo table,
    /// which now holds the leader's answer (or, if the leader's entry was
    /// already evicted, the caller loops and becomes the next leader).
    fn flight_join(&self, key: Fingerprint, kind: u8) -> Option<FlightGuard<'_>> {
        let k = (key.0, kind);
        let mut set = self.inflight.set.lock().unwrap_or_else(|e| e.into_inner());
        if set.insert(k) {
            return Some(FlightGuard {
                oracle: self,
                key: k,
            });
        }
        self.collapsed.fetch_add(1, Ordering::Relaxed);
        while set.contains(&k) {
            set = self
                .inflight
                .cond
                .wait(set)
                .unwrap_or_else(|e| e.into_inner());
        }
        None
    }

    /// The memoized verdict for `key` and the solver counters of the solve
    /// behind it, from process memory only: the full `execute_all` answer
    /// when present (a cached error stays an error), otherwise the
    /// verdict-only line. One shard lock; only a cached error is cloned.
    fn memo_verdict(&self, key: Fingerprint) -> Option<(Result<bool, AnalyzerError>, SolverStats)> {
        self.shard_of(key).lock().entries.get(&key).and_then(|e| {
            if let Some(memo) = &e.execute_all {
                let verdict = match &memo.value {
                    Ok(outcomes) => Ok(all_match(outcomes)),
                    Err(err) => Err(err.clone()),
                };
                return Some((verdict, memo.solver));
            }
            e.verdict.as_ref().map(|memo| (Ok(memo.value), memo.solver))
        })
    }

    /// The lookup half of the verdict chain: the memo, then the attached
    /// tier, whose hit is memoized back. Counts a hit — `waited` marks a
    /// query that waited on a concurrent leader first.
    fn lookup_verdict(
        &self,
        key: Fingerprint,
        waited: bool,
        span: &SpanGuard,
    ) -> Option<Result<bool, AnalyzerError>> {
        let (answer, solver) = match self.memo_verdict(key) {
            Some(found) => found,
            None => {
                let store = self.persist.read().clone()?;
                let verdict = store.lookup(key)?;
                self.memoize_tier_hit(key, verdict);
                self.persist_hits.fetch_add(1, Ordering::Relaxed);
                if span.is_active() {
                    span.attr_bool("persist", true);
                }
                (Ok(verdict), SolverStats::default())
            }
        };
        tag_query(span, true, &solver);
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.dedup_hits.fetch_add(1, Ordering::Relaxed);
        if waited {
            self.dedup_coalesced.fetch_add(1, Ordering::Relaxed);
        }
        Some(answer)
    }

    /// Feeds a freshly computed verdict to the attached tier (no-op when
    /// none is attached; the store absorbs its own I/O trouble).
    fn persist_record(&self, key: Fingerprint, verdict: bool) {
        if let Some(store) = self.persist.read().clone() {
            store.record(key, verdict);
        }
    }

    /// Memoizes a verdict the tier answered, with zeroed solver counters.
    /// An existing memo is never overwritten: verdicts are deterministic,
    /// so a concurrent solve that memoized first stored the same answer.
    fn memoize_tier_hit(&self, key: Fingerprint, verdict: bool) {
        self.memoize(self.shard_of(key), key, |e| {
            if e.verdict.is_none() {
                e.verdict = Some(Memo {
                    value: verdict,
                    solver: SolverStats::default(),
                });
            }
        });
    }

    /// Memoized [`Analyzer::execute_all`]: every command's outcome, in
    /// specification order.
    ///
    /// # Errors
    ///
    /// Fails (and caches the failure) when any command cannot be executed.
    pub fn execute_all(&self, spec: &Spec) -> Result<Vec<CommandOutcome>, AnalyzerError> {
        self.execute_all_with(spec, None)
    }

    fn execute_all_with(
        &self,
        spec: &Spec,
        key: Option<Fingerprint>,
    ) -> Result<Vec<CommandOutcome>, AnalyzerError> {
        let span = specrepair_trace::span("oracle.execute_all", Phase::OracleCache);
        if !self.enabled {
            let (computed, solver) =
                sat_stats::collect(|| Analyzer::new(spec.clone()).execute_all());
            tag_query(&span, false, &solver);
            return self.record(computed);
        }
        let key = key.unwrap_or_else(|| Oracle::fingerprint(spec));
        let shard = self.shard_of(key);
        // Singleflight: probe, and on a miss either become the leader or
        // wait for the current one and re-probe (the leader memoizes both
        // answers and errors, so waiters hit on the second pass).
        let _flight = loop {
            if let Some(cached) = shard
                .lock()
                .entries
                .get(&key)
                .and_then(|e| e.execute_all.clone())
            {
                tag_query(&span, true, &cached.solver);
                return self.hit(cached.value);
            }
            match self.flight_join(key, FLIGHT_EXECUTE_ALL) {
                Some(guard) => break guard,
                None => continue,
            }
        };
        let (computed, solver) = sat_stats::collect(|| Analyzer::new(spec.clone()).execute_all());
        tag_query(&span, false, &solver);
        let computed = self.record(computed);
        self.memoize(shard, key, |e| {
            e.execute_all = Some(Memo {
                value: computed.clone(),
                solver,
            });
        });
        computed
    }

    /// Memoized [`Analyzer::satisfies_oracle`]: whether every command's
    /// outcome matches its `expect` annotation, answered by the verdict
    /// chain (module docs). The incremental engine declines any candidate
    /// it cannot check, and the cold solve then owns the answer, so
    /// verdicts and errors are identical under every strategy.
    ///
    /// # Errors
    ///
    /// Fails when any command cannot be executed.
    pub fn satisfies_oracle(&self, spec: &Spec) -> Result<bool, AnalyzerError> {
        self.satisfies_oracle_with(spec, None)
    }

    /// [`Oracle::satisfies_oracle`] with a precomputed canonical
    /// fingerprint, skipping the hash walk.
    ///
    /// # Errors
    ///
    /// Fails when any command cannot be executed.
    pub fn satisfies_oracle_keyed(
        &self,
        spec: &Spec,
        key: Fingerprint,
    ) -> Result<bool, AnalyzerError> {
        self.satisfies_oracle_with(spec, Some(key))
    }

    fn satisfies_oracle_with(
        &self,
        spec: &Spec,
        key: Option<Fingerprint>,
    ) -> Result<bool, AnalyzerError> {
        if !self.enabled {
            return self
                .execute_all_with(spec, None)
                .map(|outcomes| all_match(&outcomes));
        }
        let span = specrepair_trace::span("oracle.satisfies_oracle", Phase::OracleCache);
        let key = key.unwrap_or_else(|| Oracle::fingerprint(spec));
        // Memo → tier → singleflight: a waiter woken by its leader loops
        // back to the lookup and hits the freshly memoized answer.
        let mut waited = false;
        let _flight = loop {
            if let Some(answer) = self.lookup_verdict(key, waited, &span) {
                return answer;
            }
            match self.flight_join(key, FLIGHT_VERDICT) {
                Some(guard) => break guard,
                None => waited = true,
            }
        };
        // The leader solves, memoizes, and writes the verdict through.
        self.dedup_misses.fetch_add(1, Ordering::Relaxed);
        let incremental = self
            .engine
            .as_ref()
            .map(|engine| sat_stats::collect(|| engine.satisfies_oracle(spec)));
        let verdict = if let Some((Some(verdict), solver)) = incremental {
            tag_query(&span, false, &solver);
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.solver_invocations.fetch_add(1, Ordering::Relaxed);
            self.memoize(self.shard_of(key), key, |e| {
                e.verdict = Some(Memo {
                    value: verdict,
                    solver,
                });
            });
            verdict
        } else {
            // Cold, or the engine declined: the memoized full answer owns
            // the verdict (and its errors, counters and spans).
            all_match(&self.execute_all_with(spec, Some(key))?)
        };
        self.persist_record(key, verdict);
        Ok(verdict)
    }

    /// Memoized [`Analyzer::failing_commands`]: the commands whose outcomes
    /// contradict their annotations. Derived from [`Oracle::execute_all`].
    ///
    /// # Errors
    ///
    /// Fails when any command cannot be executed.
    pub fn failing_commands(&self, spec: &Spec) -> Result<Vec<CommandOutcome>, AnalyzerError> {
        Ok(self
            .execute_all(spec)?
            .into_iter()
            .filter(|o| !o.matches_expectation())
            .collect())
    }

    /// Memoized [`Analyzer::counterexamples`]: up to `limit` distinct
    /// counterexamples to the named assertion.
    ///
    /// # Errors
    ///
    /// Fails when the assertion is unknown or translation fails.
    pub fn counterexamples(
        &self,
        spec: &Spec,
        name: &str,
        scope: u32,
        limit: usize,
    ) -> Result<Vec<Instance>, AnalyzerError> {
        let span = specrepair_trace::span("oracle.counterexamples", Phase::OracleCache);
        if !self.enabled {
            let (computed, solver) = sat_stats::collect(|| {
                Analyzer::new(spec.clone()).counterexamples(name, scope, limit)
            });
            tag_query(&span, false, &solver);
            return self.record(computed);
        }
        let key = Oracle::fingerprint(spec);
        let subkey = (name.to_string(), scope, limit);
        let shard = self.shard_of(key);
        if let Some(cached) = shard
            .lock()
            .entries
            .get(&key)
            .and_then(|e| e.counterexamples.get(&subkey).cloned())
        {
            tag_query(&span, true, &cached.solver);
            return self.hit(cached.value);
        }
        let (computed, solver) =
            sat_stats::collect(|| Analyzer::new(spec.clone()).counterexamples(name, scope, limit));
        tag_query(&span, false, &solver);
        let computed = self.record(computed);
        self.memoize(shard, key, |e| {
            e.counterexamples.insert(
                subkey,
                Memo {
                    value: computed.clone(),
                    solver,
                },
            );
        });
        computed
    }

    /// Memoized [`Analyzer::enumerate`]: up to `limit` distinct instances
    /// of `facts && declarations && formula` at the given scope.
    ///
    /// # Errors
    ///
    /// Fails on elaboration or translation errors.
    pub fn enumerate(
        &self,
        spec: &Spec,
        formula: &Formula,
        scope: u32,
        limit: usize,
    ) -> Result<Vec<Instance>, AnalyzerError> {
        let span = specrepair_trace::span("oracle.enumerate", Phase::OracleCache);
        if !self.enabled {
            let (computed, solver) =
                sat_stats::collect(|| Analyzer::new(spec.clone()).enumerate(formula, scope, limit));
            tag_query(&span, false, &solver);
            return self.record(computed);
        }
        let key = Oracle::fingerprint(spec);
        let subkey = (formula.clone(), scope, limit);
        let shard = self.shard_of(key);
        if let Some(cached) = shard
            .lock()
            .entries
            .get(&key)
            .and_then(|e| e.enumerations.get(&subkey).cloned())
        {
            tag_query(&span, true, &cached.solver);
            return self.hit(cached.value);
        }
        let (computed, solver) =
            sat_stats::collect(|| Analyzer::new(spec.clone()).enumerate(formula, scope, limit));
        tag_query(&span, false, &solver);
        let computed = self.record(computed);
        self.memoize(shard, key, |e| {
            e.enumerations.insert(
                subkey,
                Memo {
                    value: computed.clone(),
                    solver,
                },
            );
        });
        computed
    }

    /// Ground evaluation of a formula against a concrete instance —
    /// pass-through (no solving happens, so nothing is worth caching), and
    /// elaborated against the borrowed spec as [`Analyzer::evaluate`] does.
    ///
    /// # Errors
    ///
    /// Fails on elaboration or evaluation errors.
    pub fn evaluate(
        &self,
        spec: &Spec,
        instance: &Instance,
        formula: &Formula,
    ) -> Result<bool, AnalyzerError> {
        let f = elaborate_formula(spec, formula)?;
        Ok(Evaluator::new(instance).formula(&f)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mualloy_syntax::{parse_spec, print_spec};

    const GOOD: &str = "sig N { next: lone N } \
        fact Acyclic { no n: N | n in n.^next } \
        pred somePath { some n: N | some n.next } \
        assert NoSelfLoop { all n: N | n not in n.next } \
        run somePath for 3 expect 1 \
        check NoSelfLoop for 3 expect 0";

    const BAD: &str = "sig N { next: lone N } \
        fact Broken { some N || no N } \
        assert NoSelf { all n: N | n not in n.next } \
        check NoSelf for 3 expect 0";

    #[test]
    fn agrees_with_fresh_analyzer() {
        let oracle = Oracle::new();
        for src in [GOOD, BAD] {
            let spec = parse_spec(src).unwrap();
            assert_eq!(
                oracle.satisfies_oracle(&spec).unwrap(),
                Analyzer::new(spec.clone()).satisfies_oracle().unwrap()
            );
            assert_eq!(
                oracle.failing_commands(&spec).unwrap(),
                Analyzer::new(spec.clone()).failing_commands().unwrap()
            );
        }
    }

    #[test]
    fn incremental_and_cold_verdicts_agree() {
        for src in [GOOD, BAD] {
            let spec = parse_spec(src).unwrap();
            let incremental = Oracle::new();
            let cold = Oracle::cold();
            assert_eq!(
                incremental.satisfies_oracle(&spec).unwrap(),
                cold.satisfies_oracle(&spec).unwrap()
            );
            assert!(incremental.incremental_stats().checks > 0);
            assert_eq!(cold.incremental_stats().checks, 0);
        }
    }

    #[test]
    fn second_query_is_a_hit() {
        let oracle = Oracle::new();
        let spec = parse_spec(GOOD).unwrap();
        assert!(oracle.satisfies_oracle(&spec).unwrap());
        let before = oracle.stats();
        assert_eq!(before.hits, 0);
        assert_eq!(before.misses, 1);
        assert!(oracle.satisfies_oracle(&spec).unwrap());
        let after = oracle.stats();
        assert_eq!(after.hits, 1);
        assert_eq!(after.misses, 1);
        assert_eq!(after.solver_invocations, 1);
        let dedup = oracle.dedup_stats();
        assert_eq!(
            (dedup.hits, dedup.misses),
            (1, 1),
            "counted once, in the chain"
        );
    }

    #[test]
    fn fingerprint_normalizes_spans() {
        // Same text parsed twice (and re-printed) fingerprints identically.
        let a = parse_spec(GOOD).unwrap();
        let b = parse_spec(&print_spec(&a)).unwrap();
        assert_eq!(Oracle::fingerprint(&a), Oracle::fingerprint(&b));
        let oracle = Oracle::new();
        oracle.satisfies_oracle(&a).unwrap();
        oracle.satisfies_oracle(&b).unwrap();
        assert_eq!(oracle.stats().hits, 1);
    }

    #[test]
    fn disabled_oracle_never_hits_but_still_answers() {
        let oracle = Oracle::disabled();
        let spec = parse_spec(BAD).unwrap();
        assert!(!oracle.satisfies_oracle(&spec).unwrap());
        assert!(!oracle.satisfies_oracle(&spec).unwrap());
        let stats = oracle.stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.solver_invocations, 2);
        // The reference arm bypasses the verdict chain and the engine.
        assert_eq!(oracle.dedup_stats(), DedupStats::default());
        assert_eq!(oracle.incremental_stats().checks, 0);
    }

    #[test]
    fn errors_are_counted_and_cached() {
        // An unknown run target errors; the error answer is memoized.
        let spec = parse_spec("sig A {} run ghost for 3 expect 1");
        let Ok(spec) = spec else {
            return; // parser rejects unknown targets up front: nothing to do
        };
        let oracle = Oracle::new();
        assert!(oracle.satisfies_oracle(&spec).is_err());
        assert!(oracle.satisfies_oracle(&spec).is_err());
        let stats = oracle.stats();
        assert_eq!(stats.errors, 1, "computed once");
        assert_eq!(stats.hits, 1, "replayed from cache once");
    }

    #[test]
    fn per_command_queries_are_cached() {
        let spec = parse_spec(GOOD).unwrap();
        let oracle = Oracle::new();
        let c1 = oracle.counterexamples(&spec, "NoSelfLoop", 3, 2).unwrap();
        let c2 = oracle.counterexamples(&spec, "NoSelfLoop", 3, 2).unwrap();
        assert_eq!(c1, c2);
        let e1 = oracle.enumerate(&spec, &Formula::truth(), 3, 2).unwrap();
        let e2 = oracle.enumerate(&spec, &Formula::truth(), 3, 2).unwrap();
        assert_eq!(e1, e2);
        assert_eq!(oracle.stats().hits, 2);
    }

    #[test]
    fn stats_absorb_and_hit_rate() {
        let mut total = OracleCacheStats::default();
        assert_eq!(total.hit_rate(), 0.0);
        total.absorb(&OracleCacheStats {
            hits: 3,
            misses: 1,
            solver_invocations: 1,
            errors: 0,
            evictions: 0,
            persist_hits: 2,
            collapsed: 0,
        });
        total.absorb(&OracleCacheStats {
            hits: 1,
            misses: 3,
            solver_invocations: 3,
            errors: 1,
            evictions: 2,
            persist_hits: 0,
            collapsed: 5,
        });
        assert_eq!(total.hits, 4);
        assert_eq!(total.misses, 4);
        assert_eq!(total.hit_rate(), 0.5);
        assert_eq!(total.errors, 1);
        assert_eq!(total.evictions, 2);
        assert_eq!(total.persist_hits, 2);
        assert_eq!(total.collapsed, 5);
    }

    #[test]
    fn dedup_stats_absorb_and_rate() {
        let mut total = DedupStats::default();
        assert_eq!(total.dedup_rate(), 0.0);
        total.absorb(&DedupStats {
            hits: 3,
            misses: 1,
            coalesced: 1,
        });
        total.absorb(&DedupStats {
            hits: 1,
            misses: 3,
            coalesced: 0,
        });
        assert_eq!(total.hits, 4);
        assert_eq!(total.misses, 4);
        assert_eq!(total.coalesced, 1);
        assert_eq!(total.dedup_rate(), 0.5);
    }

    /// A toy in-memory [`VerdictStore`] for unit tests.
    #[derive(Default)]
    struct MapStore {
        map: Mutex<HashMap<Fingerprint, bool>>,
        lookups: AtomicU64,
        records: AtomicU64,
    }

    impl VerdictStore for MapStore {
        fn lookup(&self, key: Fingerprint) -> Option<bool> {
            self.lookups.fetch_add(1, Ordering::Relaxed);
            self.map.lock().get(&key).copied()
        }

        fn record(&self, key: Fingerprint, verdict: bool) {
            self.records.fetch_add(1, Ordering::Relaxed);
            self.map.lock().insert(key, verdict);
        }
    }

    #[test]
    fn persist_tier_serves_a_warm_boot() {
        let store = Arc::new(MapStore::default());
        // First process life: solve, which feeds the store.
        let first = Oracle::new();
        first.attach_persist(store.clone());
        let spec = parse_spec(GOOD).unwrap();
        assert!(first.satisfies_oracle(&spec).unwrap());
        assert_eq!(store.records.load(Ordering::Relaxed), 1);
        assert_eq!(first.stats().persist_hits, 0, "a fresh solve is no hit");
        // Second process life: empty memo, warm store.
        let second = Oracle::new();
        second.attach_persist(store.clone());
        assert!(second.satisfies_oracle(&spec).unwrap());
        let stats = second.stats();
        assert_eq!(stats.persist_hits, 1);
        assert_eq!(stats.hits, 1, "persist hits count as cache hits");
        assert_eq!(stats.solver_invocations, 0, "no solve on a warm boot");
        // The warm verdict was memoized: the next query never touches disk.
        let lookups = store.lookups.load(Ordering::Relaxed);
        assert!(second.satisfies_oracle(&spec).unwrap());
        assert_eq!(store.lookups.load(Ordering::Relaxed), lookups);
        assert_eq!(second.stats().hits, 2);
        // Both answers came without a solve of this process's own.
        let dedup = second.dedup_stats();
        assert_eq!((dedup.hits, dedup.misses, dedup.coalesced), (2, 0, 0));
    }

    #[test]
    fn persist_tier_ignored_on_disabled_oracle() {
        let store = Arc::new(MapStore::default());
        store.record(Oracle::fingerprint(&parse_spec(GOOD).unwrap()), true);
        let oracle = Oracle::disabled();
        oracle.attach_persist(store.clone());
        assert!(!oracle.persist_attached());
        let spec = parse_spec(GOOD).unwrap();
        assert!(oracle.satisfies_oracle(&spec).unwrap());
        assert_eq!(oracle.stats().persist_hits, 0);
        assert_eq!(oracle.stats().solver_invocations, 1, "solved afresh");
    }

    #[test]
    fn persist_tier_serves_the_cold_path_too() {
        let store = Arc::new(MapStore::default());
        let first = Oracle::cold();
        first.attach_persist(store.clone());
        let spec = parse_spec(GOOD).unwrap();
        assert!(first.satisfies_oracle(&spec).unwrap());
        assert_eq!(store.records.load(Ordering::Relaxed), 1);
        let second = Oracle::cold();
        second.attach_persist(store);
        assert!(second.satisfies_oracle(&spec).unwrap());
        let stats = second.stats();
        assert_eq!(stats.persist_hits, 1);
        assert_eq!(stats.solver_invocations, 0);
    }

    #[test]
    fn singleflight_collapses_concurrent_identical_solves() {
        use std::sync::Barrier;
        const THREADS: usize = 8;
        let oracle = Arc::new(Oracle::new());
        let spec = Arc::new(parse_spec(GOOD).unwrap());
        let barrier = Arc::new(Barrier::new(THREADS));
        let verdicts: Vec<bool> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let oracle = oracle.clone();
                    let spec = spec.clone();
                    let barrier = barrier.clone();
                    s.spawn(move || {
                        barrier.wait();
                        oracle.satisfies_oracle(&spec).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(verdicts.iter().all(|&v| v), "identical verdicts");
        let stats = oracle.stats();
        assert_eq!(
            stats.solver_invocations, 1,
            "exactly one solve for {THREADS} concurrent identical queries"
        );
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits as usize, THREADS - 1, "everyone else hit");
        assert!(
            (stats.collapsed as usize) < THREADS,
            "collapsed bounded by the waiter count"
        );
    }

    #[test]
    fn dropped_inflight_guard_releases_the_slot() {
        // A leader that unwinds without memoizing drops its flight guard:
        // the waiting query finds no answer, leads, and solves itself.
        let oracle = Oracle::new();
        let spec = parse_spec(GOOD).unwrap();
        let leader = oracle
            .flight_join(Oracle::fingerprint(&spec), FLIGHT_VERDICT)
            .expect("the first query in leads");
        std::thread::scope(|s| {
            let waiter = s.spawn(|| oracle.satisfies_oracle(&spec).unwrap());
            // `collapsed` moves once the waiter has found the flight taken.
            while oracle.stats().collapsed == 0 {
                std::thread::yield_now();
            }
            drop(leader);
            assert!(waiter.join().unwrap());
        });
        assert_eq!(oracle.stats().solver_invocations, 1, "the waiter solved");
        let dedup = oracle.dedup_stats();
        assert_eq!((dedup.hits, dedup.misses, dedup.coalesced), (0, 1, 0));
    }

    #[test]
    fn unbounded_oracle_never_evicts() {
        let oracle = Oracle::new();
        assert_eq!(oracle.shard_capacity(), None);
        for src in [GOOD, BAD] {
            oracle.satisfies_oracle(&parse_spec(src).unwrap()).unwrap();
        }
        assert_eq!(oracle.stats().evictions, 0);
        assert_eq!(oracle.memoized_specs(), 2);
    }

    #[test]
    fn bounded_oracle_evicts_oldest_and_counts() {
        // Cap of 1 entry per shard: distinct specs hashing into the same
        // shard displace one another.
        let oracle = Oracle::bounded(1);
        assert_eq!(oracle.shard_capacity(), Some(1));
        // Generate enough distinct specs that at least two land in the same
        // shard (17 specs across 16 shards pigeonhole at least one pair).
        let specs: Vec<Spec> = (0..17)
            .map(|i| {
                parse_spec(&format!(
                    "sig A{i} {{}} pred p {{ some A{i} }} run p for 2 expect 1"
                ))
                .unwrap()
            })
            .collect();
        for spec in &specs {
            oracle.satisfies_oracle(spec).unwrap();
        }
        let stats = oracle.stats();
        assert!(
            stats.evictions > 0,
            "17 specs across 16 single-entry shards must evict"
        );
        assert!(oracle.memoized_specs() <= 16);
        // Evicted answers are recomputed, not wrong: re-asking stays correct.
        for spec in &specs {
            assert!(oracle.satisfies_oracle(spec).unwrap());
        }
    }

    #[test]
    fn cache_hit_span_replays_the_original_solver_stats() {
        // Process-global tracing: serialize against any other test that
        // toggles the collector, and filter drained spans by a cell id
        // nothing else uses.
        static TRACE_LOCK: Mutex<()> = Mutex::new(());
        let _guard = TRACE_LOCK.lock();
        const CELL: u64 = 0x5EED_CAFE_0001;

        let oracle = Oracle::new();
        let spec = parse_spec(GOOD).unwrap();
        specrepair_trace::set_enabled(true);
        {
            let _scope = specrepair_trace::cell_scope(CELL, 0, None);
            assert!(oracle.satisfies_oracle(&spec).unwrap());
            assert!(oracle.satisfies_oracle(&spec).unwrap());
        }
        specrepair_trace::set_enabled(false);
        let spans: Vec<_> = specrepair_trace::take_spans()
            .into_iter()
            .filter(|s| s.cell == CELL && s.name == "oracle.satisfies_oracle")
            .collect();
        assert_eq!(spans.len(), 2, "one miss, one hit");

        let hit_flag = |s: &specrepair_trace::SpanRecord| match s
            .attrs
            .iter()
            .find(|(k, _)| *k == "hit")
            .map(|(_, v)| v)
        {
            Some(specrepair_trace::AttrValue::Bool(b)) => *b,
            other => panic!("missing hit attr: {other:?}"),
        };
        let counter = |s: &specrepair_trace::SpanRecord, key: &str| match s
            .attrs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
        {
            Some(specrepair_trace::AttrValue::U64(n)) => *n,
            other => panic!("missing {key} attr: {other:?}"),
        };
        let miss = spans.iter().find(|s| !hit_flag(s)).expect("miss span");
        let hit = spans.iter().find(|s| hit_flag(s)).expect("hit span");
        assert!(counter(miss, "solves") >= 1, "the miss actually solved");
        for key in [
            "solves",
            "conflicts",
            "decisions",
            "propagations",
            "restarts",
            "learned_clauses",
        ] {
            assert_eq!(
                counter(hit, key),
                counter(miss, key),
                "hit must replay the original solve's {key}"
            );
        }
    }

    #[test]
    fn bounded_capacity_is_clamped_to_one() {
        let oracle = Oracle::bounded(0);
        assert_eq!(oracle.shard_capacity(), Some(1));
        let spec = parse_spec(GOOD).unwrap();
        oracle.satisfies_oracle(&spec).unwrap();
        // The single entry stays cached: the second query is a hit.
        oracle.satisfies_oracle(&spec).unwrap();
        assert_eq!(oracle.stats().hits, 1);
    }
}
