//! The incremental oracle engine: persistent solver sessions shared across
//! repair candidates.
//!
//! Repair searches validate hundreds of candidate specifications that are
//! tiny mutations of one faulty spec: they share their signature skeleton
//! (and therefore their universe, relation matrices and declaration
//! constraints) and almost all of their fact bodies. The cold oracle path
//! rebuilds a [`Translator`] and re-encodes everything into an emptied SAT
//! solver per candidate; this engine instead keeps one [`Translator`] plus
//! one [`IncrementalSession`] alive per *(skeleton fingerprint, scope)*
//! pair:
//!
//! - the universe, matrices and declaration constraint are built once from
//!   the first candidate and reused verbatim (candidates share sigs by
//!   construction of the session key);
//! - each candidate's fact bodies and command formula are elaborated
//!   against the *candidate* and compiled into the session's hash-consed
//!   circuit, so unchanged subformulas resolve to already-encoded gates —
//!   only the mutated predicate contributes new clauses;
//! - the per-candidate root is activation-guarded and solved under
//!   assumptions by the session, retaining learnt clauses over the shared
//!   skeleton across candidates (see [`mualloy_sat::incremental`]).
//!
//! The engine only answers the boolean verdict question ("does this
//! candidate satisfy its command oracle?"). Any elaboration or translation
//! trouble makes it return `None`, and the caller falls back to the cold
//! path — so error answers, instances and enumerations are byte-identical
//! with incremental mode on or off.
//!
//! Checking is *partial-repair checking* (BeAFix): every command's root is
//! compiled before anything is solved, so the fallback cases are exactly
//! those above; then the command that last refuted a candidate of the same
//! skeleton is solved first, and the first mismatch answers `false`
//! without solving the rest. Most candidates of a search fail, and where
//! the remembered refuter is not the first annotated command it refutes
//! most of them first (DESIGN.md §13 gives the measured share).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mualloy_relational::{
    assert_body, elaborate_formula, elaborate_spec, pred_as_existential, Translator,
};
use mualloy_sat::{BoolRef, IncrementalSession};
use mualloy_syntax::ast::{Command, CommandKind, Formula, Spec};
use mualloy_syntax::{formula_hash, skeleton_fingerprint, Fingerprint};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// Maximum live sessions; the oldest is evicted FIFO beyond this. Stats are
/// accumulated per check, so eviction loses no counters — only the evicted
/// session's encoded clauses.
const MAX_SESSIONS: usize = 16;

/// A point-in-time snapshot of the engine's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct IncrementalStats {
    /// Persistent sessions created (one per skeleton × scope).
    pub sessions: u64,
    /// Candidate command checks answered incrementally.
    pub checks: u64,
    /// Verdict queries the engine declined (elaboration or translation
    /// trouble), answered by the cold path instead.
    pub fallbacks: u64,
    /// Activation literals allocated (one per incremental check).
    pub activation_vars: u64,
    /// Solver clauses already present at the start of each check, summed
    /// over checks — the work retained from earlier candidates.
    pub clauses_reused: u64,
    /// Solver clauses present after each check's encoding, summed over
    /// checks.
    pub clauses_total: u64,
    /// Learnt clauses carried into each check from earlier ones, summed
    /// over checks.
    pub learned_clauses_retained: u64,
}

impl IncrementalStats {
    /// Fraction of per-check clauses retained from earlier candidates
    /// rather than re-encoded (0.0 before the first check).
    pub fn clause_reuse_rate(&self) -> f64 {
        if self.clauses_total == 0 {
            0.0
        } else {
            self.clauses_reused as f64 / self.clauses_total as f64
        }
    }

    /// Accumulates another snapshot into this one.
    pub fn absorb(&mut self, other: &IncrementalStats) {
        self.sessions += other.sessions;
        self.checks += other.checks;
        self.fallbacks += other.fallbacks;
        self.activation_vars += other.activation_vars;
        self.clauses_reused += other.clauses_reused;
        self.clauses_total += other.clauses_total;
        self.learned_clauses_retained += other.learned_clauses_retained;
    }
}

/// One persistent translation + solver session for a (skeleton, scope)
/// pair.
struct ScopeSession {
    /// Translator built from the first candidate seen with this skeleton;
    /// its universe, matrices and declaration constraint are shared by
    /// every candidate of the session. Its circuit grows monotonically.
    tr: Translator,
    session: IncrementalSession,
    /// Compiled top-level formula roots keyed by structural (span-blind)
    /// formula hash — the delta-re-elaboration cache. Candidates are tiny
    /// mutations, so across a whole search only the mutated bodies (and
    /// each distinct command formula, once) pay the universe-expansion
    /// compile walk; everything unchanged is a map lookup. Sound because
    /// every formula compiled here is closed: its gates depend only on the
    /// session's shared universe and matrices.
    compiled: HashMap<u128, BoolRef>,
}

impl ScopeSession {
    /// Compiles one candidate command root: declaration constraint ∧ the
    /// candidate's fact bodies ∧ the (elaborated) command formula. Returns
    /// `None` on any translation trouble.
    fn compile_root(&mut self, elab: &Spec, command_formula: &Formula) -> Option<BoolRef> {
        let mut parts = vec![self.tr.decl_constraint()];
        for fact in &elab.facts {
            for f in &fact.body {
                parts.push(self.compile_cached(f)?);
            }
        }
        parts.push(self.compile_cached(command_formula)?);
        Some(self.tr.circuit.and_many(parts))
    }

    /// Solves one compiled root under the session's assumptions.
    fn solve(&mut self, root: BoolRef) -> bool {
        self.session.check(&self.tr.circuit, root).is_sat()
    }

    /// Compiles one closed top-level formula, reusing the session's cached
    /// root when a structurally identical formula was compiled before.
    fn compile_cached(&mut self, f: &Formula) -> Option<BoolRef> {
        let key = formula_hash(f);
        if let Some(gate) = self.compiled.get(&key) {
            return Some(*gate);
        }
        let gate = self.tr.compile_formula(f).ok()?;
        self.compiled.insert(key, gate);
        Some(gate)
    }
}

/// The sessions keyed by (skeleton fingerprint, scope), plus FIFO
/// insertion order for eviction.
#[derive(Default)]
struct SessionTable {
    map: HashMap<(Fingerprint, u32), Arc<Mutex<ScopeSession>>>,
    order: VecDeque<(Fingerprint, u32)>,
    /// Per skeleton, the (kind, scope) of the command that last refuted a
    /// candidate. Only kept while a session of the refuting command's
    /// (skeleton, scope) is live, and dropped when any session of the
    /// skeleton is evicted, so it never outgrows the session table.
    refuters: HashMap<Fingerprint, (CommandKind, u32)>,
}

/// The incremental oracle engine: thread-safe, cheap to share, and safe to
/// call from rayon workers (checks on distinct sessions run concurrently).
#[derive(Default)]
pub struct IncrementalEngine {
    sessions: Mutex<SessionTable>,
    sessions_created: AtomicU64,
    checks: AtomicU64,
    fallbacks: AtomicU64,
    activation_vars: AtomicU64,
    clauses_reused: AtomicU64,
    clauses_total: AtomicU64,
    learned_retained: AtomicU64,
}

impl std::fmt::Debug for IncrementalEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IncrementalEngine")
            .field("stats", &self.stats())
            .finish()
    }
}

impl IncrementalEngine {
    /// A fresh engine with no sessions.
    pub fn new() -> IncrementalEngine {
        IncrementalEngine::default()
    }

    /// Snapshot of the engine's counters.
    pub fn stats(&self) -> IncrementalStats {
        IncrementalStats {
            sessions: self.sessions_created.load(Ordering::Relaxed),
            checks: self.checks.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            activation_vars: self.activation_vars.load(Ordering::Relaxed),
            clauses_reused: self.clauses_reused.load(Ordering::Relaxed),
            clauses_total: self.clauses_total.load(Ordering::Relaxed),
            learned_clauses_retained: self.learned_retained.load(Ordering::Relaxed),
        }
    }

    /// Whether every command of `spec` matches its `expect` annotation,
    /// answered through persistent incremental sessions.
    ///
    /// Returns `None` (after counting a fallback) whenever the candidate
    /// cannot be checked incrementally — elaboration failure, unknown
    /// command target, translation error — in which case the caller must
    /// answer via the cold path so error semantics stay identical.
    pub fn satisfies_oracle(&self, spec: &Spec) -> Option<bool> {
        let verdict = self.try_satisfies(spec);
        if verdict.is_none() {
            self.fallbacks.fetch_add(1, Ordering::Relaxed);
        }
        verdict
    }

    fn try_satisfies(&self, spec: &Spec) -> Option<bool> {
        let elab = elaborate_spec(spec).ok()?;
        let skeleton = skeleton_fingerprint(&elab);
        // Compile every command before solving any: a command the cold
        // path would fail on must decline the candidate, not be skipped
        // past because an earlier solve already refuted it.
        let mut roots = Vec::with_capacity(spec.commands.len());
        for cmd in &spec.commands {
            let formula = match &cmd.kind {
                CommandKind::Run(name) => pred_as_existential(spec, name).ok()?,
                CommandKind::Check(name) => Formula::not(assert_body(spec, name).ok()?),
            };
            let f = elaborate_formula(&elab, &formula).ok()?;
            let slot = self.session_for(skeleton, cmd.scope, spec)?;
            let root = slot.lock().compile_root(&elab, &f)?;
            roots.push((cmd, slot, root));
        }
        // The last refuter first, then the rest in spec order; only
        // annotated commands bear on the verdict.
        let first = self.refuter(skeleton).and_then(|(kind, scope)| {
            roots
                .iter()
                .position(|(cmd, ..)| cmd.scope == scope && cmd.kind == kind)
        });
        let order = first
            .into_iter()
            .chain((0..roots.len()).filter(|&i| Some(i) != first));
        for i in order {
            let (cmd, slot, root) = &roots[i];
            let Some(expect) = cmd.expect else {
                continue;
            };
            let mut session = slot.lock();
            let before = *session.session.stats();
            let sat = session.solve(*root);
            self.accumulate(session.session.stats(), &before);
            drop(session);
            if sat != expect {
                self.note_refuter(skeleton, cmd);
                return Some(false);
            }
        }
        Some(true)
    }

    /// The (kind, scope) of the command that last refuted a candidate of
    /// `skeleton`, if one is remembered.
    fn refuter(&self, skeleton: Fingerprint) -> Option<(CommandKind, u32)> {
        self.sessions.lock().refuters.get(&skeleton).cloned()
    }

    /// Remembers `cmd` as the last refuter of `skeleton`, while its
    /// session is still live (an evicted session's skeleton keeps none).
    fn note_refuter(&self, skeleton: Fingerprint, cmd: &Command) {
        let mut table = self.sessions.lock();
        if table.map.contains_key(&(skeleton, cmd.scope)) {
            table
                .refuters
                .insert(skeleton, (cmd.kind.clone(), cmd.scope));
        }
    }

    /// Fetches (or creates) the session for one (skeleton, scope) pair.
    fn session_for(
        &self,
        skeleton: Fingerprint,
        scope: u32,
        spec: &Spec,
    ) -> Option<Arc<Mutex<ScopeSession>>> {
        let key = (skeleton, scope);
        let mut table = self.sessions.lock();
        if let Some(slot) = table.map.get(&key) {
            return Some(Arc::clone(slot));
        }
        let tr = Translator::new(spec, scope).ok()?;
        let slot = Arc::new(Mutex::new(ScopeSession {
            tr,
            session: IncrementalSession::new(),
            compiled: HashMap::new(),
        }));
        table.map.insert(key, Arc::clone(&slot));
        table.order.push_back(key);
        while table.map.len() > MAX_SESSIONS {
            let Some(oldest) = table.order.pop_front() else {
                break;
            };
            table.map.remove(&oldest);
            table.refuters.remove(&oldest.0);
        }
        self.sessions_created.fetch_add(1, Ordering::Relaxed);
        Some(slot)
    }

    /// Folds one check's session-stat delta into the engine counters.
    fn accumulate(&self, after: &mualloy_sat::SessionStats, before: &mualloy_sat::SessionStats) {
        self.checks
            .fetch_add(after.checks - before.checks, Ordering::Relaxed);
        self.activation_vars.fetch_add(
            after.activation_vars - before.activation_vars,
            Ordering::Relaxed,
        );
        self.clauses_reused.fetch_add(
            after.clauses_reused - before.clauses_reused,
            Ordering::Relaxed,
        );
        self.clauses_total.fetch_add(
            after.clauses_total - before.clauses_total,
            Ordering::Relaxed,
        );
        self.learned_retained.fetch_add(
            after.learned_retained - before.learned_retained,
            Ordering::Relaxed,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::Analyzer;
    use mualloy_syntax::parse_spec;

    const GOOD: &str = "sig N { next: lone N } \
        fact Acyclic { no n: N | n in n.^next } \
        pred somePath { some n: N | some n.next } \
        assert NoSelfLoop { all n: N | n not in n.next } \
        run somePath for 3 expect 1 \
        check NoSelfLoop for 3 expect 0";

    #[test]
    fn agrees_with_cold_analyzer_across_candidates() {
        let engine = IncrementalEngine::new();
        // Candidate mutations of the same spec: fixed, broken, and weird.
        let variants = [
            GOOD.to_string(),
            GOOD.replace("no n: N | n in n.^next", "some N || no N"),
            GOOD.replace("all n: N | n not in n.next", "no N"),
            GOOD.replace("some n: N | some n.next", "no next"),
        ];
        for src in &variants {
            let spec = parse_spec(src).unwrap();
            let cold = Analyzer::new(spec.clone()).satisfies_oracle().unwrap();
            assert_eq!(
                engine.satisfies_oracle(&spec),
                Some(cold),
                "incremental and cold verdicts must agree on `{src}`"
            );
        }
        let stats = engine.stats();
        assert_eq!(stats.fallbacks, 0);
        // 4 candidates × 2 commands, all sharing one skeleton at scope 3,
        // less the run the third candidate skips: the check refuted the
        // second candidate, so it is solved first and refutes again.
        assert_eq!(stats.checks, 7);
        assert_eq!(stats.sessions, 1);
        assert!(
            stats.clause_reuse_rate() > 0.0,
            "later candidates must reuse earlier clauses: {stats:?}"
        );
    }

    #[test]
    fn unknown_targets_fall_back() {
        let engine = IncrementalEngine::new();
        let Ok(spec) = parse_spec("sig A {} run ghost for 3 expect 1") else {
            return; // parser rejects unknown targets up front: nothing to do
        };
        assert_eq!(engine.satisfies_oracle(&spec), None);
        assert_eq!(engine.stats().fallbacks, 1);
    }

    /// `spec` with its commands in reverse order.
    fn reversed(spec: &Spec) -> Spec {
        let mut out = spec.clone();
        out.commands.reverse();
        out
    }

    #[test]
    fn partial_checking_agrees_with_full_evaluation_in_both_orders() {
        // Variants refuted by the run, by the check, by both, and by none;
        // one engine sees them all, so the refuter order keeps changing.
        let variants = [
            GOOD.to_string(),
            GOOD.replace("no n: N | n in n.^next", "some N || no N"),
            GOOD.replace("some n: N | some n.next", "no next"),
            GOOD.replace("no n: N | n in n.^next", "some N || no N")
                .replace("some n: N | some n.next", "no next"),
            GOOD.replace("all n: N | n not in n.next", "no N"),
            GOOD.replace("no n: N | n in n.^next", "no next"),
            GOOD.replace("expect 1", "expect 0"),
        ];
        let engine = IncrementalEngine::new();
        for _ in 0..2 {
            for src in &variants {
                let spec = parse_spec(src).unwrap();
                for candidate in [spec.clone(), reversed(&spec)] {
                    let full = Analyzer::new(candidate.clone()).satisfies_oracle().unwrap();
                    assert_eq!(
                        engine.satisfies_oracle(&candidate),
                        Some(full),
                        "partial and full verdicts must agree on `{src}`"
                    );
                }
            }
        }
        assert_eq!(engine.stats().fallbacks, 0);
    }

    #[test]
    fn refuted_candidate_with_an_unanalyzable_later_command_falls_back() {
        let mut spec = parse_spec(GOOD).unwrap();
        // The run is refuted by the first solve; the second command's
        // target does not exist, so the cold path errors on the candidate.
        spec.commands[0].expect = Some(false);
        spec.commands[1].kind = CommandKind::Check("Ghost".to_string());
        assert!(Analyzer::new(spec.clone()).satisfies_oracle().is_err());
        let engine = IncrementalEngine::new();
        assert_eq!(engine.satisfies_oracle(&spec), None);
        let stats = engine.stats();
        assert_eq!(stats.fallbacks, 1);
        assert_eq!(
            stats.checks, 0,
            "nothing is solved before every command compiles"
        );
    }

    #[test]
    fn a_known_refuter_costs_one_check() {
        let engine = IncrementalEngine::new();
        // The run holds and the check is refuted: two checks the first time.
        let first = parse_spec(&GOOD.replace("no n: N | n in n.^next", "some N || no N")).unwrap();
        assert_eq!(engine.satisfies_oracle(&first), Some(false));
        assert_eq!(engine.stats().checks, 2);
        // Another candidate the check refutes: the check is solved first.
        let second = parse_spec(&GOOD.replace("no n: N | n in n.^next", "some next")).unwrap();
        assert!(!Analyzer::new(second.clone()).satisfies_oracle().unwrap());
        assert_eq!(engine.satisfies_oracle(&second), Some(false));
        assert_eq!(engine.stats().checks, 3);
    }

    #[test]
    fn skipped_solves_do_not_change_sessions() {
        let engine = IncrementalEngine::new();
        // Refuted by the scope-2 command: the scope-4 one is compiled in its
        // own session but never solved.
        let spec = parse_spec(
            "sig N { next: lone N } \
             assert NoSelf { all n: N | n not in n.next } \
             check NoSelf for 2 expect 0 \
             check NoSelf for 4 expect 1",
        )
        .unwrap();
        assert_eq!(engine.satisfies_oracle(&spec), Some(false));
        let stats = engine.stats();
        assert_eq!((stats.sessions, stats.checks), (2, 1));
    }

    #[test]
    fn distinct_scopes_get_distinct_sessions() {
        let engine = IncrementalEngine::new();
        let spec = parse_spec(
            "sig N { next: lone N } \
             assert NoSelf { all n: N | n not in n.next } \
             check NoSelf for 2 expect 1 \
             check NoSelf for 4 expect 1",
        )
        .unwrap();
        let cold = Analyzer::new(spec.clone()).satisfies_oracle().unwrap();
        assert_eq!(engine.satisfies_oracle(&spec), Some(cold));
        assert_eq!(engine.stats().sessions, 2);
    }
}
