//! The repair-technique abstraction shared by every tool in the study.

use mualloy_analyzer::Oracle;
use mualloy_syntax::ast::{AssertDecl, Command, CommandKind, Formula};
use mualloy_syntax::walk::strip_formula_spans;
use mualloy_syntax::Spec;
use serde::{Deserialize, Serialize};

use crate::cancel::CancelToken;
use crate::oracle::{OracleHandle, OracleSession};

/// Resource budget for one repair attempt.
///
/// The defaults correspond to the per-technique budgets used in the study
/// harness; benches shrink them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RepairBudget {
    /// Maximum number of candidate specifications a technique may validate.
    pub max_candidates: usize,
    /// Maximum number of refinement rounds (ICEBAR iterations, Multi-Round
    /// LLM rounds).
    pub max_rounds: usize,
}

impl Default for RepairBudget {
    fn default() -> Self {
        RepairBudget {
            max_candidates: 600,
            max_rounds: 6,
        }
    }
}

impl RepairBudget {
    /// A tiny budget for tests and microbenchmarks.
    pub fn tiny() -> RepairBudget {
        RepairBudget {
            max_candidates: 40,
            max_rounds: 2,
        }
    }
}

/// Everything a technique gets to see about a repair problem.
///
/// Crucially this does **not** include the ground truth: techniques validate
/// against the specification's own oracle (commands with `expect`
/// annotations, assertions, tests), exactly like the studied tools.
#[derive(Debug, Clone)]
pub struct RepairContext {
    /// The faulty specification (parsed).
    pub faulty: Spec,
    /// The faulty specification's source text (for minimally-invasive
    /// textual patching and similarity measurement).
    pub source: String,
    /// Resource budget.
    pub budget: RepairBudget,
    /// Handle to the shared memoizing oracle service all validations go
    /// through. Clone one handle across techniques to share its cache.
    pub oracle: OracleHandle,
    /// Cooperative cancellation token (deadline and/or explicit cancel).
    /// Techniques observe it through [`OracleSession`] charging points and
    /// their own loop checks; a fired token makes the attempt unwind with a
    /// partial outcome instead of running its budget dry.
    pub cancel: CancelToken,
}

impl RepairContext {
    /// Builds a context from a parsed spec, rendering canonical source.
    pub fn new(faulty: Spec, budget: RepairBudget) -> RepairContext {
        let source = mualloy_syntax::print_spec(&faulty);
        RepairContext {
            faulty,
            source,
            budget,
            oracle: OracleHandle::fresh(),
            cancel: CancelToken::none(),
        }
    }

    /// Builds a context from source text.
    ///
    /// # Errors
    ///
    /// Fails if the source does not parse.
    pub fn from_source(
        source: &str,
        budget: RepairBudget,
    ) -> Result<RepairContext, mualloy_syntax::SyntaxError> {
        let faulty = mualloy_syntax::parse_spec(source)?;
        Ok(RepairContext::new(faulty, budget).with_source(source))
    }

    /// Overrides the rendered source with the original text (`from_source`
    /// and the study runner keep the user's bytes for similarity metrics).
    pub fn with_source(mut self, source: &str) -> RepairContext {
        self.source = source.to_string();
        self
    }

    /// Replaces the oracle handle (to share one service across contexts).
    pub fn with_oracle(mut self, oracle: OracleHandle) -> RepairContext {
        self.oracle = oracle;
        self
    }

    /// Replaces the cancellation token (to impose a deadline or wire the
    /// attempt into a service-side cancel).
    pub fn with_cancel(mut self, cancel: CancelToken) -> RepairContext {
        self.cancel = cancel;
        self
    }

    /// Whether this attempt has been cancelled (explicitly or by deadline).
    /// Techniques poll this in loops that run between oracle validations.
    pub fn cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// Opens the central budget-charging session for one repair attempt,
    /// capped at the context's candidate budget and wired to its
    /// cancellation token.
    pub fn validation_session(&self) -> OracleSession<'_> {
        self.oracle
            .session(self.budget.max_candidates)
            .with_cancel(self.cancel.clone())
    }

    /// [`repair_is_valid`] against this context's faulty spec and oracle.
    /// Answers `false` without solving once the attempt is cancelled, so
    /// validation-driven loops unwind promptly.
    pub fn repair_is_valid(&self, candidate: &Spec) -> bool {
        !self.cancelled() && repair_is_valid(self.oracle.service(), &self.faulty, candidate)
    }
}

/// Why a repair attempt ended the way it did.
///
/// Table II's accounting (and any triage of a chaos run) needs failure
/// *causes*, not just a boolean: a model that exhausted its proposal budget
/// is a different event from a transport that died under it, and neither is
/// the same as a deadline firing or the technique crashing outright.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OutcomeReason {
    /// The technique's own oracle accepted the final candidate.
    Repaired,
    /// The candidate/round budget ran dry without an accepted candidate.
    BudgetExhausted,
    /// The model declined to propose further candidates (unparsable prompt
    /// or proposal budget spent) — *not* a transport failure.
    ModelExhausted,
    /// The LM transport failed even after retries (circuit open, repeated
    /// timeouts/rate limits) — the attempt is partial, not a model verdict.
    TransportExhausted,
    /// The attempt's deadline or explicit cancel fired mid-search.
    Cancelled,
    /// The technique panicked; the study harness caught it and recorded
    /// this sentinel instead of aborting the run.
    Crashed,
}

impl OutcomeReason {
    /// Stable lower-snake label (journal / metrics key).
    pub fn label(&self) -> &'static str {
        match self {
            OutcomeReason::Repaired => "repaired",
            OutcomeReason::BudgetExhausted => "budget_exhausted",
            OutcomeReason::ModelExhausted => "model_exhausted",
            OutcomeReason::TransportExhausted => "transport_exhausted",
            OutcomeReason::Cancelled => "cancelled",
            OutcomeReason::Crashed => "crashed",
        }
    }
}

/// The result of one repair attempt.
#[derive(Debug, Clone)]
pub struct RepairOutcome {
    /// Name of the technique that produced this outcome.
    pub technique: String,
    /// Whether the technique's own oracle accepted the final candidate.
    pub success: bool,
    /// Why the attempt ended ([`OutcomeReason::Repaired`] iff `success`).
    pub reason: OutcomeReason,
    /// The final candidate specification (present even on failure when the
    /// technique produced *something* — similarity metrics are computed for
    /// unsuccessful candidates too, as in the paper).
    pub candidate: Option<Spec>,
    /// Source text of the final candidate.
    pub candidate_source: Option<String>,
    /// Number of candidates validated against the oracle.
    pub candidates_explored: usize,
    /// Number of refinement rounds used.
    pub rounds: usize,
}

impl RepairOutcome {
    /// A failure outcome with no candidate (reason: budget exhausted; use
    /// [`RepairOutcome::with_reason`] for a more specific cause).
    pub fn failure(technique: impl Into<String>, explored: usize, rounds: usize) -> RepairOutcome {
        RepairOutcome {
            technique: technique.into(),
            success: false,
            reason: OutcomeReason::BudgetExhausted,
            candidate: None,
            candidate_source: None,
            candidates_explored: explored,
            rounds,
        }
    }

    /// A success outcome for the given candidate, rendering its source.
    pub fn success_with(
        technique: impl Into<String>,
        candidate: Spec,
        explored: usize,
        rounds: usize,
    ) -> RepairOutcome {
        let source = mualloy_syntax::print_spec(&candidate);
        RepairOutcome {
            technique: technique.into(),
            success: true,
            reason: OutcomeReason::Repaired,
            candidate: Some(candidate),
            candidate_source: Some(source),
            candidates_explored: explored,
            rounds,
        }
    }

    /// Overrides the outcome reason (builder style).
    pub fn with_reason(mut self, reason: OutcomeReason) -> RepairOutcome {
        self.reason = reason;
        self
    }

    /// The reason a *failed* search loop should report given its context:
    /// [`OutcomeReason::Cancelled`] when the cancel token fired, otherwise
    /// the provided default. Centralises the check every technique's exit
    /// path performs.
    pub fn failure_reason_for(ctx: &RepairContext, default: OutcomeReason) -> OutcomeReason {
        if ctx.cancelled() {
            OutcomeReason::Cancelled
        } else {
            default
        }
    }
}

/// A specification repair technique.
///
/// Implementations must be deterministic given the context (stochastic
/// techniques take a seed at construction).
pub trait RepairTechnique {
    /// Stable display name (used in tables: `ARepair`, `Multi-Round_None`…).
    fn name(&self) -> &str;

    /// Attempts to repair the faulty specification within the budget.
    fn repair(&self, ctx: &RepairContext) -> RepairOutcome;
}

/// Validates a candidate against the specification's own command oracle,
/// through the shared memoizing service.
///
/// Returns `false` for candidates that fail to execute; the failure is
/// tallied in the oracle's error counter rather than silently dropped.
pub fn oracle_accepts(oracle: &Oracle, candidate: &Spec) -> bool {
    oracle.satisfies_oracle(candidate).unwrap_or(false)
}

/// Whether the candidate preserves the *oracle surface* of the original:
/// the same commands (kind, target, scope, expectation) and structurally
/// identical assertion bodies.
///
/// A "repair" that weakens the assertions or drops an `expect` annotation
/// would pass [`oracle_accepts`] vacuously; every pipeline that consumes
/// free-form candidate text (the LLM ones) must reject such candidates.
pub fn preserves_oracle_surface(original: &Spec, candidate: &Spec) -> bool {
    // Equality once every span is synthetic. Only these two fields are
    // stripped: stripping a whole spec clones every declaration in it.
    let (o, c) = (original, candidate);
    o.commands
        .iter()
        .map(command_surface)
        .eq(c.commands.iter().map(command_surface))
        && o.asserts
            .iter()
            .map(assert_surface)
            .eq(c.asserts.iter().map(assert_surface))
}

/// A command without its span.
fn command_surface(c: &Command) -> (&CommandKind, u32, Option<bool>) {
    let Command {
        kind,
        scope,
        expect,
        span: _,
    } = c;
    (kind, *scope, *expect)
}

/// An assertion without its span, its body stripped of spans.
fn assert_surface(a: &AssertDecl) -> (&str, Vec<Formula>) {
    let AssertDecl {
        name,
        body,
        span: _,
    } = a;
    (name, body.iter().map(strip_formula_spans).collect())
}

/// [`oracle_accepts`] plus the [`preserves_oracle_surface`] guard.
pub fn repair_is_valid(oracle: &Oracle, original: &Spec, candidate: &Spec) -> bool {
    preserves_oracle_surface(original, candidate) && oracle_accepts(oracle, candidate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mualloy_syntax::parse_spec;

    const GOOD: &str = "sig N { next: lone N } \
        fact { no n: N | n in n.^next } \
        assert NoSelf { all n: N | n not in n.next } \
        check NoSelf for 3 expect 0";

    #[test]
    fn oracle_accepts_correct_spec() {
        assert!(oracle_accepts(&Oracle::new(), &parse_spec(GOOD).unwrap()));
    }

    #[test]
    fn oracle_rejects_faulty_spec() {
        let bad = GOOD.replace("no n: N | n in n.^next", "some univ || no univ");
        assert!(!oracle_accepts(&Oracle::new(), &parse_spec(&bad).unwrap()));
    }

    #[test]
    fn oracle_surface_ignores_spans_but_not_assertions_or_expectations() {
        let original = parse_spec(GOOD).unwrap();
        let candidate = |src: &str| parse_spec(src).unwrap();
        // Shifted source: every span moves, nothing else does.
        assert!(preserves_oracle_surface(
            &original,
            &candidate(&format!("\n\n   {GOOD}"))
        ));
        let weakened = GOOD.replace("n not in n.next", "n in n.next || n not in n.next");
        assert!(!preserves_oracle_surface(&original, &candidate(&weakened)));
        let unexpected = GOOD.replace(" expect 0", "");
        assert!(!preserves_oracle_surface(
            &original,
            &candidate(&unexpected)
        ));
    }

    #[test]
    fn context_validation_session_is_budget_capped() {
        let ctx = RepairContext::from_source(
            GOOD,
            RepairBudget {
                max_candidates: 1,
                max_rounds: 1,
            },
        )
        .unwrap();
        let mut session = ctx.validation_session();
        assert_eq!(session.validate(&ctx.faulty), Some(true));
        assert_eq!(session.validate(&ctx.faulty), None);
        assert!(ctx.repair_is_valid(&ctx.faulty));
    }

    #[test]
    fn context_from_source_keeps_text() {
        let ctx = RepairContext::from_source(GOOD, RepairBudget::tiny()).unwrap();
        assert_eq!(ctx.source, GOOD);
        assert!(RepairContext::from_source("sig {", RepairBudget::tiny()).is_err());
    }

    #[test]
    fn outcome_constructors() {
        let f = RepairOutcome::failure("X", 5, 1);
        assert!(!f.success);
        assert!(f.candidate.is_none());
        assert_eq!(f.reason, OutcomeReason::BudgetExhausted);
        let f = f.with_reason(OutcomeReason::TransportExhausted);
        assert_eq!(f.reason, OutcomeReason::TransportExhausted);
        let s = RepairOutcome::success_with("X", parse_spec(GOOD).unwrap(), 3, 1);
        assert!(s.success);
        assert_eq!(s.reason, OutcomeReason::Repaired);
        assert!(s.candidate_source.unwrap().contains("sig N"));
    }

    #[test]
    fn failure_reason_tracks_cancellation() {
        let ctx = RepairContext::from_source(GOOD, RepairBudget::tiny()).unwrap();
        assert_eq!(
            RepairOutcome::failure_reason_for(&ctx, OutcomeReason::ModelExhausted),
            OutcomeReason::ModelExhausted
        );
        ctx.cancel.cancel();
        assert_eq!(
            RepairOutcome::failure_reason_for(&ctx, OutcomeReason::ModelExhausted),
            OutcomeReason::Cancelled
        );
    }

    #[test]
    fn reason_labels_are_stable_and_serializable() {
        let labels: Vec<&str> = [
            OutcomeReason::Repaired,
            OutcomeReason::BudgetExhausted,
            OutcomeReason::ModelExhausted,
            OutcomeReason::TransportExhausted,
            OutcomeReason::Cancelled,
            OutcomeReason::Crashed,
        ]
        .iter()
        .map(|r| r.label())
        .collect();
        assert_eq!(labels.len(), 6);
        let json = serde_json::to_string(&OutcomeReason::Crashed).unwrap();
        assert!(json.contains("Crashed"), "{json}");
        let back: OutcomeReason = serde_json::from_str(&json).unwrap();
        assert_eq!(back, OutcomeReason::Crashed);
    }

    #[test]
    fn budget_defaults() {
        let b = RepairBudget::default();
        assert!(b.max_candidates >= RepairBudget::tiny().max_candidates);
    }
}
