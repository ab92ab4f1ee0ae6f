//! The μAlloy analyzer: bounded execution of `run` and `check` commands.
//!
//! Plays the role of the Alloy Analyzer in the study: every repair oracle
//! (assertion validity, predicate satisfiability, counterexample generation,
//! instance enumeration) goes through this type.

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;

use mualloy_relational::{
    assert_body, elaborate_formula, pred_as_existential, Evaluator, Instance, Translator,
};
use mualloy_sat::{SolveResult, Solver};
use mualloy_syntax::ast::*;
use parking_lot::Mutex;

use crate::error::AnalyzerError;

/// The outcome of executing one command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommandOutcome {
    /// The executed command.
    pub command: Command,
    /// Whether the solved formula was satisfiable. For `run` this means an
    /// instance exists; for `check` it means a **counterexample** exists
    /// (the assertion does not hold in scope).
    pub sat: bool,
    /// The witness: an instance for `run`, a counterexample for `check`.
    pub instance: Option<Instance>,
}

impl CommandOutcome {
    /// Whether the outcome matches the command's `expect` annotation (true
    /// when no annotation is present).
    pub fn matches_expectation(&self) -> bool {
        self.command.expect.is_none_or(|e| e == self.sat)
    }
}

thread_local! {
    /// The solver every cold command on this thread encodes into, kept
    /// between commands so that its clause arena, watch lists and
    /// per-variable vectors are allocated once per thread rather than once
    /// per command.
    static SCRATCH_SOLVER: Cell<Option<Solver>> = const { Cell::new(None) };
}

/// Bounded analyzer over a parsed specification.
///
/// The commands an analyzer runs at one scope share one base translation
/// (universe, relation matrices, declarations and facts), built by the
/// first of them. Each command compiles its formula on top of the base and
/// truncates the circuit back afterwards, so every outcome is the one a
/// fresh translation would give.
///
/// # Example
///
/// ```
/// use mualloy_analyzer::Analyzer;
/// use mualloy_syntax::parse_spec;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let spec = parse_spec(
///     "sig N { next: lone N } \
///      fact { no n: N | n in n.^next } \
///      assert NoSelf { all n: N | n != n.next } \
///      check NoSelf for 3 expect 0",
/// )?;
/// let analyzer = Analyzer::new(spec);
/// let outcomes = analyzer.execute_all()?;
/// assert!(outcomes[0].matches_expectation()); // acyclicity implies no self-loop
/// # Ok(())
/// # }
/// ```
pub struct Analyzer {
    spec: Spec,
    /// Base translations (declarations and facts) by scope, each built by
    /// the first command at its scope and reused by the later ones.
    bases: Mutex<HashMap<u32, Translator>>,
}

impl Clone for Analyzer {
    /// A clone copies the specification but starts with no translations.
    fn clone(&self) -> Analyzer {
        Analyzer::new(self.spec.clone())
    }
}

impl fmt::Debug for Analyzer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Analyzer")
            .field("spec", &self.spec)
            .finish()
    }
}

impl Analyzer {
    /// Creates an analyzer for the given specification.
    pub fn new(spec: Spec) -> Analyzer {
        Analyzer {
            spec,
            bases: Mutex::new(HashMap::new()),
        }
    }

    /// Parses source text and creates an analyzer.
    ///
    /// # Errors
    ///
    /// Fails on syntax or static-check errors.
    pub fn from_source(source: &str) -> Result<Analyzer, AnalyzerError> {
        let spec = mualloy_syntax::parse_spec(source)?;
        mualloy_syntax::ensure_well_formed(&spec)?;
        Ok(Analyzer::new(spec))
    }

    /// The underlying specification.
    pub fn spec(&self) -> &Spec {
        &self.spec
    }

    /// Solves `facts && declarations && formula` at the given scope.
    ///
    /// Returns a satisfying instance, or `None` when unsatisfiable.
    ///
    /// # Errors
    ///
    /// Fails on elaboration or translation errors.
    pub fn solve_formula(
        &self,
        formula: &Formula,
        scope: u32,
    ) -> Result<Option<Instance>, AnalyzerError> {
        Ok(self.enumerate(formula, scope, 1)?.into_iter().next())
    }

    /// Enumerates up to `limit` distinct instances of
    /// `facts && declarations && formula`.
    ///
    /// Instances differ in at least one signature membership or field tuple.
    ///
    /// # Errors
    ///
    /// Fails on elaboration or translation errors.
    pub fn enumerate(
        &self,
        formula: &Formula,
        scope: u32,
        limit: usize,
    ) -> Result<Vec<Instance>, AnalyzerError> {
        // Translation + encoding + the solve loop all count as SAT time in
        // the phase breakdown: the scope's base translation when this is
        // the first call at the scope, and on every call the formula's
        // compilation on top of it. The per-solve `sat.solve` child spans
        // nest inside with their counter deltas.
        let span = specrepair_trace::span("analyzer.enumerate", specrepair_trace::Phase::Sat);
        // The base leaves the table for the call, so concurrent calls at
        // one scope build their own instead of waiting; a failed build is
        // never stored, and the next call at the scope retries it.
        let cached = self.bases.lock().remove(&scope);
        let mut tr = match cached {
            Some(tr) => tr,
            None => Translator::new(&self.spec, scope)?,
        };
        // Truncating to the mark restores the circuit — node numbering and
        // hash-cons table — that `Translator::new` left, so every call
        // compiles and encodes exactly as on a fresh translation.
        let mark = tr.circuit.mark();
        let out = Self::solve_on(&mut tr, formula, scope, limit, &span);
        tr.circuit.truncate(mark);
        self.bases.lock().insert(scope, tr);
        out
    }

    /// Compiles `formula` on top of the base translation `tr`, encodes
    /// base ∧ formula into the thread's scratch solver, cleared, and
    /// enumerates up to `limit` instances.
    fn solve_on(
        tr: &mut Translator,
        formula: &Formula,
        scope: u32,
        limit: usize,
        span: &specrepair_trace::SpanGuard,
    ) -> Result<Vec<Instance>, AnalyzerError> {
        let f = elaborate_formula(tr.spec(), formula)?;
        let fv = tr.compile_formula(&f)?;
        let root = tr.circuit.and(tr.base_constraint(), fv);
        // A cleared solver answers exactly as a fresh one; reusing it only
        // keeps its allocations. A nested call finds the slot empty and
        // gets a fresh solver.
        let mut solver = SCRATCH_SOLVER.take().unwrap_or_default();
        solver.clear();
        let inputs = tr.circuit.encode(root, &mut solver);
        if span.is_active() {
            span.attr_u64("scope", scope as u64);
            span.attr_u64("limit", limit as u64);
            span.attr_u64("vars", solver.num_vars() as u64);
        }
        let mut out = Vec::new();
        while out.len() < limit {
            match solver.solve() {
                SolveResult::Sat(m) => {
                    let vals: Vec<bool> = inputs
                        .iter()
                        .map(|l| m[l.var().index()] == l.is_positive())
                        .collect();
                    out.push(tr.decode(&vals));
                    // Block this assignment of the relational inputs.
                    let block: Vec<_> = inputs
                        .iter()
                        .zip(&vals)
                        .map(|(&l, &v)| if v { !l } else { l })
                        .collect();
                    if block.is_empty() || !solver.add_clause(block) {
                        break;
                    }
                }
                SolveResult::Unsat => break,
            }
        }
        SCRATCH_SOLVER.set(Some(solver));
        Ok(out)
    }

    /// Runs a predicate: searches for an instance where the predicate holds
    /// (parameters are existentially quantified).
    ///
    /// # Errors
    ///
    /// Fails when the predicate is unknown or translation fails.
    pub fn run_pred(&self, name: &str, scope: u32) -> Result<CommandOutcome, AnalyzerError> {
        let formula = pred_as_existential(&self.spec, name)
            .map_err(|_| AnalyzerError::UnknownTarget(name.to_string()))?;
        let instance = self.solve_formula(&formula, scope)?;
        Ok(CommandOutcome {
            command: Command {
                kind: CommandKind::Run(name.to_string()),
                scope,
                expect: None,
                span: Span::synthetic(),
            },
            sat: instance.is_some(),
            instance,
        })
    }

    /// Checks an assertion: searches for a counterexample (an instance of
    /// the facts violating the assertion body).
    ///
    /// # Errors
    ///
    /// Fails when the assertion is unknown or translation fails.
    pub fn check_assert(&self, name: &str, scope: u32) -> Result<CommandOutcome, AnalyzerError> {
        let body = assert_body(&self.spec, name)
            .map_err(|_| AnalyzerError::UnknownTarget(name.to_string()))?;
        let negated = Formula::not(body);
        let instance = self.solve_formula(&negated, scope)?;
        Ok(CommandOutcome {
            command: Command {
                kind: CommandKind::Check(name.to_string()),
                scope,
                expect: None,
                span: Span::synthetic(),
            },
            sat: instance.is_some(),
            instance,
        })
    }

    /// Enumerates up to `limit` counterexamples to the named assertion.
    ///
    /// # Errors
    ///
    /// Fails when the assertion is unknown or translation fails.
    pub fn counterexamples(
        &self,
        name: &str,
        scope: u32,
        limit: usize,
    ) -> Result<Vec<Instance>, AnalyzerError> {
        let body = assert_body(&self.spec, name)
            .map_err(|_| AnalyzerError::UnknownTarget(name.to_string()))?;
        self.enumerate(&Formula::not(body), scope, limit)
    }

    /// Executes a single command.
    ///
    /// # Errors
    ///
    /// Fails on unknown targets or translation errors.
    pub fn run_command(&self, cmd: &Command) -> Result<CommandOutcome, AnalyzerError> {
        let mut outcome = match &cmd.kind {
            CommandKind::Run(name) => self.run_pred(name, cmd.scope)?,
            CommandKind::Check(name) => self.check_assert(name, cmd.scope)?,
        };
        outcome.command = cmd.clone();
        Ok(outcome)
    }

    /// Executes every command in the specification, in order.
    ///
    /// # Errors
    ///
    /// Fails on the first command that cannot be executed.
    pub fn execute_all(&self) -> Result<Vec<CommandOutcome>, AnalyzerError> {
        self.spec
            .commands
            .iter()
            .map(|c| self.run_command(c))
            .collect()
    }

    /// Whether every command's outcome matches its `expect` annotation.
    ///
    /// This is the *property oracle* the traditional repair tools validate
    /// candidates against.
    ///
    /// # Errors
    ///
    /// Fails if any command cannot be executed.
    pub fn satisfies_oracle(&self) -> Result<bool, AnalyzerError> {
        Ok(self
            .execute_all()?
            .iter()
            .all(CommandOutcome::matches_expectation))
    }

    /// The commands whose outcomes contradict their `expect` annotations.
    ///
    /// # Errors
    ///
    /// Fails if any command cannot be executed.
    pub fn failing_commands(&self) -> Result<Vec<CommandOutcome>, AnalyzerError> {
        Ok(self
            .execute_all()?
            .into_iter()
            .filter(|o| !o.matches_expectation())
            .collect())
    }

    /// Evaluates an (unelaborated) formula against a concrete instance,
    /// inlining predicate/function calls against this spec first.
    ///
    /// # Errors
    ///
    /// Fails on elaboration or evaluation errors.
    pub fn evaluate(&self, instance: &Instance, formula: &Formula) -> Result<bool, AnalyzerError> {
        let f = elaborate_formula(&self.spec, formula)?;
        Ok(Evaluator::new(instance).formula(&f)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mualloy_syntax::{parse_formula, parse_spec};

    const LIST: &str = "sig N { next: lone N } \
        fact Acyclic { no n: N | n in n.^next } \
        pred somePath { some n: N | some n.next } \
        assert NoSelfLoop { all n: N | n not in n.next } \
        run somePath for 3 expect 1 \
        check NoSelfLoop for 3 expect 0";

    fn analyzer() -> Analyzer {
        Analyzer::new(parse_spec(LIST).unwrap())
    }

    #[test]
    fn run_finds_instance() {
        let out = analyzer().run_pred("somePath", 3).unwrap();
        assert!(out.sat);
        let inst = out.instance.unwrap();
        assert!(!inst.field_set("next").is_empty());
    }

    #[test]
    fn check_valid_assertion_has_no_counterexample() {
        let out = analyzer().check_assert("NoSelfLoop", 3).unwrap();
        assert!(!out.sat, "acyclicity implies no self loops");
        assert!(out.instance.is_none());
    }

    #[test]
    fn check_invalid_assertion_yields_counterexample() {
        let spec =
            parse_spec("sig N { next: lone N } assert Emptyish { no next } check Emptyish for 3")
                .unwrap();
        let out = Analyzer::new(spec).check_assert("Emptyish", 3).unwrap();
        assert!(out.sat);
        let cex = out.instance.unwrap();
        assert!(!cex.field_set("next").is_empty());
    }

    #[test]
    fn execute_all_and_oracle() {
        let a = analyzer();
        let outcomes = a.execute_all().unwrap();
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes.iter().all(|o| o.matches_expectation()));
        assert!(a.satisfies_oracle().unwrap());
        assert!(a.failing_commands().unwrap().is_empty());
    }

    #[test]
    fn oracle_detects_faults() {
        // Break the fact: cycles allowed -> NoSelfLoop gets a counterexample.
        let faulty = LIST.replace("no n: N | n in n.^next", "some N || no N");
        let a = Analyzer::new(parse_spec(&faulty).unwrap());
        assert!(!a.satisfies_oracle().unwrap());
        let failing = a.failing_commands().unwrap();
        assert_eq!(failing.len(), 1);
        assert!(failing[0].command.is_check());
    }

    #[test]
    fn unknown_targets_error() {
        let a = analyzer();
        assert!(matches!(
            a.run_pred("ghost", 3),
            Err(AnalyzerError::UnknownTarget(_))
        ));
        assert!(matches!(
            a.check_assert("ghost", 3),
            Err(AnalyzerError::UnknownTarget(_))
        ));
    }

    #[test]
    fn enumerate_yields_distinct_instances() {
        let a = analyzer();
        let f = parse_formula("some N").unwrap();
        let instances = a.enumerate(&f, 2, 10).unwrap();
        assert!(instances.len() > 1);
        for i in 0..instances.len() {
            for j in (i + 1)..instances.len() {
                assert_ne!(instances[i], instances[j]);
            }
        }
    }

    #[test]
    fn counterexamples_enumeration() {
        let spec =
            parse_spec("sig N { next: lone N } assert NoNext { no next } check NoNext for 2")
                .unwrap();
        let a = Analyzer::new(spec);
        let cexs = a.counterexamples("NoNext", 2, 5).unwrap();
        assert!(!cexs.is_empty());
        for c in &cexs {
            assert!(!c.field_set("next").is_empty());
        }
    }

    #[test]
    fn evaluate_against_instance() {
        let a = analyzer();
        let inst = a.run_pred("somePath", 3).unwrap().instance.unwrap();
        assert!(a
            .evaluate(&inst, &parse_formula("some n: N | some n.next").unwrap())
            .unwrap());
        assert!(a
            .evaluate(&inst, &parse_formula("no n: N | n in n.^next").unwrap())
            .unwrap());
    }

    #[test]
    fn one_base_per_scope_and_clones_start_without_one() {
        let a = analyzer();
        a.execute_all().unwrap();
        a.run_pred("somePath", 2).unwrap();
        a.run_pred("somePath", 3).unwrap();
        let bases = a.bases.lock();
        let mut scopes: Vec<u32> = bases.keys().copied().collect();
        scopes.sort_unstable();
        assert_eq!(scopes, [2, 3]);
        // Every command truncated back: each base is a fresh translation.
        for (&scope, base) in bases.iter() {
            let fresh = Translator::new(a.spec(), scope).unwrap();
            assert_eq!(base.circuit.mark(), fresh.circuit.mark(), "scope {scope}");
        }
        assert!(a.clone().bases.lock().is_empty());
    }

    #[test]
    fn a_failed_base_is_not_kept() {
        let a = Analyzer::new(
            parse_spec("sig N { next: set N } fact { N in next } pred p { some N } run p for 2")
                .unwrap(),
        );
        let first = a.run_pred("p", 2).unwrap_err();
        assert!(matches!(first, AnalyzerError::Translate(_)));
        assert!(a.bases.lock().is_empty());
        assert_eq!(a.run_pred("p", 2).unwrap_err(), first);
    }

    #[test]
    fn analyzers_stay_shareable() {
        fn shareable<T: Clone + Send + Sync>() {}
        shareable::<Analyzer>();
    }

    #[test]
    fn from_source_validates() {
        assert!(Analyzer::from_source("sig A { f: set Ghost }").is_err());
        assert!(Analyzer::from_source("sig A {").is_err());
        assert!(Analyzer::from_source("sig A {}").is_ok());
    }
}
