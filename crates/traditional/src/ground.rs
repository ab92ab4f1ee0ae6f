//! Ground verdicts of a base spec, reused by its single-edit candidates.
//!
//! ARepair's and ICEBAR's AUnit suites and ATR's cached evidence judge a
//! candidate without solving. Its facts, elaborated one formula at a time
//! as [`elaborate_facts`](mualloy_relational::elaborate_facts) does, are
//! evaluated on a fixed list of valuations, and so is one *goal* per
//! valuation: an AUnit test formula, an assertion body or a predicate's
//! existential. Every candidate those searches generate rewrites one node
//! of a base spec, and the elaborator reads a spec only through its preds
//! and funs, looked up by name. So:
//!
//! - an edit inside a fact changes that fact formula alone, and the new
//!   formula elaborates against the base exactly as against the candidate,
//!   whose preds and funs are the base's;
//! - an edit inside the body of pred or fun `N` changes exactly the
//!   formulas whose calls reach `N`, transitively over the base (a
//!   predicate's existential also reads the predicate itself);
//! - every other formula keeps the base's elaboration, and so its verdicts.
//!
//! [`BaseVerdicts`] elaborates and evaluates every formula once for the
//! base. [`BaseVerdicts::check`] then judges a [`Candidate`] through a
//! [`View`] that re-elaborates and re-evaluates only the formulas the edit
//! reaches. It builds the candidate spec only when the edit sits in a pred
//! or fun that some checked formula calls. The callers keep their own rules
//! for combining verdicts; both rules are order-free, which is what lets
//! cached verdicts stand in for recomputed ones.

use std::collections::HashMap;

use mualloy_analyzer::TestSuite;
use mualloy_relational::{
    assert_body, elaborate_formula, pred_as_existential, Evaluator, Instance,
};
use mualloy_syntax::ast::*;
use mualloy_syntax::visit::{walk_expr, walk_formula, Visitor};
use mualloy_syntax::walk::{replace_in_formula, replace_node, NodeRepl, NodeSite, OwnerKind};
use mualloy_syntax::{spec_fingerprint, Fingerprint, SpecHasher};

/// A formula's ground verdict on one valuation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// The formula does not elaborate.
    Unelaborated,
    /// Evaluation fails.
    Error,
    /// Evaluation gives this value.
    Is(bool),
}

/// Where in the base an edit lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Place {
    /// Inside fact formula `i`, counting the body formulas of every fact in
    /// declaration order.
    Fact(usize),
    /// Inside the body of pred `i`.
    Pred(usize),
    /// Inside the body of fun `i`.
    Fun(usize),
}

/// The place of every node in `sites`, which must be a spec's sites in
/// [`collect_sites`](mualloy_syntax::collect_sites) pre-order (as
/// [`MutationEngine::sites`](specrepair_mutation::MutationEngine::sites)
/// gives them): a fact's body formulas are its depth-0 sites.
pub(crate) fn places<'s>(sites: impl IntoIterator<Item = &'s NodeSite>) -> HashMap<NodeId, Place> {
    let mut out = HashMap::new();
    let mut facts = 0;
    for site in sites {
        let place = match site.owner {
            (OwnerKind::Fact, _) => {
                if site.depth == 0 {
                    facts += 1;
                }
                Place::Fact(facts - 1)
            }
            (OwnerKind::Pred, i) => Place::Pred(i),
            (OwnerKind::Fun, i) => Place::Fun(i),
            (OwnerKind::Assert, _) => continue,
        };
        out.insert(site.id, place);
    }
    out
}

/// One single-node edit of the base, keyed, with the candidate spec once
/// something needed it built.
pub(crate) struct Candidate<'e> {
    target: NodeId,
    repl: &'e NodeRepl,
    /// Where the edit lands; `None` sends every formula to re-elaboration.
    place: Option<Place>,
    built: Option<Spec>,
}

impl<'e> Candidate<'e> {
    /// Keys the edit `target := repl` of `base` the way the searches key
    /// candidates: [`SpecHasher::fingerprint_replaced`] on the base's
    /// hasher, or, where that declines, [`spec_fingerprint`] of the built
    /// candidate. `None` when the edit cannot be built.
    ///
    /// A declining hasher means ids that are not well formed, so the
    /// edit's place is not trusted either. Where the hasher answers, the
    /// target is a unique node of a matching kind and the edit builds.
    pub(crate) fn keyed(
        base: &Spec,
        hasher: &SpecHasher,
        places: &HashMap<NodeId, Place>,
        target: NodeId,
        repl: &'e NodeRepl,
    ) -> Option<(Candidate<'e>, Fingerprint)> {
        let (place, built, key) = match hasher.fingerprint_replaced(target, repl) {
            Some(key) => (places.get(&target).copied(), None, key),
            None => {
                let built = replace_node(base, target, repl.clone())?;
                let key = spec_fingerprint(&built);
                (None, Some(built), key)
            }
        };
        let candidate = Candidate {
            target,
            repl,
            place,
            built,
        };
        Some((candidate, key))
    }

    /// Builds the candidate with [`replace_node`] on `base`, once.
    fn build(&mut self, base: &Spec) -> Option<&Spec> {
        if self.built.is_none() {
            self.built = replace_node(base, self.target, self.repl.clone());
        }
        self.built.as_ref()
    }

    /// The candidate spec, built with [`replace_node`] on `base` unless a
    /// check already built it.
    pub(crate) fn into_spec(mut self, base: &Spec) -> Option<Spec> {
        self.build(base)?;
        self.built
    }
}

/// What a goal formula is derived from.
#[derive(Debug, Clone, Copy)]
enum Goal<'a> {
    /// A formula elaborated against the spec (an AUnit test formula).
    Formula(&'a Formula),
    /// [`assert_body`] of the named assertion.
    Assert(&'a str),
    /// [`pred_as_existential`] of the named predicate.
    Existential(&'a str),
}

impl Goal<'_> {
    fn elaborate(self, spec: &Spec) -> Option<Formula> {
        match self {
            Goal::Formula(f) => elaborate_formula(spec, f).ok(),
            Goal::Assert(name) => assert_body(spec, name).ok(),
            Goal::Existential(name) => pred_as_existential(spec, name).ok(),
        }
    }
}

/// One formula's verdicts under the base, with what it is elaborated from.
struct Cached<S> {
    source: S,
    /// The pred and fun names its elaboration reads, transitively over the
    /// base.
    calls: Vec<String>,
    elaborated: bool,
    /// Its verdict on each valuation it is checked on: every valuation for
    /// a fact formula, its own for a goal.
    verdicts: Vec<Verdict>,
}

impl<S> Cached<S> {
    /// Whether its elaboration reads the pred or fun `name`.
    fn reads(&self, name: &str) -> bool {
        self.calls.iter().any(|c| c == name)
    }

    fn new(
        source: S,
        calls: Vec<String>,
        elaborated: Option<Formula>,
        valuations: &[&Instance],
    ) -> Cached<S> {
        let verdicts = valuations
            .iter()
            .map(|v| verdict(elaborated.as_ref(), v))
            .collect();
        Cached {
            source,
            calls,
            elaborated: elaborated.is_some(),
            verdicts,
        }
    }
}

/// The verdict of an elaboration (`None`: it failed) on a valuation.
fn verdict(elaborated: Option<&Formula>, valuation: &Instance) -> Verdict {
    match elaborated.map(|f| Evaluator::new(valuation).formula(f)) {
        None => Verdict::Unelaborated,
        Some(Err(_)) => Verdict::Error,
        Some(Ok(b)) => Verdict::Is(b),
    }
}

/// Collects the names of the preds and funs a formula or expression calls.
#[derive(Default)]
struct Calls(Vec<String>);

impl Visitor for Calls {
    fn visit_formula(&mut self, f: &Formula) {
        if let Formula::PredCall(name, _, _) = f {
            self.0.push(name.clone());
        }
        walk_formula(self, f);
    }

    fn visit_expr(&mut self, e: &Expr) {
        if let Expr::FunCall(name, _, _) = e {
            self.0.push(name.clone());
        }
        walk_expr(self, e);
    }
}

impl Calls {
    /// The names elaborating a formula that calls the collected names
    /// reads: those names and, transitively, the calls in the bodies of
    /// the preds and funs they name in `spec`.
    fn closure(mut self, spec: &Spec) -> Vec<String> {
        let mut reached = Vec::new();
        while let Some(name) = self.0.pop() {
            if reached.contains(&name) {
                continue;
            }
            if let Some(pred) = spec.pred(&name) {
                pred.body.iter().for_each(|f| self.visit_formula(f));
            }
            if let Some(fun) = spec.fun(&name) {
                self.visit_expr(&fun.body);
            }
            reached.push(name);
        }
        reached
    }
}

/// The ground verdicts of a base spec's fact formulas on a list of
/// valuations, and of one goal per valuation.
pub(crate) struct BaseVerdicts<'a> {
    base: &'a Spec,
    valuations: Vec<&'a Instance>,
    /// The base's fact formulas, in [`elaborate_facts`] order, each with
    /// its verdict on every valuation.
    ///
    /// [`elaborate_facts`]: mualloy_relational::elaborate_facts
    facts: Vec<Cached<&'a Formula>>,
    /// How many fact formulas do not elaborate.
    unelaborated: usize,
    /// Per valuation: how many elaborated fact formulas are false on it,
    /// and how many fail to evaluate.
    falses: Vec<usize>,
    errors: Vec<usize>,
    /// Per valuation: its goal, with the goal's verdict on it.
    goals: Vec<Cached<Goal<'a>>>,
}

impl<'a> BaseVerdicts<'a> {
    /// Verdicts for an AUnit suite: each test's formula is the goal on its
    /// valuation.
    pub(crate) fn for_suite(base: &'a Spec, suite: &'a TestSuite) -> BaseVerdicts<'a> {
        let tests = suite.tests();
        BaseVerdicts::new(
            base,
            tests.iter().map(|t| &t.valuation).collect(),
            tests.iter().map(|t| Goal::Formula(&t.formula)).collect(),
        )
    }

    /// Verdicts for ATR's evidence: each counterexample's goal is its
    /// assertion's body, each witness's its predicate's existential;
    /// counterexamples come first.
    pub(crate) fn for_evidence(
        base: &'a Spec,
        rejected: &'a [(String, Instance)],
        admitted: &'a [(String, Instance)],
    ) -> BaseVerdicts<'a> {
        let cexs = rejected.iter().map(|(name, v)| (Goal::Assert(name), v));
        let witnesses = admitted
            .iter()
            .map(|(name, v)| (Goal::Existential(name), v));
        let (goals, valuations) = cexs.chain(witnesses).unzip();
        BaseVerdicts::new(base, valuations, goals)
    }

    fn new(
        base: &'a Spec,
        valuations: Vec<&'a Instance>,
        goals: Vec<Goal<'a>>,
    ) -> BaseVerdicts<'a> {
        let facts: Vec<Cached<&Formula>> = base
            .facts
            .iter()
            .flat_map(|f| &f.body)
            .map(|f| {
                let mut calls = Calls::default();
                calls.visit_formula(f);
                let elaborated = elaborate_formula(base, f).ok();
                Cached::new(f, calls.closure(base), elaborated, &valuations)
            })
            .collect();
        let count = |want: Verdict| -> Vec<usize> {
            (0..valuations.len())
                .map(|i| facts.iter().filter(|g| g.verdicts[i] == want).count())
                .collect()
        };
        let falses = count(Verdict::Is(false));
        let errors = count(Verdict::Error);
        let goals = goals
            .into_iter()
            .zip(&valuations)
            .map(|(goal, v)| {
                let mut calls = Calls::default();
                match goal {
                    Goal::Formula(f) => calls.visit_formula(f),
                    Goal::Assert(name) => {
                        if let Some(a) = base.assert(name) {
                            a.body.iter().for_each(|f| calls.visit_formula(f));
                        }
                    }
                    Goal::Existential(name) => {
                        calls.0.push(name.to_string());
                        if let Some(p) = base.pred(name) {
                            p.params.iter().for_each(|p| calls.visit_expr(&p.bound));
                        }
                    }
                }
                Cached::new(goal, calls.closure(base), goal.elaborate(base), &[v])
            })
            .collect();
        BaseVerdicts {
            base,
            unelaborated: facts.iter().filter(|g| !g.elaborated).count(),
            valuations,
            facts,
            falses,
            errors,
            goals,
        }
    }

    /// The base's own verdicts.
    pub(crate) fn view(&self) -> View<'_, 'a> {
        View {
            verdicts: self,
            decl: None,
            facts: Vec::new(),
            unelaborated: self.unelaborated,
        }
    }

    /// Applies `rule` to the candidate's verdicts: the base's, except for
    /// the formulas the edit reaches. Builds the candidate when its edit
    /// sits in a pred or fun that a checked formula calls, or cannot be
    /// placed. `None` when the candidate cannot be built.
    pub(crate) fn check<R>(
        &self,
        candidate: &mut Candidate<'_>,
        rule: impl FnOnce(&View<'_, '_>) -> R,
    ) -> Option<R> {
        let name = match candidate.place {
            Some(Place::Fact(i)) => {
                let rewritten =
                    replace_in_formula(self.facts[i].source, candidate.target, candidate.repl)?;
                let facts = vec![(i, elaborate_formula(self.base, &rewritten).ok())];
                return Some(rule(&self.reached(None, facts)));
            }
            Some(Place::Pred(i)) => &self.base.preds[i].name,
            Some(Place::Fun(i)) => &self.base.funs[i].name,
            None => {
                // An unplaced edit: judge the built candidate afresh.
                let spec = candidate.build(self.base)?;
                let goals = self.goals.iter().map(|g| g.source).collect();
                let fresh = BaseVerdicts::new(spec, self.valuations.clone(), goals);
                return Some(rule(&fresh.view()));
            }
        };
        if !self.facts.iter().any(|f| f.reads(name)) && !self.goals.iter().any(|g| g.reads(name)) {
            // No checked formula calls into the edited declaration.
            return Some(rule(&self.view()));
        }
        let spec = candidate.build(self.base)?;
        let facts = self
            .facts
            .iter()
            .enumerate()
            .filter(|(_, f)| f.reads(name))
            .map(|(i, f)| (i, elaborate_formula(spec, f.source).ok()))
            .collect();
        Some(rule(&self.reached(Some((name, spec)), facts)))
    }

    fn reached<'v>(
        &'v self,
        decl: Option<(&'v str, &'v Spec)>,
        facts: Vec<(usize, Option<Formula>)>,
    ) -> View<'v, 'a> {
        let unelaborated = self.unelaborated
            - facts
                .iter()
                .filter(|(i, _)| !self.facts[*i].elaborated)
                .count()
            + facts.iter().filter(|(_, f)| f.is_none()).count();
        View {
            verdicts: self,
            decl,
            facts,
            unelaborated,
        }
    }
}

/// A candidate's ground verdicts: the base's, except for the formulas its
/// edit reaches, which are re-evaluated on demand.
pub(crate) struct View<'v, 'a> {
    verdicts: &'v BaseVerdicts<'a>,
    /// The pred or fun an edit outside the facts sits in, and the built
    /// candidate: every formula whose calls reach it is re-elaborated.
    decl: Option<(&'v str, &'v Spec)>,
    /// The fact formulas the edit reaches, with their fresh elaborations.
    facts: Vec<(usize, Option<Formula>)>,
    unelaborated: usize,
}

impl View<'_, '_> {
    /// Number of valuations.
    pub(crate) fn valuations(&self) -> usize {
        self.verdicts.valuations.len()
    }

    /// Whether every fact formula elaborates.
    pub(crate) fn facts_elaborate(&self) -> bool {
        self.unelaborated == 0
    }

    /// The conjunction of the fact formulas on valuation `i`: an error if
    /// any fails to elaborate or to evaluate, else whether all hold.
    pub(crate) fn facts_on(&self, i: usize) -> Verdict {
        if !self.facts_elaborate() {
            return Verdict::Unelaborated;
        }
        let base = self.verdicts;
        let (mut falses, mut errors) = (base.falses[i], base.errors[i]);
        for (j, _) in &self.facts {
            match base.facts[*j].verdicts[i] {
                Verdict::Is(false) => falses -= 1,
                Verdict::Error => errors -= 1,
                _ => {}
            }
        }
        if errors > 0 {
            return Verdict::Error;
        }
        for (_, f) in &self.facts {
            match verdict(f.as_ref(), base.valuations[i]) {
                Verdict::Is(true) => {}
                Verdict::Is(false) => falses += 1,
                other => return other,
            }
        }
        Verdict::Is(falses == 0)
    }

    /// The goal's verdict on valuation `i`.
    pub(crate) fn goal_on(&self, i: usize) -> Verdict {
        let base = self.verdicts;
        let goal = &base.goals[i];
        match self.decl {
            Some((name, spec)) if goal.reads(name) => {
                verdict(goal.source.elaborate(spec).as_ref(), base.valuations[i])
            }
            _ => goal.verdicts[0],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arepair::aunit_failures;
    use crate::atr::{reference_screen, screen, Screen};
    use mualloy_analyzer::AUnitTest;
    use mualloy_syntax::{collect_sites, parse_expr, parse_formula, parse_spec, print_spec};
    use specrepair_mutation::MutationEngine;
    use std::collections::BTreeSet;
    use std::fmt::Debug;

    /// Atoms `N$0..N$n` forming a `next` chain, closed into a cycle on
    /// request; without `next` at all when `next` is false.
    fn valuation(n: u32, next: bool, cycle: bool) -> Instance {
        let mut inst = Instance::new((0..n).map(|i| format!("N${i}")).collect());
        inst.set_sig("N", (0..n).collect());
        if next {
            let mut tuples: BTreeSet<Vec<u32>> = (1..n).map(|i| vec![i - 1, i]).collect();
            if cycle {
                tuples.insert(vec![n - 1, 0]);
            }
            inst.set_field("next", tuples);
        }
        inst
    }

    fn suite(tests: &[(Instance, &str, bool)]) -> TestSuite {
        tests
            .iter()
            .enumerate()
            .map(|(i, (v, f, expect))| {
                AUnitTest::new(
                    format!("t{i}"),
                    v.clone(),
                    parse_formula(f).unwrap(),
                    *expect,
                )
            })
            .collect()
    }

    /// The first node of `base` whose printed form is `text`.
    fn node(base: &Spec, text: &str) -> NodeId {
        collect_sites(base)
            .into_iter()
            .find(|s| match mualloy_syntax::walk::node_at(base, s.id) {
                Some(NodeRepl::Formula(f)) => mualloy_syntax::print_formula(&f) == text,
                Some(NodeRepl::Expr(e)) => mualloy_syntax::print_expr(&e) == text,
                None => false,
            })
            .unwrap_or_else(|| panic!("no node `{text}`"))
            .id
    }

    /// Every mutant of `base` and the `extra` edits, each judged by `rule`
    /// on the cached verdicts and by `whole` on the built candidate, which
    /// must agree. Returns how many edits move the result off the base's.
    fn assert_cached<R: PartialEq + Debug>(
        base: &Spec,
        verdicts: &BaseVerdicts<'_>,
        extra: Vec<(NodeId, NodeRepl)>,
        rule: impl Fn(&View<'_, '_>) -> R,
        whole: impl Fn(&Spec) -> R,
    ) -> usize {
        let places = places(&collect_sites(base));
        let hasher = SpecHasher::new(base);
        let own = rule(&verdicts.view());
        assert_eq!(own, whole(base));
        let mutants = MutationEngine::new(base).all_mutations();
        let edits = mutants.into_iter().map(|m| (m.site, m.repl)).chain(extra);
        let mut moved = 0;
        for (target, repl) in edits {
            let (mut cand, _) = Candidate::keyed(base, &hasher, &places, target, &repl).unwrap();
            let cached = verdicts.check(&mut cand, &rule).unwrap();
            let built = cand.into_spec(base).unwrap();
            assert_eq!(cached, whole(&built), "{}", print_spec(&built));
            moved += usize::from(cached != own);
        }
        moved
    }

    fn assert_suite(base: &Spec, suite: &TestSuite, extra: Vec<(NodeId, NodeRepl)>) -> usize {
        let verdicts = BaseVerdicts::for_suite(base, suite);
        let rule = |v: &View<'_, '_>| aunit_failures(v, suite, usize::MAX);
        assert_cached(base, &verdicts, extra, rule, |c| suite.run(c).1)
    }

    fn assert_evidence(
        base: &Spec,
        rejected: &[(String, Instance)],
        admitted: &[(String, Instance)],
        extra: Vec<(NodeId, NodeRepl)>,
    ) -> usize {
        let verdicts = BaseVerdicts::for_evidence(base, rejected, admitted);
        let rule = |v: &View<'_, '_>| screen(v, rejected.len());
        let whole = |c: &Spec| reference_screen(c, rejected, admitted);
        assert_cached(base, &verdicts, extra, rule, whole)
    }

    fn formula(text: &str) -> NodeRepl {
        NodeRepl::Formula(parse_formula(text).unwrap())
    }

    const HEADER: &str = "sig N { next: lone N } \
        assert NoSelf { all n: N | n not in n.next }";

    #[test]
    fn a_fact_that_fails_to_elaborate_fails_every_test() {
        let tests = suite(&[
            (valuation(3, true, false), "some N", true),
            (valuation(2, true, true), "no N", false),
        ]);
        let evidence = [("NoSelf".to_string(), valuation(1, true, true))];
        // `p` takes an argument: the fact calling it bare does not
        // elaborate until an edit replaces the call.
        let broken = parse_spec(&format!(
            "{HEADER} pred p[x: N] {{ some x.next }} fact Calls {{ p }}"
        ))
        .unwrap();
        assert_eq!(BaseVerdicts::for_suite(&broken, &tests).unelaborated, 1);
        let fix = vec![(node(&broken, "p"), formula("some N"))];
        assert!(assert_suite(&broken, &tests, fix.clone()) > 0);
        assert!(assert_evidence(&broken, &evidence, &[], fix) > 0);
        // And the other way: an edit that breaks the call.
        let sound = parse_spec(&format!(
            "{HEADER} pred p[x: N] {{ some x.next }} fact Calls {{ all n: N | p[n] || no n.next }}"
        ))
        .unwrap();
        let break_it = vec![(node(&sound, "p[n]"), formula("p"))];
        assert!(assert_suite(&sound, &tests, break_it.clone()) > 0);
        assert!(assert_evidence(&sound, &evidence, &[], break_it) > 0);
    }

    #[test]
    fn an_evaluation_error_in_one_fact_fails_only_its_valuations() {
        // The first valuation has no `next`: the fact reading it fails to
        // evaluate there and nowhere else.
        let tests = suite(&[
            (valuation(2, false, false), "some N", true),
            (valuation(2, false, false), "no N", false),
            (valuation(3, true, false), "some N", true),
            (valuation(3, true, true), "some N", false),
        ]);
        let base = parse_spec(&format!(
            "{HEADER} fact Acyclic {{ no n: N | n in n.^next }} fact Some {{ some N }}"
        ))
        .unwrap();
        let verdicts = BaseVerdicts::for_suite(&base, &tests);
        assert_eq!(verdicts.view().facts_on(0), Verdict::Error);
        assert_eq!(verdicts.view().facts_on(2), Verdict::Is(true));
        let drop_next = vec![(node(&base, "no n: N | n in n.^next"), formula("lone N"))];
        assert!(assert_suite(&base, &tests, drop_next.clone()) > 0);
        let rejected = [("NoSelf".to_string(), valuation(2, false, false))];
        let admitted = [];
        assert_evidence(&base, &rejected, &admitted, drop_next);
    }

    #[test]
    fn a_pred_edit_reaches_the_facts_that_call_it() {
        // No goal calls `acyclic`: its edits change the results through
        // the fact's call alone.
        let base = parse_spec(&format!(
            "{HEADER} pred acyclic {{ no n: N | n in n.^next }} fact F {{ acyclic }}"
        ))
        .unwrap();
        let tests = suite(&[
            (valuation(3, true, false), "some N", true),
            (valuation(3, true, true), "some N", false),
        ]);
        let verdicts = BaseVerdicts::for_suite(&base, &tests);
        assert_eq!(verdicts.facts[0].calls, vec!["acyclic".to_string()]);
        assert!(verdicts.goals.iter().all(|g| g.calls.is_empty()));
        assert!(assert_suite(&base, &tests, Vec::new()) > 0);
        let rejected = [("NoSelf".to_string(), valuation(1, true, true))];
        assert!(assert_evidence(&base, &rejected, &[], Vec::new()) > 0);
    }

    #[test]
    fn a_fun_edit_reaches_a_witness_through_a_parameter_bound() {
        // `hasSucc`'s body calls nothing; its existential reads `succs`
        // through the parameter's bound.
        let base = parse_spec(&format!(
            "{HEADER} fun succs[x: N]: set N {{ x.next }} pred hasSucc[h: succs[N]] {{ some h }} \
             fact {{ no n: N | n in n.^next }}"
        ))
        .unwrap();
        let rejected = [("NoSelf".to_string(), valuation(1, true, true))];
        let admitted = [("hasSucc".to_string(), valuation(3, true, false))];
        let verdicts = BaseVerdicts::for_evidence(&base, &rejected, &admitted);
        let mut calls = verdicts.goals[1].calls.clone();
        calls.sort();
        assert_eq!(calls, vec!["hasSucc".to_string(), "succs".to_string()]);
        assert_eq!(screen(&verdicts.view(), 1), Screen::Strong);
        let empty = (
            node(&base, "x.next"),
            NodeRepl::Expr(parse_expr("none").unwrap()),
        );
        assert!(assert_evidence(&base, &rejected, &admitted, vec![empty]) > 0);
    }

    #[test]
    fn a_test_formula_that_calls_is_re_elaborated() {
        let base = parse_spec(&format!(
            "{HEADER} pred acyclic {{ no n: N | n in n.^next }} fact {{ some N }}"
        ))
        .unwrap();
        let tests = suite(&[
            (valuation(3, true, false), "acyclic", true),
            (valuation(3, true, true), "acyclic", false),
        ]);
        let verdicts = BaseVerdicts::for_suite(&base, &tests);
        assert!(verdicts.facts[0].calls.is_empty());
        assert_eq!(verdicts.goals[0].calls, vec!["acyclic".to_string()]);
        assert!(assert_suite(&base, &tests, Vec::new()) > 0);
    }
}
