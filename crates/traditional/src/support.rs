//! Shared machinery for the traditional repair tools: derivation of AUnit
//! tests from a specification's own commands. The searches skip structural
//! duplicates by keeping a `HashSet` of the candidates' canonical
//! fingerprints ([`mualloy_syntax::spec_fingerprint`]), the key they already
//! hold for the oracle. Oracle validation and its budget accounting live in
//! [`specrepair_core::OracleSession`] — the shared memoizing oracle
//! charges one budget unit per validated candidate.

use mualloy_analyzer::{AUnitTest, Oracle, TestSuite};
use mualloy_relational::{assert_body, pred_as_existential};
use mualloy_syntax::ast::*;

/// Derives an AUnit test suite from a specification's commands — the
/// reproduction's stand-in for the user-provided suites the original
/// ARepair consumes.
///
/// - a failing `check … expect 0` contributes its counterexample as a test
///   requiring `facts && !assert` to be *false* on that valuation (the
///   counterexample must stop being admitted);
/// - a failing `run … expect 1` contributes a facts-free witness of the
///   predicate as a test requiring `facts && pred` to be *true*;
/// - a passing `run` contributes its witness as a regression test;
/// - with `admission_tests`, instances the *faulty* specification admits
///   are pinned as must-stay-admitted valuations. These are tainted by the
///   bug — the intended repair often has to exclude them — and are the
///   overfitting trap the paper blames for ARepair's low REP scores.
///   ICEBAR's oracle-driven refinement does not use them.
pub fn derive_tests(
    oracle: &Oracle,
    spec: &Spec,
    per_command: usize,
    admission_tests: bool,
) -> TestSuite {
    let span = specrepair_trace::span(
        "technique.test_derivation",
        specrepair_trace::Phase::Orchestration,
    );
    if span.is_active() {
        span.attr_u64("per_command", per_command as u64);
        span.attr_bool("admission_tests", admission_tests);
    }
    let mut suite = TestSuite::new();
    let Ok(outcomes) = oracle.execute_all(spec) else {
        return suite;
    };
    for out in outcomes {
        match (&out.command.kind, out.matches_expectation()) {
            (CommandKind::Check(name), false) if out.sat => {
                // Unexpected counterexamples: they must be rejected.
                let Ok(body) = assert_body(spec, name) else {
                    continue;
                };
                let negated = Formula::not(body);
                if let Ok(cexs) = oracle.counterexamples(spec, name, out.command.scope, per_command)
                {
                    for (i, cex) in cexs.into_iter().enumerate() {
                        suite.push(AUnitTest::new(
                            format!("reject-cex-{name}-{i}"),
                            cex,
                            negated.clone(),
                            false,
                        ));
                    }
                }
            }
            (CommandKind::Run(name), false) if !out.sat => {
                // Unexpectedly unsatisfiable run: manufacture witnesses from
                // a facts-free copy (ARepair's overfitting trap).
                let mut relaxed = spec.clone();
                relaxed.facts.clear();
                let Ok(formula) = pred_as_existential(&relaxed, name) else {
                    continue;
                };
                if let Ok(insts) =
                    oracle.enumerate(&relaxed, &formula, out.command.scope, per_command)
                {
                    for (i, inst) in insts.into_iter().enumerate() {
                        suite.push(AUnitTest::new(
                            format!("admit-witness-{name}-{i}"),
                            inst,
                            formula.clone(),
                            true,
                        ));
                    }
                }
            }
            (CommandKind::Run(name), true) if out.sat => {
                // Regression: keep admitting the current witness.
                let Ok(formula) = pred_as_existential(spec, name) else {
                    continue;
                };
                if let Some(inst) = out.instance {
                    suite.push(AUnitTest::new(
                        format!("regression-{name}"),
                        inst,
                        formula,
                        true,
                    ));
                }
            }
            _ => {}
        }
    }
    if admission_tests && !suite.is_empty() {
        // Pin a couple of currently-admitted instances (tainted by the
        // fault) as must-stay-admitted valuations.
        if let Ok(insts) = oracle.enumerate(spec, &Formula::truth(), default_scope(spec), 3) {
            for (i, inst) in insts.into_iter().enumerate() {
                suite.push(AUnitTest::new(
                    format!("admit-current-{i}"),
                    inst,
                    Formula::truth(),
                    true,
                ));
            }
        }
    }
    suite
}

/// The largest command scope declared in the spec (3 when none).
fn default_scope(spec: &Spec) -> u32 {
    spec.commands.iter().map(|c| c.scope).max().unwrap_or(3)
}

/// Derives *strengthening* tests from a candidate's current failures, used
/// by ICEBAR's refinement loop. Unlike [`derive_tests`] this only adds
/// counterexample-rejection tests (the reliable kind).
pub fn counterexample_tests(
    oracle: &Oracle,
    candidate: &Spec,
    per_command: usize,
    round: usize,
) -> Vec<AUnitTest> {
    let span = specrepair_trace::span(
        "technique.test_derivation",
        specrepair_trace::Phase::Orchestration,
    );
    if span.is_active() {
        span.attr_u64("per_command", per_command as u64);
        span.attr_u64("round", round as u64);
    }
    let mut tests = Vec::new();
    let Ok(outcomes) = oracle.execute_all(candidate) else {
        return tests;
    };
    for out in outcomes {
        if let (CommandKind::Check(name), false) = (&out.command.kind, out.matches_expectation()) {
            if !out.sat {
                continue;
            }
            let Ok(body) = assert_body(candidate, name) else {
                continue;
            };
            let negated = Formula::not(body);
            if let Ok(cexs) =
                oracle.counterexamples(candidate, name, out.command.scope, per_command)
            {
                for (i, cex) in cexs.into_iter().enumerate() {
                    tests.push(AUnitTest::new(
                        format!("icebar-r{round}-{name}-{i}"),
                        cex,
                        negated.clone(),
                        false,
                    ));
                }
            }
        }
    }
    tests
}

#[cfg(test)]
mod tests {
    use super::*;
    use mualloy_syntax::walk::strip_spec_spans;
    use mualloy_syntax::{parse_spec, spec_fingerprint, Fingerprint, SpecHasher};
    use specrepair_mutation::MutationEngine;
    use std::collections::{HashMap, HashSet};

    const FAULTY: &str = "sig N { next: lone N } \
        fact Broken { some N || no N } \
        assert NoSelf { all n: N | n not in n.next } \
        check NoSelf for 3 expect 0";

    #[test]
    fn ledger_dedups_structural_clones() {
        // The searches' seen-set: a respaced copy (other spans) is a
        // duplicate, an edited one is not.
        let spec = parse_spec(FAULTY).unwrap();
        let respaced = parse_spec(&FAULTY.replace(' ', "  ")).unwrap();
        assert_ne!(spec, respaced);
        let edited = parse_spec(&FAULTY.replace("some N || no N", "no N")).unwrap();
        let mut seen = HashSet::new();
        assert!(seen.insert(spec_fingerprint(&spec)));
        assert!(!seen.insert(spec_fingerprint(&respaced)));
        assert!(seen.insert(spec_fingerprint(&edited)));
    }

    #[test]
    fn fingerprints_agree_with_span_blind_equality_on_mutants() {
        // The searches' dedup key against span-blind structural equality,
        // over every depth-1 mutant of every faulty spec of a small study,
        // each keyed the way the searches key it (an incremental rehash).
        for p in specrepair_benchmarks::full_study(0.005) {
            let engine = MutationEngine::new(&p.faulty);
            let hasher = SpecHasher::new(&p.faulty);
            let mut by_key: HashMap<Fingerprint, Spec> = HashMap::new();
            let mut by_spec: HashMap<Spec, Fingerprint> = HashMap::new();
            let mut mutants = 0;
            for m in engine.all_mutations() {
                let Some(mutant) = engine.apply(&m) else {
                    continue;
                };
                let key = hasher.fingerprint_edit(&mutant, m.site, &m.repl);
                assert_eq!(key, spec_fingerprint(&mutant), "{}", p.id);
                let stripped = strip_spec_spans(&mutant);
                let same_spec = by_key.entry(key).or_insert_with(|| stripped.clone());
                assert!(*same_spec == stripped, "{}: one key, two specs", p.id);
                assert_eq!(*by_spec.entry(stripped).or_insert(key), key, "{}", p.id);
                mutants += 1;
            }
            assert!(mutants > 0, "{}", p.id);
            assert_eq!(by_key.len(), by_spec.len(), "{}", p.id);
        }
    }

    #[test]
    fn session_validation_counts_and_judges() {
        let good = parse_spec(
            "sig N { next: lone N } fact { no n: N | n in n.^next } \
             assert NoSelf { all n: N | n not in n.next } check NoSelf for 3 expect 0",
        )
        .unwrap();
        let bad = parse_spec(FAULTY).unwrap();
        let handle = specrepair_core::OracleHandle::fresh();
        let mut session = handle.session(5);
        assert_eq!(session.validate(&good), Some(true));
        assert_eq!(session.validate(&bad), Some(false));
        assert_eq!(session.validated(), 2);
    }

    #[test]
    fn derive_tests_rejects_counterexamples() {
        let spec = parse_spec(FAULTY).unwrap();
        let suite = derive_tests(&Oracle::new(), &spec, 2, false);
        assert!(!suite.is_empty());
        // The faulty spec fails its own derived tests…
        assert!(!suite.all_pass(&spec));
        // …but the correct spec passes them.
        let fixed =
            parse_spec(&FAULTY.replace("some N || no N", "no n: N | n in n.^next")).unwrap();
        assert!(suite.all_pass(&fixed));
    }

    #[test]
    fn derive_tests_handles_unsat_run() {
        let spec = parse_spec("sig N {} fact Dead { no N } pred p { some N } run p for 3 expect 1")
            .unwrap();
        let suite = derive_tests(&Oracle::new(), &spec, 2, false);
        assert!(!suite.is_empty(), "witness tests from the facts-free spec");
        assert!(!suite.all_pass(&spec));
    }

    #[test]
    fn counterexample_tests_strengthen() {
        let spec = parse_spec(FAULTY).unwrap();
        let tests = counterexample_tests(&Oracle::new(), &spec, 3, 1);
        assert!(!tests.is_empty());
        for t in &tests {
            assert!(!t.expect);
            assert!(t.name.starts_with("icebar-r1-"));
        }
    }

    #[test]
    fn correct_spec_produces_only_regressions() {
        let good = parse_spec(
            "sig N { next: lone N } fact { no n: N | n in n.^next } \
             pred hasEdge { some next } run hasEdge for 3 expect 1",
        )
        .unwrap();
        let suite = derive_tests(&Oracle::new(), &good, 2, false);
        assert!(suite
            .tests()
            .iter()
            .all(|t| t.name.starts_with("regression-")));
        assert!(suite.all_pass(&good));
    }
}
