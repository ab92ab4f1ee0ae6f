//! Integration: REP asked of the oracle's verdict chain equals its reference
//! definition. The reference is `equisat::compare` — every ground-truth
//! command run on both specs by fresh analyzers — scoring 0 when the truth
//! cannot execute its commands or the candidate does not parse. The oracle
//! answer must match it under every strategy: the incremental engine
//! (`Oracle::new`), the cold memoizing path (`Oracle::cold`) and the
//! reference arm (`Oracle::disabled`).

use mualloy_analyzer::{compare, Oracle};
use mualloy_syntax::ast::Spec;
use mualloy_syntax::parse_spec;
use specrepair_benchmarks::full_study;
use specrepair_core::OracleHandle;
use specrepair_metrics::rep;
use specrepair_study::runner::{record_from, repair_with_oracle};
use specrepair_study::{StudyConfig, TechniqueId};

/// The reference REP of `candidate_source` against `truth`.
fn reference(truth: &Spec, candidate_source: &str) -> u8 {
    match parse_spec(candidate_source) {
        Ok(candidate) => compare(truth, &candidate).map_or(0, |r| r.rep()),
        Err(_) => 0,
    }
}

/// Asserts the oracle REP equals the reference on fresh oracles of every
/// strategy, and returns the reference.
fn assert_rep_agrees(truth: &Spec, candidate_source: &str, what: &str) -> u8 {
    let expected = reference(truth, candidate_source);
    for (arm, oracle) in [
        ("new", Oracle::new()),
        ("cold", Oracle::cold()),
        ("disabled", Oracle::disabled()),
    ] {
        assert_eq!(
            rep(&oracle, truth, Some(candidate_source)),
            expected,
            "{what}: oracle REP ({arm}) differs from the reference"
        );
    }
    expected
}

#[test]
fn study_candidates_score_like_the_reference() {
    let problems = full_study(0.005);
    assert!(!problems.is_empty());
    for seed in [42, 11] {
        let config = StudyConfig {
            scale: 0.005,
            seed,
            ..StudyConfig::default()
        };
        let mut scored = 0;
        let mut repaired = 0;
        for p in &problems {
            // The cells of one problem share an oracle, as in the study, so
            // REP meets a memo warmed by the repairs and by earlier cells.
            let cells = OracleHandle::fresh();
            let cold = Oracle::cold();
            let disabled = Oracle::disabled();
            for id in TechniqueId::all() {
                let outcome = repair_with_oracle(&cells, id, p, &config);
                let Some(src) = outcome.candidate_source.as_deref() else {
                    continue;
                };
                let expected = reference(&p.truth, src);
                let what = format!("seed {seed}, {} on {}", id.label(), p.id);
                let record = record_from(cells.service(), p, id.label(), &outcome);
                assert_eq!(record.rep, expected, "{what}: study record (new)");
                assert_eq!(rep(&cold, &p.truth, Some(src)), expected, "{what}: cold");
                assert_eq!(
                    rep(&disabled, &p.truth, Some(src)),
                    expected,
                    "{what}: disabled"
                );
                scored += 1;
                repaired += usize::from(expected);
            }
        }
        assert!(scored > 0, "seed {seed}: no candidates scored");
        assert!(repaired > 0, "seed {seed}: no candidate reached REP 1");
    }
}

const TRUTH: &str = "sig N { next: lone N } \
    fact Acyclic { no n: N | n in n.^next } \
    pred somePath { some n: N | some n.next } \
    assert NoSelfLoop { all n: N | n not in n.next } \
    run somePath for 3 expect 1 \
    check NoSelfLoop for 3 expect 0";

#[test]
fn hand_written_cases_score_like_the_reference() {
    let truth = parse_spec(TRUTH).unwrap();
    assert_eq!(assert_rep_agrees(&truth, TRUTH, "the truth itself"), 1);
    let equivalent = TRUTH.replace("no n: N | n in n.^next", "all n: N | n not in n.^next");
    assert_eq!(
        assert_rep_agrees(&truth, &equivalent, "an equivalent fact"),
        1
    );
    let broken = TRUTH.replace("no n: N | n in n.^next", "some N || no N");
    assert_eq!(assert_rep_agrees(&truth, &broken, "a broken fact"), 0);

    // A truth without commands verifies nothing.
    let bare = parse_spec("sig N { next: lone N }").unwrap();
    assert_eq!(
        assert_rep_agrees(&bare, "sig N { next: lone N }", "no truth commands"),
        0
    );

    // A candidate missing a command's target cannot run that command.
    let missing = TRUTH
        .replace("pred somePath { some n: N | some n.next }", "")
        .replace("run somePath for 3 expect 1", "");
    assert_eq!(assert_rep_agrees(&truth, &missing, "a missing target"), 0);

    // The truth's commands are the ones that count: a candidate's own
    // scope or annotation changes neither side.
    let rescoped = TRUTH.replace("check NoSelfLoop for 3", "check NoSelfLoop for 1");
    assert_eq!(assert_rep_agrees(&truth, &rescoped, "a changed scope"), 1);
    let reannotated = TRUTH.replace("run somePath for 3 expect 1", "run somePath for 3 expect 0");
    assert_eq!(
        assert_rep_agrees(&truth, &reannotated, "a changed expect"),
        1
    );
    // REP compares with the truth's results, not its annotations.
    let misannotated = parse_spec(&reannotated).unwrap();
    assert_eq!(
        assert_rep_agrees(&misannotated, TRUTH, "a truth annotation it fails"),
        1
    );
    let rescoped_broken = broken.replace("check NoSelfLoop for 3", "check NoSelfLoop for 1");
    assert_eq!(
        assert_rep_agrees(&truth, &rescoped_broken, "a broken fact at a changed scope"),
        0
    );

    // An extra sig is a new skeleton: a fresh engine session at the
    // truth's scopes.
    let extra = format!("sig Extra {{}} {TRUTH}");
    assert_eq!(assert_rep_agrees(&truth, &extra, "an extra sig"), 1);
    let extra_broken = format!("sig Extra {{}} {broken}");
    assert_eq!(
        assert_rep_agrees(&truth, &extra_broken, "an extra sig, broken fact"),
        0
    );

    assert_eq!(
        assert_rep_agrees(&truth, "sig {", "an unparsable candidate"),
        0
    );

    // A truth command that fails to translate scores every candidate 0.
    let untranslatable = format!("{TRUTH} pred bad {{ some next and N in next }} run bad for 3");
    let bad_truth = parse_spec(&untranslatable).unwrap();
    assert!(compare(&bad_truth, &bad_truth).is_err());
    assert_eq!(
        assert_rep_agrees(&bad_truth, &untranslatable, "an untranslatable truth"),
        0
    );
}

#[test]
fn accepted_candidates_score_from_the_memo() {
    let truth = parse_spec(TRUTH).unwrap();
    let equivalent = TRUTH.replace("no n: N | n in n.^next", "all n: N | n not in n.^next");
    let oracle = Oracle::new();
    assert!(oracle
        .satisfies_oracle(&parse_spec(&equivalent).unwrap())
        .unwrap());
    let before = oracle.stats();
    assert_eq!(rep(&oracle, &truth, Some(&equivalent)), 1);
    let after = oracle.stats();
    // The truth's results are solved once; the probe is the candidate.
    assert_eq!(after.solver_invocations - before.solver_invocations, 1);
    assert_eq!(after.hits - before.hits, 1);
    // Scoring again solves nothing.
    assert_eq!(rep(&oracle, &truth, Some(&equivalent)), 1);
    assert_eq!(oracle.stats().solver_invocations, after.solver_invocations);
}
