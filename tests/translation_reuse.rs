//! Integration: an analyzer translates each scope's base (declarations and
//! facts) once and compiles every command on top of it. The reference is
//! the per-command path — a fresh analyzer, and so a fresh translation, for
//! every command — and every caller that runs several commands on one
//! analyzer must reproduce it exactly, instances and errors included.

use mualloy_analyzer::{
    compare, Analyzer, AnalyzerError, AnalyzerReport, CommandOutcome, EquisatReport,
};
use mualloy_syntax::ast::Spec;
use mualloy_syntax::parse_spec;
use specrepair_benchmarks::full_study;

/// Two scopes interleaved: the scope-2 base is reused across the scope-3
/// command between its two users, whose counterexample needs three atoms.
const INTERLEAVED: &str = "sig N { next: lone N } \
    fact Acyclic { no n: N | n in n.^next } \
    pred p { some next } \
    pred q { #N = 2 and some next } \
    assert a { #N < 3 } \
    run p for 2 expect 1 \
    check a for 3 expect 1 \
    run q for 2 expect 1";

/// An unknown target between valid commands, and a command whose formula
/// fails translation after compiling part of itself onto the base.
const UNKNOWN_TARGET: &str = "sig N { next: set N } \
    fact { some N } \
    pred p { some next } \
    pred bad { some next and N in next } \
    assert a { all n: N | some n.next } \
    run p for 3 expect 1 \
    run missing for 3 \
    run bad for 3 \
    check a for 3 expect 1 \
    run p for 3";

/// Facts that fail translation: no base is ever built, so every command
/// at every scope reports the same error.
const BROKEN_FACTS: &str = "sig N { next: set N } \
    fact Broken { some next and N in next } \
    pred p { some N } \
    assert a { no N } \
    run p for 2 \
    check a for 2 \
    run p for 3";

/// Every command of `spec` on a fresh analyzer of its own.
fn per_command(spec: &Spec) -> Vec<Result<CommandOutcome, AnalyzerError>> {
    spec.commands
        .iter()
        .map(|c| Analyzer::new(spec.clone()).run_command(c))
        .collect()
}

/// `spec` cut down to its `i`-th command.
fn only_command(spec: &Spec, i: usize) -> Spec {
    let mut one = spec.clone();
    one.commands = vec![spec.commands[i].clone()];
    one
}

/// [`AnalyzerReport::for_analyzer`] with a fresh analyzer per command.
fn report_per_command(spec: &Spec) -> AnalyzerReport {
    let commands = (0..spec.commands.len())
        .flat_map(|i| AnalyzerReport::for_analyzer(&Analyzer::new(only_command(spec, i))).commands)
        .collect();
    AnalyzerReport {
        well_formed: true,
        error: None,
        commands,
    }
}

/// [`compare`] with fresh analyzers on both sides for every command.
fn compare_per_command(truth: &Spec, candidate: &Spec) -> Result<EquisatReport, AnalyzerError> {
    let mut comparisons = Vec::new();
    for i in 0..truth.commands.len() {
        comparisons.extend(compare(&only_command(truth, i), candidate)?.comparisons);
    }
    Ok(EquisatReport { comparisons })
}

/// `execute_all`, the commands in reverse order on one analyzer, and the
/// Multi-Round report all match the per-command reference.
fn assert_matches_reference(spec: &Spec, label: &str) {
    let reference = per_command(spec);
    assert_eq!(
        Analyzer::new(spec.clone()).execute_all(),
        reference.iter().cloned().collect::<Result<Vec<_>, _>>(),
        "{label}: execute_all"
    );
    let analyzer = Analyzer::new(spec.clone());
    let mut reversed: Vec<_> = spec
        .commands
        .iter()
        .rev()
        .map(|c| analyzer.run_command(c))
        .collect();
    reversed.reverse();
    assert_eq!(reversed, reference, "{label}: reverse order");
    assert_eq!(
        AnalyzerReport::for_analyzer(&Analyzer::new(spec.clone())),
        report_per_command(spec),
        "{label}: analyzer report"
    );
}

fn assert_rep_matches_reference(truth: &Spec, candidate: &Spec, label: &str) {
    assert_eq!(
        compare(truth, candidate),
        compare_per_command(truth, candidate),
        "{label}: equisat"
    );
}

#[test]
fn benchmark_specs_match_the_per_command_path() {
    for p in full_study(0.005) {
        assert_matches_reference(&p.truth, &format!("{} truth", p.id));
        assert_matches_reference(&p.faulty, &format!("{} faulty", p.id));
        assert_rep_matches_reference(&p.truth, &p.faulty, &p.id);
    }
}

#[test]
fn hand_written_specs_match_the_per_command_path() {
    let specs: Vec<(&str, Spec)> = [
        ("interleaved", INTERLEAVED),
        ("unknown target", UNKNOWN_TARGET),
        ("broken facts", BROKEN_FACTS),
    ]
    .into_iter()
    .map(|(label, src)| (label, parse_spec(src).unwrap()))
    .collect();
    for (label, spec) in &specs {
        assert_matches_reference(spec, label);
        for (other, candidate) in &specs {
            assert_rep_matches_reference(spec, candidate, &format!("{label} vs {other}"));
        }
    }
}

#[test]
fn hand_written_specs_cover_their_cases() {
    let outcomes = per_command(&parse_spec(INTERLEAVED).unwrap());
    assert!(outcomes.iter().all(|o| o
        .as_ref()
        .is_ok_and(|o| o.instance.is_some() == o.sat && o.matches_expectation())));

    let outcomes = per_command(&parse_spec(UNKNOWN_TARGET).unwrap());
    assert!(outcomes[0].as_ref().is_ok_and(|o| o.sat));
    assert_eq!(
        outcomes[1],
        Err(AnalyzerError::UnknownTarget("missing".into()))
    );
    assert!(matches!(outcomes[2], Err(AnalyzerError::Translate(_))));
    let witness = |o: &Result<CommandOutcome, AnalyzerError>| {
        o.as_ref().map(|o| (o.sat, o.instance.clone())).ok()
    };
    assert!(outcomes[3].is_ok());
    assert_eq!(witness(&outcomes[4]), witness(&outcomes[0]));

    // A failed base build is not kept: every command retries it on the
    // same analyzer and reports the same error.
    let spec = parse_spec(BROKEN_FACTS).unwrap();
    let analyzer = Analyzer::new(spec.clone());
    let errors: Vec<_> = spec
        .commands
        .iter()
        .map(|c| analyzer.run_command(c).unwrap_err())
        .collect();
    assert!(matches!(errors[0], AnalyzerError::Translate(_)));
    assert!(errors.iter().all(|e| *e == errors[0]));
}
