//! Integration: the three study metrics agree with independent semantic
//! ground truth across crates (analyzer ⟷ metrics ⟷ benchmarks).

use mualloy_analyzer::{compare, Analyzer, Oracle};
use specrepair_benchmarks::full_study;
use specrepair_metrics::{candidate_metrics, rep, sentence_bleu, syntax_match};

#[test]
fn rep_equals_oracle_verdict_on_benchmark_entries() {
    // Every benchmark command carries an `expect` annotation satisfied by
    // the ground truth, so REP(candidate) == candidate-satisfies-oracle.
    for p in full_study(0.003) {
        let oracle = Oracle::new();
        // The faulty spec fails its oracle, so REP must be 0 ...
        assert_eq!(
            rep(&oracle, &p.truth, Some(&p.faulty_source)),
            0,
            "{}",
            p.id
        );
        // ... and the ground truth itself scores 1.
        assert_eq!(rep(&oracle, &p.truth, Some(&p.truth_source)), 1, "{}", p.id);
    }
}

#[test]
fn equisat_report_details_mismatches() {
    let problems = full_study(0.003);
    let p = &problems[0];
    let report = compare(&p.truth, &p.faulty).unwrap();
    assert_eq!(report.rep(), 0);
    assert!(report.mismatches().count() > 0);
    // And the command list matches the ground truth's commands.
    assert_eq!(report.comparisons.len(), p.truth.commands.len());
}

#[test]
fn similarity_of_faulty_vs_truth_is_high_but_imperfect() {
    // Injected faults are small edits: TM/SM should be high (the texts are
    // near-identical) yet below 1 for operator-level faults.
    let mut below_one = 0;
    let mut total = 0;
    for p in full_study(0.003) {
        let m = candidate_metrics(
            &Oracle::new(),
            &p.truth,
            &p.truth_source,
            Some(&p.faulty_source),
        );
        assert_eq!(m.rep, 0);
        let tm = m.tm.unwrap();
        let sm = m.sm.unwrap();
        assert!(tm > 0.3, "{}: TM {tm}", p.id);
        assert!(sm > 0.3, "{}: SM {sm}", p.id);
        total += 1;
        if sm < 1.0 {
            below_one += 1;
        }
    }
    assert!(below_one * 2 > total, "most faults should change the tree");
}

#[test]
fn tm_and_sm_disagree_in_the_expected_direction_on_reformatting() {
    // Canonical re-rendering changes only whitespace and paragraph order:
    // SM (parse trees) stays exactly 1.0, while TM (an order-sensitive
    // n-gram measure) may dip slightly when paragraphs are regrouped but
    // must stay high — this is precisely the TM-vs-SM gap Figure 2 reports.
    let mut tms = Vec::new();
    for p in full_study(0.002) {
        let reformatted = mualloy_syntax::print_spec(&p.truth);
        let sm = syntax_match(&p.truth_source, &reformatted);
        assert!((sm - 1.0).abs() < 1e-9, "{}: SM {sm}", p.id);
        let tm = sentence_bleu(&p.truth_source, &reformatted);
        assert!(tm > 0.5, "{}: TM {tm}", p.id);
        assert!(
            tm <= sm + 1e-9,
            "{}: TM {tm} should not exceed SM {sm}",
            p.id
        );
        tms.push(tm);
    }
    let mean_tm = tms.iter().sum::<f64>() / tms.len() as f64;
    assert!(mean_tm > 0.85, "mean TM under re-rendering was {mean_tm}");
}

#[test]
fn analyzer_and_evaluator_agree_on_witnesses() {
    // For each failing check of each faulty spec, the counterexample the
    // analyzer returns must indeed violate the assertion per the ground
    // evaluator (exercised through Analyzer::evaluate).
    for p in full_study(0.002) {
        let analyzer = Analyzer::new(p.faulty.clone());
        for outcome in analyzer.failing_commands().unwrap() {
            if !outcome.command.is_check() || !outcome.sat {
                continue;
            }
            let name = outcome.command.target();
            let cex = outcome.instance.as_ref().expect("sat check has witness");
            let body =
                mualloy_syntax::ast::Formula::conjoin(p.faulty.assert(name).unwrap().body.clone());
            let holds = analyzer.evaluate(cex, &body).unwrap();
            assert!(
                !holds,
                "{}: counterexample satisfies assertion {name}",
                p.id
            );
        }
    }
}
