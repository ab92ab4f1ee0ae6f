//! Cross-crate integration: every technique repairs (or gracefully fails
//! on) real benchmark problems, end to end through parser, analyzer,
//! mutation, repair and metrics.

use mualloy_analyzer::{Analyzer, Oracle};
use specrepair_benchmarks::arepair;
use specrepair_core::{
    preserves_oracle_surface, CancelToken, OracleHandle, RepairBudget, RepairContext,
    RepairTechnique, UnionHybrid,
};
use specrepair_llm::{FeedbackSetting, MultiRound, PromptSetting, SingleRound};
use specrepair_metrics::{candidate_metrics, rep};
use specrepair_study::runner::hints_for;
use specrepair_traditional::{default_suite, Atr};

fn problems() -> Vec<specrepair_benchmarks::RepairProblem> {
    arepair(0.3)
}

fn budget() -> RepairBudget {
    RepairBudget {
        max_candidates: 60,
        max_rounds: 4,
    }
}

fn ctx_for(p: &specrepair_benchmarks::RepairProblem) -> RepairContext {
    RepairContext::new(p.faulty.clone(), budget())
        .with_source(&p.faulty_source)
        .with_oracle(OracleHandle::fresh())
        .with_cancel(CancelToken::none())
}

#[test]
fn traditional_tools_produce_verifiable_repairs() {
    let problems = problems();
    assert!(!problems.is_empty());
    let mut any_repaired = false;
    for tool in default_suite() {
        for p in &problems {
            let out = tool.repair(&ctx_for(p));
            if out.success && tool.name() != "ARepair" {
                // Oracle-validated success must hold up under re-analysis.
                let c = out
                    .candidate
                    .as_ref()
                    .expect("successful outcome has candidate");
                assert!(
                    Analyzer::new(c.clone()).satisfies_oracle().unwrap(),
                    "{} claimed success on {} but candidate fails oracle",
                    tool.name(),
                    p.id
                );
                any_repaired = true;
            }
        }
    }
    assert!(any_repaired, "no traditional tool repaired anything");
}

#[test]
fn successful_oracle_repairs_imply_rep_one() {
    // Because every benchmark command carries an expect annotation that the
    // ground truth satisfies, oracle success must coincide with REP = 1.
    let problems = problems();
    let tool = Atr::default();
    for p in &problems {
        let out = tool.repair(&ctx_for(p));
        if out.success {
            // A separate oracle from the repair's: REP is solved, not
            // replayed from the memo that accepted the candidate.
            assert_eq!(
                rep(&Oracle::new(), &p.truth, out.candidate_source.as_deref()),
                1,
                "oracle-passing ATR candidate for {} must be equisatisfiable",
                p.id
            );
        }
    }
}

#[test]
fn llm_pipelines_respect_the_oracle_surface() {
    let problems = problems();
    for p in problems.iter().take(6) {
        let hints = hints_for(p);
        for setting in [PromptSetting::Loc, PromptSetting::None] {
            let out = SingleRound::new(setting, 3)
                .with_hints(hints.clone())
                .repair(&ctx_for(p));
            if let (true, Some(c)) = (out.success, &out.candidate) {
                assert!(preserves_oracle_surface(&p.faulty, c));
            }
        }
        let out = MultiRound::new(FeedbackSetting::Generic, 3).repair(&ctx_for(p));
        if let (true, Some(c)) = (out.success, &out.candidate) {
            assert!(preserves_oracle_surface(&p.faulty, c));
            assert!(Analyzer::new(c.clone()).satisfies_oracle().unwrap());
        }
    }
}

#[test]
fn hybrid_union_dominates_both_constituents() {
    let problems = problems();
    let mut trad_only = 0;
    let mut llm_only = 0;
    let mut hybrid = 0;
    for p in &problems {
        let ctx = ctx_for(p);
        let t = Atr::default().repair(&ctx);
        let l = MultiRound::new(FeedbackSetting::None, 5).repair(&ctx);
        let h = UnionHybrid::new(Atr::default(), MultiRound::new(FeedbackSetting::None, 5))
            .repair(&ctx);
        trad_only += usize::from(
            rep(
                ctx.oracle.service(),
                &p.truth,
                t.candidate_source.as_deref(),
            ) == 1,
        );
        llm_only += usize::from(
            rep(
                ctx.oracle.service(),
                &p.truth,
                l.candidate_source.as_deref(),
            ) == 1,
        );
        hybrid += usize::from(
            rep(
                ctx.oracle.service(),
                &p.truth,
                h.candidate_source.as_deref(),
            ) == 1,
        );
    }
    assert!(
        hybrid >= trad_only.max(llm_only),
        "hybrid {hybrid} must dominate ATR {trad_only} and MR {llm_only}"
    );
}

#[test]
fn metrics_are_consistent_for_all_techniques() {
    let problems = problems();
    let p = &problems[0];
    let hints = hints_for(p);
    let mut techniques: Vec<Box<dyn RepairTechnique>> = default_suite();
    techniques.extend(specrepair_llm::default_suite(hints, 1));
    for t in techniques {
        let out = t.repair(&ctx_for(p));
        let m = candidate_metrics(
            &Oracle::new(),
            &p.truth,
            &p.truth_source,
            out.candidate_source.as_deref(),
        );
        if let Some(tm) = m.tm {
            assert!((0.0..=1.0).contains(&tm), "{}: TM {}", t.name(), tm);
        }
        if let Some(sm) = m.sm {
            assert!((0.0..=1.0).contains(&sm), "{}: SM {}", t.name(), sm);
        }
        if m.rep == 1 {
            assert!(out.candidate_source.is_some());
        }
    }
}
