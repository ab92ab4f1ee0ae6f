//! Integration: Multi-Round prepares a next-round prompt only for a round
//! that will run. A failing Generic cell of two rounds runs the prompt
//! agent once, after round one, and not after the last round, whose
//! prompt nothing would read.
//!
//! This binary holds a single test: the span collector is process-global,
//! so a second concurrently-running test would interleave spans.

use std::sync::Arc;

use specrepair_core::{RepairBudget, RepairContext};
use specrepair_llm::{FeedbackSetting, TransportStats};
use specrepair_study::{runner, StudyConfig, TechniqueId};
use specrepair_trace::{self as trace, AttrValue};

/// No candidate can fix it: the check's expected counterexample does not
/// exist, and assertion bodies are never mutated.
const UNFIXABLE: &str = "sig A {} fact F { no A } \
    assert Tautology { no none } \
    check Tautology for 2 expect 1";

#[test]
fn a_failing_two_round_cell_prepares_one_feedback_round() {
    let ctx = RepairContext::from_source(
        UNFIXABLE,
        RepairBudget {
            max_candidates: 10,
            max_rounds: 2,
        },
    )
    .unwrap();
    trace::set_enabled(true);
    let (outcome, _) = runner::run_cell(
        &ctx,
        TechniqueId::Multi(FeedbackSetting::Generic),
        &StudyConfig::default(),
        "unfixable",
        None,
        &Arc::new(TransportStats::default()),
    )
    .into_parts();
    trace::set_enabled(false);
    let spans = trace::take_spans();

    assert!(!outcome.success);
    assert_eq!(outcome.rounds, 2);
    assert!(outcome.candidate.is_some(), "no candidate parsed");
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count();
    assert_eq!(count("cell"), 1);
    assert_eq!(count("lm.round"), 2);
    let feedback: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "technique.feedback")
        .collect();
    assert_eq!(feedback.len(), 1, "one prompt to prepare, for round two");
    assert!(
        feedback[0].attrs.contains(&("round", AttrValue::U64(1))),
        "{:?}",
        feedback[0].attrs
    );
}
