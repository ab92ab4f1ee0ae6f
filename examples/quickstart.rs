//! Quickstart: parse a faulty μAlloy specification, analyze it, repair it
//! with two different techniques, and score the repairs against the ground
//! truth.
//!
//! Run with: `cargo run --release --example quickstart`

use mualloy_analyzer::AnalyzerReport;
use specrepair_core::{RepairBudget, RepairContext, RepairTechnique};
use specrepair_llm::{FeedbackSetting, MultiRound};
use specrepair_metrics::candidate_metrics;
use specrepair_traditional::Atr;

const GROUND_TRUTH: &str = "\
sig Node { next: lone Node }
fact Acyclic { no n: Node | n in n.^next }
pred hasEdge { some next }
assert NoSelfLoop { all n: Node | n not in n.next }
run hasEdge for 3 expect 1
check NoSelfLoop for 3 expect 0
";

/// The same specification with a student-style bug: the acyclicity fact
/// quantifies the wrong way around.
const FAULTY: &str = "\
sig Node { next: lone Node }
fact Acyclic { some n: Node | n in n.^next }
pred hasEdge { some next }
assert NoSelfLoop { all n: Node | n not in n.next }
run hasEdge for 3 expect 1
check NoSelfLoop for 3 expect 0
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The analyzer reports what is wrong with the faulty specification.
    println!("=== Analyzer report for the faulty specification ===");
    let report = AnalyzerReport::for_source(FAULTY);
    print!("{report}");
    assert!(!report.all_ok(), "the fault must be observable");

    // 2. Repair it with a traditional tool (ATR) ...
    let ctx = RepairContext::from_source(FAULTY, RepairBudget::default())?;
    let atr_outcome = Atr::default().repair(&ctx);
    println!("\n=== ATR ===");
    println!(
        "success: {} after {} validations",
        atr_outcome.success, atr_outcome.candidates_explored
    );

    // 3. ... and with the Multi-Round LLM pipeline.
    let mr_outcome = MultiRound::new(FeedbackSetting::Generic, 7).repair(&ctx);
    println!("\n=== Multi-Round_Generic ===");
    println!(
        "success: {} after {} validations in {} round(s)",
        mr_outcome.success, mr_outcome.candidates_explored, mr_outcome.rounds
    );

    // 4. Score both candidates against the ground truth with the paper's
    // metrics (REP / TM / SM); REP is asked of the context's oracle.
    let truth = mualloy_syntax::parse_spec(GROUND_TRUTH)?;
    for (name, outcome) in [("ATR", &atr_outcome), ("Multi-Round", &mr_outcome)] {
        let m = candidate_metrics(
            ctx.oracle.service(),
            &truth,
            GROUND_TRUTH,
            outcome.candidate_source.as_deref(),
        );
        println!(
            "{name}: REP={} TM={:.3} SM={:.3}",
            m.rep,
            m.tm.unwrap_or(0.0),
            m.sm.unwrap_or(0.0)
        );
    }

    // 5. Show one repaired specification and double-check it against the
    // context's shared oracle (ATR already validated it, so this replays
    // from the memo table without another solve).
    if let Some(candidate) = &atr_outcome.candidate {
        println!("\n=== ATR's repaired specification ===");
        print!("{}", mualloy_syntax::print_spec(candidate));
        assert!(ctx.oracle.service().satisfies_oracle(candidate)?);
    }
    Ok(())
}
