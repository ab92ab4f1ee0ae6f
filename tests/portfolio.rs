//! Integration: the racing portfolio scheduler end to end.
//!
//! The contract under test is the tentpole's determinism claim: racing a
//! roster at N workers produces byte-identical `SpecRecord`s to the
//! one-worker sequential fallback chain, which itself equals the
//! `UnionHybrid` composition of the same members — so the portfolio
//! reproduces the Table II union rows while only the wall-clock changes.
//! Alongside it: a deliberately-slow entrant is *observably* cancelled (its
//! oracle call count stops growing once a faster entrant wins), and a
//! `FaultyLm`-afflicted entrant loses the race instead of stalling it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

use proptest::prelude::*;
use specrepair_benchmarks::RepairProblem;
use specrepair_core::{
    CancelToken, OracleHandle, RepairBudget, RepairContext, RepairOutcome, RepairTechnique,
    UnionHybrid,
};
use specrepair_faults::FaultPlan;
use specrepair_llm::{
    FaultyLm, FeedbackSetting, MultiRound, PromptSetting, ResilientLm, RetryPolicy, SingleRound,
    SyntheticLm,
};
use specrepair_portfolio::{Entrant, Portfolio};
use specrepair_study::runner::{hints_for_with, record_from};
use specrepair_study::{portfolio, RosterId, StudyConfig, TechniqueId};
use specrepair_traditional::ARepair;

/// The shared smoke corpus, generated once.
fn problems() -> &'static Vec<RepairProblem> {
    static PROBLEMS: OnceLock<Vec<RepairProblem>> = OnceLock::new();
    PROBLEMS.get_or_init(|| specrepair_benchmarks::full_study(0.002))
}

fn config(seed: u64) -> StudyConfig {
    StudyConfig {
        scale: 0.002,
        seed,
        ..StudyConfig::default()
    }
}

/// Races `roster` on `problem` at the given worker count and scores the
/// merged outcome into the `SpecRecord` the study would emit.
fn record_at(
    roster: RosterId,
    problem: &RepairProblem,
    config: &StudyConfig,
    workers: usize,
) -> String {
    let oracle = OracleHandle::fresh();
    let raced = portfolio::race(&oracle, roster, problem, config, Some(workers));
    let record = record_from(oracle.service(), problem, roster.label(), &raced.outcome);
    serde_json::to_string(&record).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Determinism: the same roster + seed yields byte-identical records at
    /// one worker (the sequential fallback chain) and at eight.
    #[test]
    fn one_vs_eight_workers_is_byte_identical(
        seed in any::<u64>(),
        problem_index in 0usize..64,
        roster_index in 0usize..3,
    ) {
        let roster = [
            RosterId::ArepairSrLoc,
            RosterId::ArepairMrAuto,
            RosterId::Traditional,
        ][roster_index];
        let problems = problems();
        let problem = &problems[problem_index % problems.len()];
        let config = config(seed);
        let sequential = record_at(roster, problem, &config, 1);
        let racing = record_at(roster, problem, &config, 8);
        prop_assert_eq!(sequential, racing);
    }
}

/// The full 12-technique roster is deterministic too, over every smoke
/// problem (non-proptest so it runs the whole sample exactly once).
#[test]
fn all_techniques_roster_is_deterministic_across_the_sample() {
    let config = config(42);
    for problem in problems() {
        assert_eq!(
            record_at(RosterId::All, problem, &config, 1),
            record_at(RosterId::All, problem, &config, 8),
            "divergence on {}",
            problem.id
        );
    }
}

/// Wraps a technique so it always runs under its own calibrated budget —
/// how the portfolio treats entrants, applied here to `UnionHybrid` arms so
/// the two compositions are comparable member-for-member.
struct Budgeted<T> {
    inner: T,
    budget: RepairBudget,
}

impl<T: RepairTechnique> RepairTechnique for Budgeted<T> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn repair(&self, ctx: &RepairContext) -> RepairOutcome {
        let ctx = RepairContext {
            faulty: ctx.faulty.clone(),
            source: ctx.source.clone(),
            budget: self.budget,
            oracle: ctx.oracle.clone(),
            hasher: ctx.hasher.clone(),
            cancel: ctx.cancel.clone(),
        };
        self.inner.repair(&ctx)
    }
}

/// The acceptance criterion: the portfolio's REP vector equals the
/// sequential `UnionHybrid` union of the same roster — checked field by
/// field on the whole smoke sample, not just REP.
#[test]
fn portfolio_equals_the_union_hybrid_of_its_roster() {
    let config = config(42);
    let roster = RosterId::ArepairSrLoc;
    for problem in problems() {
        let oracle = OracleHandle::fresh();
        let raced = portfolio::race(&oracle, roster, problem, &config, Some(4));
        let portfolio_record =
            record_from(oracle.service(), problem, roster.label(), &raced.outcome);

        // The same pair as a sequential UnionHybrid, each arm under the
        // member's calibrated budget and the same shared oracle.
        let oracle = OracleHandle::fresh();
        let hybrid = UnionHybrid::new(
            Budgeted {
                inner: ARepair::default(),
                budget: config.budget_for(TechniqueId::ARepair),
            },
            Budgeted {
                inner: SingleRound::new(PromptSetting::Loc, config.seed)
                    .with_hints(hints_for_with(oracle.service(), problem))
                    .with_lm(ResilientLm::synthetic()),
                budget: config.budget_for(TechniqueId::Single(PromptSetting::Loc)),
            },
        );
        let ctx = RepairContext::new(problem.faulty.clone(), RepairBudget::default())
            .with_source(&problem.faulty_source)
            .with_oracle(oracle.clone())
            .with_cancel(CancelToken::none());
        let union = hybrid.repair(&ctx);
        let union_record = record_from(oracle.service(), problem, roster.label(), &union);

        assert_eq!(
            serde_json::to_string(&portfolio_record).unwrap(),
            serde_json::to_string(&union_record).unwrap(),
            "portfolio and UnionHybrid diverged on {}",
            problem.id
        );
    }
}

/// A deliberately-slow entrant is observably cancelled: once the fast
/// entrant wins, the slow one's oracle call count stops growing (well short
/// of the bound it would otherwise reach).
#[test]
fn slow_entrant_is_observably_cancelled() {
    const BOUND: usize = 100_000;
    let problem = &problems()[0];
    let oracle = OracleHandle::fresh();
    let ctx = RepairContext::new(problem.faulty.clone(), RepairBudget::default())
        .with_source(&problem.faulty_source)
        .with_oracle(oracle.clone())
        .with_cancel(CancelToken::none());
    let slow_calls = AtomicUsize::new(0);
    let entrants = vec![
        Entrant::new("fast-win", RepairBudget::default(), |c: &RepairContext| {
            std::thread::sleep(Duration::from_millis(10));
            RepairOutcome::success_with("fast-win", c.faulty.clone(), 1, 1)
        }),
        Entrant::new("slow", RepairBudget::default(), |c: &RepairContext| {
            let mut n = 0;
            while !c.cancelled() && n < BOUND {
                let _ = c.oracle.service().failing_commands(&c.faulty);
                n += 1;
                slow_calls.store(n, Ordering::SeqCst);
            }
            RepairOutcome::failure("slow", n, 1)
        }),
    ];
    let out = Portfolio::new("P").with_workers(2).race(&ctx, entrants);
    assert_eq!(out.winner, Some(0));
    assert!(
        out.entrants[1].cancelled_at_ms.is_some(),
        "slow entrant was never cancelled: {:?}",
        out.entrants[1]
    );
    let calls_at_finish = slow_calls.load(Ordering::SeqCst);
    assert!(
        calls_at_finish < BOUND,
        "slow entrant ran to its bound despite the cancellation"
    );
    // The race has fully joined: the count is frozen — no zombie worker
    // keeps hammering the oracle after the merged outcome is returned.
    let queries = |s: mualloy_analyzer::OracleCacheStats| s.hits + s.misses;
    let frozen = queries(oracle.stats());
    std::thread::sleep(Duration::from_millis(25));
    assert_eq!(queries(oracle.stats()), frozen);
    assert_eq!(slow_calls.load(Ordering::SeqCst), calls_at_finish);
}

/// Chaos-compat: an entrant whose LM transport always faults exhausts its
/// retries, fails, and thereby *loses* the race — it neither stalls the
/// scheduler nor poisons the merged outcome.
#[test]
fn faulty_lm_entrant_loses_instead_of_stalling() {
    let problem = &problems()[0];
    let oracle = OracleHandle::fresh();
    let ctx = RepairContext::new(problem.faulty.clone(), RepairBudget::default())
        .with_source(&problem.faulty_source)
        .with_oracle(oracle.clone())
        .with_cancel(CancelToken::none());
    let afflicted_lm = ResilientLm::over(FaultyLm::new(
        SyntheticLm::default(),
        FaultPlan::new(0xBAD, 1.0),
    ))
    .with_policy(RetryPolicy::snappy().with_max_retries(3));
    let afflicted = MultiRound::new(FeedbackSetting::Auto, 7).with_lm(afflicted_lm);
    let entrants = vec![
        Entrant::new(
            "afflicted",
            RepairBudget::default(),
            move |c: &RepairContext| afflicted.repair(c),
        ),
        Entrant::new("healthy", RepairBudget::default(), |c: &RepairContext| {
            RepairOutcome::success_with("healthy", c.faulty.clone(), 1, 1)
        }),
    ];
    let out = Portfolio::new("P").with_workers(2).race(&ctx, entrants);
    assert!(
        !out.entrants[0].success,
        "a 100%-fault LM must not produce a success: {:?}",
        out.entrants[0]
    );
    assert_eq!(out.winner, Some(1), "the healthy entrant wins the race");
    assert!(out.outcome.success);
}
