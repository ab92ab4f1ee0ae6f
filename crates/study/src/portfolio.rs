//! Portfolio rows of the study: race the built-in rosters per problem,
//! compare against the sequential fallback chain (`UnionHybrid` generalized
//! to N entrants) and the members' union (Table II), and measure the
//! wall-clock speedup the racing scheduler buys.
//!
//! The determinism contract is checked here end-to-end: the racing pass and
//! the one-worker sequential pass must produce byte-identical
//! [`SpecRecord`]s ([`PortfolioStudy::records_identical`]).

use serde::Serialize;
use specrepair_benchmarks::RepairProblem;
use specrepair_core::{CancelToken, DedupStats, OracleHandle, RepairContext};
use specrepair_portfolio::{Entrant, Portfolio, PortfolioOutcome};
use std::time::Instant;

use crate::config::{RosterId, StudyConfig, TechniqueId};
use crate::runner::{evaluate_cell, record_from, run_solo, SpecRecord};

/// Builds the rank-ordered entrants of one roster on one problem. Each
/// entrant is the member's exact solo cell — same calibrated budget, same
/// chaos fault plan (keyed by problem and member label, not by schedule) —
/// run against the per-entrant context the scheduler prepares (child cancel
/// token, shared oracle).
pub fn entrants_for<'a>(
    roster: RosterId,
    problem: &'a RepairProblem,
    config: &'a StudyConfig,
) -> Vec<Entrant<'a>> {
    roster
        .members()
        .into_iter()
        .map(|member| {
            Entrant::new(
                member.label(),
                config.budget_for(member),
                move |ctx: &RepairContext| run_solo(member, problem, config, ctx),
            )
        })
        .collect()
}

/// Races one roster on one problem, sharing `oracle` across all entrants.
/// `workers: None` sizes the pool to the machine; `Some(1)` degenerates to
/// the sequential fallback chain.
pub fn race(
    oracle: &OracleHandle,
    roster: RosterId,
    problem: &RepairProblem,
    config: &StudyConfig,
    workers: Option<usize>,
) -> PortfolioOutcome {
    let ctx = RepairContext::new(
        problem.faulty.clone(),
        config.budget_for(TechniqueId::Portfolio(roster)),
    )
    .with_source(&problem.faulty_source)
    .with_oracle(oracle.clone())
    .with_cancel(CancelToken::none());
    let mut portfolio = Portfolio::new(roster.label());
    if let Some(w) = workers {
        portfolio = portfolio.with_workers(w);
    }
    // Same deterministic span-id space as a solo cell: the race's entrant
    // spans hang off this root at ordinals `rank + 1`, so one-worker and
    // N-worker traces of the same cell carry identical span ids.
    let _trace_scope =
        specrepair_trace::cell_scope(config.cell_seed_for(&problem.id, roster.label()), 0, None);
    let cell_span = specrepair_trace::span("cell", specrepair_trace::Phase::Orchestration);
    if cell_span.is_active() {
        cell_span.attr_str("technique", roster.label());
        cell_span.attr_str("problem", &problem.id);
    }
    portfolio.race(&ctx, entrants_for(roster, problem, config))
}

/// One roster member's standing across the portfolio study.
#[derive(Debug, Clone, Serialize)]
pub struct MemberStanding {
    /// Member label.
    pub label: String,
    /// Static rank in the roster (lower wins arbitration).
    pub rank: usize,
    /// Solo REP count of this member over the problem set.
    pub rep: usize,
    /// Races this member won.
    pub wins: usize,
}

/// The portfolio study report: racing vs. sequential vs. solo baselines.
#[derive(Debug, Clone, Serialize)]
pub struct PortfolioStudy {
    /// Roster label (`Portfolio_…`).
    pub roster: String,
    /// Worker-pool size of the racing pass.
    pub workers: usize,
    /// Problems evaluated.
    pub num_problems: usize,
    /// REP of the racing portfolio.
    pub portfolio_rep: usize,
    /// REP of the one-worker sequential fallback chain (the generalized
    /// `UnionHybrid`). Equals `portfolio_rep` when determinism holds.
    pub sequential_rep: usize,
    /// Problems where at least one member's solo cell reached REP — the
    /// Table II union count for this roster.
    pub union_rep: usize,
    /// Best solo member REP count.
    pub best_single_rep: usize,
    /// Label of the best solo member.
    pub best_single: String,
    /// Wall-clock of the racing pass, summed over problems (measured).
    pub racing_wall_ms: u64,
    /// Wall-clock of the sequential pass, summed over problems (measured).
    pub sequential_wall_ms: u64,
    /// `sequential_wall_ms / racing_wall_ms` (measured speedup).
    pub speedup: f64,
    /// Whether the racing and sequential passes produced byte-identical
    /// `SpecRecord`s — the determinism acceptance check.
    pub records_identical: bool,
    /// Candidate-budget units spent across all entrants of all races.
    pub budget_spent: usize,
    /// Candidate-budget units saved by cancellation across all races.
    pub budget_saved: usize,
    /// Verdict-chain counters aggregated over the racing pass: entrants of
    /// one race share the per-problem oracle, so every cross-entrant
    /// duplicate candidate lands here as a hit (or a coalesced in-flight
    /// wait).
    pub dedup: DedupStats,
    /// Per-member standings, in rank order.
    pub members: Vec<MemberStanding>,
    /// The racing portfolio's records, in problem order.
    pub records: Vec<SpecRecord>,
}

/// Runs the portfolio study over one roster: solo baselines for every
/// member (sharing one memoizing oracle per problem, as the main study
/// does), a timed one-worker sequential pass, and a timed racing pass at
/// `workers`.
pub fn run_portfolio_study(
    problems: &[RepairProblem],
    config: &StudyConfig,
    roster: RosterId,
    workers: usize,
) -> PortfolioStudy {
    let member_ids = roster.members();
    let mut members: Vec<MemberStanding> = member_ids
        .iter()
        .enumerate()
        .map(|(rank, m)| MemberStanding {
            label: m.label().to_string(),
            rank,
            rep: 0,
            wins: 0,
        })
        .collect();
    let mut union_rep = 0;
    let mut racing_records = Vec::with_capacity(problems.len());
    let mut sequential_records = Vec::with_capacity(problems.len());
    let (mut racing_wall_ms, mut sequential_wall_ms) = (0u64, 0u64);
    let (mut budget_spent, mut budget_saved) = (0usize, 0usize);
    let mut dedup = DedupStats::default();

    for problem in problems {
        // Solo baselines: all members against one shared per-problem oracle.
        let oracle = OracleHandle::fresh();
        let mut any = false;
        for (rank, &member) in member_ids.iter().enumerate() {
            let r = evaluate_cell(&oracle, member, problem, config);
            if r.rep == 1 {
                members[rank].rep += 1;
                any = true;
            }
        }
        if any {
            union_rep += 1;
        }

        // Sequential baseline: one worker = rank-ordered fallback chain.
        let seq_oracle = OracleHandle::fresh();
        let t = Instant::now();
        let seq = race(&seq_oracle, roster, problem, config, Some(1));
        sequential_wall_ms += t.elapsed().as_millis() as u64;
        sequential_records.push(record_from(
            seq_oracle.service(),
            problem,
            roster.label(),
            &seq.outcome,
        ));

        // The racing portfolio.
        let race_oracle = OracleHandle::fresh();
        let t = Instant::now();
        let raced = race(&race_oracle, roster, problem, config, Some(workers));
        racing_wall_ms += t.elapsed().as_millis() as u64;
        dedup.absorb(&race_oracle.dedup_stats());
        if let Some(w) = raced.winner {
            members[w].wins += 1;
        }
        budget_spent += raced.budget_spent;
        budget_saved += raced.budget_saved;
        racing_records.push(record_from(
            race_oracle.service(),
            problem,
            roster.label(),
            &raced.outcome,
        ));
    }

    let records_identical = serde_json::to_string(&racing_records).unwrap()
        == serde_json::to_string(&sequential_records).unwrap();
    let portfolio_rep = racing_records.iter().map(|r| r.rep as usize).sum();
    let sequential_rep = sequential_records.iter().map(|r| r.rep as usize).sum();
    // Best solo member; rank order breaks ties (fold keeps the first max).
    let best = members.iter().fold(
        &members[0],
        |best, m| if m.rep > best.rep { m } else { best },
    );
    PortfolioStudy {
        roster: roster.label().to_string(),
        workers,
        num_problems: problems.len(),
        portfolio_rep,
        sequential_rep,
        union_rep,
        best_single_rep: best.rep,
        best_single: best.label.clone(),
        racing_wall_ms,
        sequential_wall_ms,
        speedup: sequential_wall_ms as f64 / racing_wall_ms.max(1) as f64,
        records_identical,
        budget_spent,
        budget_saved,
        dedup,
        members,
        records: racing_records,
    }
}

/// Renders the portfolio study as text.
pub fn render(s: &PortfolioStudy) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Portfolio study — {} ({} members, {} workers, {} problems)\n",
        s.roster,
        s.members.len(),
        s.workers,
        s.num_problems
    ));
    out.push_str(&format!(
        "REP   racing {}   sequential-chain {}   member-union {}   best-single {} ({})\n",
        s.portfolio_rep, s.sequential_rep, s.union_rep, s.best_single, s.best_single_rep
    ));
    out.push_str(&format!(
        "wall  racing {} ms   sequential {} ms   speedup {:.2}x\n",
        s.racing_wall_ms, s.sequential_wall_ms, s.speedup
    ));
    out.push_str(&format!(
        "determinism: 1-vs-{}-worker records identical = {}\n",
        s.workers, s.records_identical
    ));
    out.push_str(&format!(
        "budget: {} candidate units spent, {} saved by cancellation\n",
        s.budget_spent, s.budget_saved
    ));
    out.push_str(&format!(
        "dedup: {} hits / {} misses ({:.1}% dedup rate), {} coalesced in-flight\n",
        s.dedup.hits,
        s.dedup.misses,
        s.dedup.dedup_rate() * 100.0,
        s.dedup.coalesced
    ));
    out.push_str("member            rank  solo-REP  wins\n");
    for m in &s.members {
        out.push_str(&format!(
            "{:<32} {:>3} {:>8} {:>5}\n",
            m.label, m.rank, m.rep, m.wins
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Vec<RepairProblem>, StudyConfig) {
        let config = StudyConfig {
            scale: 0.003,
            seed: 7,
            ..StudyConfig::default()
        };
        (specrepair_benchmarks::full_study(config.scale), config)
    }

    #[test]
    fn racing_matches_the_sequential_chain() {
        let (problems, config) = tiny();
        let s = run_portfolio_study(&problems, &config, RosterId::ArepairSrLoc, 4);
        assert!(s.records_identical, "1-vs-4-worker records must match");
        assert_eq!(s.portfolio_rep, s.sequential_rep);
        assert_eq!(s.records.len(), problems.len());
        assert_eq!(s.members.len(), 2);
        for r in &s.records {
            assert_eq!(r.technique, "Portfolio_ARepair+Single-Round_Loc");
        }
    }

    #[test]
    fn repair_with_oracle_dispatches_portfolio_ids() {
        let (problems, config) = tiny();
        let out = crate::runner::repair_with_oracle(
            &OracleHandle::fresh(),
            TechniqueId::Portfolio(RosterId::Traditional),
            &problems[0],
            &config,
        );
        assert_eq!(out.technique, "Portfolio_Traditional");
    }

    #[test]
    fn report_serializes_with_members_and_records() {
        let (problems, config) = tiny();
        let s = run_portfolio_study(&problems[..1], &config, RosterId::ArepairMrAuto, 2);
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("\"speedup\""), "{json}");
        assert!(json.contains("\"records_identical\""), "{json}");
        let text = render(&s);
        assert!(text.contains("Portfolio_ARepair+Multi-Round_Auto"));
    }
}
