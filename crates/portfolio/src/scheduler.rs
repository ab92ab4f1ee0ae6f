//! The racing executor: entrants claim work in rank order on a bounded
//! worker pool; the first *rank-winning* success cancels every worse-ranked
//! entrant still running.
//!
//! # Determinism argument
//!
//! Arbitration is deterministic regardless of thread interleaving because
//! cancellation only ever flows *downward* in rank:
//!
//! 1. the arbiter's `best` rank only decreases, and a success at rank `r`
//!    cancels only entrants ranked `> r`;
//! 2. therefore an entrant ranked at or below the eventual winner `w` is
//!    never cancelled by the race — it runs to completion exactly as it
//!    would alone, and (techniques being deterministic given their context)
//!    produces the same outcome every run;
//! 3. hence `w` — the *minimum* rank whose entrant succeeds in isolation —
//!    is the winner under every interleaving, including the degenerate
//!    one-worker schedule, which is precisely the sequential fallback chain
//!    (`UnionHybrid` generalized to N entrants);
//! 4. the merged [`RepairOutcome`] is assembled **only** from entrants
//!    ranked `<= w` (all of which completed deterministically); entrants
//!    ranked above the winner — the ones racing may or may not have
//!    partially run — contribute to the observational
//!    [`PortfolioOutcome::entrants`] reports but never to the merged
//!    outcome.
//!
//! The shared oracle keeps this sound: a memo hit returns exactly what a
//! fresh solve would, so racing entrants warming each other's cache changes
//! wall-clock, never results.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde::Serialize;
use specrepair_core::{CancelToken, OutcomeReason, RepairBudget, RepairContext, RepairOutcome};

/// One finished entrant run: the outcome plus its started/finished stamps
/// in milliseconds since the race began (absent for skipped entrants).
type FinishedRun = (RepairOutcome, Option<u64>, Option<u64>);

/// One roster member: a rank-ordered, budgeted repair attempt. Rank is the
/// entrant's position in the roster vector passed to [`Portfolio::race`] —
/// lower rank wins ties, exactly like the sequential fallback order.
pub struct Entrant<'a> {
    label: String,
    budget: RepairBudget,
    run: Box<dyn FnOnce(&RepairContext) -> RepairOutcome + Send + 'a>,
}

impl<'a> Entrant<'a> {
    /// Builds an entrant from a label, its budget and the closure that runs
    /// the technique against a per-entrant context.
    pub fn new(
        label: impl Into<String>,
        budget: RepairBudget,
        run: impl FnOnce(&RepairContext) -> RepairOutcome + Send + 'a,
    ) -> Entrant<'a> {
        Entrant {
            label: label.into(),
            budget,
            run: Box::new(run),
        }
    }

    /// The entrant's display label.
    pub fn label(&self) -> &str {
        &self.label
    }
}

/// What one entrant did during the race — the observational record
/// (timestamps, cancellation) alongside the deterministic verdict fields.
#[derive(Debug, Clone, Serialize)]
pub struct EntrantReport {
    /// Entrant label.
    pub label: String,
    /// Static rank (roster position; lower wins arbitration).
    pub rank: usize,
    /// Whether this entrant's own oracle accepted a candidate.
    pub success: bool,
    /// Why the entrant's attempt ended.
    pub reason: OutcomeReason,
    /// Oracle validations / drafts this entrant spent.
    pub explored: usize,
    /// Refinement rounds this entrant used.
    pub rounds: usize,
    /// Candidate budget this entrant was allowed.
    pub budget_candidates: usize,
    /// Milliseconds after race start when the entrant began running
    /// (`None`: it was cancelled before a worker ever picked it up).
    pub started_ms: Option<u64>,
    /// Milliseconds after race start when the entrant finished.
    pub finished_ms: Option<u64>,
    /// Milliseconds after race start when the arbiter cancelled this
    /// entrant (`None`: it was never cancelled by the race).
    pub cancelled_at_ms: Option<u64>,
    /// Whether this entrant's cost is part of the merged outcome's
    /// deterministic accounting (rank at or below the winner).
    pub counted: bool,
}

/// The merged result of one portfolio race.
#[derive(Debug)]
pub struct PortfolioOutcome {
    /// The deterministic merged outcome (winner's candidate; cost summed
    /// over ranks at or below the winner — byte-identical at any worker
    /// count).
    pub outcome: RepairOutcome,
    /// Rank of the winning entrant, if any succeeded.
    pub winner: Option<usize>,
    /// Per-entrant observational reports, in rank order.
    pub entrants: Vec<EntrantReport>,
    /// Wall-clock duration of the whole race in milliseconds (measured —
    /// not deterministic).
    pub wall_ms: u64,
    /// Candidate-budget units actually spent across *all* entrants,
    /// including cancelled losers (measured).
    pub budget_spent: usize,
    /// Candidate-budget units the cancellation protocol saved: for every
    /// entrant the race cancelled (or never started), its unspent budget
    /// (measured).
    pub budget_saved: usize,
}

impl PortfolioOutcome {
    /// The report of the winning entrant, if any.
    pub fn winning_entrant(&self) -> Option<&EntrantReport> {
        self.winner.map(|w| &self.entrants[w])
    }
}

/// Arbitration state shared by the workers: the best (lowest) successful
/// rank so far. Cancellation of worse-ranked entrants happens under the
/// same lock, so no entrant can slip between "best improved" and "you
/// lost".
struct Arbiter {
    best: Mutex<Option<usize>>,
}

impl Arbiter {
    /// Whether `rank` has already lost (a strictly better rank succeeded).
    fn beaten(&self, rank: usize) -> bool {
        self.best.lock().unwrap().is_some_and(|b| b < rank)
    }

    /// Records a success at `rank`; when it improves the best, cancels all
    /// worse-ranked entrants and stamps their cancellation time.
    fn won(
        &self,
        rank: usize,
        tokens: &[CancelToken],
        cancelled_at: &[Mutex<Option<u64>>],
        now_ms: u64,
    ) {
        let mut best = self.best.lock().unwrap();
        if best.is_none_or(|b| rank < b) {
            *best = Some(rank);
            for (loser, token) in tokens.iter().enumerate().skip(rank + 1) {
                if !token.is_cancelled() {
                    token.cancel();
                    let mut at = cancelled_at[loser].lock().unwrap();
                    if at.is_none() {
                        *at = Some(now_ms);
                    }
                }
            }
        }
    }
}

/// The portfolio scheduler: races a rank-ordered roster of entrants on a
/// bounded worker pool under one parent [`CancelToken`].
#[derive(Debug, Clone)]
pub struct Portfolio {
    label: String,
    workers: usize,
}

impl Portfolio {
    /// A portfolio named `label`, sized to the machine (one worker per
    /// available core).
    pub fn new(label: impl Into<String>) -> Portfolio {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Portfolio {
            label: label.into(),
            workers,
        }
    }

    /// Overrides the worker-pool size (clamped to at least 1). One worker
    /// degenerates into the sequential fallback chain.
    pub fn with_workers(mut self, workers: usize) -> Portfolio {
        self.workers = workers.max(1);
        self
    }

    /// The portfolio's display label (used as the merged outcome's
    /// technique name).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The configured worker-pool size.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Races the entrants against `ctx.faulty`, sharing `ctx.oracle` across
    /// all of them (each entrant runs under its own child of `ctx.cancel`
    /// and its own budget; `ctx.budget` itself is unused).
    pub fn race<'a>(&self, ctx: &RepairContext, entrants: Vec<Entrant<'a>>) -> PortfolioOutcome {
        let n = entrants.len();
        let started = Instant::now();
        if n == 0 {
            return PortfolioOutcome {
                outcome: RepairOutcome::failure(self.label.clone(), 0, 0),
                winner: None,
                entrants: Vec::new(),
                wall_ms: 0,
                budget_spent: 0,
                budget_saved: 0,
            };
        }
        let now_ms = || started.elapsed().as_millis() as u64;
        let tokens: Vec<CancelToken> = (0..n).map(|_| ctx.cancel.child()).collect();
        let cancelled_at: Vec<Mutex<Option<u64>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let labels: Vec<String> = entrants.iter().map(|e| e.label.clone()).collect();
        let budgets: Vec<RepairBudget> = entrants.iter().map(|e| e.budget).collect();
        let slots: Vec<Mutex<Option<Entrant<'a>>>> =
            entrants.into_iter().map(|e| Mutex::new(Some(e))).collect();
        let runs: Vec<Mutex<Option<FinishedRun>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let arbiter = Arbiter {
            best: Mutex::new(None),
        };
        let next = AtomicUsize::new(0);
        // The race span (on the caller's thread) parents every entrant
        // span; workers adopt it explicitly because spans don't cross
        // threads on their own. Each entrant gets ordinal `rank + 1` so its
        // deterministic span ids are stable at any worker count (ordinal 0
        // stays reserved for the cell's own thread).
        let race_span =
            specrepair_trace::span("portfolio.race", specrepair_trace::Phase::Orchestration);
        if race_span.is_active() {
            race_span.attr_u64("entrants", n as u64);
            race_span.attr_u64("workers", self.workers.min(n) as u64);
        }
        let trace_cell = specrepair_trace::current_cell();
        let trace_parent = race_span.id();

        std::thread::scope(|scope| {
            for _ in 0..self.workers.min(n) {
                scope.spawn(|| loop {
                    let rank = next.fetch_add(1, Ordering::SeqCst);
                    if rank >= n {
                        return;
                    }
                    let entrant = slots[rank]
                        .lock()
                        .unwrap()
                        .take()
                        .expect("each rank is claimed exactly once");
                    // Speculation gate: skip without running once a better
                    // rank has already won (or the parent cancel fired).
                    if arbiter.beaten(rank) || tokens[rank].is_cancelled() {
                        let mut at = cancelled_at[rank].lock().unwrap();
                        if at.is_none() {
                            *at = Some(now_ms());
                        }
                        drop(at);
                        let skipped = RepairOutcome::failure(entrant.label.clone(), 0, 0)
                            .with_reason(OutcomeReason::Cancelled);
                        *runs[rank].lock().unwrap() = Some((skipped, None, None));
                        continue;
                    }
                    let entrant_ctx = RepairContext {
                        faulty: ctx.faulty.clone(),
                        source: ctx.source.clone(),
                        budget: entrant.budget,
                        oracle: ctx.oracle.clone(),
                        cancel: tokens[rank].clone(),
                    };
                    let t_start = now_ms();
                    // A crashing entrant loses the race; it must not tear
                    // down the siblings that may still win it.
                    let label = entrant.label.clone();
                    let _trace_scope =
                        specrepair_trace::cell_scope(trace_cell, rank as u64 + 1, trace_parent);
                    let entrant_span = specrepair_trace::span(
                        "portfolio.entrant",
                        specrepair_trace::Phase::Orchestration,
                    );
                    let outcome = catch_unwind(AssertUnwindSafe(|| (entrant.run)(&entrant_ctx)))
                        .unwrap_or_else(|_| {
                            RepairOutcome::failure(label, 0, 0).with_reason(OutcomeReason::Crashed)
                        });
                    if entrant_span.is_active() {
                        entrant_span.attr_str("label", &labels[rank]);
                        entrant_span.attr_u64("rank", rank as u64);
                        entrant_span.attr_bool("success", outcome.success);
                    }
                    drop(entrant_span);
                    let t_end = now_ms();
                    if outcome.success {
                        arbiter.won(rank, &tokens, &cancelled_at, t_end);
                    }
                    *runs[rank].lock().unwrap() = Some((outcome, Some(t_start), Some(t_end)));
                });
            }
        });

        let winner = *arbiter.best.lock().unwrap();
        let wall_ms = now_ms();
        let mut reports = Vec::with_capacity(n);
        let mut outcomes = Vec::with_capacity(n);
        for rank in 0..n {
            let (outcome, started_ms, finished_ms) = runs[rank]
                .lock()
                .unwrap()
                .take()
                .expect("every rank produced a run record");
            let counted = winner.is_none_or(|w| rank <= w);
            reports.push(EntrantReport {
                label: labels[rank].clone(),
                rank,
                success: outcome.success,
                reason: outcome.reason,
                explored: outcome.candidates_explored,
                rounds: outcome.rounds,
                budget_candidates: budgets[rank].max_candidates,
                started_ms,
                finished_ms,
                cancelled_at_ms: *cancelled_at[rank].lock().unwrap(),
                counted,
            });
            outcomes.push(outcome);
        }

        let budget_spent: usize = reports.iter().map(|r| r.explored).sum();
        let budget_saved: usize = reports
            .iter()
            .filter(|r| r.cancelled_at_ms.is_some())
            .map(|r| r.budget_candidates.saturating_sub(r.explored))
            .sum();
        let outcome = self.merge(ctx, winner, &reports, &outcomes);
        PortfolioOutcome {
            outcome,
            winner,
            entrants: reports,
            wall_ms,
            budget_spent,
            budget_saved,
        }
    }

    /// Assembles the deterministic merged outcome (see the module docs):
    /// winner's candidate, cost summed over ranks `<= winner`. With no
    /// winner every entrant ran to completion, so the sum covers all ranks
    /// and the last entrant has the final word on reason and candidate —
    /// mirroring `UnionHybrid`'s fallback semantics exactly.
    fn merge(
        &self,
        ctx: &RepairContext,
        winner: Option<usize>,
        reports: &[EntrantReport],
        outcomes: &[RepairOutcome],
    ) -> RepairOutcome {
        let counted = |rank: usize| winner.is_none_or(|w| rank <= w);
        let explored: usize = reports
            .iter()
            .filter(|r| counted(r.rank))
            .map(|r| r.explored)
            .sum();
        let rounds: usize = reports
            .iter()
            .filter(|r| counted(r.rank))
            .map(|r| r.rounds)
            .sum();
        match winner {
            Some(w) => RepairOutcome {
                technique: self.label.clone(),
                success: true,
                reason: OutcomeReason::Repaired,
                candidate: outcomes[w].candidate.clone(),
                candidate_source: outcomes[w].candidate_source.clone(),
                candidates_explored: explored,
                rounds,
            },
            None => {
                // Highest-ranked entrant that produced anything supplies the
                // failure candidate (the fallback position's privilege).
                let last = outcomes
                    .iter()
                    .rev()
                    .find(|o| o.candidate.is_some())
                    .or_else(|| outcomes.last());
                let reason = if ctx.cancel.is_cancelled() {
                    OutcomeReason::Cancelled
                } else {
                    outcomes
                        .last()
                        .map(|o| o.reason)
                        .unwrap_or(OutcomeReason::BudgetExhausted)
                };
                RepairOutcome {
                    technique: self.label.clone(),
                    success: false,
                    reason,
                    candidate: last.and_then(|o| o.candidate.clone()),
                    candidate_source: last.and_then(|o| o.candidate_source.clone()),
                    candidates_explored: explored,
                    rounds,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mualloy_syntax::parse_spec;
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    const SPEC: &str = "sig N {} fact { no N } pred p { some N } run p for 3 expect 1";

    fn ctx() -> RepairContext {
        RepairContext::new(parse_spec(SPEC).unwrap(), RepairBudget::tiny())
    }

    fn succeed<'a>(label: &'a str, explored: usize) -> Entrant<'a> {
        Entrant::new(label, RepairBudget::tiny(), move |c: &RepairContext| {
            RepairOutcome::success_with(label, c.faulty.clone(), explored, 1)
        })
    }

    fn fail<'a>(label: &'a str, explored: usize) -> Entrant<'a> {
        Entrant::new(label, RepairBudget::tiny(), move |_: &RepairContext| {
            RepairOutcome::failure(label, explored, 1)
        })
    }

    /// Blocks until its token fires, then reports a cancelled failure.
    fn stall<'a>(label: &'a str) -> Entrant<'a> {
        Entrant::new(label, RepairBudget::tiny(), move |c: &RepairContext| {
            while !c.cancelled() {
                std::thread::sleep(Duration::from_millis(1));
            }
            RepairOutcome::failure(label, 0, 0).with_reason(OutcomeReason::Cancelled)
        })
    }

    #[test]
    fn lowest_rank_success_wins() {
        let p = Portfolio::new("P").with_workers(4);
        let out = p.race(&ctx(), vec![fail("a", 3), succeed("b", 2), succeed("c", 9)]);
        assert_eq!(out.winner, Some(1));
        assert!(out.outcome.success);
        assert_eq!(out.outcome.technique, "P");
        // Deterministic accounting: ranks 0 and 1 only.
        assert_eq!(out.outcome.candidates_explored, 5);
        assert!(!out.entrants[2].counted);
    }

    #[test]
    fn late_low_rank_success_displaces_early_high_rank_one() {
        // Rank 2 finishes (successfully) long before rank 0, but rank 0
        // must still win the arbitration.
        let slow_success = Entrant::new("slow", RepairBudget::tiny(), |c: &RepairContext| {
            std::thread::sleep(Duration::from_millis(30));
            RepairOutcome::success_with("slow", c.faulty.clone(), 1, 1)
        });
        let p = Portfolio::new("P").with_workers(4);
        let out = p.race(
            &ctx(),
            vec![slow_success, fail("mid", 1), succeed("fast", 1)],
        );
        assert_eq!(out.winner, Some(0), "rank beats wall-clock");
        assert_eq!(out.outcome.candidates_explored, 1, "only rank 0 counted");
    }

    #[test]
    fn winner_cancels_losers() {
        let p = Portfolio::new("P").with_workers(4);
        let out = p.race(
            &ctx(),
            vec![succeed("win", 1), stall("lose"), stall("lose2")],
        );
        assert_eq!(out.winner, Some(0));
        for loser in &out.entrants[1..] {
            assert!(
                loser.cancelled_at_ms.is_some(),
                "loser was never cancelled: {loser:?}"
            );
            assert!(!loser.counted);
        }
        assert!(out.budget_saved > 0, "cancelled losers save budget");
    }

    #[test]
    fn one_worker_is_the_sequential_fallback_chain() {
        let ran_c = AtomicBool::new(false);
        let c_entrant = Entrant::new("c", RepairBudget::tiny(), |_: &RepairContext| {
            ran_c.store(true, Ordering::SeqCst);
            RepairOutcome::failure("c", 1, 1)
        });
        let p = Portfolio::new("P").with_workers(1);
        let out = p.race(&ctx(), vec![fail("a", 2), succeed("b", 3), c_entrant]);
        assert_eq!(out.winner, Some(1));
        assert!(
            !ran_c.load(Ordering::SeqCst),
            "post-winner rank must not run"
        );
        assert_eq!(out.entrants[2].started_ms, None);
        assert_eq!(out.outcome.candidates_explored, 5);
    }

    #[test]
    fn total_failure_sums_everything_and_keeps_last_word() {
        let p = Portfolio::new("P").with_workers(2);
        let candidate_fail =
            Entrant::new("with-cand", RepairBudget::tiny(), |c: &RepairContext| {
                let mut out = RepairOutcome::failure("with-cand", 4, 2);
                out.candidate = Some(c.faulty.clone());
                out.candidate_source = Some(c.source.clone());
                out.with_reason(OutcomeReason::ModelExhausted)
            });
        let out = p.race(&ctx(), vec![candidate_fail, fail("plain", 1)]);
        assert_eq!(out.winner, None);
        assert!(!out.outcome.success);
        assert_eq!(out.outcome.candidates_explored, 5);
        assert_eq!(out.outcome.rounds, 3);
        assert_eq!(out.outcome.reason, OutcomeReason::BudgetExhausted);
        assert!(out.outcome.candidate.is_some(), "failure keeps a candidate");
    }

    #[test]
    fn crashing_entrant_loses_instead_of_stalling_the_race() {
        let p = Portfolio::new("P").with_workers(2);
        let crasher = Entrant::new("boom", RepairBudget::tiny(), |_: &RepairContext| {
            panic!("injected crash")
        });
        let out = p.race(&ctx(), vec![crasher, succeed("win", 1)]);
        assert_eq!(out.winner, Some(1));
        assert_eq!(out.entrants[0].reason, OutcomeReason::Crashed);
        assert!(out.outcome.success);
    }

    #[test]
    fn external_cancellation_reports_cancelled() {
        let parent = CancelToken::none();
        parent.cancel();
        let base = ctx().with_cancel(parent);
        let p = Portfolio::new("P").with_workers(2);
        let out = p.race(&base, vec![fail("a", 1), fail("b", 1)]);
        assert_eq!(out.winner, None);
        assert_eq!(out.outcome.reason, OutcomeReason::Cancelled);
    }

    #[test]
    fn empty_roster_is_a_failure() {
        let p = Portfolio::new("P");
        let out = p.race(&ctx(), vec![]);
        assert!(!out.outcome.success);
        assert!(out.entrants.is_empty());
        assert!(out.winning_entrant().is_none());
    }

    #[test]
    fn reports_serialize() {
        let p = Portfolio::new("P").with_workers(2);
        let out = p.race(&ctx(), vec![succeed("w", 1), fail("l", 1)]);
        let json = serde_json::to_string(&out.entrants).unwrap();
        assert!(json.contains("\"label\""), "{json}");
        assert!(json.contains("\"counted\""), "{json}");
    }
}
