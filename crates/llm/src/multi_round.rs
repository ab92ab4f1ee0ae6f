//! The Multi-Round LLM repair approach (Alhanahnah et al.).
//!
//! A dual-agent loop: the *repair agent* (the synthetic model) proposes a
//! candidate; the analyzer validates it; on failure the *prompt agent*
//! prepares the next round's prompt at one of three feedback levels:
//!
//! - **No-feedback** — only "not fixed yet": the repair agent re-samples
//!   with full diversity;
//! - **Generic-feedback** — the templated analyzer report; the agent turns
//!   it into soft site weights (vocabulary overlap with the failing
//!   commands, exactly the signal a developer gleans from a Q&A answer);
//! - **Auto-feedback** — the prompt agent (another model call) distills the
//!   report into targeted guidance: sampling is *restricted* to the
//!   top-ranked suspicious sites.
//!
//! The synthetic repair agent reads the prompt agent's work as structured
//! [`Guidance`], site weights from the localizer. The prompt carries the
//! last candidate as [`Feedback::Report`], and the analyzer report a hosted
//! model would read is built from it only when [`Prompt::render`] renders
//! the text. No prompt is prepared after the last round.

use mualloy_analyzer::Oracle;
use mualloy_syntax::Span;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use specrepair_core::{
    localization::localize_with, HintedRepair, OutcomeReason, RepairContext, RepairOutcome,
    RepairTechnique,
};
use std::collections::HashSet;

use crate::model::Guidance;
use crate::prompt::{Feedback, FeedbackSetting, ProblemHints, Prompt};
use crate::resilient::ResilientLm;
use crate::transport::LmTransportError;

/// The Multi-Round technique under one feedback setting.
#[derive(Debug, Clone)]
pub struct MultiRound {
    /// The active feedback setting.
    pub feedback: FeedbackSetting,
    /// Base random seed.
    pub seed: u64,
    /// The underlying model, behind the resilient transport stack.
    pub lm: ResilientLm,
}

impl MultiRound {
    /// Creates the technique.
    pub fn new(feedback: FeedbackSetting, seed: u64) -> MultiRound {
        MultiRound {
            feedback,
            seed,
            lm: ResilientLm::synthetic(),
        }
    }

    /// Replaces the transport stack (fault-injection studies, the daemon's
    /// shared-stats stacks).
    pub fn with_lm(mut self, lm: ResilientLm) -> MultiRound {
        self.lm = lm;
        self
    }

    fn rng_for(&self, ctx: &RepairContext) -> ChaCha8Rng {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        ctx.source.hash(&mut h);
        self.feedback.label().hash(&mut h);
        ChaCha8Rng::seed_from_u64(self.seed ^ h.finish())
    }

    /// Builds the next round's guidance from the last failed candidate.
    fn prompt_agent(
        &self,
        oracle: &Oracle,
        last_candidate: &mualloy_syntax::Spec,
    ) -> Option<Guidance> {
        match self.feedback {
            FeedbackSetting::None => None,
            FeedbackSetting::Generic | FeedbackSetting::Auto => {
                let loc = localize_with(oracle, last_candidate);
                if loc.ranked.is_empty() {
                    return None;
                }
                let site_weights = loc
                    .ranked
                    .iter()
                    .map(|s| (s.id, s.score))
                    .collect::<Vec<_>>();
                Some(Guidance {
                    site_weights,
                    restrict_top: match self.feedback {
                        FeedbackSetting::Auto => Some(3),
                        _ => None,
                    },
                })
            }
        }
    }

    fn run(&self, ctx: &RepairContext, loc_hints: &[Span]) -> RepairOutcome {
        let mut rng = self.rng_for(ctx);
        let rounds = ctx.budget.max_rounds.max(1);
        let per_round = (ctx.budget.max_candidates / rounds).max(1);
        let mut explored = 0usize;
        let mut seen: HashSet<String> = HashSet::new();
        let mut last_parsed: Option<(mualloy_syntax::Spec, String)> = None;
        let mut guidance: Option<Guidance> = None;
        // Round-1 prompt may carry location hints (the LocalizeThenFix
        // hybrid injects them here; plain Multi-Round has none).
        let mut prompt = Prompt {
            source: ctx.source.clone(),
            hints: ProblemHints {
                loc: loc_hints.to_vec(),
                sites: specrepair_core::sites_for_spans(&ctx.faulty, loc_hints),
                ..ProblemHints::default()
            },
            feedback: None,
        };
        // Why the loop stopped early, if it did (distinct outcome reasons:
        // the model running dry is not a transport failure).
        let mut model_done = false;
        let mut transport_dead = false;
        'rounds: for round in 1..=rounds {
            if ctx.cancelled() {
                break; // deadline: emit the best parsed draft so far
            }
            let round_span = specrepair_trace::span("lm.round", specrepair_trace::Phase::Lm);
            if round_span.is_active() {
                round_span.attr_u64("round", round as u64);
            }
            for _ in 0..per_round {
                if explored >= ctx.budget.max_candidates || ctx.cancelled() {
                    break;
                }
                let text = match self
                    .lm
                    .propose(&prompt, guidance.as_ref(), &mut rng, &ctx.cancel)
                {
                    Ok(Some(text)) => text,
                    Ok(None) => {
                        // The model declined (unparsable prompt): retrying
                        // rounds cannot change a pure function of the
                        // prompt.
                        model_done = true;
                        break 'rounds;
                    }
                    Err(LmTransportError::CircuitOpen) => {
                        // The breaker is shedding load: the endpoint is
                        // gone for good as far as this attempt is
                        // concerned.
                        transport_dead = true;
                        break 'rounds;
                    }
                    Err(_) => {
                        // Retries exhausted on this call; end the round
                        // early and let the next round try again. If the
                        // outage persists the breaker will open and abort.
                        transport_dead = true;
                        break;
                    }
                };
                transport_dead = false; // a later call got through
                if !seen.insert(text.clone()) {
                    continue; // duplicate completion: free skip
                }
                let Ok(candidate) = mualloy_syntax::parse_spec(&text) else {
                    continue;
                };
                explored += 1;
                if ctx.repair_is_valid(&candidate) {
                    return RepairOutcome {
                        technique: self.feedback.label().to_string(),
                        success: true,
                        reason: OutcomeReason::Repaired,
                        candidate: Some(candidate),
                        candidate_source: Some(text),
                        candidates_explored: explored,
                        rounds: round,
                    };
                }
                last_parsed = Some((candidate, text));
            }
            if round == rounds {
                break; // no round follows to read a prepared prompt
            }
            // Prepare the next round. When the transport stack has
            // degraded (breaker tripped), the prompt agent's extra model
            // work is no longer affordable: fall back to the no-feedback
            // setting — plain resampling with a minimal status line.
            if let Some((cand, _)) = &last_parsed {
                let feedback_span = specrepair_trace::span(
                    "technique.feedback",
                    specrepair_trace::Phase::Orchestration,
                );
                let degraded = self.lm.degraded();
                if feedback_span.is_active() {
                    feedback_span.attr_u64("round", round as u64);
                    feedback_span.attr_bool("degraded", degraded);
                }
                guidance = if degraded {
                    None
                } else {
                    self.prompt_agent(ctx.oracle.service(), cand)
                };
                prompt.feedback = Some(match self.feedback {
                    FeedbackSetting::Generic | FeedbackSetting::Auto if !degraded => {
                        Feedback::Report(cand.clone())
                    }
                    _ => Feedback::StillFaulty,
                });
            }
        }
        let failure_reason = if ctx.cancelled() {
            OutcomeReason::Cancelled
        } else if transport_dead {
            OutcomeReason::TransportExhausted
        } else if model_done {
            OutcomeReason::ModelExhausted
        } else {
            OutcomeReason::BudgetExhausted
        };
        match last_parsed {
            Some((candidate, text)) => RepairOutcome {
                technique: self.feedback.label().to_string(),
                success: false,
                reason: failure_reason,
                candidate: Some(candidate),
                candidate_source: Some(text),
                candidates_explored: explored,
                rounds,
            },
            None => RepairOutcome::failure(self.feedback.label(), explored, rounds)
                .with_reason(failure_reason),
        }
    }
}

impl RepairTechnique for MultiRound {
    fn name(&self) -> &str {
        self.feedback.label()
    }

    fn repair(&self, ctx: &RepairContext) -> RepairOutcome {
        self.run(ctx, &[])
    }
}

impl HintedRepair for MultiRound {
    fn repair_with_hints(&self, ctx: &RepairContext, hints: &[Span]) -> RepairOutcome {
        self.run(ctx, hints)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mualloy_analyzer::Analyzer;
    use specrepair_core::{OracleHandle, RepairBudget};

    const FAULTY: &str = "sig N { next: lone N }\n\
        fact Acyclic { some n: N | n in n.^next }\n\
        pred hasNode { some N }\n\
        assert NoSelf { all n: N | n not in n.next }\n\
        run hasNode for 3 expect 1\n\
        check NoSelf for 3 expect 0\n";

    fn ctx() -> RepairContext {
        RepairContext::from_source(
            FAULTY,
            RepairBudget {
                max_candidates: 60,
                max_rounds: 4,
            },
        )
        .unwrap()
    }

    #[test]
    fn all_settings_repair_the_quantifier_bug() {
        for fb in FeedbackSetting::ALL {
            let t = MultiRound::new(fb, 11);
            let out = t.repair(&ctx());
            assert!(out.success, "{} failed", fb.label());
            let c = out.candidate.unwrap();
            assert!(Analyzer::new(c).satisfies_oracle().unwrap());
        }
    }

    #[test]
    fn iteration_beats_single_shot() {
        // With the same model, 60 guided samples should succeed far more
        // often than 1 (sanity check of the paper's central mechanism).
        let mut multi_wins = 0;
        for seed in 0..6u64 {
            if MultiRound::new(FeedbackSetting::None, seed)
                .repair(&ctx())
                .success
            {
                multi_wins += 1;
            }
        }
        assert!(multi_wins >= 5, "multi-round won only {multi_wins}/6");
    }

    #[test]
    fn respects_budget_and_rounds() {
        let tight = RepairContext::from_source(
            FAULTY,
            RepairBudget {
                max_candidates: 5,
                max_rounds: 2,
            },
        )
        .unwrap();
        let out = MultiRound::new(FeedbackSetting::Generic, 3).repair(&tight);
        assert!(out.candidates_explored <= 5);
        assert!(out.rounds <= 2);
    }

    #[test]
    fn deterministic_per_seed() {
        let t = MultiRound::new(FeedbackSetting::Auto, 9);
        let a = t.repair(&ctx());
        let b = t.repair(&ctx());
        assert_eq!(a.success, b.success);
        assert_eq!(a.candidate_source, b.candidate_source);
    }

    #[test]
    fn hinted_round_one_converges_faster_on_average() {
        let fact_start = FAULTY.find("some n: N").unwrap();
        let hint = [Span::new(fact_start, fact_start + 25)];
        let mut hinted_explored = 0usize;
        let mut blind_explored = 0usize;
        for seed in 0..5u64 {
            let t = MultiRound::new(FeedbackSetting::None, seed);
            let h = t.repair_with_hints(&ctx(), &hint);
            let b = t.repair(&ctx());
            if h.success {
                hinted_explored += h.candidates_explored;
            }
            if b.success {
                blind_explored += b.candidates_explored;
            }
        }
        // Not a strict guarantee, but with fidelity 0.85 the hinted runs
        // should not need more total samples than the blind ones.
        assert!(
            hinted_explored <= blind_explored + 10,
            "hinted {hinted_explored} vs blind {blind_explored}"
        );
    }

    /// No candidate can fix it: the check's expected counterexample does
    /// not exist, and assertion bodies are never mutated.
    const UNFIXABLE: &str = "sig A {} fact F { no A } \
        assert Tautology { no none } \
        check Tautology for 2 expect 1";

    fn unfixable_ctx() -> RepairContext {
        RepairContext::from_source(
            UNFIXABLE,
            RepairBudget {
                max_candidates: 10,
                max_rounds: 2,
            },
        )
        .unwrap()
    }

    #[test]
    fn unfixable_reports_failure_with_candidate() {
        let out = MultiRound::new(FeedbackSetting::Generic, 0).repair(&unfixable_ctx());
        assert!(!out.success);
        assert!(out.candidate.is_some(), "best-effort candidate expected");
    }

    #[test]
    fn replayed_feedback_cells_solve_nothing() {
        // Replayed on the same oracle, every verdict and localization probe
        // is a memo hit, and the analyzer report runs only when a prompt is
        // rendered: the second run solves nothing.
        for ctx in [ctx(), unfixable_ctx()] {
            let oracle = OracleHandle::fresh();
            for fb in [FeedbackSetting::Generic, FeedbackSetting::Auto] {
                let run =
                    || MultiRound::new(fb, 5).repair(&ctx.clone().with_oracle(oracle.clone()));
                let first = run();
                let (second, stats) = mualloy_sat::stats::collect(run);
                assert_eq!(stats.solves, 0, "{} solved on replay", fb.label());
                assert_eq!(
                    format!("{first:?}"),
                    format!("{second:?}"),
                    "{}",
                    fb.label()
                );
            }
        }
    }
}
