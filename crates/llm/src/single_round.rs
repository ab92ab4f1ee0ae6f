//! The Single-Round LLM repair approach (Hasan et al.).
//!
//! One zero-shot prompt, one completion — no iteration. The five prompt
//! settings control which hint channels (bug location, fix description,
//! passing-assertion requirement) the prompt carries. The *Pass* channel is
//! modeled as self-conditioning: the model internally drafts a handful of
//! completions and emits the first whose named assertion verifies, which is
//! how a requirement stated in the prompt manifests in a single visible
//! answer. That self-check is a verdict on the draft with its commands
//! replaced by the one `check`, so the oracle's verdict chain answers it.

use mualloy_analyzer::Oracle;
use mualloy_syntax::ast::{Command, CommandKind, Spec};
use mualloy_syntax::Span;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use specrepair_core::{HintedRepair, OutcomeReason, RepairContext, RepairOutcome, RepairTechnique};

use crate::prompt::{ProblemHints, Prompt, PromptSetting};
use crate::resilient::ResilientLm;

/// Per-setting completion policy: how many internal drafts the model
/// considers before committing to its single visible answer, and whether it
/// self-verifies drafts against the whole specification (`full`) or only
/// against the named *Pass* assertion.
///
/// The policy encodes the paper's observed ordering: a bare location hint
/// makes the model deliberate (it "knows where to look" and double-checks);
/// a fix description makes it apply the described change once, confidently
/// — which is why `Loc` outperforms `Loc+Fix` on Alloy4Fun despite carrying
/// less information.
fn draft_policy(setting: PromptSetting) -> (usize, bool) {
    match setting {
        PromptSetting::LocFix => (1, true),
        PromptSetting::Loc => (3, true),
        PromptSetting::Pass => (6, false),
        PromptSetting::None => (2, true),
        PromptSetting::LocPass => (3, false),
    }
}

/// The Single-Round technique under one prompt setting.
#[derive(Debug, Clone)]
pub struct SingleRound {
    /// The active prompt setting.
    pub setting: PromptSetting,
    /// Hints available for this problem (filtered by the setting).
    pub hints: ProblemHints,
    /// Base random seed.
    pub seed: u64,
    /// The underlying model, behind the resilient transport stack.
    pub lm: ResilientLm,
}

impl SingleRound {
    /// Creates the technique with no hints (useful for the `None` setting
    /// and for tests).
    pub fn new(setting: PromptSetting, seed: u64) -> SingleRound {
        SingleRound {
            setting,
            hints: ProblemHints::default(),
            seed,
            lm: ResilientLm::synthetic(),
        }
    }

    /// Sets the problem hints (the benchmark's known bug location / fix).
    pub fn with_hints(mut self, hints: ProblemHints) -> SingleRound {
        self.hints = hints;
        self
    }

    /// Replaces the transport stack (fault-injection studies, the daemon's
    /// shared-stats stacks).
    pub fn with_lm(mut self, lm: ResilientLm) -> SingleRound {
        self.lm = lm;
        self
    }

    fn rng_for(&self, ctx: &RepairContext) -> ChaCha8Rng {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        ctx.source.hash(&mut h);
        self.setting.label().hash(&mut h);
        ChaCha8Rng::seed_from_u64(self.seed ^ h.finish())
    }

    fn run(&self, ctx: &RepairContext, mut hints: ProblemHints) -> RepairOutcome {
        // Re-anchor byte-span location hints to persistent node ids so the
        // model targets the same sites the localizer/mutation layers rank.
        if hints.sites.is_empty() && !hints.loc.is_empty() {
            hints.sites = specrepair_core::sites_for_spans(&ctx.faulty, &hints.loc);
        }
        let prompt = Prompt {
            source: ctx.source.clone(),
            hints: hints.clone(),
            feedback: None,
        };
        let mut rng = self.rng_for(ctx);
        let (drafts, full_check) = draft_policy(self.setting);
        // The last draft's text and parse, for the fallback below.
        let mut last_draft: Option<(String, Option<Spec>)> = None;
        let mut explored = 0usize;
        // Why the model stopped producing drafts, when it did: the model
        // itself ran out of proposals vs. the transport gave up. These map
        // to distinct outcome reasons (`ModelExhausted` / the partial
        // `TransportExhausted` outcome), not a conflated generic failure.
        let mut model_done = false;
        let mut transport_dead = false;
        for draft in 0..drafts {
            if ctx.cancelled() {
                break; // deadline: fall through to the last-draft fallback
            }
            let round_span = specrepair_trace::span("lm.round", specrepair_trace::Phase::Lm);
            if round_span.is_active() {
                round_span.attr_u64("draft", draft as u64);
            }
            let text = match self.lm.propose(&prompt, None, &mut rng, &ctx.cancel) {
                Ok(Some(text)) => text,
                Ok(None) => {
                    model_done = true;
                    break;
                }
                Err(_) => {
                    transport_dead = true;
                    break;
                }
            };
            let candidate = mualloy_syntax::parse_spec(&text).ok();
            let Some(spec) = &candidate else {
                last_draft = Some((text, candidate));
                continue;
            };
            explored += 1;
            let emit = if full_check {
                // The model mentally verifies the whole specification.
                ctx.repair_is_valid(spec)
            } else if let Some(assert_name) = &hints.pass {
                // The model only verifies the assertion named in the prompt.
                pass_holds(ctx.oracle.service(), spec, assert_name)
            } else {
                // Pass-style setting without a usable pass hint: first draft.
                true
            };
            if emit {
                let success = ctx.repair_is_valid(spec);
                let reason = if success {
                    OutcomeReason::Repaired
                } else {
                    RepairOutcome::failure_reason_for(ctx, OutcomeReason::BudgetExhausted)
                };
                return RepairOutcome {
                    technique: self.setting.label().to_string(),
                    success,
                    reason,
                    candidate,
                    candidate_source: Some(text),
                    candidates_explored: explored,
                    rounds: 1,
                };
            }
            last_draft = Some((text, candidate));
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
        // No draft survived self-verification (or the model glitched or the
        // transport died): emit the last draft anyway — a partial outcome,
        // as a real model client would.
        match last_draft {
            Some((text, candidate)) => {
                let success = candidate
                    .as_ref()
                    .map(|c| ctx.repair_is_valid(c))
                    .unwrap_or(false);
                RepairOutcome {
                    technique: self.setting.label().to_string(),
                    success,
                    reason: if success {
                        OutcomeReason::Repaired
                    } else {
                        failure_reason
                    },
                    candidate,
                    candidate_source: Some(text),
                    candidates_explored: explored.max(1),
                    rounds: 1,
                }
            }
            None => RepairOutcome::failure(self.setting.label(), 0, 1).with_reason(failure_reason),
        }
    }
}

/// The scope used to verify a *Pass* requirement: the max command scope in
/// the candidate, defaulting to 3.
fn default_scope(spec: &Spec) -> u32 {
    spec.commands.iter().map(|c| c.scope).max().unwrap_or(3)
}

/// The *Pass* self-check: whether the named assertion has no
/// counterexample in `candidate` at [`default_scope`], asked as the verdict
/// of `check <name> for <scope> expect 0` on the candidate with its other
/// commands dropped. An unknown assertion or any analyzer error fails it.
fn pass_holds(oracle: &Oracle, candidate: &Spec, assert_name: &str) -> bool {
    let probe = Spec {
        commands: vec![Command {
            kind: CommandKind::Check(assert_name.to_string()),
            scope: default_scope(candidate),
            expect: Some(false),
            span: Span::synthetic(),
        }],
        ..candidate.clone()
    };
    oracle.satisfies_oracle(&probe) == Ok(true)
}

impl RepairTechnique for SingleRound {
    fn name(&self) -> &str {
        self.setting.label()
    }

    fn repair(&self, ctx: &RepairContext) -> RepairOutcome {
        self.run(ctx, self.hints.filtered(self.setting))
    }
}

impl HintedRepair for SingleRound {
    fn repair_with_hints(&self, ctx: &RepairContext, hints: &[Span]) -> RepairOutcome {
        let mut merged = self.hints.filtered(self.setting);
        merged.loc = hints.to_vec();
        self.run(ctx, merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specrepair_core::RepairBudget;

    const FAULTY: &str = "sig N { next: lone N }\n\
        fact Acyclic { some n: N | n in n.^next }\n\
        pred hasNode { some N }\n\
        assert NoSelf { all n: N | n not in n.next }\n\
        run hasNode for 3 expect 1\n\
        check NoSelf for 3 expect 0\n";

    fn ctx() -> RepairContext {
        RepairContext::from_source(FAULTY, RepairBudget::default()).unwrap()
    }

    fn full_hints() -> ProblemHints {
        let fact_start = FAULTY.find("some n: N").unwrap();
        ProblemHints {
            sites: Vec::new(),
            loc: vec![Span::new(fact_start, fact_start + 25)],
            fix: vec!["replace `some` with `no`".to_string()],
            pass: Some("NoSelf".to_string()),
        }
    }

    #[test]
    fn names_follow_settings() {
        for s in PromptSetting::ALL {
            assert_eq!(SingleRound::new(s, 0).name(), s.label());
        }
    }

    #[test]
    fn always_produces_an_outcome() {
        for s in PromptSetting::ALL {
            let t = SingleRound::new(s, 1).with_hints(full_hints());
            let out = t.repair(&ctx());
            assert_eq!(out.technique, s.label());
            assert_eq!(out.rounds, 1);
        }
    }

    #[test]
    fn loc_fix_outperforms_none_in_aggregate() {
        let mut locfix_wins = 0;
        let mut none_wins = 0;
        for seed in 0..20u64 {
            let hinted = SingleRound::new(PromptSetting::LocFix, seed).with_hints(full_hints());
            if hinted.repair(&ctx()).success {
                locfix_wins += 1;
            }
            let blind = SingleRound::new(PromptSetting::None, seed).with_hints(full_hints());
            if blind.repair(&ctx()).success {
                none_wins += 1;
            }
        }
        assert!(
            locfix_wins > none_wins,
            "Loc+Fix ({locfix_wins}/20) should beat None ({none_wins}/20)"
        );
        assert!(locfix_wins >= 10, "Loc+Fix won only {locfix_wins}/20");
    }

    #[test]
    fn none_setting_ignores_hints() {
        // The `None` prompt filters all hints out, so hinted and unhinted
        // instances behave identically given the same seed.
        let a = SingleRound::new(PromptSetting::None, 3)
            .with_hints(full_hints())
            .repair(&ctx());
        let b = SingleRound::new(PromptSetting::None, 3).repair(&ctx());
        assert_eq!(a.candidate_source, b.candidate_source);
    }

    #[test]
    fn deterministic_per_seed() {
        let t = SingleRound::new(PromptSetting::Loc, 5).with_hints(full_hints());
        let a = t.repair(&ctx());
        let b = t.repair(&ctx());
        assert_eq!(a.candidate_source, b.candidate_source);
        assert_eq!(a.success, b.success);
    }

    #[test]
    fn pass_probe_agrees_with_checking_the_assertion() {
        use mualloy_analyzer::Analyzer;
        let variant = |fact: &str| {
            mualloy_syntax::parse_spec(&FAULTY.replace("some n: N | n in n.^next", fact)).unwrap()
        };
        // `NoSelf` holds; has a counterexample (a self-loop is a cycle);
        // holds while the run fails, so the whole oracle rejects the spec.
        let holds = variant("no n: N | n in n.^next");
        let refuted = variant("some n: N | n in n.^next");
        let other_fails = variant("no N");
        assert!(!Analyzer::new(other_fails.clone())
            .satisfies_oracle()
            .unwrap());
        let oracle = Oracle::new();
        for (candidate, name, expected) in [
            (&holds, "NoSelf", true),
            (&refuted, "NoSelf", false),
            (&holds, "Ghost", false),
            (&other_fails, "NoSelf", true),
        ] {
            let reference = Analyzer::new(candidate.clone())
                .check_assert(name, default_scope(candidate))
                .map(|o| !o.sat)
                .unwrap_or(false);
            assert_eq!(reference, expected, "{name}");
            assert_eq!(pass_holds(&oracle, candidate, name), reference, "{name}");
        }
    }

    #[test]
    fn hinted_repair_overrides_locations() {
        let t = SingleRound::new(PromptSetting::Loc, 2);
        let fact_start = FAULTY.find("some n: N").unwrap();
        let out = t.repair_with_hints(&ctx(), &[Span::new(fact_start, fact_start + 25)]);
        assert_eq!(out.rounds, 1);
        assert!(out.candidate_source.is_some());
    }
}
