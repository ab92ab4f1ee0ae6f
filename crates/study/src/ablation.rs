//! Experiment E5 — ablation (§VI): does feeding traditional fault
//! localization into the LLM beat the plain union hybrid?
//!
//! Three arms on the same problems:
//! 1. `Multi-Round_None` alone;
//! 2. the union hybrid `ATR + Multi-Round_None` (Table II's composition);
//! 3. `Localize>Multi-Round_None` — the localize-then-fix pipeline where the
//!    traditional localizer's top spans become the LLM's round-1 location
//!    hints.

use mualloy_analyzer::IncrementalStats;
use serde::{Deserialize, Serialize};
use specrepair_benchmarks::RepairProblem;
use specrepair_core::{
    CancelToken, LocalizeThenFix, OracleHandle, RepairContext, RepairTechnique, UnionHybrid,
};
use specrepair_llm::{FeedbackSetting, MultiRound};
use specrepair_metrics::rep;
use specrepair_traditional::Atr;
use std::fmt::Write as _;

use crate::config::{StudyConfig, TechniqueId};

/// One ablation arm's aggregate result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationArm {
    /// Arm label.
    pub name: String,
    /// REP count.
    pub repaired: usize,
    /// Mean oracle validations per spec (cost proxy).
    pub mean_explored: f64,
}

/// The ablation comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ablation {
    /// The three arms.
    pub arms: Vec<AblationArm>,
    /// Problems evaluated.
    pub total_specs: usize,
    /// Incremental-oracle counters summed over the per-problem oracles, so
    /// the study binary can fold the ablation's checks into the run totals.
    pub incremental: IncrementalStats,
}

/// Runs the ablation on the given problems.
pub fn run(problems: &[RepairProblem], config: &StudyConfig) -> Ablation {
    let mr_budget = config.budget_for(TechniqueId::Multi(FeedbackSetting::None));
    let mut arms = vec![
        AblationArm {
            name: "Multi-Round_None".to_string(),
            repaired: 0,
            mean_explored: 0.0,
        },
        AblationArm {
            name: "ATR+Multi-Round_None".to_string(),
            repaired: 0,
            mean_explored: 0.0,
        },
        AblationArm {
            name: "Localize>Multi-Round_None".to_string(),
            repaired: 0,
            mean_explored: 0.0,
        },
    ];
    let mut incremental = IncrementalStats::default();
    for p in problems {
        let oracle = OracleHandle::fresh();
        let ctx = RepairContext::new(p.faulty.clone(), mr_budget)
            .with_source(&p.faulty_source)
            .with_oracle(oracle.clone())
            .with_cancel(CancelToken::none());
        let plain = MultiRound::new(FeedbackSetting::None, config.seed);
        let union = UnionHybrid::new(
            Atr::default(),
            MultiRound::new(FeedbackSetting::None, config.seed),
        );
        let localize = LocalizeThenFix::new(MultiRound::new(FeedbackSetting::None, config.seed), 3);
        for (i, outcome) in [
            plain.repair(&ctx),
            union.repair(&ctx),
            localize.repair(&ctx),
        ]
        .into_iter()
        .enumerate()
        {
            arms[i].repaired += rep(
                oracle.service(),
                &p.truth,
                outcome.candidate_source.as_deref(),
            ) as usize;
            arms[i].mean_explored += outcome.candidates_explored as f64;
        }
        incremental.absorb(&oracle.incremental_stats());
    }
    let n = problems.len().max(1) as f64;
    for a in &mut arms {
        a.mean_explored /= n;
    }
    Ablation {
        arms,
        total_specs: problems.len(),
        incremental,
    }
}

/// Renders the ablation as text.
pub fn render(ablation: &Ablation) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "ABLATION (SVI): localization-guided hybrid vs plain union, {} specs",
        ablation.total_specs
    );
    let _ = writeln!(out, "{:<28}{:>9}{:>16}", "Arm", "REP", "mean validations");
    for a in &ablation.arms {
        let _ = writeln!(
            out,
            "{:<28}{:>9}{:>16.1}",
            a.name, a.repaired, a.mean_explored
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_arms_with_sane_counts() {
        let problems = specrepair_benchmarks::arepair(0.3);
        let config = StudyConfig {
            scale: 0.3,
            seed: 13,
            ..StudyConfig::default()
        };
        let ab = run(&problems, &config);
        assert_eq!(ab.arms.len(), 3);
        assert_eq!(ab.total_specs, problems.len());
        for a in &ab.arms {
            assert!(a.repaired <= ab.total_specs);
        }
        // The union hybrid can never repair fewer than plain Multi-Round.
        assert!(ab.arms[1].repaired >= ab.arms[0].repaired);
        let text = render(&ab);
        assert!(text.contains("ABLATION"));
    }
}
