//! Study configuration: technique identities, budgets and the calibration
//! documented in EXPERIMENTS.md.

use serde::{Deserialize, Serialize};
use specrepair_core::RepairBudget;
use specrepair_llm::{FeedbackSetting, PromptSetting};

/// A named, rank-ordered roster of techniques raced by the portfolio
/// scheduler. Rank = position in [`RosterId::members`]; the roster order is
/// also the sequential-fallback order the race must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RosterId {
    /// All twelve techniques, Table I column order (traditional first).
    All,
    /// The four traditional tools.
    Traditional,
    /// The eight LLM-based pipelines.
    Llm,
    /// ARepair backed by Single-Round `Loc` — the classic
    /// traditional-primary / LLM-fallback pair.
    ArepairSrLoc,
    /// ARepair backed by Multi-Round `Auto` (the strongest LLM setting).
    ArepairMrAuto,
}

impl RosterId {
    /// Every built-in roster.
    pub const ALL: [RosterId; 5] = [
        RosterId::All,
        RosterId::Traditional,
        RosterId::Llm,
        RosterId::ArepairSrLoc,
        RosterId::ArepairMrAuto,
    ];

    /// The roster's display label (`Portfolio_…`).
    pub fn label(&self) -> &'static str {
        match self {
            RosterId::All => "Portfolio_All",
            RosterId::Traditional => "Portfolio_Traditional",
            RosterId::Llm => "Portfolio_LLM",
            RosterId::ArepairSrLoc => "Portfolio_ARepair+Single-Round_Loc",
            RosterId::ArepairMrAuto => "Portfolio_ARepair+Multi-Round_Auto",
        }
    }

    /// The roster members in rank order (lower rank wins arbitration).
    pub fn members(&self) -> Vec<TechniqueId> {
        match self {
            RosterId::All => TechniqueId::all(),
            RosterId::Traditional => TechniqueId::traditional(),
            RosterId::Llm => TechniqueId::llm_based(),
            RosterId::ArepairSrLoc => vec![
                TechniqueId::ARepair,
                TechniqueId::Single(PromptSetting::Loc),
            ],
            RosterId::ArepairMrAuto => vec![
                TechniqueId::ARepair,
                TechniqueId::Multi(FeedbackSetting::Auto),
            ],
        }
    }
}

/// Identity of one of the twelve studied techniques, in Table I's column
/// order — plus the portfolio compositions racing them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TechniqueId {
    /// ARepair (traditional).
    ARepair,
    /// ICEBAR (traditional).
    Icebar,
    /// BeAFix (traditional).
    BeAFix,
    /// ATR (traditional).
    Atr,
    /// Single-Round LLM under one prompt setting.
    Single(PromptSetting),
    /// Multi-Round LLM under one feedback setting.
    Multi(FeedbackSetting),
    /// A racing portfolio over one of the built-in rosters.
    Portfolio(RosterId),
}

impl TechniqueId {
    /// All twelve techniques in the paper's column order.
    pub fn all() -> Vec<TechniqueId> {
        let mut out = vec![
            TechniqueId::ARepair,
            TechniqueId::Icebar,
            TechniqueId::BeAFix,
            TechniqueId::Atr,
        ];
        out.extend(PromptSetting::ALL.into_iter().map(TechniqueId::Single));
        out.extend(FeedbackSetting::ALL.into_iter().map(TechniqueId::Multi));
        out
    }

    /// The four traditional techniques.
    pub fn traditional() -> Vec<TechniqueId> {
        TechniqueId::all().into_iter().take(4).collect()
    }

    /// The eight LLM-based techniques.
    pub fn llm_based() -> Vec<TechniqueId> {
        TechniqueId::all().into_iter().skip(4).collect()
    }

    /// The racing portfolio compositions (not part of [`TechniqueId::all`]:
    /// Table I keeps its twelve columns; portfolios are extra rows that
    /// the study and the daemon resolve by label).
    pub fn portfolios() -> Vec<TechniqueId> {
        RosterId::ALL
            .into_iter()
            .map(TechniqueId::Portfolio)
            .collect()
    }

    /// All techniques the label namespace resolves: the twelve studied
    /// ones plus the portfolio compositions.
    pub fn with_portfolios() -> Vec<TechniqueId> {
        let mut out = TechniqueId::all();
        out.extend(TechniqueId::portfolios());
        out
    }

    /// The display label used in tables.
    pub fn label(&self) -> &'static str {
        match self {
            TechniqueId::ARepair => "ARepair",
            TechniqueId::Icebar => "ICEBAR",
            TechniqueId::BeAFix => "BeAFix",
            TechniqueId::Atr => "ATR",
            TechniqueId::Single(s) => s.label(),
            TechniqueId::Multi(f) => f.label(),
            TechniqueId::Portfolio(r) => r.label(),
        }
    }

    /// Parses a display label back into a technique id (the inverse of
    /// [`TechniqueId::label`]); `None` for unknown labels. Service entry
    /// points (`specrepaird`) use this to resolve request technique ids.
    pub fn from_label(label: &str) -> Option<TechniqueId> {
        TechniqueId::with_portfolios()
            .into_iter()
            .find(|t| t.label() == label)
    }

    /// Whether this is one of the traditional tools.
    pub fn is_traditional(&self) -> bool {
        matches!(
            self,
            TechniqueId::ARepair | TechniqueId::Icebar | TechniqueId::BeAFix | TechniqueId::Atr
        )
    }
}

/// Study-wide configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct StudyConfig {
    /// Corpus scale (1.0 = the paper's 1,974 specifications).
    pub scale: f64,
    /// Base random seed for the stochastic (LLM) techniques.
    pub seed: u64,
    /// Injected LM-transport fault rate (0.0 = no fault injection). Faults
    /// are deterministic: each (problem, technique) cell derives its own
    /// [`FaultPlan`](specrepair_faults::FaultPlan) from `fault_seed`.
    pub fault_rate: f64,
    /// Base seed for the per-cell fault schedules.
    pub fault_seed: u64,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            scale: 1.0,
            seed: 42,
            fault_rate: 0.0,
            fault_seed: 0xFA_017,
        }
    }
}

impl StudyConfig {
    /// A small configuration for tests and quick runs.
    pub fn smoke() -> StudyConfig {
        StudyConfig {
            scale: 0.01,
            ..StudyConfig::default()
        }
    }

    /// Enables deterministic fault injection at the given rate.
    pub fn with_faults(mut self, rate: f64, seed: u64) -> StudyConfig {
        self.fault_rate = rate;
        self.fault_seed = seed;
        self
    }

    /// Whether this run injects transport faults.
    pub fn chaos_enabled(&self) -> bool {
        self.fault_rate > 0.0
    }

    /// Whether two configurations describe the same run. A resume under a
    /// different configuration would mix incompatible cells, so the binary
    /// refuses it.
    pub fn same_run(&self, other: &StudyConfig) -> bool {
        self.scale == other.scale
            && self.seed == other.seed
            && self.fault_rate == other.fault_rate
            && self.fault_seed == other.fault_seed
    }

    /// The fault schedule for one (problem, technique) cell.
    ///
    /// Each cell gets an independent plan seeded from `fault_seed` and the
    /// cell's identity, so schedules do not depend on how rayon interleaves
    /// problems — a cell sees the same faults no matter where it runs.
    pub fn fault_plan_for(
        &self,
        problem_id: &str,
        technique: &str,
    ) -> specrepair_faults::FaultPlan {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        problem_id.hash(&mut h);
        technique.hash(&mut h);
        specrepair_faults::FaultPlan::new(self.fault_seed ^ h.finish(), self.fault_rate)
    }

    /// The deterministic trace-cell seed for one (problem, technique)
    /// cell: the root of that cell's span-id space. Like
    /// [`StudyConfig::fault_plan_for`] it depends only on the study seed
    /// and the cell's identity, never on scheduling — so traces from a
    /// `--resume` continuation or a different `--workers` count carry the
    /// same span ids for the same cells and can be diffed directly.
    pub fn cell_seed_for(&self, problem_id: &str, technique: &str) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        problem_id.hash(&mut h);
        technique.hash(&mut h);
        self.seed ^ h.finish()
    }

    /// The per-technique budget calibration (each real tool ran with its
    /// own internal limits and timeouts; these are the equivalents, chosen
    /// so the reproduction's REP profile matches Table I — see
    /// EXPERIMENTS.md §Calibration).
    pub fn budget_for(&self, id: TechniqueId) -> RepairBudget {
        match id {
            TechniqueId::ARepair => RepairBudget {
                max_candidates: 60,
                max_rounds: 1,
            },
            TechniqueId::Icebar => RepairBudget {
                max_candidates: 150,
                max_rounds: 8,
            },
            TechniqueId::BeAFix => RepairBudget {
                max_candidates: 18,
                max_rounds: 2,
            },
            TechniqueId::Atr => RepairBudget {
                max_candidates: 40,
                max_rounds: 1,
            },
            TechniqueId::Single(_) => RepairBudget {
                max_candidates: 10,
                max_rounds: 1,
            },
            TechniqueId::Multi(_) => RepairBudget {
                max_candidates: 100,
                max_rounds: 6,
            },
            // A portfolio's budget is carried per entrant (each roster
            // member races under its own calibrated budget); the composite
            // context's budget is never charged.
            TechniqueId::Portfolio(_) => RepairBudget::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_techniques_in_paper_order() {
        let all = TechniqueId::all();
        assert_eq!(all.len(), 12);
        let labels: Vec<_> = all.iter().map(|t| t.label()).collect();
        assert_eq!(
            labels,
            vec![
                "ARepair",
                "ICEBAR",
                "BeAFix",
                "ATR",
                "Single-Round_Loc+Fix",
                "Single-Round_Loc",
                "Single-Round_Pass",
                "Single-Round_None",
                "Single-Round_Loc+Pass",
                "Multi-Round_None",
                "Multi-Round_Generic",
                "Multi-Round_Auto",
            ]
        );
        assert_eq!(TechniqueId::traditional().len(), 4);
        assert_eq!(TechniqueId::llm_based().len(), 8);
        assert!(TechniqueId::Atr.is_traditional());
        assert!(!TechniqueId::Multi(FeedbackSetting::None).is_traditional());
    }

    #[test]
    fn labels_round_trip_through_from_label() {
        for id in TechniqueId::with_portfolios() {
            assert_eq!(TechniqueId::from_label(id.label()), Some(id));
        }
        assert_eq!(TechniqueId::from_label("NoSuchTool"), None);
    }

    #[test]
    fn portfolio_rosters_are_ranked_and_labelled() {
        assert_eq!(TechniqueId::portfolios().len(), RosterId::ALL.len());
        for roster in RosterId::ALL {
            let members = roster.members();
            assert!(members.len() >= 2, "{}: roster too small", roster.label());
            assert!(roster.label().starts_with("Portfolio_"));
            // Members are real (non-portfolio) techniques with labels.
            for m in &members {
                assert!(!matches!(m, TechniqueId::Portfolio(_)));
                assert!(TechniqueId::from_label(m.label()).is_some());
            }
            let id = TechniqueId::Portfolio(roster);
            assert!(!id.is_traditional());
            assert_eq!(TechniqueId::from_label(id.label()), Some(id));
        }
        assert_eq!(RosterId::All.members().len(), 12);
        assert_eq!(RosterId::ArepairSrLoc.members()[0], TechniqueId::ARepair);
    }

    #[test]
    fn budgets_differ_per_technique() {
        let cfg = StudyConfig::default();
        assert!(
            cfg.budget_for(TechniqueId::Multi(FeedbackSetting::None))
                .max_candidates
                > cfg.budget_for(TechniqueId::BeAFix).max_candidates
        );
        assert_eq!(
            cfg.budget_for(TechniqueId::Single(PromptSetting::Loc))
                .max_rounds,
            1
        );
    }
}
