//! # specrepair-llm
//!
//! The LLM-based repair pipelines of the study, built on a deterministic
//! synthetic language model (the GPT-4 substitute; see DESIGN.md §1):
//!
//! - [`SyntheticLm`]: seeded stochastic repair-proposal model whose
//!   capability knobs (hint fidelity, fix adoption, restyling, glitches)
//!   reproduce the mechanisms the paper attributes to GPT-4;
//! - [`SingleRound`]: the five zero-shot prompt settings
//!   (`Loc+Fix`, `Loc`, `Pass`, `None`, `Loc+Pass`);
//! - [`MultiRound`]: the dual-agent iterative loop with three feedback
//!   settings (`None`, `Generic`, `Auto`);
//! - [`transport`]: the [`LmTransport`] failure surface and the
//!   deterministic fault-injecting [`FaultyLm`] decorator;
//! - [`resilient`]: [`ResilientLm`] — bounded retries with deterministic
//!   backoff jitter, cancellation-aware sleeps and a per-technique circuit
//!   breaker, the stack both pipelines actually call through.
//!
//! Both pipelines implement [`specrepair_core::RepairTechnique`] and
//! [`specrepair_core::HintedRepair`], so the hybrid compositions of RQ3
//! apply unchanged. The study and `specrepaird` build them in one place,
//! `specrepair_study::runner::run_cell`: each cell gets its own
//! [`ResilientLm`] — [`chaos_stack`] when the run injects faults — whose
//! counters go to the caller's [`TransportStats`].
//!
//! # Example
//!
//! ```
//! use specrepair_core::{RepairContext, RepairBudget, RepairTechnique};
//! use specrepair_llm::{MultiRound, FeedbackSetting};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ctx = RepairContext::from_source(
//!     "sig N { next: lone N } \
//!      fact Acyclic { some n: N | n in n.^next } \
//!      assert NoSelf { all n: N | n not in n.next } \
//!      check NoSelf for 3 expect 0",
//!     RepairBudget { max_candidates: 60, max_rounds: 4 },
//! )?;
//! let outcome = MultiRound::new(FeedbackSetting::None, 7).repair(&ctx);
//! assert!(outcome.candidate.is_some());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod model;
pub mod multi_round;
pub mod prompt;
pub mod resilient;
pub mod single_round;
pub mod transport;

pub use model::{Guidance, LmConfig, SyntheticLm};
pub use multi_round::MultiRound;
pub use prompt::{
    invert_fix_description, Feedback, FeedbackSetting, ProblemHints, Prompt, PromptSetting,
};
pub use resilient::{ResilientLm, RetryPolicy, TransportStats};
pub use single_round::SingleRound;
pub use transport::{FaultyLm, LmTransport, LmTransportError};

/// Builds the resilient transport stack a chaos run wants: the synthetic
/// model behind a [`FaultyLm`] decorator, retried with the near-zero-latency
/// [`RetryPolicy::snappy`] policy sized so that — when the plan's faults are
/// all transient — every scheduled fault burst is absorbed and the run's
/// outcomes are byte-identical to a fault-free run. The stack's retries,
/// breaker events and injected faults are counted in `stats`.
pub fn chaos_stack(
    plan: specrepair_faults::FaultPlan,
    stats: std::sync::Arc<TransportStats>,
) -> ResilientLm {
    // Size the retry budget to outlast the longest fault burst the plan
    // schedules in a generous call window.
    let worst_burst = plan.max_consecutive_faults(4096);
    let faulty = FaultyLm::new(SyntheticLm::default(), plan).with_stats(stats.faults.clone());
    ResilientLm::over(faulty)
        .with_policy(RetryPolicy::snappy().with_max_retries(worst_burst.max(4)))
        .with_stats(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use specrepair_core::RepairTechnique;

    #[test]
    fn suite_has_eight_techniques_in_paper_order() {
        let single = PromptSetting::ALL
            .into_iter()
            .map(|s| SingleRound::new(s, 0).name().to_string());
        let multi = FeedbackSetting::ALL
            .into_iter()
            .map(|f| MultiRound::new(f, 0).name().to_string());
        let names: Vec<String> = single.chain(multi).collect();
        assert_eq!(
            names,
            vec![
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
    }
}
