//! Equisatisfiability comparison: the reference definition of the REP
//! metric. The study asks REP of its oracle as one verdict
//! (`specrepair_metrics::rep`); tests hold that verdict to [`compare`].
//!
//! Following the paper (§III-D): *"It is computed using the Alloy Analyzer
//! to run each command in both the proposed fix and its corresponding ground
//! truth. For each command in the ground truth specification, results are
//! compared with those from the proposed fix. If any results differ, a REP
//! of 0 is assigned […]; if all results match, a REP of 1 is assigned."*

use mualloy_syntax::ast::{CommandKind, Spec};

use crate::analyzer::Analyzer;
use crate::error::AnalyzerError;

/// Per-command comparison detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommandComparison {
    /// Rendering of the command (`check Safe for 3`).
    pub command: String,
    /// Satisfiability under the ground truth.
    pub truth_sat: bool,
    /// Satisfiability under the candidate, or `None` if the candidate could
    /// not execute the command (missing target, translation failure).
    pub candidate_sat: Option<bool>,
}

impl CommandComparison {
    /// Whether the candidate matched the ground truth on this command.
    pub fn matches(&self) -> bool {
        self.candidate_sat == Some(self.truth_sat)
    }
}

/// Result of an equisatisfiability comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquisatReport {
    /// Per-command details, in ground-truth command order.
    pub comparisons: Vec<CommandComparison>,
}

impl EquisatReport {
    /// REP: 1 when every command matches, 0 otherwise.
    pub fn rep(&self) -> u8 {
        u8::from(self.equisatisfiable())
    }

    /// Whether every ground-truth command matched.
    pub fn equisatisfiable(&self) -> bool {
        !self.comparisons.is_empty() && self.comparisons.iter().all(CommandComparison::matches)
    }

    /// The commands that disagreed.
    pub fn mismatches(&self) -> impl Iterator<Item = &CommandComparison> {
        self.comparisons.iter().filter(|c| !c.matches())
    }
}

/// Runs every ground-truth command on both specifications and compares the
/// satisfiability results.
///
/// Commands are matched by kind and target name; the ground truth's scope is
/// used on both sides so that a candidate cannot "win" by shrinking scopes.
///
/// # Errors
///
/// Fails only when the *ground truth* itself cannot execute a command —
/// candidate failures are recorded as mismatches, not errors.
pub fn compare(truth: &Spec, candidate: &Spec) -> Result<EquisatReport, AnalyzerError> {
    let truth_analyzer = Analyzer::new(truth.clone());
    let candidate_analyzer = Analyzer::new(candidate.clone());
    let mut comparisons = Vec::new();
    for cmd in &truth.commands {
        let truth_out = truth_analyzer.run_command(cmd)?;
        let candidate_sat = match &cmd.kind {
            CommandKind::Run(name) => candidate_analyzer
                .run_pred(name, cmd.scope)
                .ok()
                .map(|o| o.sat),
            CommandKind::Check(name) => candidate_analyzer
                .check_assert(name, cmd.scope)
                .ok()
                .map(|o| o.sat),
        };
        let verb = if cmd.is_check() { "check" } else { "run" };
        comparisons.push(CommandComparison {
            command: format!("{verb} {} for {}", cmd.target(), cmd.scope),
            truth_sat: truth_out.sat,
            candidate_sat,
        });
    }
    Ok(EquisatReport { comparisons })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mualloy_syntax::parse_spec;

    const TRUTH: &str = "sig N { next: lone N } \
        fact { no n: N | n in n.^next } \
        pred hasEdge { some next } \
        assert NoSelf { all n: N | n not in n.next } \
        run hasEdge for 3 expect 1 \
        check NoSelf for 3 expect 0";

    #[test]
    fn identical_specs_are_equisatisfiable() {
        let t = parse_spec(TRUTH).unwrap();
        let report = compare(&t, &t).unwrap();
        assert_eq!(report.rep(), 1);
        assert!(report.mismatches().next().is_none());
    }

    #[test]
    fn semantically_equivalent_repair_scores_one() {
        let t = parse_spec(TRUTH).unwrap();
        // Different syntax, same meaning: all n | n !in n.^next.
        let c = parse_spec(&TRUTH.replace("no n: N | n in n.^next", "all n: N | n not in n.^next"))
            .unwrap();
        assert_eq!(compare(&t, &c).unwrap().rep(), 1);
    }

    #[test]
    fn broken_fact_scores_zero() {
        let t = parse_spec(TRUTH).unwrap();
        let c = parse_spec(&TRUTH.replace("no n: N | n in n.^next", "some N || no N")).unwrap();
        let report = compare(&t, &c).unwrap();
        assert_eq!(report.rep(), 0);
        // The check command disagrees: cycles allow self loops.
        assert!(report.mismatches().any(|m| m.command.contains("check")));
    }

    #[test]
    fn candidate_missing_target_scores_zero() {
        let t = parse_spec(TRUTH).unwrap();
        let c = parse_spec("sig N { next: lone N }").unwrap();
        let report = compare(&t, &c).unwrap();
        assert_eq!(report.rep(), 0);
        assert!(report.comparisons.iter().all(|c| c.candidate_sat.is_none()));
    }

    #[test]
    fn truth_without_commands_scores_zero() {
        let t = parse_spec("sig A {}").unwrap();
        let report = compare(&t, &t).unwrap();
        assert_eq!(report.rep(), 0, "no commands means nothing was verified");
    }
}
