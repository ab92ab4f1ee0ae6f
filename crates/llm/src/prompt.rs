//! Prompt construction for the LLM-based repair pipelines.
//!
//! Mirrors the information channels of the two studied approaches:
//!
//! - **Single-Round** (Hasan et al.): a zero-shot prompt optionally carrying
//!   the bug location (*Loc*), a fix description (*Fix*) and/or an assertion
//!   the fix must satisfy (*Pass*) — five settings in total;
//! - **Multi-Round** (Alhanahnah et al.): a dual-agent loop whose prompts
//!   carry analyzer feedback at one of three levels (*No-feedback*,
//!   *Generic-feedback*, *Auto-feedback*).
//!
//! A [`Prompt`] is structured: the synthetic model reads its source and
//! hints, and Multi-Round hands it the localizer's [`Guidance`] beside the
//! prompt. The analyzer report a hosted model would read as feedback is
//! built from the carried candidate only when [`Prompt::render`] renders
//! the text, so the synthetic path never runs it.
//!
//! [`Guidance`]: crate::Guidance

use mualloy_analyzer::AnalyzerReport;
use mualloy_syntax::walk::NodeId;
use mualloy_syntax::{Span, Spec};
use std::fmt;

/// The five Single-Round prompt settings of the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PromptSetting {
    /// Bug location + fix description.
    LocFix,
    /// Bug location only.
    Loc,
    /// Passing-assertion requirement only.
    Pass,
    /// No additional hints.
    None,
    /// Bug location + passing-assertion requirement.
    LocPass,
}

impl PromptSetting {
    /// All settings in the paper's column order.
    pub const ALL: [PromptSetting; 5] = [
        PromptSetting::LocFix,
        PromptSetting::Loc,
        PromptSetting::Pass,
        PromptSetting::None,
        PromptSetting::LocPass,
    ];

    /// The table label (`Single-Round_Loc+Fix`, …).
    pub fn label(&self) -> &'static str {
        match self {
            PromptSetting::LocFix => "Single-Round_Loc+Fix",
            PromptSetting::Loc => "Single-Round_Loc",
            PromptSetting::Pass => "Single-Round_Pass",
            PromptSetting::None => "Single-Round_None",
            PromptSetting::LocPass => "Single-Round_Loc+Pass",
        }
    }

    /// Whether the setting carries the bug location.
    pub fn has_loc(&self) -> bool {
        matches!(
            self,
            PromptSetting::LocFix | PromptSetting::Loc | PromptSetting::LocPass
        )
    }

    /// Whether the setting carries the fix description.
    pub fn has_fix(&self) -> bool {
        matches!(self, PromptSetting::LocFix)
    }

    /// Whether the setting carries the passing-assertion requirement.
    pub fn has_pass(&self) -> bool {
        matches!(self, PromptSetting::Pass | PromptSetting::LocPass)
    }
}

impl fmt::Display for PromptSetting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The three Multi-Round feedback settings of the study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FeedbackSetting {
    /// Binary fixed/not-fixed only.
    None,
    /// Templated analyzer report (counterexamples, instance summaries).
    Generic,
    /// A prompt agent converts the report into targeted guidance.
    Auto,
}

impl FeedbackSetting {
    /// All settings in the paper's column order.
    pub const ALL: [FeedbackSetting; 3] = [
        FeedbackSetting::None,
        FeedbackSetting::Generic,
        FeedbackSetting::Auto,
    ];

    /// The table label (`Multi-Round_None`, …).
    pub fn label(&self) -> &'static str {
        match self {
            FeedbackSetting::None => "Multi-Round_None",
            FeedbackSetting::Generic => "Multi-Round_Generic",
            FeedbackSetting::Auto => "Multi-Round_Auto",
        }
    }
}

impl fmt::Display for FeedbackSetting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Ground-truth-derived hints available to the Single-Round prompts (the
/// studied benchmark entries came with known bug locations and fixes).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProblemHints {
    /// Suspected bug locations (byte spans into the faulty source).
    pub loc: Vec<Span>,
    /// Suspected bug locations as persistent AST node ids — the same ids
    /// the localizer ranks and the mutation engines target, so every layer
    /// addresses one site vocabulary. Resolved from `loc` via
    /// `specrepair_core::sites_for_spans` by the pipelines.
    pub sites: Vec<NodeId>,
    /// Textual fix descriptions (e.g. `` replace `some` with `all` ``).
    pub fix: Vec<String>,
    /// Name of an assertion the fix must make pass.
    pub pass: Option<String>,
}

impl ProblemHints {
    /// Restricts the hints to what a given prompt setting may see.
    pub fn filtered(&self, setting: PromptSetting) -> ProblemHints {
        ProblemHints {
            loc: if setting.has_loc() {
                self.loc.clone()
            } else {
                Vec::new()
            },
            sites: if setting.has_loc() {
                self.sites.clone()
            } else {
                Vec::new()
            },
            fix: if setting.has_fix() {
                self.fix.clone()
            } else {
                Vec::new()
            },
            pass: if setting.has_pass() {
                self.pass.clone()
            } else {
                None
            },
        }
    }
}

/// Analyzer feedback on the previous round's candidate.
#[derive(Debug, Clone)]
pub enum Feedback {
    /// Only "not fixed yet": the *No-feedback* status line, also sent once
    /// the transport stack has degraded.
    StillFaulty,
    /// The analyzer report on the last parsed candidate
    /// (*Generic-feedback* and *Auto-feedback*), run when displayed.
    Report(Spec),
}

impl fmt::Display for Feedback {
    /// The feedback text: the status line, or the candidate printed,
    /// re-parsed and run through every command on a cold analyzer, in the
    /// [`AnalyzerReport`] template.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Feedback::StillFaulty => f.write_str("The specification is still faulty."),
            Feedback::Report(candidate) => {
                let source = mualloy_syntax::print_spec(candidate);
                write!(f, "{}", AnalyzerReport::for_source(&source))
            }
        }
    }
}

/// A prompt: what the (synthetic) model conditions on.
#[derive(Debug, Clone, Default)]
pub struct Prompt {
    /// The faulty specification's source text.
    pub source: String,
    /// Hints visible under the active setting.
    pub hints: ProblemHints,
    /// Analyzer feedback carried over from the previous round, if any.
    pub feedback: Option<Feedback>,
}

impl Prompt {
    /// Renders the prompt as the text a real LLM API would receive (used in
    /// reports and tests; the synthetic model consumes the structured form).
    /// A [`Feedback::Report`] runs the analyzer here.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "You are an expert in the Alloy specification language. \
             The following specification is faulty; produce a corrected \
             version of the complete specification.\n\n",
        );
        out.push_str("```alloy\n");
        out.push_str(&self.source);
        out.push_str("\n```\n");
        if !self.hints.loc.is_empty() {
            out.push_str(&format!(
                "\nThe bug is located at byte span(s): {}.\n",
                self.hints
                    .loc
                    .iter()
                    .map(|s| format!("{s}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        if !self.hints.sites.is_empty() {
            out.push_str(&format!(
                "\nThe suspected constraint node(s): {}.\n",
                self.hints
                    .sites
                    .iter()
                    .map(|id| format!("{id}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        for fix in &self.hints.fix {
            out.push_str(&format!("\nA possible fix: {fix}.\n"));
        }
        if let Some(p) = &self.hints.pass {
            out.push_str(&format!("\nThe fix must make assertion `{p}` pass.\n"));
        }
        if let Some(fb) = &self.feedback {
            out.push_str("\nAnalyzer feedback on your previous attempt:\n");
            out.push_str(&fb.to_string());
        }
        out
    }
}

/// Inverts a mutation description so it can serve as a *fix* description:
/// the benchmark's edit script records truth→fault, the repair needs
/// fault→truth.
pub fn invert_fix_description(desc: &str) -> String {
    if let Some(rest) = desc.strip_prefix("replace ") {
        if let Some((from, to)) = rest.split_once(" with ") {
            return format!("replace {to} with {from}");
        }
    }
    match desc {
        "negate formula" => "remove negation".to_string(),
        "remove negation" => "negate formula".to_string(),
        "swap implication direction" => "swap implication direction".to_string(),
        // Junction drops and other destructive edits have no mechanical
        // inverse; the fix hint degrades to a vague nudge.
        other => format!("revisit the constraint ({other})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setting_flags() {
        assert!(PromptSetting::LocFix.has_loc() && PromptSetting::LocFix.has_fix());
        assert!(!PromptSetting::LocFix.has_pass());
        assert!(PromptSetting::Pass.has_pass() && !PromptSetting::Pass.has_loc());
        assert!(PromptSetting::LocPass.has_loc() && PromptSetting::LocPass.has_pass());
        assert!(!PromptSetting::None.has_loc());
        assert_eq!(PromptSetting::ALL.len(), 5);
        assert_eq!(FeedbackSetting::ALL.len(), 3);
    }

    #[test]
    fn labels_match_paper_columns() {
        assert_eq!(PromptSetting::LocFix.label(), "Single-Round_Loc+Fix");
        assert_eq!(PromptSetting::LocPass.to_string(), "Single-Round_Loc+Pass");
        assert_eq!(FeedbackSetting::Generic.label(), "Multi-Round_Generic");
    }

    #[test]
    fn hints_filtering() {
        let hints = ProblemHints {
            sites: Vec::new(),
            loc: vec![Span::new(1, 2)],
            fix: vec!["replace `a` with `b`".into()],
            pass: Some("Safe".into()),
        };
        let f = hints.filtered(PromptSetting::Loc);
        assert!(!f.loc.is_empty() && f.fix.is_empty() && f.pass.is_none());
        let f = hints.filtered(PromptSetting::None);
        assert_eq!(f, ProblemHints::default());
        let f = hints.filtered(PromptSetting::LocFix);
        assert!(!f.loc.is_empty() && !f.fix.is_empty());
    }

    #[test]
    fn render_includes_channels() {
        let p = Prompt {
            source: "sig A {}".into(),
            hints: ProblemHints {
                sites: Vec::new(),
                loc: vec![Span::new(0, 3)],
                fix: vec!["replace `no` with `some`".into()],
                pass: Some("Safe".into()),
            },
            feedback: Some(Feedback::StillFaulty),
        };
        let text = p.render();
        assert!(text.contains("sig A {}"));
        assert!(text.contains("byte span"));
        assert!(text.contains("possible fix"));
        assert!(text.contains("`Safe`"));
        assert!(text.ends_with(
            "\nAnalyzer feedback on your previous attempt:\nThe specification is still faulty."
        ));
    }

    #[test]
    fn report_feedback_renders_the_candidates_analyzer_report() {
        // The fact forces a self-loop, so `check NoSelf` has a counterexample.
        let candidate = mualloy_syntax::parse_spec(
            "sig N { next: lone N } fact { some n: N | n in n.next } \
             assert NoSelf { all n: N | n not in n.next } \
             check NoSelf for 3 expect 0",
        )
        .unwrap();
        let report =
            AnalyzerReport::for_source(&mualloy_syntax::print_spec(&candidate)).to_string();
        assert!(report.contains("a counterexample was found"), "{report}");
        let p = Prompt {
            source: "sig A {}".into(),
            feedback: Some(Feedback::Report(candidate)),
            ..Prompt::default()
        };
        let text = p.render();
        let header = "\nAnalyzer feedback on your previous attempt:\n";
        let at = text.find(header).expect("a feedback header");
        assert_eq!(&text[at + header.len()..], report);
    }

    #[test]
    fn fix_inversion() {
        assert_eq!(
            invert_fix_description("replace `all` with `some`"),
            "replace `some` with `all`"
        );
        assert_eq!(invert_fix_description("negate formula"), "remove negation");
        assert_eq!(invert_fix_description("remove negation"), "negate formula");
        assert!(invert_fix_description("drop right operand").contains("revisit"));
    }
}
