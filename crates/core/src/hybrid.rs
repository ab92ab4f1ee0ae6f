//! Hybrid repair strategies (RQ3).
//!
//! Two composition modes are studied:
//!
//! - [`UnionHybrid`] — the paper's Table II / Figure 4 combination: run the
//!   traditional tool first; when it fails, fall back to the LLM-based
//!   technique. The union of repair sets is exactly what the per-spec
//!   sequential fallback computes.
//! - [`LocalizeThenFix`] — the §VI ablation: feed the traditional
//!   localizer's suspicious spans to a hint-aware technique as its bug
//!   location hints, combining "ARepair's localization strength and the
//!   LLM's synthesis capabilities".

use mualloy_syntax::Span;

use crate::technique::{RepairContext, RepairOutcome, RepairTechnique};

/// A technique that can exploit external bug-location hints (the LLM-based
/// pipelines implement this; prompt settings with `Loc` consume the spans).
pub trait HintedRepair: RepairTechnique {
    /// Attempts a repair, treating `hints` as the suspected fault locations.
    fn repair_with_hints(&self, ctx: &RepairContext, hints: &[Span]) -> RepairOutcome;
}

/// Sequential fallback: `primary` first, `secondary` when it fails.
#[derive(Debug)]
pub struct UnionHybrid<A, B> {
    name: String,
    primary: A,
    secondary: B,
}

impl<A: RepairTechnique, B: RepairTechnique> UnionHybrid<A, B> {
    /// Creates a hybrid named `"<primary>+<secondary>"`.
    pub fn new(primary: A, secondary: B) -> Self {
        let name = format!("{}+{}", primary.name(), secondary.name());
        UnionHybrid {
            name,
            primary,
            secondary,
        }
    }
}

impl<A: RepairTechnique, B: RepairTechnique> RepairTechnique for UnionHybrid<A, B> {
    fn name(&self) -> &str {
        &self.name
    }

    fn repair(&self, ctx: &RepairContext) -> RepairOutcome {
        let first = self.primary.repair(ctx);
        if first.success {
            return RepairOutcome {
                technique: self.name.clone(),
                ..first
            };
        }
        let second = self.secondary.repair(ctx);
        let explored = first.candidates_explored + second.candidates_explored;
        // The fallback ran *after* the primary, so the attempt really spent
        // the sum of both tools' rounds — reporting the max would hide the
        // primary's cost on every fallback.
        let rounds = first.rounds + second.rounds;
        if second.success {
            RepairOutcome {
                technique: self.name.clone(),
                candidates_explored: explored,
                rounds,
                ..second
            }
        } else {
            // Keep the better-looking failure candidate (prefer the
            // secondary's, which had the benefit of the fallback position),
            // and the secondary's failure cause — it was the last word.
            let reason = second.reason;
            let candidate = second.candidate.or(first.candidate);
            let candidate_source = second.candidate_source.or(first.candidate_source);
            RepairOutcome {
                technique: self.name.clone(),
                success: false,
                reason,
                candidate,
                candidate_source,
                candidates_explored: explored,
                rounds,
            }
        }
    }
}

/// Localize with the traditional analysis, then fix with a hint-aware
/// technique.
#[derive(Debug)]
pub struct LocalizeThenFix<T> {
    name: String,
    fixer: T,
    /// Number of top-ranked spans passed as hints.
    pub top_k: usize,
}

impl<T: HintedRepair> LocalizeThenFix<T> {
    /// Creates the pipeline named `"Localize><fixer>"`.
    pub fn new(fixer: T, top_k: usize) -> Self {
        let name = format!("Localize>{}", fixer.name());
        LocalizeThenFix { name, fixer, top_k }
    }
}

impl<T: HintedRepair> RepairTechnique for LocalizeThenFix<T> {
    fn name(&self) -> &str {
        &self.name
    }

    fn repair(&self, ctx: &RepairContext) -> RepairOutcome {
        let loc = crate::localization::localize_with(ctx.oracle.service(), &ctx.faulty);
        let hints = loc.top_spans(self.top_k);
        let out = self.fixer.repair_with_hints(ctx, &hints);
        RepairOutcome {
            technique: self.name.clone(),
            ..out
        }
    }
}

/// Set-level hybrid statistics for a pair of per-spec outcome vectors
/// (Table II's columns): individual counts, overlap and unique union.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverlapStats {
    /// Specs repaired by the first technique.
    pub first: usize,
    /// Specs repaired by the second technique.
    pub second: usize,
    /// Specs repaired by both.
    pub overlap: usize,
    /// Specs repaired by at least one (the hybrid's repair count).
    pub union: usize,
}

/// Computes overlap statistics from aligned success vectors.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
pub fn overlap_stats(a: &[bool], b: &[bool]) -> OverlapStats {
    assert_eq!(a.len(), b.len(), "outcome vectors must be aligned");
    let mut s = OverlapStats {
        first: 0,
        second: 0,
        overlap: 0,
        union: 0,
    };
    for (&x, &y) in a.iter().zip(b) {
        if x {
            s.first += 1;
        }
        if y {
            s.second += 1;
        }
        if x && y {
            s.overlap += 1;
        }
        if x || y {
            s.union += 1;
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::technique::RepairBudget;
    use mualloy_syntax::parse_spec;

    /// A stub technique that "succeeds" iff its flag is set, by returning
    /// the context's spec unchanged.
    struct Stub {
        name: &'static str,
        succeed: bool,
    }

    impl RepairTechnique for Stub {
        fn name(&self) -> &str {
            self.name
        }
        fn repair(&self, ctx: &RepairContext) -> RepairOutcome {
            if self.succeed {
                RepairOutcome::success_with(self.name, ctx.faulty.clone(), 1, 1)
            } else {
                RepairOutcome::failure(self.name, 1, 1)
            }
        }
    }

    impl HintedRepair for Stub {
        fn repair_with_hints(&self, ctx: &RepairContext, hints: &[Span]) -> RepairOutcome {
            let mut out = self.repair(ctx);
            out.rounds = hints.len();
            out
        }
    }

    fn ctx() -> RepairContext {
        RepairContext::new(
            parse_spec("sig N {} fact { no N } pred p { some N } run p for 3 expect 1").unwrap(),
            RepairBudget::tiny(),
        )
    }

    #[test]
    fn union_hybrid_prefers_primary() {
        let h = UnionHybrid::new(
            Stub {
                name: "A",
                succeed: true,
            },
            Stub {
                name: "B",
                succeed: true,
            },
        );
        assert_eq!(h.name(), "A+B");
        let out = h.repair(&ctx());
        assert!(out.success);
        assert_eq!(out.candidates_explored, 1, "secondary must not run");
    }

    #[test]
    fn union_hybrid_falls_back() {
        let h = UnionHybrid::new(
            Stub {
                name: "A",
                succeed: false,
            },
            Stub {
                name: "B",
                succeed: true,
            },
        );
        let out = h.repair(&ctx());
        assert!(out.success);
        assert_eq!(out.candidates_explored, 2);
        assert_eq!(out.technique, "A+B");
    }

    #[test]
    fn union_hybrid_fallback_charges_the_sum_of_rounds() {
        // Regression: the sequential fallback spends primary + secondary
        // rounds; it used to report only the max of the two.
        let h = UnionHybrid::new(
            Stub {
                name: "A",
                succeed: false,
            },
            Stub {
                name: "B",
                succeed: true,
            },
        );
        let out = h.repair(&ctx());
        assert!(out.success);
        assert_eq!(out.rounds, 2, "fallback rounds must be 1 + 1, not max");
        let both_fail = UnionHybrid::new(
            Stub {
                name: "A",
                succeed: false,
            },
            Stub {
                name: "B",
                succeed: false,
            },
        );
        assert_eq!(both_fail.repair(&ctx()).rounds, 2);
    }

    #[test]
    fn union_hybrid_total_failure() {
        let h = UnionHybrid::new(
            Stub {
                name: "A",
                succeed: false,
            },
            Stub {
                name: "B",
                succeed: false,
            },
        );
        assert!(!h.repair(&ctx()).success);
    }

    #[test]
    fn localize_then_fix_passes_hints() {
        let p = LocalizeThenFix::new(
            Stub {
                name: "L",
                succeed: true,
            },
            3,
        );
        assert_eq!(p.name(), "Localize>L");
        let out = p.repair(&ctx());
        assert!(out.success);
        // The faulty ctx has at least one suspicious site, so hints flowed.
        assert!(
            out.rounds >= 1,
            "expected non-empty hints, got {}",
            out.rounds
        );
    }

    #[test]
    fn overlap_stats_basic() {
        let a = [true, true, false, false];
        let b = [true, false, true, false];
        let s = overlap_stats(&a, &b);
        assert_eq!(s.first, 2);
        assert_eq!(s.second, 2);
        assert_eq!(s.overlap, 1);
        assert_eq!(s.union, 3);
    }

    #[test]
    #[should_panic(expected = "aligned")]
    fn overlap_stats_requires_alignment() {
        let _ = overlap_stats(&[true], &[true, false]);
    }
}
