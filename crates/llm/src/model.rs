//! The synthetic language model.
//!
//! This is the reproduction's substitute for GPT-4 (see DESIGN.md §1): a
//! deterministic, seeded stochastic repair-proposal model that reproduces
//! the *mechanisms* the study attributes to LLM-based repair:
//!
//! - proposal quality depends on the information in the prompt — a bug
//!   location hint concentrates edits on the right constraint, a fix
//!   description makes the model likely to apply the exact inverse edit;
//! - feedback-guided rounds re-rank candidate locations (the dual-agent
//!   Multi-Round loop);
//! - the model *re-renders the whole specification* and occasionally
//!   restyles logically-equivalent formulas, which is why LLM repairs
//!   measure lower token/syntax similarity to the ground truth than the
//!   span-splicing traditional tools (Figure 2);
//! - rarely, the output is malformed (the paper needed a "specialized
//!   parser" for exactly this), exercising the pipeline's robustness path.
//!
//! All stochastic choices flow from a caller-provided [`ChaCha8Rng`], so
//! every experiment is reproducible from its seed.
//!
//! # The edit space
//!
//! A proposal samples from the prompt's *edit space*: the parsed
//! specification and every operator and synthesis mutation of it, in the
//! order [`MutationEngine::all_mutations`] and
//! [`synthesis_mutations`](specrepair_mutation::synthesis_mutations) list
//! them. The space keeps each mutation's site, span and kind only; a draw
//! picks an index and builds that one mutation's payload and description.
//! The descriptions fix-hint matching compares are built the first time a
//! fix hint is adopted, then kept with the space. The stacked second edit
//! counts the candidate's operator mutations and builds only the one its
//! draw picks. The edit space is a pure function of the prompt text and
//! holds no RNG state; every draw comes after it is built. A model builds it
//! once per distinct source and keeps the last one, so the drafts and rounds
//! of one repair (whose prompts all carry the same faulty source) enumerate
//! it once, and completions and the RNG stream are the ones a fresh model
//! would give.
//! [`FaultyLm`](crate::FaultyLm)'s `Truncated` path still replays the clean
//! stream: it runs the model on a clone of the RNG, and the memo it may fill
//! is the edit space the retry would build anyway.

use std::fmt;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use mualloy_syntax::ast::*;
use mualloy_syntax::walk::{node_at, replace_node, NodeId, NodeRepl, NodeSite};
use rand::seq::SliceRandom;
use rand::{Rng, RngCore};
use rand_chacha::ChaCha8Rng;
use specrepair_mutation::synthesis::{
    template_count, template_description, template_kind, template_mutation,
};
use specrepair_mutation::{template_formulas, Mutation, MutationEngine, MutationKind, Vocabulary};

use crate::prompt::{invert_fix_description, Prompt};

/// Capability parameters of the synthetic model. The defaults are the
/// calibration used for the study runs (documented in EXPERIMENTS.md).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LmConfig {
    /// Probability that a location hint is actually honored.
    pub hint_fidelity: f64,
    /// Probability that a matching fix description is applied verbatim.
    pub fix_adoption: f64,
    /// Probability of stacking a second edit into one proposal.
    pub multi_edit_prob: f64,
    /// Probability of restyling an unrelated formula (semantically
    /// equivalent rewrite) in the emitted text.
    pub style_noise_prob: f64,
    /// Probability of emitting a malformed completion.
    pub glitch_prob: f64,
}

impl Default for LmConfig {
    fn default() -> Self {
        LmConfig {
            hint_fidelity: 0.8,
            fix_adoption: 0.7,
            multi_edit_prob: 0.25,
            style_noise_prob: 0.5,
            glitch_prob: 0.02,
        }
    }
}

/// External guidance distilled from analyzer feedback (the Multi-Round
/// prompt agent's output).
#[derive(Debug, Clone, Default)]
pub struct Guidance {
    /// Per-site weights (site node id, weight); unlisted sites get a small
    /// base weight so exploration never collapses entirely.
    pub site_weights: Vec<(NodeId, f64)>,
    /// When set, restrict sampling to the `k` highest-weighted sites.
    pub restrict_top: Option<usize>,
}

/// Templates the model synthesizes per formula site.
const TEMPLATES_PER_SITE: usize = 24;

/// What a proposal samples from: the prompt's parsed specification (inside
/// its engine) and its operator and synthesis mutations, in order, each
/// kept as its site, span and kind until it is drawn.
struct EditSpace {
    engine: MutationEngine,
    vocab: Vocabulary,
    /// The formula sites at depth ≤ 1, where the model synthesizes
    /// constraints, each with its number of templates.
    synth_sites: Vec<(NodeSite, usize)>,
    /// Every edit in draw order: the engine's mutations, then each
    /// synthesis site's template mutations.
    edits: Vec<EditSlot>,
    /// How many of `edits` are the engine's.
    operators: usize,
    /// Every edit's description, in `edits` order: built the first time a
    /// fix hint is adopted, then kept.
    descriptions: OnceLock<Vec<String>>,
}

/// Where one edit of the space applies and what kind it is.
#[derive(Debug, Clone, Copy, PartialEq)]
struct EditSlot {
    site: NodeId,
    span: Span,
    kind: MutationKind,
}

impl EditSpace {
    /// Parses `source` and lists its edits; `None` when it does not parse.
    fn build(source: &str) -> Option<EditSpace> {
        let spec = mualloy_syntax::parse_spec(source).ok()?;
        let engine = MutationEngine::new(&spec);
        let mut edits: Vec<EditSlot> = engine
            .mutation_kinds()
            .into_iter()
            .map(|(site, kind)| EditSlot {
                site: site.id,
                span: site.span,
                kind,
            })
            .collect();
        let operators = edits.len();
        // The model can also synthesize fresh constraints (replace or
        // strengthen whole formulas) — the capability the paper credits for
        // LLM success on faults that defeat operator-level search.
        let vocab = Vocabulary::of(&spec);
        let synth_sites: Vec<(NodeSite, usize)> = engine
            .sites()
            .filter(|s| s.is_formula && s.depth <= 1)
            .map(|s| (s.clone(), template_count(&vocab, s, TEMPLATES_PER_SITE)))
            .collect();
        for (site, templates) in &synth_sites {
            edits.extend((0..*templates).map(|i| EditSlot {
                site: site.id,
                span: site.span,
                kind: template_kind(i),
            }));
        }
        Some(EditSpace {
            engine,
            vocab,
            synth_sites,
            edits,
            operators,
            descriptions: OnceLock::new(),
        })
    }

    /// Builds edit `i`: the one mutation a draw needs.
    fn mutation(&self, i: usize) -> Option<Mutation> {
        let Some(mut i) = i.checked_sub(self.operators) else {
            return self.engine.nth_mutation(i, |_| true);
        };
        for (site, templates) in &self.synth_sites {
            if i < *templates {
                let Some(NodeRepl::Formula(existing)) = node_at(self.engine.spec(), site.id) else {
                    return None;
                };
                let template = template_formulas(&self.vocab, site, i + 1).pop()?;
                return Some(template_mutation(&existing, site, i, template));
            }
            i -= templates;
        }
        None
    }

    /// Every edit's description, in `edits` order.
    fn descriptions(&self) -> &[String] {
        self.descriptions.get_or_init(|| {
            let mut out: Vec<String> = self
                .engine
                .all_mutations()
                .into_iter()
                .map(|m| m.description)
                .collect();
            for (site, templates) in &self.synth_sites {
                let formulas = template_formulas(&self.vocab, site, *templates);
                out.extend(
                    formulas
                        .iter()
                        .enumerate()
                        .map(|(i, t)| template_description(i, t)),
                );
            }
            out
        })
    }
}

/// The last prompt source a model saw, by its full text, and its edit
/// space (`None` for a source that does not parse).
type EditSpaceMemo = Option<(String, Option<Arc<EditSpace>>)>;

/// The synthetic language model.
#[derive(Default)]
pub struct SyntheticLm {
    /// Capability parameters.
    pub config: LmConfig,
    edit_space: Mutex<EditSpaceMemo>,
}

impl Clone for SyntheticLm {
    /// A clone copies the configuration but starts with no edit space.
    fn clone(&self) -> SyntheticLm {
        SyntheticLm::new(self.config)
    }
}

impl fmt::Debug for SyntheticLm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SyntheticLm")
            .field("config", &self.config)
            .finish()
    }
}

impl SyntheticLm {
    /// Creates a model with the given configuration.
    pub fn new(config: LmConfig) -> SyntheticLm {
        SyntheticLm {
            config,
            edit_space: Mutex::default(),
        }
    }

    /// The edit space of `source`: the memoized one when the last proposal
    /// had the same source text, otherwise built now and memoized in its
    /// place.
    fn edit_space(&self, source: &str) -> Option<Arc<EditSpace>> {
        // A panic while building leaves the previous entry in place, which
        // is still valid, so a poisoned lock is safe to reuse.
        let mut memo = self
            .edit_space
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some((key, space)) = &*memo {
            if key == source {
                return space.clone();
            }
        }
        let space = EditSpace::build(source).map(Arc::new);
        *memo = Some((source.to_string(), space.clone()));
        space
    }

    /// Produces one completion for the prompt: the full text of a candidate
    /// specification. Returns `None` when the prompt's specification does
    /// not parse (a real model would hallucinate; the pipelines treat both
    /// identically).
    pub fn propose(
        &self,
        prompt: &Prompt,
        guidance: Option<&Guidance>,
        rng: &mut ChaCha8Rng,
    ) -> Option<String> {
        let space = self.edit_space(&prompt.source)?;
        if space.edits.is_empty() {
            return Some(prompt.source.clone());
        }

        // 1. Choose the edit. A fix description adopted verbatim is applied
        // alone — the model "knows" the answer and does not improvise.
        let from_fix_hint = self.fix_hint_edit(prompt, &space, rng);
        let adopted_fix = from_fix_hint.is_some();
        let chosen = from_fix_hint
            .or_else(|| self.location_guided_edit(prompt, &space.edits, rng))
            .or_else(|| self.guidance_weighted_edit(guidance, &space.edits, rng))
            .unwrap_or_else(|| rng.next_u64() as usize % space.edits.len());
        let mut candidate = space.engine.apply(&space.mutation(chosen)?)?;

        // 2. Possibly stack a second edit: a uniform pick over the
        // candidate's operator mutations, with only the picked one built.
        if !adopted_fix && rng.gen_bool(self.config.multi_edit_prob) {
            let engine2 = MutationEngine::new(&candidate);
            let count = engine2.count_mutations(|_| true);
            if count > 0 {
                let m2 = engine2.nth_mutation(rng.next_u64() as usize % count, |_| true);
                if let Some(c2) = m2.and_then(|m2| engine2.apply(&m2)) {
                    candidate = c2;
                }
            }
        }

        // 3. Stylistic noise: the model re-renders everything and sometimes
        // rewrites an equivalent form.
        if rng.gen_bool(self.config.style_noise_prob) {
            candidate = style_noise(&candidate, rng);
        }
        let mut text = mualloy_syntax::print_spec(&candidate);

        // 4. Rare malformed completion (an unterminated trailing paragraph,
        // the way a cut-off chat response looks).
        if rng.gen_bool(self.config.glitch_prob) {
            text.push_str("\nsig {");
        }
        Some(text)
    }

    /// Applies a fix description verbatim when one matches an enumerable
    /// mutation; returns the matching edit's index.
    fn fix_hint_edit(
        &self,
        prompt: &Prompt,
        space: &EditSpace,
        rng: &mut ChaCha8Rng,
    ) -> Option<usize> {
        if prompt.hints.fix.is_empty() || !rng.gen_bool(self.config.fix_adoption) {
            return None;
        }
        let descriptions = space.descriptions();
        for hint in &prompt.hints.fix {
            // Hints arrive already inverted by the prompt builder; accept
            // either orientation to be safe.
            let wanted_a = hint.clone();
            let wanted_b = invert_fix_description(hint);
            let matching: Vec<usize> = (0..descriptions.len())
                .filter(|&i| descriptions[i] == wanted_a || descriptions[i] == wanted_b)
                .collect();
            // Prefer matches inside hinted locations.
            let located: Vec<usize> = matching
                .iter()
                .copied()
                .filter(|&i| {
                    let span = space.edits[i].span;
                    prompt
                        .hints
                        .loc
                        .iter()
                        .any(|s| span.start < s.end && s.start < span.end)
                })
                .collect();
            if let Some(&i) = located.choose(rng) {
                return Some(i);
            }
            if let Some(&i) = matching.choose(rng) {
                return Some(i);
            }
        }
        None
    }

    /// Samples an edit at the hinted sites (persistent node ids first,
    /// byte-span overlap as the fallback anchor); returns its index.
    fn location_guided_edit(
        &self,
        prompt: &Prompt,
        edits: &[EditSlot],
        rng: &mut ChaCha8Rng,
    ) -> Option<usize> {
        if (prompt.hints.loc.is_empty() && prompt.hints.sites.is_empty())
            || !rng.gen_bool(self.config.hint_fidelity)
        {
            return None;
        }
        // A location hint says "the bug is *here*": the model tries local
        // operator-level edits, not wholesale resynthesis. A persistent-id
        // hint addresses the exact node (or one of its descendants) the
        // localizer ranked; span overlap is the legacy anchor for hints
        // that arrived as raw byte ranges.
        let at_site = indices(edits, |m| {
            !m.kind.is_synthesis() && prompt.hints.sites.contains(&m.site)
        });
        if let Some(&i) = at_site.choose(rng) {
            return Some(i);
        }
        let inside = indices(edits, |m| {
            !m.kind.is_synthesis()
                && prompt
                    .hints
                    .loc
                    .iter()
                    .any(|s| m.span.start < s.end && s.start < m.span.end)
        });
        inside.choose(rng).copied()
    }

    /// Samples an edit according to feedback-derived site weights; returns
    /// its index.
    fn guidance_weighted_edit(
        &self,
        guidance: Option<&Guidance>,
        edits: &[EditSlot],
        rng: &mut ChaCha8Rng,
    ) -> Option<usize> {
        let g = guidance?;
        if g.site_weights.is_empty() {
            return None;
        }
        let mut ranked = g.site_weights.clone();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        if let Some(k) = g.restrict_top {
            ranked.truncate(k);
        }
        // Weighted pick over sites, then a uniform mutation at that site.
        let total: f64 = ranked.iter().map(|(_, w)| w.max(0.01)).sum();
        let mut roll = rng.gen_range(0.0..total.max(0.01));
        for (site, w) in &ranked {
            roll -= w.max(0.01);
            if roll <= 0.0 {
                // A weighted site with no edits yields nothing here, and
                // the caller draws uniformly over the whole edit space.
                return indices(edits, |m| m.site == *site).choose(rng).copied();
            }
        }
        None
    }
}

/// The indices of the edits `keep` accepts, in order.
fn indices(edits: &[EditSlot], keep: impl Fn(&EditSlot) -> bool) -> Vec<usize> {
    (0..edits.len()).filter(|&i| keep(&edits[i])).collect()
}

/// Applies one random semantics-preserving rewrite somewhere in the spec.
pub(crate) fn style_noise(spec: &Spec, rng: &mut ChaCha8Rng) -> Spec {
    let sites = mualloy_syntax::walk::collect_sites(spec);
    let formula_sites: Vec<_> = sites.iter().filter(|s| s.is_formula).collect();
    let Some(site) = formula_sites.choose(rng) else {
        return spec.clone();
    };
    let Some(NodeRepl::Formula(f)) = mualloy_syntax::walk::node_at(spec, site.id) else {
        return spec.clone();
    };
    let span = f.meta();
    let rewritten = match &f {
        // Commute a conjunction/disjunction.
        Formula::Binary(op @ (BinFormOp::And | BinFormOp::Or), l, r, _) => {
            Formula::Binary(*op, r.clone(), l.clone(), span)
        }
        // `no e` <-> `!(some e)`.
        Formula::Mult(MultOp::No, e, _) => {
            Formula::Not(Box::new(Formula::Mult(MultOp::Some, e.clone(), span)), span)
        }
        Formula::Not(inner, _) => match inner.as_ref() {
            Formula::Mult(MultOp::Some, e, _) => Formula::Mult(MultOp::No, e.clone(), span),
            _ => return spec.clone(),
        },
        // `a != b` <-> `!(a = b)`.
        Formula::Compare(CmpOp::Neq, l, r, _) => Formula::Not(
            Box::new(Formula::Compare(CmpOp::Eq, l.clone(), r.clone(), span)),
            span,
        ),
        _ => return spec.clone(),
    };
    replace_node(spec, site.id, NodeRepl::Formula(rewritten)).unwrap_or_else(|| spec.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompt::{Feedback, ProblemHints};
    use mualloy_analyzer::Analyzer;
    use rand::{RngCore, SeedableRng};

    const FAULTY: &str = "sig N { next: lone N }\n\
        fact Acyclic { some n: N | n in n.^next }\n\
        pred hasNode { some N }\n\
        assert NoSelf { all n: N | n not in n.next }\n\
        run hasNode for 3 expect 1\n\
        check NoSelf for 3 expect 0\n";

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn proposals_are_usually_parseable_and_differ() {
        let lm = SyntheticLm::default();
        let prompt = Prompt {
            source: FAULTY.to_string(),
            ..Prompt::default()
        };
        let mut parses = 0;
        let mut differs = 0;
        for seed in 0..40u64 {
            let Some(text) = lm.propose(&prompt, None, &mut rng(seed)) else {
                continue;
            };
            if let Ok(spec) = mualloy_syntax::parse_spec(&text) {
                parses += 1;
                if mualloy_syntax::print_spec(&spec)
                    != mualloy_syntax::print_spec(&mualloy_syntax::parse_spec(FAULTY).unwrap())
                {
                    differs += 1;
                }
            }
        }
        assert!(parses >= 35, "only {parses}/40 parse");
        assert!(differs >= 30, "only {differs}/40 differ");
    }

    #[test]
    fn deterministic_per_seed() {
        let lm = SyntheticLm::default();
        let prompt = Prompt {
            source: FAULTY.to_string(),
            ..Prompt::default()
        };
        let a = lm.propose(&prompt, None, &mut rng(7));
        let b = lm.propose(&prompt, None, &mut rng(7));
        assert_eq!(a, b);
    }

    #[test]
    fn fix_hint_is_adopted() {
        // The fault is `some` where `no` belongs: the (already inverted)
        // fix hint names the exact repair mutation.
        let lm = SyntheticLm::new(LmConfig {
            fix_adoption: 1.0,
            multi_edit_prob: 0.0,
            style_noise_prob: 0.0,
            glitch_prob: 0.0,
            ..LmConfig::default()
        });
        let fact_start = FAULTY.find("some n: N").unwrap();
        let prompt = Prompt {
            source: FAULTY.to_string(),
            hints: ProblemHints {
                sites: Vec::new(),
                loc: vec![mualloy_syntax::Span::new(fact_start, fact_start + 30)],
                fix: vec!["replace `some` with `no`".to_string()],
                pass: None,
            },
            feedback: None,
        };
        let mut fixed = 0;
        for seed in 0..10u64 {
            let text = lm.propose(&prompt, None, &mut rng(seed)).unwrap();
            if let Ok(spec) = mualloy_syntax::parse_spec(&text) {
                if Analyzer::new(spec).satisfies_oracle().unwrap_or(false) {
                    fixed += 1;
                }
            }
        }
        assert!(fixed >= 8, "fix hint adopted only {fixed}/10 times");
    }

    #[test]
    fn location_hint_concentrates_edits() {
        let lm = SyntheticLm::new(LmConfig {
            hint_fidelity: 1.0,
            multi_edit_prob: 0.0,
            style_noise_prob: 0.0,
            glitch_prob: 0.0,
            ..LmConfig::default()
        });
        let fact_start = FAULTY.find("some n: N").unwrap();
        let hint = mualloy_syntax::Span::new(fact_start, fact_start + 20);
        let prompt = Prompt {
            source: FAULTY.to_string(),
            hints: ProblemHints {
                loc: vec![hint],
                ..ProblemHints::default()
            },
            feedback: None,
        };
        // With edits forced inside the faulty quantifier, proposals repair
        // the spec at least as often as unhinted ones, and not never.
        let blind_prompt = Prompt {
            source: FAULTY.to_string(),
            ..Prompt::default()
        };
        let mut fixed = 0;
        let mut blind_fixed = 0;
        for seed in 0..40u64 {
            let text = lm.propose(&prompt, None, &mut rng(seed)).unwrap();
            if let Ok(spec) = mualloy_syntax::parse_spec(&text) {
                if Analyzer::new(spec).satisfies_oracle().unwrap_or(false) {
                    fixed += 1;
                }
            }
            let text = lm.propose(&blind_prompt, None, &mut rng(seed)).unwrap();
            if let Ok(spec) = mualloy_syntax::parse_spec(&text) {
                if Analyzer::new(spec).satisfies_oracle().unwrap_or(false) {
                    blind_fixed += 1;
                }
            }
        }
        assert!(fixed >= 2, "located proposals fixed only {fixed}/40");
        assert!(
            fixed >= blind_fixed,
            "hints should help: hinted {fixed} vs blind {blind_fixed}"
        );
    }

    #[test]
    fn style_noise_preserves_oracle() {
        let spec = mualloy_syntax::parse_spec(
            "sig N { next: lone N } \
             fact { no n: N | n in n.^next } \
             assert NoSelf { all n: N | n not in n.next } \
             check NoSelf for 3 expect 0",
        )
        .unwrap();
        for seed in 0..10u64 {
            let restyled = style_noise(&spec, &mut rng(seed));
            assert!(
                Analyzer::new(restyled).satisfies_oracle().unwrap(),
                "style noise changed semantics (seed {seed})"
            );
        }
    }

    #[test]
    fn glitchy_model_sometimes_emits_garbage() {
        let lm = SyntheticLm::new(LmConfig {
            glitch_prob: 1.0,
            ..LmConfig::default()
        });
        let prompt = Prompt {
            source: FAULTY.to_string(),
            ..Prompt::default()
        };
        let text = lm.propose(&prompt, None, &mut rng(1)).unwrap();
        assert!(mualloy_syntax::parse_spec(&text).is_err());
    }

    #[test]
    fn unparsable_prompt_yields_none() {
        let lm = SyntheticLm::default();
        let prompt = Prompt {
            source: "sig {".to_string(),
            ..Prompt::default()
        };
        assert!(lm.propose(&prompt, None, &mut rng(0)).is_none());
    }

    /// A second parsable source, with different sites and vocabulary.
    const DEAD: &str = "sig N {} fact Dead { no N } pred p { some N } run p for 3 expect 1";

    /// No mutable site: assertion bodies are never mutated.
    const NO_SITES: &str = "sig A {} assert Empty { no A } check Empty for 2 expect 0";

    fn prompt(source: &str, hints: ProblemHints, feedback: Option<Feedback>) -> Prompt {
        Prompt {
            source: source.to_string(),
            hints,
            feedback,
        }
    }

    /// The hints of `FAULTY`'s fault, each kind alone and all together.
    fn faulty_hints() -> Vec<ProblemHints> {
        let start = FAULTY.find("some n: N").unwrap();
        let loc = vec![mualloy_syntax::Span::new(start, start + 30)];
        let spec = mualloy_syntax::parse_spec(FAULTY).unwrap();
        let sites = specrepair_core::sites_for_spans(&spec, &loc);
        assert!(!sites.is_empty());
        let all = ProblemHints {
            loc: loc.clone(),
            sites: sites.clone(),
            fix: vec!["replace `some` with `no`".to_string()],
            pass: Some("NoSelf".to_string()),
        };
        vec![
            ProblemHints::default(),
            ProblemHints {
                loc,
                ..ProblemHints::default()
            },
            ProblemHints {
                sites,
                ..ProblemHints::default()
            },
            ProblemHints {
                fix: all.fix.clone(),
                ..ProblemHints::default()
            },
            ProblemHints {
                pass: all.pass.clone(),
                ..ProblemHints::default()
            },
            all,
        ]
    }

    #[test]
    fn memoized_edit_space_proposes_like_a_fresh_model() {
        let spec = mualloy_syntax::parse_spec(FAULTY).unwrap();
        let site_weights: Vec<(NodeId, f64)> = MutationEngine::new(&spec)
            .sites()
            .enumerate()
            .map(|(i, s)| (s.id, 1.0 / (i + 1) as f64))
            .collect();
        let guidance = [
            None,
            Some(Guidance {
                site_weights: site_weights.clone(),
                restrict_top: None,
            }),
            Some(Guidance {
                site_weights,
                restrict_top: Some(1),
            }),
        ];
        let mut sequence = Vec::new();
        for hints in faulty_hints() {
            for feedback in [None, Some(Feedback::StillFaulty)] {
                for g in &guidance {
                    sequence.push((prompt(FAULTY, hints.clone(), feedback.clone()), g.clone()));
                }
            }
        }
        sequence.push((prompt(DEAD, ProblemHints::default(), None), None));
        sequence.push((prompt(FAULTY, faulty_hints()[5].clone(), None), None));
        sequence.push((prompt("sig {", ProblemHints::default(), None), None));
        sequence.push((prompt(FAULTY, ProblemHints::default(), None), None));
        sequence.push((prompt(NO_SITES, ProblemHints::default(), None), None));
        sequence.push((prompt(DEAD, ProblemHints::default(), None), None));

        let long_lived = SyntheticLm::default();
        let (mut memo_rng, mut fresh_rng) = (rng(3), rng(3));
        for (i, (p, g)) in sequence.iter().enumerate() {
            for _ in 0..3 {
                let memo = long_lived.propose(p, g.as_ref(), &mut memo_rng);
                let fresh = SyntheticLm::default().propose(p, g.as_ref(), &mut fresh_rng);
                assert_eq!(memo, fresh, "prompt {i}");
                assert_eq!(
                    memo_rng.clone().next_u64(),
                    fresh_rng.clone().next_u64(),
                    "prompt {i}: rng position"
                );
                match p.source.as_str() {
                    "sig {" => assert_eq!(memo, None),
                    NO_SITES => assert_eq!(memo.as_deref(), Some(NO_SITES)),
                    _ => assert!(memo.is_some()),
                }
            }
        }
    }

    /// The memo's key and edit space.
    fn memoized(lm: &SyntheticLm) -> Option<(String, Option<Arc<EditSpace>>)> {
        lm.edit_space.lock().unwrap().clone()
    }

    #[test]
    fn edit_space_builds_what_the_full_list_holds() {
        for source in [FAULTY, DEAD, NO_SITES] {
            let spec = mualloy_syntax::parse_spec(source).unwrap();
            let engine = MutationEngine::new(&spec);
            let sites: Vec<NodeSite> = engine
                .sites()
                .filter(|s| s.is_formula && s.depth <= 1)
                .cloned()
                .collect();
            let mut full = engine.all_mutations();
            full.extend(specrepair_mutation::synthesis_mutations(
                &spec,
                &Vocabulary::of(&spec),
                &sites,
                TEMPLATES_PER_SITE,
            ));
            let space = EditSpace::build(source).unwrap();
            let slots: Vec<EditSlot> = full
                .iter()
                .map(|m| EditSlot {
                    site: m.site,
                    span: m.span,
                    kind: m.kind,
                })
                .collect();
            assert_eq!(space.edits, slots, "{source}");
            for (i, m) in full.iter().enumerate() {
                assert_eq!(space.mutation(i).as_ref(), Some(m), "{source} edit {i}");
            }
            assert_eq!(space.mutation(full.len()), None);
            let descriptions: Vec<&str> = full.iter().map(|m| m.description.as_str()).collect();
            assert_eq!(space.descriptions(), descriptions, "{source}");
        }
    }

    #[test]
    fn edit_space_is_built_once_per_source() {
        let lm = SyntheticLm::default();
        let hints = faulty_hints();
        let propose = |source, hints: &ProblemHints| {
            lm.propose(&prompt(source, hints.clone(), None), None, &mut rng(0))
        };
        propose(FAULTY, &hints[0]);
        let (key, first) = memoized(&lm).unwrap();
        assert_eq!(key, FAULTY);
        let first = first.unwrap();
        // Another prompt with the same source reuses it.
        propose(FAULTY, &hints[5]);
        assert!(Arc::ptr_eq(&first, &memoized(&lm).unwrap().1.unwrap()));
        // A source switch replaces it, and switching back builds anew.
        propose(DEAD, &hints[0]);
        let (key, dead) = memoized(&lm).unwrap();
        assert_eq!(key, DEAD);
        assert!(!Arc::ptr_eq(&first, &dead.unwrap()));
        propose(FAULTY, &hints[0]);
        let again = memoized(&lm).unwrap().1.unwrap();
        assert!(!Arc::ptr_eq(&first, &again));
        assert_eq!(first.edits, again.edits);
        // An unparsable source is memoized as having no edit space.
        assert!(propose("sig {", &hints[0]).is_none());
        let (key, none) = memoized(&lm).unwrap();
        assert_eq!((key.as_str(), none.is_none()), ("sig {", true));
        // A clone starts empty and prints only its configuration.
        assert!(memoized(&lm.clone()).is_none());
        assert_eq!(
            format!("{lm:?}"),
            format!("SyntheticLm {{ config: {:?} }}", lm.config)
        );
    }
}
