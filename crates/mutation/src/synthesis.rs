//! Template-based formula synthesis.
//!
//! A small grammar of atomic formulas over a specification's vocabulary:
//! multiplicity and comparison templates over depth-≤2 expressions built
//! from the variables in scope, signatures and fields. Two consumers use
//! it, matching the papers' tool designs:
//!
//! - **ATR** instantiates repair candidates from these templates;
//! - the **synthetic LLM** samples from them to model GPT-4's ability to
//!   synthesize new constraints (the capability the paper credits for LLM
//!   success on faults "necessitating the synthesis of new expressions").
//!
//! The purely mutation-based tools (ARepair, BeAFix, ICEBAR) deliberately
//! do *not* see these candidates.

use mualloy_syntax::ast::*;
use mualloy_syntax::walk::{node_at, NodeRepl, NodeSite};

use crate::ops::{Mutation, MutationKind};
use crate::vocab::Vocabulary;

/// Synthesizes atomic template formulas available at a site: the first
/// `cap` of the symmetry comparisons of each binary field, then four
/// multiplicity templates over each expression of the grammar, then three
/// comparisons over each pair of them. Only the expressions those `cap`
/// templates use are built.
pub fn template_formulas(vocab: &Vocabulary, site: &NodeSite, cap: usize) -> Vec<Formula> {
    let span = Meta::synthetic();
    // Symmetry/antisymmetry comparisons between a field and its transpose.
    let mut out: Vec<Formula> = vocab
        .binary_fields()
        .flat_map(|f| {
            let field = Expr::ident(f);
            let transposed = Expr::unary(UnExprOp::Transpose, field.clone());
            [
                Formula::compare(CmpOp::Eq, field.clone(), transposed.clone()),
                Formula::compare(CmpOp::In, field, transposed),
            ]
        })
        .take(cap)
        .collect();
    // Multiplicity templates use the first `ceil(rest / 4)` expressions;
    // comparisons are reached only when every expression is built.
    let exprs = template_exprs(vocab, site, (cap - out.len()).div_ceil(MULTS.len()));
    for e in &exprs {
        for m in MULTS {
            if out.len() == cap {
                return out;
            }
            out.push(Formula::Mult(m, Box::new(e.clone()), span));
        }
    }
    for (i, a) in exprs.iter().enumerate() {
        for b in &exprs[i + 1..] {
            for op in [CmpOp::In, CmpOp::NotIn, CmpOp::Eq] {
                if out.len() == cap {
                    return out;
                }
                out.push(Formula::compare(op, a.clone(), b.clone()));
            }
        }
    }
    out
}

/// `template_formulas(vocab, site, cap).len()`, building none of them.
pub fn template_count(vocab: &Vocabulary, site: &NodeSite, cap: usize) -> usize {
    let base = site.vars_in_scope.len() + vocab.sigs.len();
    let binary = vocab.binary_fields().count();
    let ternary = vocab.fields_of_arity(3).count();
    let exprs = base + binary * (5 + 3 * base) + ternary * base;
    let total = 2 * binary + MULTS.len() * exprs + 3 * (exprs * exprs.saturating_sub(1) / 2);
    total.min(cap)
}

const MULTS: [MultOp; 4] = [MultOp::Some, MultOp::No, MultOp::Lone, MultOp::One];

/// The first `limit` expressions of the template grammar at `site`: the
/// variables in scope and the signatures (the *base*), then for each field
/// in declaration order its patterns and its joins with the base.
fn template_exprs(vocab: &Vocabulary, site: &NodeSite, limit: usize) -> Vec<Expr> {
    let span = Meta::synthetic();
    let mut exprs: Vec<Expr> = site
        .vars_in_scope
        .iter()
        .chain(&vocab.sigs)
        .take(limit)
        .map(|n| Expr::ident(n.clone()))
        .collect();
    let base = exprs.len();
    for (f, arity) in &vocab.fields {
        if exprs.len() >= limit {
            break;
        }
        let field = Expr::ident(f.clone());
        if *arity == 2 {
            // Field-level patterns (the classic Alloy repair templates):
            // f, ^f, iden & f, iden & ^f, f & ~f.
            let closure = Expr::unary(UnExprOp::Closure, field.clone());
            let transpose = Expr::unary(UnExprOp::Transpose, field.clone());
            exprs.extend([
                field.clone(),
                closure.clone(),
                Expr::binary(BinExprOp::Intersect, Expr::Iden(span), field.clone()),
                Expr::binary(BinExprOp::Intersect, Expr::Iden(span), closure.clone()),
                Expr::binary(BinExprOp::Intersect, field.clone(), transpose.clone()),
            ]);
            for b in 0..base {
                if exprs.len() >= limit {
                    break;
                }
                let b = &exprs[b];
                let joins = [
                    Expr::join(b.clone(), field.clone()),
                    Expr::join(b.clone(), closure.clone()),
                    Expr::join(b.clone(), transpose.clone()),
                ];
                exprs.extend(joins);
            }
        } else if *arity == 3 {
            for b in 0..base {
                if exprs.len() >= limit {
                    break;
                }
                exprs.push(Expr::join(exprs[b].clone(), field.clone()));
            }
        }
    }
    exprs.truncate(limit);
    exprs
}

/// The strengthening of `existing` by `template`: `existing && template`,
/// carrying `existing`'s metadata.
pub fn conjoin_template(existing: &Formula, template: &Formula) -> Formula {
    Formula::Binary(
        BinFormOp::And,
        Box::new(existing.clone()),
        Box::new(template.clone()),
        existing.meta(),
    )
}

/// Synthesis-level mutations at a formula site: replacing the whole
/// constraint by a template, or strengthening it by conjoining one.
///
/// `cap` bounds the number of templates *per site*.
pub fn synthesis_mutations(
    spec: &Spec,
    vocab: &Vocabulary,
    sites: &[NodeSite],
    cap_per_site: usize,
) -> Vec<Mutation> {
    let mut out = Vec::new();
    for site in sites {
        if !site.is_formula {
            continue;
        }
        let Some(NodeRepl::Formula(existing)) = node_at(spec, site.id) else {
            continue;
        };
        let templates = template_formulas(vocab, site, cap_per_site);
        out.extend(
            templates
                .into_iter()
                .enumerate()
                .map(|(i, t)| template_mutation(&existing, site, i, t)),
        );
    }
    out
}

/// The synthesis mutation `index` of a formula site whose constraint is
/// `existing`: [`synthesis_mutations`] places it at `index` among the
/// site's mutations, and `template` is the site's template `index`.
pub fn template_mutation(
    existing: &Formula,
    site: &NodeSite,
    index: usize,
    template: Formula,
) -> Mutation {
    let description = template_description(index, &template);
    let kind = template_kind(index);
    let repl = match kind {
        MutationKind::TemplateConjoin => conjoin_template(existing, &template),
        _ => template,
    };
    Mutation {
        site: site.id,
        span: site.span,
        repl: NodeRepl::Formula(repl),
        kind,
        description,
    }
}

/// The kind of [`template_mutation`] `index`: replacement and conjunct-add
/// alternate, so both shapes appear within any cap.
pub fn template_kind(index: usize) -> MutationKind {
    if index.is_multiple_of(2) {
        MutationKind::TemplateReplace
    } else {
        MutationKind::TemplateConjoin
    }
}

/// The description of [`template_mutation`] `index` with `template`.
pub fn template_description(index: usize, template: &Formula) -> String {
    let printed = mualloy_syntax::print_formula(template);
    match template_kind(index) {
        MutationKind::TemplateConjoin => format!("conjoin `{printed}`"),
        _ => format!("replace constraint with `{printed}`"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::MutationEngine;
    use mualloy_syntax::{check_spec, parse_spec};

    fn spec() -> Spec {
        parse_spec(
            "sig A { f: set A } fact Inv { all x: A | x in x.f } \
             pred p[a: A] { some a.f }",
        )
        .unwrap()
    }

    #[test]
    fn templates_are_bounded_and_varied() {
        let s = spec();
        let vocab = Vocabulary::of(&s);
        let engine = MutationEngine::new(&s);
        let sites: Vec<_> = engine.sites().cloned().collect();
        let templates = template_formulas(&vocab, &sites[0], 40);
        assert!(!templates.is_empty() && templates.len() <= 40);
        assert!(templates
            .iter()
            .any(|f| matches!(f, Formula::Mult(_, _, _))));
        assert!(templates
            .iter()
            .any(|f| matches!(f, Formula::Compare(_, _, _, _))));
    }

    #[test]
    fn synthesis_mutations_apply_cleanly() {
        let s = spec();
        let vocab = Vocabulary::of(&s);
        let engine = MutationEngine::new(&s);
        let sites: Vec<_> = engine.sites().cloned().collect();
        let muts = synthesis_mutations(&s, &vocab, &sites, 12);
        assert!(!muts.is_empty());
        let mut replaced = 0;
        let mut conjoined = 0;
        for m in &muts {
            let mutant = engine
                .apply(m)
                .unwrap_or_else(|| panic!("{}", m.description));
            assert!(check_spec(&mutant).is_empty(), "{}", m.description);
            if m.description.starts_with("conjoin") {
                conjoined += 1;
            } else {
                replaced += 1;
            }
        }
        assert!(replaced > 0 && conjoined > 0);
    }

    #[test]
    fn conjoined_templates_can_restore_dropped_conjuncts() {
        // Start from a spec whose fact lost a conjunct; some synthesized
        // strengthening must be able to re-add an acyclicity-like guard.
        let weak = parse_spec("sig A { f: set A } fact Inv { some A }").unwrap();
        let vocab = Vocabulary::of(&weak);
        let engine = MutationEngine::new(&weak);
        let sites: Vec<_> = engine.sites().cloned().collect();
        let muts = synthesis_mutations(&weak, &vocab, &sites, 60);
        assert!(
            muts.iter().any(|m| m.description.contains("conjoin")),
            "strengthening templates must exist"
        );
    }
}
