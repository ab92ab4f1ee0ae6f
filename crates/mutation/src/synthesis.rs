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

/// Synthesizes atomic template formulas available at a site.
pub fn template_formulas(vocab: &Vocabulary, site: &NodeSite, cap: usize) -> Vec<Formula> {
    let span = Meta::synthetic();
    let mut exprs: Vec<Expr> = Vec::new();
    for v in &site.vars_in_scope {
        exprs.push(Expr::ident(v.clone()));
    }
    for s in &vocab.sigs {
        exprs.push(Expr::ident(s.clone()));
    }
    let base: Vec<Expr> = exprs.clone();
    for (f, arity) in &vocab.fields {
        let field = Expr::ident(f.clone());
        if *arity == 2 {
            // Field-level patterns (the classic Alloy repair templates):
            // f, ^f, iden & f, iden & ^f, f & ~f.
            exprs.push(field.clone());
            exprs.push(Expr::unary(UnExprOp::Closure, field.clone()));
            exprs.push(Expr::binary(
                BinExprOp::Intersect,
                Expr::Iden(span),
                field.clone(),
            ));
            exprs.push(Expr::binary(
                BinExprOp::Intersect,
                Expr::Iden(span),
                Expr::unary(UnExprOp::Closure, field.clone()),
            ));
            exprs.push(Expr::binary(
                BinExprOp::Intersect,
                field.clone(),
                Expr::unary(UnExprOp::Transpose, field.clone()),
            ));
            for b in &base {
                exprs.push(Expr::join(b.clone(), field.clone()));
                exprs.push(Expr::join(
                    b.clone(),
                    Expr::unary(UnExprOp::Closure, field.clone()),
                ));
                exprs.push(Expr::join(
                    b.clone(),
                    Expr::unary(UnExprOp::Transpose, field.clone()),
                ));
            }
        } else if *arity == 3 {
            for b in &base {
                exprs.push(Expr::join(b.clone(), field.clone()));
            }
        }
    }
    // Symmetry/antisymmetry comparisons between a field and its transpose.
    let mut symmetry = Vec::new();
    for (f, arity) in &vocab.fields {
        if *arity == 2 {
            let field = Expr::ident(f.clone());
            let transposed = Expr::unary(UnExprOp::Transpose, field.clone());
            symmetry.push(Formula::compare(
                CmpOp::Eq,
                field.clone(),
                transposed.clone(),
            ));
            symmetry.push(Formula::compare(CmpOp::In, field, transposed));
        }
    }
    let mut out = symmetry;
    'mults: for e in &exprs {
        for m in [MultOp::Some, MultOp::No, MultOp::Lone, MultOp::One] {
            out.push(Formula::Mult(m, Box::new(e.clone()), span));
            if out.len() >= cap {
                break 'mults;
            }
        }
    }
    'cmps: for (i, a) in exprs.iter().enumerate() {
        for b in exprs.iter().skip(i + 1) {
            for op in [CmpOp::In, CmpOp::NotIn, CmpOp::Eq] {
                out.push(Formula::compare(op, a.clone(), b.clone()));
                if out.len() >= cap {
                    break 'cmps;
                }
            }
        }
    }
    out.truncate(cap);
    out
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
        for (i, t) in templates.iter().enumerate() {
            // Alternate replacement and conjunct-add so both shapes appear
            // within any cap.
            if i % 2 == 0 {
                out.push(Mutation {
                    site: site.id,
                    span: site.span,
                    repl: NodeRepl::Formula(t.clone()),
                    kind: MutationKind::TemplateReplace,
                    description: format!(
                        "replace constraint with `{}`",
                        mualloy_syntax::print_formula(t)
                    ),
                });
            } else {
                out.push(Mutation {
                    site: site.id,
                    span: site.span,
                    repl: NodeRepl::Formula(conjoin_template(&existing, t)),
                    kind: MutationKind::TemplateConjoin,
                    description: format!("conjoin `{}`", mualloy_syntax::print_formula(t)),
                });
            }
        }
    }
    out
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
