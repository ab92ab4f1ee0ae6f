//! Integration: the mutation engine's one enumeration agrees with itself.
//! Counting mutations and building the `n`-th one must give what
//! `all_mutations()` lists, with and without the fault injector's kind
//! filter, for the ground truth and the faulty spec of every problem of
//! `full_study(0.005)` and for the candidates a stacked edit starts from.
//! And `template_formulas`, which builds only the expressions its cap
//! reaches, must equal the version that built the whole vocabulary's
//! expression list first, at every formula site, at the synthetic model's
//! cap (24) and ATR's (80).

use mualloy_syntax::ast::*;
use mualloy_syntax::walk::NodeSite;
use mualloy_syntax::Spec;
use specrepair_benchmarks::full_study;
use specrepair_mutation::synthesis::template_count;
use specrepair_mutation::{
    synthesis_mutations, template_formulas, Mutation, MutationEngine, MutationKind, Vocabulary,
};

/// `template_formulas` as it was before it built expressions lazily.
fn reference_templates(vocab: &Vocabulary, site: &NodeSite, cap: usize) -> Vec<Formula> {
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

fn operator(kind: MutationKind) -> bool {
    kind != MutationKind::JunctionDrop
}

/// Checks counting, listing and building against `all_mutations()`;
/// `every` builds the `n`-th mutation at every position, otherwise at a
/// sample of them. Returns the mutations.
fn check_engine(engine: &MutationEngine, every: bool, label: &str) -> Vec<Mutation> {
    let all = engine.all_mutations();
    let kept: Vec<&Mutation> = all.iter().filter(|m| operator(m.kind)).collect();
    assert_eq!(engine.count_mutations(|_| true), all.len(), "{label}");
    assert_eq!(engine.count_mutations(operator), kept.len(), "{label}");
    let kinds: Vec<_> = engine
        .mutation_kinds()
        .into_iter()
        .map(|(site, kind)| (site.id, site.span, kind))
        .collect();
    let listed: Vec<_> = all.iter().map(|m| (m.site, m.span, m.kind)).collect();
    assert_eq!(kinds, listed, "{label}");
    let positions = |len: usize| -> Vec<usize> {
        if every {
            (0..=len).collect()
        } else {
            vec![0, len / 3, len / 2, len.saturating_sub(1), len]
        }
    };
    for n in positions(all.len()) {
        assert_eq!(
            engine.nth_mutation(n, |_| true).as_ref(),
            all.get(n),
            "{label} #{n}"
        );
    }
    for n in positions(kept.len()) {
        assert_eq!(
            engine.nth_mutation(n, operator).as_ref(),
            kept.get(n).copied(),
            "{label} operator #{n}"
        );
    }
    all
}

fn check_templates(spec: &Spec, label: &str) {
    let engine = MutationEngine::new(spec);
    let vocab = Vocabulary::of(spec);
    for site in engine.sites().filter(|s| s.is_formula) {
        for cap in [24, 80] {
            let reference = reference_templates(&vocab, site, cap);
            let templates = template_formulas(&vocab, site, cap);
            // `Debug` shows ids too, which `==` on nodes does not compare.
            assert_eq!(
                format!("{templates:?}"),
                format!("{reference:?}"),
                "{label} site {:?} cap {cap}",
                site.id
            );
            assert_eq!(
                template_count(&vocab, site, cap),
                reference.len(),
                "{label} site {:?} cap {cap}",
                site.id
            );
        }
    }
}

#[test]
fn counting_and_building_agree_with_the_full_list() {
    let problems = full_study(0.005);
    let mut candidates = 0;
    for p in &problems {
        for (which, spec) in [("truth", &p.truth), ("faulty", &p.faulty)] {
            let label = format!("{} {which}", p.id);
            let engine = MutationEngine::new(spec);
            let all = check_engine(&engine, true, &label);
            check_templates(spec, &label);
            // The candidates a stacked edit starts from: every operator
            // mutant, and for the faulty spec every synthesized one.
            let mut firsts = all;
            if which == "faulty" {
                let sites: Vec<NodeSite> = engine
                    .sites()
                    .filter(|s| s.is_formula && s.depth <= 1)
                    .cloned()
                    .collect();
                firsts.extend(synthesis_mutations(spec, &Vocabulary::of(spec), &sites, 24));
            }
            for (i, m) in firsts.iter().enumerate() {
                let Some(candidate) = engine.apply(m) else {
                    continue;
                };
                let label = format!("{label} candidate {i}");
                check_engine(&MutationEngine::new(&candidate), false, &label);
                candidates += 1;
            }
        }
    }
    assert!(candidates > 100 * problems.len(), "{candidates} candidates");
}
