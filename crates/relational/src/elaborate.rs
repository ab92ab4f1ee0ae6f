//! Elaboration: inlining of predicate and function calls.
//!
//! The translator and the ground evaluator operate on *elaborated* formulas
//! in which every [`Formula::PredCall`] has been replaced by the predicate's
//! substituted body and every [`Expr::FunCall`] either by the function's
//! substituted body or — when the applied name is a field, signature or
//! variable — by the equivalent box join (`f[a, b]` = `b.(a.f)`).
//!
//! Inlined bodies have their binders freshened (`x` becomes `x__3`) so that
//! argument expressions can never be captured.

use mualloy_syntax::ast::*;
use mualloy_syntax::walk::{subst_expr, subst_formula};
use std::collections::HashMap;

use crate::error::TranslateError;

const MAX_INLINE_DEPTH: usize = 32;

/// Elaborates every formula in the specification.
///
/// # Errors
///
/// Fails on unknown call targets, arity mismatches and (mutually) recursive
/// predicates or functions.
pub fn elaborate_spec(spec: &Spec) -> Result<Spec, TranslateError> {
    let mut ctx = Elaborator {
        spec,
        fresh_counter: 0,
    };
    let mut out = spec.clone();
    for fact in &mut out.facts {
        fact.body = fact
            .body
            .iter()
            .map(|f| ctx.formula(f, 0))
            .collect::<Result<_, _>>()?;
    }
    for pred in &mut out.preds {
        pred.body = pred
            .body
            .iter()
            .map(|f| ctx.formula(f, 0))
            .collect::<Result<_, _>>()?;
    }
    for fun in &mut out.funs {
        fun.body = ctx.expr(&fun.body, 0)?;
    }
    for a in &mut out.asserts {
        a.body = a
            .body
            .iter()
            .map(|f| ctx.formula(f, 0))
            .collect::<Result<_, _>>()?;
    }
    Ok(out)
}

/// Elaborates a single formula against the declarations in `spec`.
///
/// # Errors
///
/// Same conditions as [`elaborate_spec`].
pub fn elaborate_formula(spec: &Spec, f: &Formula) -> Result<Formula, TranslateError> {
    let mut ctx = Elaborator {
        spec,
        fresh_counter: 0,
    };
    ctx.formula(f, 0)
}

/// Elaborates each fact formula on its own, in declaration order. Ground
/// evaluation checks a spec's facts by evaluating these on an instance, so
/// one elaboration serves any number of instances.
///
/// # Errors
///
/// Same conditions as [`elaborate_spec`], for the first failing formula.
pub fn elaborate_facts(spec: &Spec) -> Result<Vec<Formula>, TranslateError> {
    spec.facts
        .iter()
        .flat_map(|fact| &fact.body)
        .map(|f| elaborate_formula(spec, f))
        .collect()
}

/// The formula `some params | body` used to execute `run p`: the predicate's
/// parameters are existentially quantified over their bounds.
///
/// # Errors
///
/// Fails if the predicate is unknown or its body cannot be elaborated.
pub fn pred_as_existential(spec: &Spec, name: &str) -> Result<Formula, TranslateError> {
    let pred = spec
        .pred(name)
        .ok_or_else(|| TranslateError::new(format!("unknown predicate `{name}`")))?;
    let body = Formula::conjoin(pred.body.clone());
    let formula = if pred.params.is_empty() {
        body
    } else {
        let decls = pred
            .params
            .iter()
            .map(|p| VarDecl {
                name: p.name.clone(),
                bound: p.bound.clone(),
                span: p.span,
            })
            .collect();
        Formula::Quant(Quant::Some, decls, Box::new(body), Span::synthetic().into())
    };
    elaborate_formula(spec, &formula)
}

/// The conjoined body of an assertion.
///
/// # Errors
///
/// Fails if the assertion is unknown or its body cannot be elaborated.
pub fn assert_body(spec: &Spec, name: &str) -> Result<Formula, TranslateError> {
    let a = spec
        .assert(name)
        .ok_or_else(|| TranslateError::new(format!("unknown assertion `{name}`")))?;
    elaborate_formula(spec, &Formula::conjoin(a.body.clone()))
}

struct Elaborator<'a> {
    spec: &'a Spec,
    fresh_counter: u64,
}

impl Elaborator<'_> {
    fn fresh_name(&mut self, base: &str) -> String {
        self.fresh_counter += 1;
        format!("{base}__{}", self.fresh_counter)
    }

    fn formula(&mut self, f: &Formula, depth: usize) -> Result<Formula, TranslateError> {
        if depth > MAX_INLINE_DEPTH {
            return Err(TranslateError::new(
                "predicate/function inlining exceeded maximum depth (recursive definition?)",
            ));
        }
        Ok(match f {
            Formula::Compare(op, l, r, s) => Formula::Compare(
                *op,
                Box::new(self.expr(l, depth)?),
                Box::new(self.expr(r, depth)?),
                *s,
            ),
            Formula::IntCompare(op, l, r, s) => {
                let mut conv = |i: &IntExpr| -> Result<IntExpr, TranslateError> {
                    Ok(match i {
                        IntExpr::Card(e, sp) => IntExpr::Card(Box::new(self.expr(e, depth)?), *sp),
                        IntExpr::Lit(n, sp) => IntExpr::Lit(*n, *sp),
                    })
                };
                let l2 = conv(l)?;
                let r2 = conv(r)?;
                Formula::IntCompare(*op, Box::new(l2), Box::new(r2), *s)
            }
            Formula::Mult(op, e, s) => Formula::Mult(*op, Box::new(self.expr(e, depth)?), *s),
            Formula::Not(inner, s) => Formula::Not(Box::new(self.formula(inner, depth)?), *s),
            Formula::Binary(op, l, r, s) => Formula::Binary(
                *op,
                Box::new(self.formula(l, depth)?),
                Box::new(self.formula(r, depth)?),
                *s,
            ),
            Formula::Quant(q, decls, body, s) => {
                let decls2 = decls
                    .iter()
                    .map(|d| {
                        Ok(VarDecl {
                            name: d.name.clone(),
                            bound: self.expr(&d.bound, depth)?,
                            span: d.span,
                        })
                    })
                    .collect::<Result<Vec<_>, TranslateError>>()?;
                Formula::Quant(*q, decls2, Box::new(self.formula(body, depth)?), *s)
            }
            Formula::Let(n, e, body, s) => Formula::Let(
                n.clone(),
                Box::new(self.expr(e, depth)?),
                Box::new(self.formula(body, depth)?),
                *s,
            ),
            Formula::PredCall(name, args, _) => {
                let pred = self
                    .spec
                    .pred(name)
                    .ok_or_else(|| TranslateError::new(format!("unknown predicate `{name}`")))?
                    .clone();
                if pred.params.len() != args.len() {
                    return Err(TranslateError::new(format!(
                        "predicate `{name}` expects {} argument(s), got {}",
                        pred.params.len(),
                        args.len()
                    )));
                }
                let args2 = args
                    .iter()
                    .map(|a| self.expr(a, depth))
                    .collect::<Result<Vec<_>, _>>()?;
                let body = Formula::conjoin(pred.body.clone());
                let body = self.freshen_formula(&body);
                let map: HashMap<String, Expr> = pred
                    .params
                    .iter()
                    .map(|p| p.name.clone())
                    .zip(args2)
                    .collect();
                let substituted = subst_formula(&body, &map);
                self.formula(&substituted, depth + 1)?
            }
        })
    }

    fn expr(&mut self, e: &Expr, depth: usize) -> Result<Expr, TranslateError> {
        if depth > MAX_INLINE_DEPTH {
            return Err(TranslateError::new(
                "predicate/function inlining exceeded maximum depth (recursive definition?)",
            ));
        }
        Ok(match e {
            Expr::Ident(_, _) | Expr::Univ(_) | Expr::Iden(_) | Expr::None(_) => e.clone(),
            Expr::Unary(op, inner, s) => Expr::Unary(*op, Box::new(self.expr(inner, depth)?), *s),
            Expr::Binary(op, l, r, s) => Expr::Binary(
                *op,
                Box::new(self.expr(l, depth)?),
                Box::new(self.expr(r, depth)?),
                *s,
            ),
            Expr::Comprehension(decls, body, s) => {
                let decls2 = decls
                    .iter()
                    .map(|d| {
                        Ok(VarDecl {
                            name: d.name.clone(),
                            bound: self.expr(&d.bound, depth)?,
                            span: d.span,
                        })
                    })
                    .collect::<Result<Vec<_>, TranslateError>>()?;
                Expr::Comprehension(decls2, Box::new(self.formula(body, depth)?), *s)
            }
            Expr::IfThenElse(c, t, f, s) => Expr::IfThenElse(
                Box::new(self.formula(c, depth)?),
                Box::new(self.expr(t, depth)?),
                Box::new(self.expr(f, depth)?),
                *s,
            ),
            Expr::FunCall(name, args, span) => {
                let args2 = args
                    .iter()
                    .map(|a| self.expr(a, depth))
                    .collect::<Result<Vec<_>, _>>()?;
                if let Some(fun) = self.spec.fun(name).cloned() {
                    if fun.params.len() != args2.len() {
                        return Err(TranslateError::new(format!(
                            "function `{name}` expects {} argument(s), got {}",
                            fun.params.len(),
                            args2.len()
                        )));
                    }
                    let body = self.freshen_expr(&fun.body);
                    let map: HashMap<String, Expr> = fun
                        .params
                        .iter()
                        .map(|p| p.name.clone())
                        .zip(args2)
                        .collect();
                    let substituted = subst_expr(&body, &map);
                    self.expr(&substituted, depth + 1)?
                } else {
                    // Box join: f[a, b] = b.(a.f).
                    let mut acc = Expr::Ident(name.clone(), *span);
                    for a in args2 {
                        acc = Expr::Binary(BinExprOp::Join, Box::new(a), Box::new(acc), *span);
                    }
                    acc
                }
            }
        })
    }

    /// Renames every binder in the formula to a globally fresh name.
    fn freshen_formula(&mut self, f: &Formula) -> Formula {
        match f {
            Formula::Quant(q, decls, body, s) => {
                let mut map = HashMap::new();
                let decls2: Vec<VarDecl> = decls
                    .iter()
                    .map(|d| {
                        let fresh = self.fresh_name(&d.name);
                        let bound = self.freshen_expr(&d.bound);
                        map.insert(d.name.clone(), Expr::Ident(fresh.clone(), d.span.into()));
                        VarDecl {
                            name: fresh,
                            bound,
                            span: d.span,
                        }
                    })
                    .collect();
                let body2 = self.freshen_formula(body);
                Formula::Quant(*q, decls2, Box::new(subst_formula(&body2, &map)), *s)
            }
            Formula::Let(n, e, body, s) => {
                let fresh = self.fresh_name(n);
                let e2 = self.freshen_expr(e);
                let body2 = self.freshen_formula(body);
                let mut map = HashMap::new();
                map.insert(n.clone(), Expr::Ident(fresh.clone(), *s));
                Formula::Let(
                    fresh,
                    Box::new(e2),
                    Box::new(subst_formula(&body2, &map)),
                    *s,
                )
            }
            Formula::Not(inner, s) => Formula::Not(Box::new(self.freshen_formula(inner)), *s),
            Formula::Binary(op, l, r, s) => Formula::Binary(
                *op,
                Box::new(self.freshen_formula(l)),
                Box::new(self.freshen_formula(r)),
                *s,
            ),
            Formula::Compare(op, l, r, s) => Formula::Compare(
                *op,
                Box::new(self.freshen_expr(l)),
                Box::new(self.freshen_expr(r)),
                *s,
            ),
            Formula::IntCompare(op, l, r, s) => {
                let conv = |this: &mut Self, i: &IntExpr| match i {
                    IntExpr::Card(e, sp) => IntExpr::Card(Box::new(this.freshen_expr(e)), *sp),
                    IntExpr::Lit(n, sp) => IntExpr::Lit(*n, *sp),
                };
                let l2 = conv(self, l);
                let r2 = conv(self, r);
                Formula::IntCompare(*op, Box::new(l2), Box::new(r2), *s)
            }
            Formula::Mult(op, e, s) => Formula::Mult(*op, Box::new(self.freshen_expr(e)), *s),
            Formula::PredCall(n, args, s) => Formula::PredCall(
                n.clone(),
                args.iter().map(|a| self.freshen_expr(a)).collect(),
                *s,
            ),
        }
    }

    fn freshen_expr(&mut self, e: &Expr) -> Expr {
        match e {
            Expr::Comprehension(decls, body, s) => {
                let mut map = HashMap::new();
                let decls2: Vec<VarDecl> = decls
                    .iter()
                    .map(|d| {
                        let fresh = self.fresh_name(&d.name);
                        let bound = self.freshen_expr(&d.bound);
                        map.insert(d.name.clone(), Expr::Ident(fresh.clone(), d.span.into()));
                        VarDecl {
                            name: fresh,
                            bound,
                            span: d.span,
                        }
                    })
                    .collect();
                let body2 = self.freshen_formula(body);
                Expr::Comprehension(decls2, Box::new(subst_formula(&body2, &map)), *s)
            }
            Expr::Unary(op, inner, s) => Expr::Unary(*op, Box::new(self.freshen_expr(inner)), *s),
            Expr::Binary(op, l, r, s) => Expr::Binary(
                *op,
                Box::new(self.freshen_expr(l)),
                Box::new(self.freshen_expr(r)),
                *s,
            ),
            Expr::IfThenElse(c, t, f, s) => Expr::IfThenElse(
                Box::new(self.freshen_formula(c)),
                Box::new(self.freshen_expr(t)),
                Box::new(self.freshen_expr(f)),
                *s,
            ),
            Expr::FunCall(n, args, s) => Expr::FunCall(
                n.clone(),
                args.iter().map(|a| self.freshen_expr(a)).collect(),
                *s,
            ),
            other => other.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mualloy_syntax::parse_spec;
    use mualloy_syntax::walk::idents_in_formula;
    use std::collections::BTreeSet;

    #[test]
    fn pred_call_is_inlined() {
        let spec =
            parse_spec("sig A { f: set A } pred p[x: A] { some x.f } fact { all a: A | p[a] }")
                .unwrap();
        let out = elaborate_spec(&spec).unwrap();
        let mut ids = BTreeSet::new();
        idents_in_formula(&out.facts[0].body[0], &mut ids);
        assert!(ids.contains("f"));
        assert!(!ids.contains("p"));
    }

    #[test]
    fn fun_call_is_inlined() {
        let spec = parse_spec(
            "sig A { f: set A } fun succs[x: A]: set A { x.f } fact { all a: A | some succs[a] }",
        )
        .unwrap();
        let out = elaborate_spec(&spec).unwrap();
        let mut ids = BTreeSet::new();
        idents_in_formula(&out.facts[0].body[0], &mut ids);
        assert!(ids.contains("f"));
        assert!(!ids.contains("succs"));
    }

    #[test]
    fn field_application_desugars_to_box_join() {
        let spec = parse_spec(
            "sig R {} sig K {} one sig D { m: R -> lone K } fact { all r: R | some m[r] }",
        )
        .unwrap();
        // m[r] should become r.m (no FunCall remains).
        let out = elaborate_spec(&spec).unwrap();
        let printed = mualloy_syntax::print_formula(&out.facts[0].body[0]);
        assert!(printed.contains("r.m"), "got {printed}");
    }

    #[test]
    fn recursion_is_detected() {
        let spec = parse_spec("sig A {} pred p { p } fact { p }").unwrap();
        assert!(elaborate_spec(&spec).is_err());
        let spec = parse_spec("sig A {} pred p { q } pred q { p } fact { p }").unwrap();
        assert!(elaborate_spec(&spec).is_err());
    }

    #[test]
    fn unknown_pred_in_call_errors() {
        let spec = parse_spec("sig A {} fact { ghost }").unwrap();
        assert!(elaborate_spec(&spec).is_err());
    }

    #[test]
    fn wrong_arity_errors() {
        let spec = parse_spec("sig A {} pred p[x: A] { some x } fact { p }").unwrap();
        assert!(elaborate_spec(&spec).is_err());
    }

    #[test]
    fn capture_is_avoided_by_freshening() {
        // The argument `x` must not be captured by the pred body's binder `x`.
        let spec = parse_spec(
            "sig A { f: set A } pred p[y: A] { all x: A | y in x.f } fact { all x: A | p[x] }",
        )
        .unwrap();
        let out = elaborate_spec(&spec).unwrap();
        let printed = mualloy_syntax::print_formula(&out.facts[0].body[0]);
        // Inner binder is freshened; outer x flows into y's position.
        assert!(
            printed.contains("__"),
            "expected freshened binder in {printed}"
        );
    }

    #[test]
    fn pred_as_existential_quantifies_params() {
        let spec = parse_spec("sig A {} pred p[x: A] { some x }").unwrap();
        let f = pred_as_existential(&spec, "p").unwrap();
        assert!(matches!(f, Formula::Quant(Quant::Some, _, _, _)));
        assert!(pred_as_existential(&spec, "nope").is_err());
    }

    #[test]
    fn assert_body_conjoins() {
        let spec = parse_spec("sig A {} assert Q { no A some univ }").unwrap();
        let f = assert_body(&spec, "Q").unwrap();
        assert!(matches!(f, Formula::Binary(BinFormOp::And, _, _, _)));
        assert!(assert_body(&spec, "nope").is_err());
    }
}
