//! Node addressing and rewriting utilities built on [`crate::visit`].
//!
//! Every formula and expression node in a [`Spec`] carries a **persistent**
//! [`NodeId`], assigned once at parse time (dense pre-order over facts,
//! predicates, functions and assertions — see [`crate::visit::assign_ids`]).
//! The mutation and repair crates address nodes by id: [`collect_sites`]
//! enumerates them together with scope information, and [`replace_node`]
//! rebuilds a specification with one node swapped out.
//!
//! # Id persistence contract
//!
//! Ids are a property of the node, not of its position:
//!
//! - ids are stable across clones *and* across structural edits — a
//!   [`replace_node`] call preserves the id of every node outside the
//!   replaced subtree;
//! - the spliced payload receives **fresh** ids drawn above the spec's
//!   [`Spec::next_node_id`] high-water mark;
//! - freed ids (those of the removed subtree) are **never reused**, so an id
//!   denotes at most one node over the whole edit history of a spec.
//!
//! Hand-built or deserialized specs carry [`NodeId::UNASSIGNED`] ids; call
//! [`Spec::assign_ids`] before addressing their nodes.

use crate::ast::*;
use crate::visit::{
    walk_expr, walk_expr_mut, walk_formula, walk_formula_mut, walk_int_expr_mut, NodeIdGenerator,
    Visitor, VisitorMut,
};
use std::collections::BTreeSet;

pub use crate::ast::NodeId;
pub use crate::visit::OwnerKind;

/// A node discovered by [`collect_sites`], with enough context for the
/// mutation operators to synthesize well-scoped replacements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeSite {
    /// The node's persistent id.
    pub id: NodeId,
    /// `true` for formula nodes, `false` for expression nodes.
    pub is_formula: bool,
    /// Source span of the node (synthetic for generated nodes).
    pub span: Span,
    /// Nesting depth below the owning declaration body (0 = top of body).
    pub depth: u16,
    /// Owning declaration kind and its index in the spec.
    pub owner: (OwnerKind, usize),
    /// Names of quantified variables, parameters and let-bindings in scope.
    pub vars_in_scope: Vec<String>,
}

/// A replacement payload for [`replace_node`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeRepl {
    /// Replace a formula node.
    Formula(Formula),
    /// Replace an expression node.
    Expr(Expr),
}

// ------------------------------------------------------------------ strip

/// Sets every span it can reach to synthetic, leaving ids untouched.
struct SpanStripper;

impl VisitorMut for SpanStripper {
    fn visit_formula_mut(&mut self, f: &mut Formula) {
        f.meta_mut().span = Span::synthetic();
        walk_formula_mut(self, f);
    }

    fn visit_expr_mut(&mut self, e: &mut Expr) {
        e.meta_mut().span = Span::synthetic();
        walk_expr_mut(self, e);
    }

    fn visit_int_expr_mut(&mut self, i: &mut IntExpr) {
        match i {
            IntExpr::Card(_, s) | IntExpr::Lit(_, s) => *s = Span::synthetic(),
        }
        walk_int_expr_mut(self, i);
    }

    fn visit_var_decl_mut(&mut self, d: &mut VarDecl) {
        d.span = Span::synthetic();
        self.visit_expr_mut(&mut d.bound);
    }
}

/// Returns a copy of the expression with all spans set to synthetic.
pub fn strip_expr_spans(e: &Expr) -> Expr {
    let mut out = e.clone();
    SpanStripper.visit_expr_mut(&mut out);
    out
}

/// Returns a copy of the formula with all spans set to synthetic.
pub fn strip_formula_spans(f: &Formula) -> Formula {
    let mut out = f.clone();
    SpanStripper.visit_formula_mut(&mut out);
    out
}

/// Returns a copy of the spec with all spans set to synthetic.
pub fn strip_spec_spans(spec: &Spec) -> Spec {
    let s = Span::synthetic();
    let mut out = spec.clone();
    let mut st = SpanStripper;
    st.visit_spec_mut(&mut out);
    // Declaration frames are outside the addressable surface; strip by hand.
    for sig in &mut out.sigs {
        sig.span = s;
        for f in &mut sig.fields {
            f.span = s;
        }
    }
    for fact in &mut out.facts {
        fact.span = s;
    }
    for pred in &mut out.preds {
        pred.span = s;
        for p in &mut pred.params {
            p.span = s;
            st.visit_expr_mut(&mut p.bound);
        }
    }
    for fun in &mut out.funs {
        fun.span = s;
        for p in &mut fun.params {
            p.span = s;
            st.visit_expr_mut(&mut p.bound);
        }
        st.visit_expr_mut(&mut fun.result);
    }
    for a in &mut out.asserts {
        a.span = s;
    }
    for c in &mut out.commands {
        c.span = s;
    }
    out
}

// ---------------------------------------------------------------- collect

/// [`Visitor`] instance enumerating addressable nodes with scope context.
struct Collector {
    sites: Vec<NodeSite>,
    depth: u16,
    scope: Vec<String>,
    owner: (OwnerKind, usize),
}

impl Collector {
    fn push_site(&mut self, id: NodeId, is_formula: bool, span: Span) {
        self.sites.push(NodeSite {
            id,
            is_formula,
            span,
            depth: self.depth,
            owner: self.owner,
            vars_in_scope: self.scope.clone(),
        });
    }
}

impl Visitor for Collector {
    fn visit_formula(&mut self, f: &Formula) {
        self.push_site(f.id(), true, f.span());
        self.depth += 1;
        walk_formula(self, f);
        self.depth -= 1;
    }

    fn visit_expr(&mut self, e: &Expr) {
        self.push_site(e.id(), false, e.span());
        self.depth += 1;
        walk_expr(self, e);
        self.depth -= 1;
    }

    fn enter_body(&mut self, owner: OwnerKind, index: usize, params: &[Param]) {
        self.owner = (owner, index);
        self.depth = 0;
        self.scope = params.iter().map(|p| p.name.clone()).collect();
    }

    fn exit_body(&mut self, _owner: OwnerKind, _index: usize) {
        self.scope.clear();
    }

    fn enter_binders(&mut self, decls: &[VarDecl]) {
        for d in decls {
            self.scope.push(d.name.clone());
        }
    }

    fn exit_binders(&mut self, decls: &[VarDecl]) {
        self.scope.truncate(self.scope.len() - decls.len());
    }

    fn enter_let(&mut self, name: &str) {
        self.scope.push(name.to_string());
    }

    fn exit_let(&mut self, _name: &str) {
        self.scope.pop();
    }
}

/// Enumerates all formula and expression nodes of the specification in the
/// canonical pre-order (facts, then predicates, then functions, then
/// assertions), together with their scopes.
///
/// Site ids are read from the nodes, not derived from the traversal: a spec
/// fresh from the parser yields dense ids `0..n`, an edited spec yields the
/// surviving original ids plus the fresh ids of spliced subtrees.
pub fn collect_sites(spec: &Spec) -> Vec<NodeSite> {
    let mut c = Collector {
        sites: Vec::new(),
        depth: 0,
        scope: Vec::new(),
        owner: (OwnerKind::Fact, 0),
    };
    c.visit_spec(spec);
    c.sites
}

// ---------------------------------------------------------------- replace

/// Number of formula/expression nodes in the subtree rooted at `f`.
pub fn subtree_size_formula(f: &Formula) -> u32 {
    struct Count(u32);
    impl Visitor for Count {
        fn visit_formula(&mut self, f: &Formula) {
            self.0 += 1;
            walk_formula(self, f);
        }
        fn visit_expr(&mut self, e: &Expr) {
            self.0 += 1;
            walk_expr(self, e);
        }
    }
    let mut c = Count(0);
    c.visit_formula(f);
    c.0
}

/// Number of formula/expression nodes in the subtree rooted at `e`.
pub fn subtree_size_expr(e: &Expr) -> u32 {
    struct Count(u32);
    impl Visitor for Count {
        fn visit_formula(&mut self, f: &Formula) {
            self.0 += 1;
            walk_formula(self, f);
        }
        fn visit_expr(&mut self, e: &Expr) {
            self.0 += 1;
            walk_expr(self, e);
        }
    }
    let mut c = Count(0);
    c.visit_expr(e);
    c.0
}

/// Retrieves a clone of the node with the given id, wrapped in the same
/// payload type [`replace_node`] accepts.
pub fn node_at(spec: &Spec, id: NodeId) -> Option<NodeRepl> {
    struct Finder {
        target: NodeId,
        found: Option<NodeRepl>,
    }
    impl Visitor for Finder {
        fn visit_formula(&mut self, f: &Formula) {
            if self.found.is_some() {
                return;
            }
            if f.id() == self.target {
                self.found = Some(NodeRepl::Formula(f.clone()));
                return;
            }
            walk_formula(self, f);
        }
        fn visit_expr(&mut self, e: &Expr) {
            if self.found.is_some() {
                return;
            }
            if e.id() == self.target {
                self.found = Some(NodeRepl::Expr(e.clone()));
                return;
            }
            walk_expr(self, e);
        }
    }
    if id.is_unassigned() {
        return None;
    }
    let mut fd = Finder {
        target: id,
        found: None,
    };
    fd.visit_spec(spec);
    fd.found
}

/// [`VisitorMut`] instance splicing one payload at a persistent id.
struct Replacer {
    target: NodeId,
    repl: Option<NodeRepl>,
    kind_mismatch: bool,
}

impl VisitorMut for Replacer {
    fn visit_formula_mut(&mut self, f: &mut Formula) {
        if self.repl.is_none() || self.kind_mismatch {
            return;
        }
        if f.id() == self.target {
            match self.repl.take() {
                Some(NodeRepl::Formula(nf)) => *f = nf,
                other => {
                    self.kind_mismatch = true;
                    self.repl = other;
                }
            }
            return;
        }
        walk_formula_mut(self, f);
    }

    fn visit_expr_mut(&mut self, e: &mut Expr) {
        if self.repl.is_none() || self.kind_mismatch {
            return;
        }
        if e.id() == self.target {
            match self.repl.take() {
                Some(NodeRepl::Expr(ne)) => *e = ne,
                other => {
                    self.kind_mismatch = true;
                    self.repl = other;
                }
            }
            return;
        }
        walk_expr_mut(self, e);
    }
}

/// Rebuilds the specification with the node identified by `id` replaced.
///
/// Every node outside the replaced subtree keeps its persistent id; the
/// payload's nodes are given fresh ids above the spec's
/// [`Spec::next_node_id`] high-water mark (cloned payloads would otherwise
/// smuggle duplicate ids in), and the mark advances so the ids freed by the
/// removed subtree are never handed out again.
///
/// Returns `None` if the id does not exist in the spec or the replacement
/// kind does not match the node kind.
pub fn replace_node(spec: &Spec, id: NodeId, repl: NodeRepl) -> Option<Spec> {
    if id.is_unassigned() {
        return None;
    }
    let mut out = spec.clone();
    // Seed above both the recorded high-water mark and anything actually
    // present, so hand-built or deserialized specs stay collision-free.
    let start = out
        .next_node_id
        .max(crate::visit::max_assigned_id(&out).map_or(0, |m| m + 1));
    let mut generator = NodeIdGenerator::starting_at(start);
    let repl = match repl {
        NodeRepl::Formula(mut f) => {
            crate::visit::freshen_formula_ids(&mut f, &mut generator);
            NodeRepl::Formula(f)
        }
        NodeRepl::Expr(mut e) => {
            crate::visit::freshen_expr_ids(&mut e, &mut generator);
            NodeRepl::Expr(e)
        }
    };
    let mut rb = Replacer {
        target: id,
        repl: Some(repl),
        kind_mismatch: false,
    };
    rb.visit_spec_mut(&mut out);
    if rb.repl.is_none() && !rb.kind_mismatch {
        out.next_node_id = generator.watermark();
        Some(out)
    } else {
        None
    }
}

/// The formula `f` with the node identified by `id` replaced: what
/// [`replace_node`] makes of `f` when `f` is a body formula of the spec.
///
/// Unlike [`replace_node`] the payload keeps its ids, so the result is for
/// reading (elaborating, evaluating), not for splicing into a spec.
///
/// Returns `None` if `f` holds no node with that id or the replacement kind
/// does not match the node kind.
pub fn replace_in_formula(f: &Formula, id: NodeId, repl: &NodeRepl) -> Option<Formula> {
    if id.is_unassigned() {
        return None;
    }
    let mut out = f.clone();
    let mut rb = Replacer {
        target: id,
        repl: Some(repl.clone()),
        kind_mismatch: false,
    };
    rb.visit_formula_mut(&mut out);
    (rb.repl.is_none() && !rb.kind_mismatch).then_some(out)
}

// ------------------------------------------------------------ substitution

/// Capture-naive substitution of free identifiers in an expression.
///
/// Bound variables shadow substitutions of the same name. Adequate for
/// predicate/function inlining where arguments are fresh with respect to the
/// body's binders (the elaborator freshens clashing binders first).
pub fn subst_expr(e: &Expr, map: &std::collections::HashMap<String, Expr>) -> Expr {
    match e {
        Expr::Ident(n, s) => match map.get(n) {
            Some(repl) => repl.clone(),
            None => Expr::Ident(n.clone(), *s),
        },
        Expr::Univ(s) => Expr::Univ(*s),
        Expr::Iden(s) => Expr::Iden(*s),
        Expr::None(s) => Expr::None(*s),
        Expr::Unary(op, inner, s) => Expr::Unary(*op, Box::new(subst_expr(inner, map)), *s),
        Expr::Binary(op, l, r, s) => Expr::Binary(
            *op,
            Box::new(subst_expr(l, map)),
            Box::new(subst_expr(r, map)),
            *s,
        ),
        Expr::Comprehension(decls, body, s) => {
            let mut inner_map = map.clone();
            let decls2: Vec<VarDecl> = decls
                .iter()
                .map(|d| VarDecl {
                    name: d.name.clone(),
                    bound: subst_expr(&d.bound, &inner_map),
                    span: d.span,
                })
                .collect();
            for d in decls {
                inner_map.remove(&d.name);
            }
            Expr::Comprehension(decls2, Box::new(subst_formula(body, &inner_map)), *s)
        }
        Expr::IfThenElse(c, t, f, s) => Expr::IfThenElse(
            Box::new(subst_formula(c, map)),
            Box::new(subst_expr(t, map)),
            Box::new(subst_expr(f, map)),
            *s,
        ),
        Expr::FunCall(n, args, s) => Expr::FunCall(
            n.clone(),
            args.iter().map(|a| subst_expr(a, map)).collect(),
            *s,
        ),
    }
}

/// Capture-naive substitution of free identifiers in a formula.
///
/// See [`subst_expr`] for the capture caveat.
pub fn subst_formula(f: &Formula, map: &std::collections::HashMap<String, Expr>) -> Formula {
    match f {
        Formula::Compare(op, l, r, s) => Formula::Compare(
            *op,
            Box::new(subst_expr(l, map)),
            Box::new(subst_expr(r, map)),
            *s,
        ),
        Formula::IntCompare(op, l, r, s) => {
            let sub_int = |i: &IntExpr| match i {
                IntExpr::Card(e, sp) => IntExpr::Card(Box::new(subst_expr(e, map)), *sp),
                IntExpr::Lit(n, sp) => IntExpr::Lit(*n, *sp),
            };
            Formula::IntCompare(*op, Box::new(sub_int(l)), Box::new(sub_int(r)), *s)
        }
        Formula::Mult(op, e, s) => Formula::Mult(*op, Box::new(subst_expr(e, map)), *s),
        Formula::Not(inner, s) => Formula::Not(Box::new(subst_formula(inner, map)), *s),
        Formula::Binary(op, l, r, s) => Formula::Binary(
            *op,
            Box::new(subst_formula(l, map)),
            Box::new(subst_formula(r, map)),
            *s,
        ),
        Formula::Quant(q, decls, body, s) => {
            let mut inner_map = map.clone();
            let decls2: Vec<VarDecl> = decls
                .iter()
                .map(|d| VarDecl {
                    name: d.name.clone(),
                    bound: subst_expr(&d.bound, &inner_map),
                    span: d.span,
                })
                .collect();
            for d in decls {
                inner_map.remove(&d.name);
            }
            Formula::Quant(*q, decls2, Box::new(subst_formula(body, &inner_map)), *s)
        }
        Formula::Let(n, e, body, s) => {
            let e2 = subst_expr(e, map);
            let mut inner_map = map.clone();
            inner_map.remove(n);
            Formula::Let(
                n.clone(),
                Box::new(e2),
                Box::new(subst_formula(body, &inner_map)),
                *s,
            )
        }
        Formula::PredCall(n, args, s) => Formula::PredCall(
            n.clone(),
            args.iter().map(|a| subst_expr(a, map)).collect(),
            *s,
        ),
    }
}

// ------------------------------------------------------------- vocabulary

/// Collects all identifiers referenced in a formula (free and bound).
pub fn idents_in_formula(f: &Formula, out: &mut BTreeSet<String>) {
    let mut v = IdentCollector(out);
    v.visit_formula(f);
}

/// Collects all identifiers referenced in an expression.
pub fn idents_in_expr(e: &Expr, out: &mut BTreeSet<String>) {
    let mut v = IdentCollector(out);
    v.visit_expr(e);
}

struct IdentCollector<'a>(&'a mut BTreeSet<String>);

impl Visitor for IdentCollector<'_> {
    fn visit_formula(&mut self, f: &Formula) {
        if let Formula::PredCall(n, _, _) = f {
            self.0.insert(n.clone());
        }
        walk_formula(self, f);
    }

    fn visit_expr(&mut self, e: &Expr) {
        match e {
            Expr::Ident(n, _) | Expr::FunCall(n, _, _) => {
                self.0.insert(n.clone());
            }
            _ => {}
        }
        walk_expr(self, e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_formula, parse_spec};

    fn sample_spec() -> Spec {
        parse_spec(
            "sig A { f: set A }\n\
             fact Inv { all x: A | x in x.f }\n\
             pred p[a: A] { some a.f }\n\
             fun g[a: A]: set A { a.f }\n\
             assert Q { no A }\n\
             check Q for 3",
        )
        .unwrap()
    }

    #[test]
    fn collect_assigns_contiguous_ids() {
        let spec = sample_spec();
        let sites = collect_sites(&spec);
        for (i, s) in sites.iter().enumerate() {
            assert_eq!(s.id.0 as usize, i);
        }
        assert!(sites.len() > 8);
    }

    #[test]
    fn scope_tracking_includes_params_and_binders() {
        let spec = sample_spec();
        let sites = collect_sites(&spec);
        // The deepest node under the quantifier should see `x` in scope.
        let in_fact: Vec<_> = sites
            .iter()
            .filter(|s| s.owner.0 == OwnerKind::Fact)
            .collect();
        assert!(in_fact
            .iter()
            .any(|s| s.vars_in_scope.contains(&"x".to_string())));
        let in_pred: Vec<_> = sites
            .iter()
            .filter(|s| s.owner.0 == OwnerKind::Pred)
            .collect();
        assert!(in_pred
            .iter()
            .all(|s| s.vars_in_scope.contains(&"a".to_string())));
    }

    #[test]
    fn replace_identity_preserves_spec() {
        let spec = sample_spec();
        let sites = collect_sites(&spec);
        for site in &sites {
            let repl = node_at(&spec, site.id).unwrap();
            match (&repl, site.is_formula) {
                (NodeRepl::Formula(_), true) | (NodeRepl::Expr(_), false) => {}
                _ => panic!("node_at kind disagrees with site {:?}", site.id),
            }
            let out = replace_node(&spec, site.id, repl).unwrap();
            assert_eq!(strip_spec_spans(&out), strip_spec_spans(&spec));
        }
    }

    #[test]
    fn replace_preserves_untouched_ids_and_advances_watermark() {
        let spec = sample_spec();
        let sites = collect_sites(&spec);
        let target = sites
            .iter()
            .find(|s| s.is_formula && s.owner.0 == OwnerKind::Assert)
            .unwrap();
        let nf = parse_formula("some A").unwrap();
        let out = replace_node(&spec, target.id, NodeRepl::Formula(nf)).unwrap();

        let before: std::collections::HashMap<NodeId, bool> =
            sites.iter().map(|s| (s.id, s.is_formula)).collect();
        let removed: std::collections::HashSet<NodeId> = sites
            .iter()
            .filter(|s| {
                s.owner == target.owner && s.id >= target.id && {
                    // Pre-order: the replaced subtree is the contiguous id
                    // range starting at the target on a fresh parse.
                    let size = match node_at(&spec, target.id).unwrap() {
                        NodeRepl::Formula(f) => subtree_size_formula(&f),
                        NodeRepl::Expr(e) => subtree_size_expr(&e),
                    };
                    s.id.0 < target.id.0 + size
                }
            })
            .map(|s| s.id)
            .collect();

        let after_sites = collect_sites(&out);
        let after: std::collections::HashSet<NodeId> = after_sites.iter().map(|s| s.id).collect();
        // Untouched ids survive with their kind.
        for s in &sites {
            if !removed.contains(&s.id) {
                assert!(after.contains(&s.id), "lost id {:?}", s.id);
                let k = after_sites.iter().find(|a| a.id == s.id).unwrap();
                assert_eq!(k.is_formula, before[&s.id]);
            }
        }
        // Freed ids are gone and never reappear below the new watermark.
        for id in &removed {
            assert!(!after.contains(id), "freed id {:?} reused", id);
        }
        assert!(out.next_node_id > spec.next_node_id);
        // New payload ids sit above the old watermark.
        for s in &after_sites {
            if !before.contains_key(&s.id) {
                assert!(s.id.0 >= spec.next_node_id);
            }
        }
    }

    #[test]
    fn replace_formula_changes_only_target() {
        let spec = sample_spec();
        let sites = collect_sites(&spec);
        let target = sites
            .iter()
            .find(|s| s.is_formula && s.owner.0 == OwnerKind::Assert)
            .unwrap();
        let nf = parse_formula("some A").unwrap();
        let out = replace_node(&spec, target.id, NodeRepl::Formula(nf)).unwrap();
        assert_ne!(strip_spec_spans(&out), strip_spec_spans(&spec));
        // Fact unchanged.
        assert_eq!(
            strip_formula_spans(&out.facts[0].body[0]),
            strip_formula_spans(&spec.facts[0].body[0])
        );
    }

    #[test]
    fn replace_in_formula_matches_replace_node() {
        let spec = sample_spec();
        let fact = &spec.facts[0].body[0];
        let nf = parse_formula("some A").unwrap();
        for site in collect_sites(&spec) {
            let repl = if site.is_formula {
                NodeRepl::Formula(nf.clone())
            } else {
                NodeRepl::Expr(Expr::ident("A"))
            };
            let local = replace_in_formula(fact, site.id, &repl);
            if site.owner.0 != OwnerKind::Fact {
                assert!(local.is_none(), "{:?} is outside the fact", site.id);
                continue;
            }
            let whole = replace_node(&spec, site.id, repl).unwrap();
            assert_eq!(
                strip_formula_spans(&local.unwrap()),
                strip_formula_spans(&whole.facts[0].body[0])
            );
        }
        let formula_site = collect_sites(&spec)[0].id;
        let wrong = NodeRepl::Expr(Expr::ident("A"));
        assert!(replace_in_formula(fact, formula_site, &wrong).is_none());
    }

    #[test]
    fn replace_with_wrong_kind_returns_none() {
        let spec = sample_spec();
        let sites = collect_sites(&spec);
        let formula_site = sites.iter().find(|s| s.is_formula).unwrap();
        assert!(replace_node(&spec, formula_site.id, NodeRepl::Expr(Expr::ident("A"))).is_none());
    }

    #[test]
    fn replace_missing_id_returns_none() {
        let spec = sample_spec();
        assert!(replace_node(&spec, NodeId(9999), NodeRepl::Formula(Formula::truth())).is_none());
        assert!(replace_node(
            &spec,
            NodeId::UNASSIGNED,
            NodeRepl::Formula(Formula::truth())
        )
        .is_none());
    }

    #[test]
    fn subst_respects_shadowing() {
        let f = parse_formula("all x: A | x in y.f").unwrap();
        let mut map = std::collections::HashMap::new();
        map.insert("x".to_string(), Expr::ident("Z"));
        map.insert("y".to_string(), Expr::ident("W"));
        let out = subst_formula(&f, &map);
        let mut ids = BTreeSet::new();
        idents_in_formula(&out, &mut ids);
        // Bound x survives; free y replaced by W.
        assert!(ids.contains("x"));
        assert!(ids.contains("W"));
        assert!(!ids.contains("y"));
        assert!(!ids.contains("Z"));
    }

    #[test]
    fn idents_collects_all_names() {
        let f = parse_formula("all x: A | x.f in B + C").unwrap();
        let mut ids = BTreeSet::new();
        idents_in_formula(&f, &mut ids);
        for n in ["A", "B", "C", "f", "x"] {
            assert!(ids.contains(n), "missing {n}");
        }
    }

    #[test]
    fn subtree_sizes_match_collector_count() {
        let spec = sample_spec();
        let sites = collect_sites(&spec);
        let total: u32 = spec
            .facts
            .iter()
            .flat_map(|f| f.body.iter())
            .map(subtree_size_formula)
            .chain(
                spec.preds
                    .iter()
                    .flat_map(|p| p.body.iter())
                    .map(subtree_size_formula),
            )
            .chain(spec.funs.iter().map(|f| subtree_size_expr(&f.body)))
            .chain(
                spec.asserts
                    .iter()
                    .flat_map(|a| a.body.iter())
                    .map(subtree_size_formula),
            )
            .sum();
        assert_eq!(total as usize, sites.len());
    }
}
