//! Mutation operators over μAlloy ASTs.
//!
//! These operators serve two masters: the fault injector (producing the
//! benchmark corpora) and the traditional repair tools (ARepair/BeAFix
//! candidate generation). They deliberately mirror the mutation classes of
//! the BeAFix paper: operator replacement, quantifier replacement,
//! multiplicity changes, junction flips, negation toggles, conjunct
//! weakening and vocabulary-level identifier substitution.
//!
//! Only nodes owned by facts, predicates and functions are mutated —
//! assertions (and commands) are the trusted oracle, as in the study's
//! benchmarks.

use std::ops::ControlFlow;

use mualloy_syntax::ast::*;
use mualloy_syntax::visit::{walk_expr, walk_formula, Visitor};
use mualloy_syntax::walk::{collect_sites, replace_node, NodeId, NodeRepl, NodeSite, OwnerKind};

use crate::vocab::Vocabulary;

/// The class a mutation belongs to (for reporting and ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MutationKind {
    /// Logical connective replaced (`&&` → `||`, …).
    ConnectiveReplace,
    /// Relational comparison operator replaced (`in` → `=`, …).
    CompareReplace,
    /// Integer comparison operator replaced.
    IntCompareReplace,
    /// Multiplicity operator replaced (`some e` → `no e`, …).
    MultReplace,
    /// Quantifier replaced (`all` → `some`, …).
    QuantReplace,
    /// Formula negated or un-negated.
    NegateToggle,
    /// One operand of a conjunction/disjunction dropped.
    JunctionDrop,
    /// Set operator replaced (`+` → `-`, …).
    SetOpReplace,
    /// Unary relational operator replaced, dropped or inserted.
    UnaryOpChange,
    /// Identifier replaced by another of compatible kind.
    IdentReplace,
    /// Implication direction swapped.
    ImplicationSwap,
    /// Whole constraint replaced by a synthesized template
    /// (see [`crate::synthesis`]).
    TemplateReplace,
    /// Constraint strengthened by conjoining a synthesized template.
    TemplateConjoin,
}

impl MutationKind {
    /// Stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            MutationKind::ConnectiveReplace => "connective-replace",
            MutationKind::CompareReplace => "compare-replace",
            MutationKind::IntCompareReplace => "int-compare-replace",
            MutationKind::MultReplace => "mult-replace",
            MutationKind::QuantReplace => "quant-replace",
            MutationKind::NegateToggle => "negate-toggle",
            MutationKind::JunctionDrop => "junction-drop",
            MutationKind::SetOpReplace => "set-op-replace",
            MutationKind::UnaryOpChange => "unary-op-change",
            MutationKind::IdentReplace => "ident-replace",
            MutationKind::ImplicationSwap => "implication-swap",
            MutationKind::TemplateReplace => "template-replace",
            MutationKind::TemplateConjoin => "template-conjoin",
        }
    }

    /// Whether the mutation synthesizes new constraint structure (as
    /// opposed to editing existing operators/operands).
    pub fn is_synthesis(&self) -> bool {
        matches!(
            self,
            MutationKind::TemplateReplace | MutationKind::TemplateConjoin
        )
    }
}

/// A single applicable mutation.
#[derive(Debug, Clone, PartialEq)]
pub struct Mutation {
    /// Target node.
    pub site: NodeId,
    /// Source span of the target node (for localization metrics).
    pub span: Span,
    /// Replacement payload.
    pub repl: NodeRepl,
    /// Operator class.
    pub kind: MutationKind,
    /// Human-readable description.
    pub description: String,
}

/// Enumerates mutations of a specification.
///
/// One walk serves every consumer: it reads each mutable site's node in
/// place and lists the edits that apply there before building any of them,
/// so [`count_mutations`](Self::count_mutations) builds nothing and
/// [`nth_mutation`](Self::nth_mutation) builds only the mutation it returns,
/// in [`all_mutations`](Self::all_mutations) order.
#[derive(Debug, Clone)]
pub struct MutationEngine {
    spec: Spec,
    sites: Vec<NodeSite>,
    vocab: Vocabulary,
}

impl MutationEngine {
    /// Creates an engine for the given specification.
    pub fn new(spec: &Spec) -> MutationEngine {
        MutationEngine {
            spec: spec.clone(),
            sites: collect_sites(spec),
            vocab: Vocabulary::of(spec),
        }
    }

    /// The specification the engine mutates.
    pub fn spec(&self) -> &Spec {
        &self.spec
    }

    /// The mutable sites (facts, predicates, functions — not assertions).
    pub fn sites(&self) -> impl Iterator<Item = &NodeSite> {
        self.sites.iter().filter(|s| s.owner.0 != OwnerKind::Assert)
    }

    /// All mutations across all mutable sites, in deterministic order.
    pub fn all_mutations(&self) -> Vec<Mutation> {
        let mut out = Vec::new();
        self.for_each_edit(|site, node, edit| {
            out.push(self.build(site, node, edit));
            ControlFlow::Continue(())
        });
        out
    }

    /// The site and kind of every mutation, in
    /// [`all_mutations`](Self::all_mutations) order, building none of them.
    pub fn mutation_kinds(&self) -> Vec<(&NodeSite, MutationKind)> {
        let mut out = Vec::new();
        self.for_each_edit(|site, _, edit| {
            out.push((site, edit.kind()));
            ControlFlow::Continue(())
        });
        out
    }

    /// How many mutations have a kind that `keep` accepts, building none.
    pub fn count_mutations(&self, keep: impl Fn(MutationKind) -> bool) -> usize {
        let mut count = 0;
        self.for_each_edit(|_, _, edit| {
            count += usize::from(keep(edit.kind()));
            ControlFlow::Continue(())
        });
        count
    }

    /// The `n`-th (from 0) of the mutations whose kind `keep` accepts, in
    /// [`all_mutations`](Self::all_mutations) order; the only one built.
    pub fn nth_mutation(&self, n: usize, keep: impl Fn(MutationKind) -> bool) -> Option<Mutation> {
        let mut left = n;
        let mut found = None;
        self.for_each_edit(|site, node, edit| {
            if !keep(edit.kind()) {
                return ControlFlow::Continue(());
            }
            if left > 0 {
                left -= 1;
                return ControlFlow::Continue(());
            }
            found = Some(self.build(site, node, edit));
            ControlFlow::Break(())
        });
        found
    }

    /// Applies a mutation, returning the mutated specification.
    pub fn apply(&self, m: &Mutation) -> Option<Spec> {
        replace_node(&self.spec, m.site, m.repl.clone())
    }

    /// Calls `f` with every edit of every mutable site, site by site in
    /// [`sites`](Self::sites) order, until `f` breaks.
    fn for_each_edit<'s>(
        &'s self,
        mut f: impl FnMut(&'s NodeSite, Node<'_>, Edit) -> ControlFlow<()>,
    ) {
        let mut edits = Vec::new();
        walk_sites(&self.spec, &self.sites, |site, node| {
            edits.clear();
            match node {
                Node::Formula(formula) => formula_edits(formula, &mut edits),
                Node::Expr(e) => self.expr_edits(site, e, &mut edits),
            }
            edits.iter().try_for_each(|&edit| f(site, node, edit))
        });
    }

    fn expr_edits(&self, site: &NodeSite, e: &Expr, out: &mut Vec<Edit>) {
        match e {
            Expr::Binary(op, _, _, _) => {
                // Arity-preserving set-operator swaps.
                if SET_OPS.contains(op) {
                    out.extend(others(&SET_OPS, *op).map(Edit::SetOp));
                }
                if *op == BinExprOp::DomRestrict {
                    out.push(Edit::DomToRan);
                }
            }
            Expr::Unary(op, _, _) => {
                out.extend(others(&UNARY_OPS, *op).map(Edit::Unary));
                out.push(Edit::DropUnary);
            }
            Expr::Ident(name, _) => {
                // Replace by a same-kind name.
                if self.vocab.is_sig(name) {
                    out.extend(positions(&self.vocab.sigs, |s| s != name).map(Edit::Sig));
                } else if let Some(arity) = self.vocab.field_arity(name) {
                    out.extend(
                        positions(&self.vocab.fields, |(f, a)| f != name && *a == arity)
                            .map(Edit::Field),
                    );
                    // A binary field can gain a closure.
                    if arity == 2 {
                        out.extend([Edit::WrapClosure, Edit::WrapTranspose]);
                    }
                } else {
                    // A bound variable: swap with another variable in scope.
                    out.extend(positions(&site.vars_in_scope, |v| v != name).map(Edit::Var));
                }
            }
            _ => {}
        }
    }

    /// Builds the mutation `edit` makes at `site`, whose node is `node`.
    fn build(&self, site: &NodeSite, node: Node<'_>, edit: Edit) -> Mutation {
        let (repl, description) = match node {
            Node::Formula(f) => {
                let (f, description) = build_formula(f, edit);
                (NodeRepl::Formula(f), description)
            }
            Node::Expr(e) => {
                let (e, description) = self.build_expr(site, e, edit);
                (NodeRepl::Expr(e), description)
            }
        };
        Mutation {
            site: site.id,
            span: site.span,
            repl,
            kind: edit.kind(),
            description,
        }
    }

    fn build_expr(&self, site: &NodeSite, e: &Expr, edit: Edit) -> (Expr, String) {
        let span = e.meta();
        match (edit, e) {
            (Edit::SetOp(alt), Expr::Binary(op, l, r, _)) => (
                Expr::Binary(alt, l.clone(), r.clone(), span),
                replace(op.symbol(), alt.symbol()),
            ),
            (Edit::DomToRan, Expr::Binary(_, l, r, _)) => (
                Expr::Binary(BinExprOp::RanRestrict, r.clone(), l.clone(), span),
                "turn `<:` into `:>`".to_string(),
            ),
            (Edit::Unary(alt), Expr::Unary(op, inner, _)) => (
                Expr::Unary(alt, inner.clone(), span),
                replace(op.symbol(), alt.symbol()),
            ),
            (Edit::DropUnary, Expr::Unary(op, inner, _)) => {
                ((**inner).clone(), format!("drop `{}`", op.symbol()))
            }
            (Edit::Sig(i), Expr::Ident(name, _)) => {
                let s = &self.vocab.sigs[i];
                (
                    Expr::Ident(s.clone(), span),
                    format!("replace sig `{name}` with `{s}`"),
                )
            }
            (Edit::Field(i), Expr::Ident(name, _)) => {
                let f = &self.vocab.fields[i].0;
                (
                    Expr::Ident(f.clone(), span),
                    format!("replace field `{name}` with `{f}`"),
                )
            }
            (Edit::WrapClosure, Expr::Ident(name, _)) => (
                Expr::Unary(UnExprOp::Closure, Box::new(e.clone()), span),
                format!("wrap `{name}` in `^`"),
            ),
            (Edit::WrapTranspose, Expr::Ident(name, _)) => (
                Expr::Unary(UnExprOp::Transpose, Box::new(e.clone()), span),
                format!("wrap `{name}` in `~`"),
            ),
            (Edit::Var(i), Expr::Ident(name, _)) => {
                let v = &site.vars_in_scope[i];
                (
                    Expr::Ident(v.clone(), span),
                    format!("replace variable `{name}` with `{v}`"),
                )
            }
            _ => unreachable!("{edit:?} is not an edit of {e:?}"),
        }
    }
}

/// A site's node, read in place from the engine's specification.
#[derive(Clone, Copy)]
enum Node<'a> {
    Formula(&'a Formula),
    Expr(&'a Expr),
}

/// One mutation at a site before its payload and description are built:
/// the operator, and for a substitution the alternative it puts in (an
/// index into the vocabulary or the site's scope for a name).
#[derive(Debug, Clone, Copy)]
enum Edit {
    Connective(BinFormOp),
    SwapImplication,
    DropRight,
    DropLeft,
    Compare(CmpOp),
    IntCompare(IntCmpOp),
    Mult(MultOp),
    Quant(Quant),
    RemoveNegation,
    Negate,
    SetOp(BinExprOp),
    DomToRan,
    Unary(UnExprOp),
    DropUnary,
    Sig(usize),
    Field(usize),
    WrapClosure,
    WrapTranspose,
    Var(usize),
}

impl Edit {
    fn kind(self) -> MutationKind {
        match self {
            Edit::Connective(_) => MutationKind::ConnectiveReplace,
            Edit::SwapImplication => MutationKind::ImplicationSwap,
            Edit::DropRight | Edit::DropLeft => MutationKind::JunctionDrop,
            Edit::Compare(_) => MutationKind::CompareReplace,
            Edit::IntCompare(_) => MutationKind::IntCompareReplace,
            Edit::Mult(_) => MutationKind::MultReplace,
            Edit::Quant(_) => MutationKind::QuantReplace,
            Edit::RemoveNegation | Edit::Negate => MutationKind::NegateToggle,
            Edit::SetOp(_) | Edit::DomToRan => MutationKind::SetOpReplace,
            Edit::Unary(_) | Edit::DropUnary | Edit::WrapClosure | Edit::WrapTranspose => {
                MutationKind::UnaryOpChange
            }
            Edit::Sig(_) | Edit::Field(_) | Edit::Var(_) => MutationKind::IdentReplace,
        }
    }
}

const CONNECTIVES: [BinFormOp; 4] = [
    BinFormOp::And,
    BinFormOp::Or,
    BinFormOp::Implies,
    BinFormOp::Iff,
];
const COMPARISONS: [CmpOp; 4] = [CmpOp::In, CmpOp::Eq, CmpOp::Neq, CmpOp::NotIn];
const INT_COMPARISONS: [IntCmpOp; 6] = [
    IntCmpOp::Eq,
    IntCmpOp::Neq,
    IntCmpOp::Lt,
    IntCmpOp::Gt,
    IntCmpOp::Le,
    IntCmpOp::Ge,
];
const MULTIPLICITIES: [MultOp; 4] = [MultOp::Some, MultOp::No, MultOp::Lone, MultOp::One];
const QUANTIFIERS: [Quant; 5] = [Quant::All, Quant::Some, Quant::No, Quant::Lone, Quant::One];
const SET_OPS: [BinExprOp; 4] = [
    BinExprOp::Union,
    BinExprOp::Diff,
    BinExprOp::Intersect,
    BinExprOp::Override,
];
const UNARY_OPS: [UnExprOp; 3] = [
    UnExprOp::Closure,
    UnExprOp::ReflClosure,
    UnExprOp::Transpose,
];

/// The members of `family` other than `op`, in order.
fn others<T: Copy + PartialEq>(family: &[T], op: T) -> impl Iterator<Item = T> + '_ {
    family.iter().copied().filter(move |alt| *alt != op)
}

/// The indices of the items `keep` accepts.
fn positions<'a, T>(
    items: &'a [T],
    keep: impl Fn(&T) -> bool + 'a,
) -> impl Iterator<Item = usize> + 'a {
    items
        .iter()
        .enumerate()
        .filter(move |(_, item)| keep(item))
        .map(|(i, _)| i)
}

fn replace(old: &str, new: &str) -> String {
    format!("replace `{old}` with `{new}`")
}

fn formula_edits(f: &Formula, out: &mut Vec<Edit>) {
    match f {
        Formula::Binary(op, _, _, _) => {
            out.extend(others(&CONNECTIVES, *op).map(Edit::Connective));
            if *op == BinFormOp::Implies {
                out.push(Edit::SwapImplication);
            }
            if matches!(op, BinFormOp::And | BinFormOp::Or) {
                out.extend([Edit::DropRight, Edit::DropLeft]);
            }
        }
        Formula::Compare(op, _, _, _) => out.extend(others(&COMPARISONS, *op).map(Edit::Compare)),
        Formula::IntCompare(op, _, _, _) => {
            out.extend(others(&INT_COMPARISONS, *op).map(Edit::IntCompare))
        }
        Formula::Mult(op, _, _) => out.extend(others(&MULTIPLICITIES, *op).map(Edit::Mult)),
        Formula::Quant(q, _, _, _) => out.extend(others(&QUANTIFIERS, *q).map(Edit::Quant)),
        Formula::Not(_, _) => out.push(Edit::RemoveNegation),
        _ => {}
    }
    // Any formula can be negated (except an existing negation, handled
    // above as removal).
    if !matches!(f, Formula::Not(_, _)) {
        out.push(Edit::Negate);
    }
}

fn build_formula(f: &Formula, edit: Edit) -> (Formula, String) {
    let span = f.meta();
    match (edit, f) {
        (Edit::Connective(alt), Formula::Binary(op, l, r, _)) => (
            Formula::Binary(alt, l.clone(), r.clone(), span),
            replace(op.symbol(), alt.symbol()),
        ),
        (Edit::SwapImplication, Formula::Binary(op, l, r, _)) => (
            Formula::Binary(*op, r.clone(), l.clone(), span),
            "swap implication direction".to_string(),
        ),
        (Edit::DropRight, Formula::Binary(_, l, _, _)) => {
            ((**l).clone(), "drop right operand".to_string())
        }
        (Edit::DropLeft, Formula::Binary(_, _, r, _)) => {
            ((**r).clone(), "drop left operand".to_string())
        }
        (Edit::Compare(alt), Formula::Compare(op, l, r, _)) => (
            Formula::Compare(alt, l.clone(), r.clone(), span),
            replace(op.symbol(), alt.symbol()),
        ),
        (Edit::IntCompare(alt), Formula::IntCompare(op, l, r, _)) => (
            Formula::IntCompare(alt, l.clone(), r.clone(), span),
            replace(op.symbol(), alt.symbol()),
        ),
        (Edit::Mult(alt), Formula::Mult(op, e, _)) => (
            Formula::Mult(alt, e.clone(), span),
            replace(op.keyword(), alt.keyword()),
        ),
        (Edit::Quant(alt), Formula::Quant(q, decls, body, _)) => (
            Formula::Quant(alt, decls.clone(), body.clone(), span),
            replace(q.keyword(), alt.keyword()),
        ),
        (Edit::RemoveNegation, Formula::Not(inner, _)) => {
            ((**inner).clone(), "remove negation".to_string())
        }
        (Edit::Negate, _) => (
            Formula::Not(Box::new(f.clone()), span),
            "negate formula".to_string(),
        ),
        _ => unreachable!("{edit:?} is not an edit of {f:?}"),
    }
}

/// Hands each mutable site of `spec` and its node, read in place, to `f`
/// in [`MutationEngine::sites`] order until `f` breaks. `sites` are the
/// spec's [`collect_sites`].
fn walk_sites<'s>(
    spec: &Spec,
    sites: &'s [NodeSite],
    f: impl FnMut(&'s NodeSite, Node<'_>) -> ControlFlow<()>,
) {
    SiteNodes {
        sites: sites.iter(),
        stopped: false,
        f,
    }
    .visit_spec(spec);
}

/// The [`Visitor`] behind [`walk_sites`].
struct SiteNodes<'s, F> {
    /// The spec's sites: [`collect_sites`] records them in this same
    /// traversal order.
    sites: std::slice::Iter<'s, NodeSite>,
    stopped: bool,
    f: F,
}

impl<'s, F: FnMut(&'s NodeSite, Node<'_>) -> ControlFlow<()>> SiteNodes<'s, F> {
    /// Hands `node` to `f`; `false` once the walk is over.
    fn visit(&mut self, node: Node<'_>) -> bool {
        if self.stopped {
            return false;
        }
        match self.sites.next() {
            // Assertion bodies come last and are never mutated.
            Some(site) if site.owner.0 != OwnerKind::Assert => {
                let id = match node {
                    Node::Formula(f) => f.id(),
                    Node::Expr(e) => e.id(),
                };
                debug_assert_eq!(site.id, id, "sites follow the traversal");
                // A node without an id cannot be replaced, so it has no
                // mutations.
                if !id.is_unassigned() {
                    self.stopped = (self.f)(site, node).is_break();
                }
            }
            _ => self.stopped = true,
        }
        !self.stopped
    }
}

impl<'s, F: FnMut(&'s NodeSite, Node<'_>) -> ControlFlow<()>> Visitor for SiteNodes<'s, F> {
    fn visit_formula(&mut self, f: &Formula) {
        if self.visit(Node::Formula(f)) {
            walk_formula(self, f);
        }
    }

    fn visit_expr(&mut self, e: &Expr) {
        if self.visit(Node::Expr(e)) {
            walk_expr(self, e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mualloy_syntax::{check_spec, parse_spec};

    fn spec() -> Spec {
        parse_spec(
            "sig N { next: lone N, prev: lone N } \
             fact Acyclic { no n: N | n in n.^next } \
             pred ok[n: N] { some n.next && n not in n.prev } \
             assert A { no none } \
             check A for 3",
        )
        .unwrap()
    }

    #[test]
    fn enumerates_many_mutations() {
        let engine = MutationEngine::new(&spec());
        let all = engine.all_mutations();
        assert!(all.len() > 30, "got only {}", all.len());
        // Deterministic ordering.
        let again = MutationEngine::new(&spec()).all_mutations();
        assert_eq!(all.len(), again.len());
        assert_eq!(all[0].description, again[0].description);
    }

    #[test]
    fn assertions_are_not_mutated() {
        let engine = MutationEngine::new(&spec());
        for site in engine.sites() {
            assert_ne!(site.owner.0, OwnerKind::Assert);
        }
    }

    #[test]
    fn all_mutants_are_well_formed() {
        let engine = MutationEngine::new(&spec());
        for m in engine.all_mutations() {
            let mutant = engine
                .apply(&m)
                .unwrap_or_else(|| panic!("apply failed: {m:?}"));
            assert!(
                check_spec(&mutant).is_empty(),
                "mutation `{}` produced ill-formed spec",
                m.description
            );
        }
    }

    #[test]
    fn mutants_differ_from_original() {
        let engine = MutationEngine::new(&spec());
        let original = mualloy_syntax::walk::strip_spec_spans(&spec());
        let mut distinct = 0;
        for m in engine.all_mutations() {
            let mutant = engine.apply(&m).unwrap();
            if mualloy_syntax::walk::strip_spec_spans(&mutant) != original {
                distinct += 1;
            }
        }
        assert!(distinct > 20);
    }

    #[test]
    fn covers_expected_kinds() {
        let engine = MutationEngine::new(&spec());
        let kinds: std::collections::BTreeSet<MutationKind> =
            engine.all_mutations().iter().map(|m| m.kind).collect();
        for k in [
            MutationKind::ConnectiveReplace,
            MutationKind::CompareReplace,
            MutationKind::MultReplace,
            MutationKind::QuantReplace,
            MutationKind::NegateToggle,
            MutationKind::JunctionDrop,
            MutationKind::IdentReplace,
            MutationKind::UnaryOpChange,
        ] {
            assert!(kinds.contains(&k), "missing kind {k:?}");
        }
    }

    #[test]
    fn variable_swap_respects_scope() {
        let src = "sig A { f: set A } fact { all x, y: A | x in y.f }";
        let engine = MutationEngine::new(&parse_spec(src).unwrap());
        let swaps: Vec<_> = engine
            .all_mutations()
            .into_iter()
            .filter(|m| m.kind == MutationKind::IdentReplace && m.description.contains("variable"))
            .collect();
        assert!(!swaps.is_empty());
        for m in swaps {
            let mutant = engine.apply(&m).unwrap();
            assert!(check_spec(&mutant).is_empty());
        }
    }

    #[test]
    fn nodes_without_ids_have_no_mutations() {
        let mut hand_built = spec();
        hand_built.facts[0].body.push(Formula::compare(
            CmpOp::In,
            Expr::ident("N"),
            Expr::ident("N"),
        ));
        let parsed = MutationEngine::new(&spec()).all_mutations();
        let engine = MutationEngine::new(&hand_built);
        assert_eq!(engine.all_mutations(), parsed);
        assert_eq!(engine.count_mutations(|_| true), parsed.len());
    }

    #[test]
    fn kind_labels_are_stable() {
        assert_eq!(MutationKind::QuantReplace.label(), "quant-replace");
        assert_eq!(MutationKind::JunctionDrop.label(), "junction-drop");
    }
}
