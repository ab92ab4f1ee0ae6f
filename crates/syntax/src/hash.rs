//! Canonical Merkle subtree hashing over the μAlloy AST.
//!
//! Every [`Formula`]/[`Expr`] subtree gets a 128-bit FNV-1a hash computed
//! from structure and names only — **span- and id-insensitive**, but
//! **alpha-sensitive** (binder names are hashed literally, so renaming a
//! quantified variable changes the hash, exactly as it changes the canonical
//! print). Two specs have equal [`spec_fingerprint`]s iff their canonical
//! prints are equal (modulo 128-bit collisions), which makes the fingerprint
//! a drop-in replacement for the oracle's old print-the-whole-spec keys.
//!
//! [`SpecHasher`] additionally memoizes the per-node subtree hashes of one
//! spec and can produce the fingerprint of an edited candidate in
//! O(path + payload) via [`SpecHasher::fingerprint_replaced`] — the seam that
//! lets candidate validation skip re-printing whole specs.

use crate::ast::*;
use crate::walk::NodeRepl;
use std::collections::HashMap;
use std::fmt;

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013B;

/// A 128-bit canonical fingerprint of a spec or subtree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Fingerprint(pub u128);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

// The vendored serde stub has no u128 support; fingerprints travel as fixed
// 32-digit hex strings.
impl serde::Serialize for Fingerprint {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.to_string())
    }
}

impl serde::Deserialize for Fingerprint {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::Str(s) => u128::from_str_radix(s, 16)
                .map(Fingerprint)
                .map_err(|_| serde::Error::custom("expected hex fingerprint")),
            _ => Err(serde::Error::custom("expected string fingerprint")),
        }
    }
}

/// Incremental FNV-1a/128 state.
#[derive(Clone, Copy)]
struct Fnv(u128);

impl Fnv {
    fn new() -> Fnv {
        Fnv(FNV_OFFSET)
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= b as u128;
        self.0 = self.0.wrapping_mul(FNV_PRIME);
    }

    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.byte(b);
        }
    }

    fn u32v(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    fn i64v(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }

    fn u128v(&mut self, v: u128) {
        self.bytes(&v.to_le_bytes());
    }

    fn strv(&mut self, s: &str) {
        self.u32v(s.len() as u32);
        self.bytes(s.as_bytes());
    }

    fn opt_str(&mut self, s: &Option<String>) {
        match s {
            None => self.byte(0),
            Some(s) => {
                self.byte(1);
                self.strv(s);
            }
        }
    }

    fn finish(self) -> u128 {
        self.0
    }
}

fn mult_byte(m: Mult) -> u8 {
    match m {
        Mult::Set => 0,
        Mult::One => 1,
        Mult::Lone => 2,
        Mult::Some => 3,
    }
}

fn sig_mult_byte(m: SigMult) -> u8 {
    match m {
        SigMult::One => 1,
        SigMult::Lone => 2,
        SigMult::Some => 3,
    }
}

// ------------------------------------------------------- per-node hashing

/// A node's addressable children in canonical order.
enum Child<'a> {
    F(&'a Formula),
    E(&'a Expr),
}

fn formula_children(f: &Formula) -> Vec<Child<'_>> {
    match f {
        Formula::Compare(_, l, r, _) => vec![Child::E(l), Child::E(r)],
        Formula::IntCompare(_, l, r, _) => {
            let mut out = Vec::new();
            for side in [l.as_ref(), r.as_ref()] {
                if let IntExpr::Card(e, _) = side {
                    out.push(Child::E(e));
                }
            }
            out
        }
        Formula::Mult(_, e, _) => vec![Child::E(e)],
        Formula::Not(inner, _) => vec![Child::F(inner)],
        Formula::Binary(_, l, r, _) => vec![Child::F(l), Child::F(r)],
        Formula::Quant(_, decls, body, _) => {
            let mut out: Vec<Child<'_>> = decls.iter().map(|d| Child::E(&d.bound)).collect();
            out.push(Child::F(body));
            out
        }
        Formula::Let(_, e, body, _) => vec![Child::E(e), Child::F(body)],
        Formula::PredCall(_, args, _) => args.iter().map(Child::E).collect(),
    }
}

fn expr_children(e: &Expr) -> Vec<Child<'_>> {
    match e {
        Expr::Ident(_, _) | Expr::Univ(_) | Expr::Iden(_) | Expr::None(_) => Vec::new(),
        Expr::Unary(_, inner, _) => vec![Child::E(inner)],
        Expr::Binary(_, l, r, _) => vec![Child::E(l), Child::E(r)],
        Expr::Comprehension(decls, body, _) => {
            let mut out: Vec<Child<'_>> = decls.iter().map(|d| Child::E(&d.bound)).collect();
            out.push(Child::F(body));
            out
        }
        Expr::IfThenElse(c, t, f, _) => vec![Child::F(c), Child::E(t), Child::E(f)],
        Expr::FunCall(_, args, _) => args.iter().map(Child::E).collect(),
    }
}

/// Hash of a formula node's own payload: variant tag, operators, names,
/// binder names (alpha-sensitivity), literals — never spans or ids.
fn formula_local(f: &Formula) -> u128 {
    let mut h = Fnv::new();
    match f {
        Formula::Compare(op, _, _, _) => {
            h.byte(0x01);
            h.strv(op.symbol());
        }
        Formula::IntCompare(op, l, r, _) => {
            h.byte(0x02);
            h.strv(op.symbol());
            for side in [l.as_ref(), r.as_ref()] {
                match side {
                    IntExpr::Card(_, _) => h.byte(b'C'),
                    IntExpr::Lit(n, _) => {
                        h.byte(b'L');
                        h.i64v(*n);
                    }
                }
            }
        }
        Formula::Mult(op, _, _) => {
            h.byte(0x03);
            h.strv(op.keyword());
        }
        Formula::Not(_, _) => h.byte(0x04),
        Formula::Binary(op, _, _, _) => {
            h.byte(0x05);
            h.strv(op.symbol());
        }
        Formula::Quant(q, decls, _, _) => {
            h.byte(0x06);
            h.strv(q.keyword());
            h.u32v(decls.len() as u32);
            for d in decls {
                h.strv(&d.name);
            }
        }
        Formula::Let(name, _, _, _) => {
            h.byte(0x07);
            h.strv(name);
        }
        Formula::PredCall(name, args, _) => {
            h.byte(0x08);
            h.strv(name);
            h.u32v(args.len() as u32);
        }
    }
    h.finish()
}

/// Hash of an expression node's own payload.
fn expr_local(e: &Expr) -> u128 {
    let mut h = Fnv::new();
    match e {
        Expr::Ident(name, _) => {
            h.byte(0x11);
            h.strv(name);
        }
        Expr::Univ(_) => h.byte(0x12),
        Expr::Iden(_) => h.byte(0x13),
        Expr::None(_) => h.byte(0x14),
        Expr::Unary(op, _, _) => {
            h.byte(0x15);
            h.strv(op.symbol());
        }
        Expr::Binary(op, _, _, _) => {
            h.byte(0x16);
            h.strv(op.symbol());
        }
        Expr::Comprehension(decls, _, _) => {
            h.byte(0x17);
            h.u32v(decls.len() as u32);
            for d in decls {
                h.strv(&d.name);
            }
        }
        Expr::IfThenElse(_, _, _, _) => h.byte(0x18),
        Expr::FunCall(name, args, _) => {
            h.byte(0x19);
            h.strv(name);
            h.u32v(args.len() as u32);
        }
    }
    h.finish()
}

/// Merkle combination of a node's local hash with its children's subtree
/// hashes. Both the full and the incremental paths go through here, so they
/// agree byte for byte.
fn combine(local: u128, children: impl IntoIterator<Item = u128>) -> u128 {
    let mut h = Fnv::new();
    h.u128v(local);
    for c in children {
        h.u128v(c);
    }
    h.finish()
}

/// Full (non-memoized) subtree hash of a formula.
pub fn formula_hash(f: &Formula) -> u128 {
    combine(
        formula_local(f),
        formula_children(f).iter().map(|c| match c {
            Child::F(x) => formula_hash(x),
            Child::E(x) => expr_hash(x),
        }),
    )
}

/// Full (non-memoized) subtree hash of an expression.
pub fn expr_hash(e: &Expr) -> u128 {
    combine(
        expr_local(e),
        expr_children(e).iter().map(|c| match c {
            Child::F(x) => formula_hash(x),
            Child::E(x) => expr_hash(x),
        }),
    )
}

// ----------------------------------------------------------- frame hashing

/// Hash of everything outside the addressable bodies: module name,
/// signatures, declaration headers (names, params, result bounds), body slot
/// counts and commands. An edit through `replace_node` never changes the
/// frame.
fn frame_hash(spec: &Spec) -> u128 {
    let mut h = Fnv::new();
    skeleton_into(&mut h, spec);
    h.u32v(spec.facts.len() as u32);
    for fact in &spec.facts {
        h.strv(&fact.name);
        h.u32v(fact.body.len() as u32);
    }
    h.u32v(spec.preds.len() as u32);
    for p in &spec.preds {
        h.strv(&p.name);
        h.u32v(p.params.len() as u32);
        for q in &p.params {
            h.strv(&q.name);
            h.u128v(expr_hash(&q.bound));
        }
        h.u32v(p.body.len() as u32);
    }
    h.u32v(spec.funs.len() as u32);
    for f in &spec.funs {
        h.strv(&f.name);
        h.u32v(f.params.len() as u32);
        for q in &f.params {
            h.strv(&q.name);
            h.u128v(expr_hash(&q.bound));
        }
        h.byte(mult_byte(f.result_mult));
        h.u128v(expr_hash(&f.result));
    }
    h.u32v(spec.asserts.len() as u32);
    for a in &spec.asserts {
        h.strv(&a.name);
        h.u32v(a.body.len() as u32);
    }
    h.u32v(spec.commands.len() as u32);
    for c in &spec.commands {
        match &c.kind {
            CommandKind::Run(n) => {
                h.byte(b'r');
                h.strv(n);
            }
            CommandKind::Check(n) => {
                h.byte(b'c');
                h.strv(n);
            }
        }
        h.u32v(c.scope);
        match c.expect {
            None => h.byte(2),
            Some(b) => h.byte(b as u8),
        }
    }
    h.finish()
}

fn spec_roots(spec: &Spec) -> impl Iterator<Item = Child<'_>> {
    spec.facts
        .iter()
        .flat_map(|f| f.body.iter().map(Child::F))
        .chain(spec.preds.iter().flat_map(|p| p.body.iter().map(Child::F)))
        .chain(spec.funs.iter().map(|f| Child::E(&f.body)))
        .chain(
            spec.asserts
                .iter()
                .flat_map(|a| a.body.iter().map(Child::F)),
        )
}

/// Hashes the signature skeleton (module name plus signature declarations
/// with their fields) into `h` — shared between [`frame_hash`] and
/// [`skeleton_fingerprint`] so the full fingerprint's byte layout is
/// unchanged by the split.
fn skeleton_into(h: &mut Fnv, spec: &Spec) {
    h.opt_str(&spec.module);
    h.u32v(spec.sigs.len() as u32);
    for sig in &spec.sigs {
        h.strv(&sig.name);
        h.byte(sig.is_abstract as u8);
        match sig.mult {
            None => h.byte(0),
            Some(m) => {
                h.byte(0x10);
                h.byte(sig_mult_byte(m));
            }
        }
        h.opt_str(&sig.parent);
        h.u32v(sig.fields.len() as u32);
        for f in &sig.fields {
            h.strv(&f.name);
            h.u32v(f.cols.len() as u32);
            for c in &f.cols {
                h.strv(c);
            }
            h.byte(mult_byte(f.mult));
        }
    }
}

/// Fingerprint of the signature skeleton alone — the part of a spec that
/// determines its universe, relation matrices and declaration constraints at
/// a given scope. Repair candidates differ only in fact/pred/fun/assert
/// bodies (and commands), so a whole search shares one skeleton fingerprint;
/// incremental oracle sessions key their persistent translations by it.
pub fn skeleton_fingerprint(spec: &Spec) -> Fingerprint {
    let mut h = Fnv::new();
    skeleton_into(&mut h, spec);
    Fingerprint(h.finish())
}

/// Full canonical fingerprint of a spec (frame + all body subtree hashes).
///
/// Span- and id-insensitive: equal iff the canonical prints are equal.
pub fn spec_fingerprint(spec: &Spec) -> Fingerprint {
    let mut h = Fnv::new();
    h.u128v(frame_hash(spec));
    for root in spec_roots(spec) {
        h.u128v(match root {
            Child::F(f) => formula_hash(f),
            Child::E(e) => expr_hash(e),
        });
    }
    Fingerprint(h.finish())
}

// ------------------------------------------------------------- SpecHasher

struct NodeInfo {
    local: u128,
    sub: u128,
    children: Vec<NodeId>,
    parent: Option<NodeId>,
    is_formula: bool,
}

/// Memoized Merkle hasher for one (id-assigned) spec.
///
/// Construction walks the spec once, recording per-node subtree hashes,
/// child lists and parent links keyed by persistent [`NodeId`]. After that,
/// the fingerprint of a candidate produced by
/// [`crate::walk::replace_node`]`(spec, id, payload)` is an
/// O(path + payload) rehash via [`SpecHasher::fingerprint_replaced`] — no
/// re-print, no full re-walk.
pub struct SpecHasher {
    frame: u128,
    roots: Vec<NodeId>,
    nodes: HashMap<NodeId, NodeInfo>,
    full: Fingerprint,
    /// False when the spec carried unassigned or duplicate ids; incremental
    /// rehashing is then unsound and callers must fall back to
    /// [`spec_fingerprint`].
    ids_ok: bool,
}

impl std::fmt::Debug for SpecHasher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpecHasher")
            .field("fingerprint", &self.full)
            .field("nodes", &self.nodes.len())
            .field("ids_ok", &self.ids_ok)
            .finish()
    }
}

impl SpecHasher {
    /// Builds the memo tables for `spec`.
    pub fn new(spec: &Spec) -> SpecHasher {
        let mut hasher = SpecHasher {
            frame: frame_hash(spec),
            roots: Vec::new(),
            nodes: HashMap::new(),
            full: Fingerprint(0),
            ids_ok: true,
        };
        let mut root_hashes = Vec::new();
        for root in spec_roots(spec) {
            let (id, sub) = match root {
                Child::F(f) => (f.id(), hasher.record_formula(f, None)),
                Child::E(e) => (e.id(), hasher.record_expr(e, None)),
            };
            hasher.roots.push(id);
            root_hashes.push(sub);
        }
        let mut h = Fnv::new();
        h.u128v(hasher.frame);
        for s in &root_hashes {
            h.u128v(*s);
        }
        hasher.full = Fingerprint(h.finish());
        hasher
    }

    fn record(&mut self, id: NodeId, info: NodeInfo) {
        if id.is_unassigned() || self.nodes.insert(id, info).is_some() {
            self.ids_ok = false;
        }
    }

    fn record_formula(&mut self, f: &Formula, parent: Option<NodeId>) -> u128 {
        let local = formula_local(f);
        let mut child_ids = Vec::new();
        let mut child_hashes = Vec::new();
        for c in formula_children(f) {
            match c {
                Child::F(x) => {
                    child_ids.push(x.id());
                    child_hashes.push(self.record_formula(x, Some(f.id())));
                }
                Child::E(x) => {
                    child_ids.push(x.id());
                    child_hashes.push(self.record_expr(x, Some(f.id())));
                }
            }
        }
        let sub = combine(local, child_hashes);
        self.record(
            f.id(),
            NodeInfo {
                local,
                sub,
                children: child_ids,
                parent,
                is_formula: true,
            },
        );
        sub
    }

    fn record_expr(&mut self, e: &Expr, parent: Option<NodeId>) -> u128 {
        let local = expr_local(e);
        let mut child_ids = Vec::new();
        let mut child_hashes = Vec::new();
        for c in expr_children(e) {
            match c {
                Child::F(x) => {
                    child_ids.push(x.id());
                    child_hashes.push(self.record_formula(x, Some(e.id())));
                }
                Child::E(x) => {
                    child_ids.push(x.id());
                    child_hashes.push(self.record_expr(x, Some(e.id())));
                }
            }
        }
        let sub = combine(local, child_hashes);
        self.record(
            e.id(),
            NodeInfo {
                local,
                sub,
                children: child_ids,
                parent,
                is_formula: false,
            },
        );
        sub
    }

    /// Fingerprint of the spec the hasher was built from; identical to
    /// [`spec_fingerprint`] on that spec.
    pub fn fingerprint(&self) -> Fingerprint {
        self.full
    }

    /// Memoized subtree hash of the node with the given id.
    pub fn subtree_hash(&self, id: NodeId) -> Option<u128> {
        self.nodes.get(&id).map(|n| n.sub)
    }

    /// Number of memoized nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Fingerprint of the candidate `replace_node(spec, target, payload)`
    /// would produce, computed by rehashing only the payload and the
    /// target-to-root path.
    ///
    /// Returns `None` when the target id is unknown, the payload kind does
    /// not match the node kind, or the base spec's ids were not well formed —
    /// callers fall back to a full [`spec_fingerprint`] of the edited spec.
    pub fn fingerprint_replaced(&self, target: NodeId, payload: &NodeRepl) -> Option<Fingerprint> {
        if !self.ids_ok {
            return None;
        }
        let info = self.nodes.get(&target)?;
        let mut cur_hash = match (payload, info.is_formula) {
            (NodeRepl::Formula(f), true) => formula_hash(f),
            (NodeRepl::Expr(e), false) => expr_hash(e),
            _ => return None,
        };
        let mut cur = target;
        while let Some(p) = self.nodes.get(&cur).and_then(|n| n.parent) {
            let pi = self.nodes.get(&p)?;
            let child_hashes: Vec<u128> = pi
                .children
                .iter()
                .map(|c| {
                    if *c == cur {
                        cur_hash
                    } else {
                        self.nodes[c].sub
                    }
                })
                .collect();
            cur_hash = combine(pi.local, child_hashes);
            cur = p;
        }
        let mut h = Fnv::new();
        h.u128v(self.frame);
        for r in &self.roots {
            h.u128v(if *r == cur {
                cur_hash
            } else {
                self.nodes[r].sub
            });
        }
        Some(Fingerprint(h.finish()))
    }

    /// Fingerprint of `candidate`, the spec `replace_node(spec, target,
    /// payload)` produced: the incremental rehash of
    /// [`SpecHasher::fingerprint_replaced`], or a full [`spec_fingerprint`]
    /// of `candidate` where that declines.
    pub fn fingerprint_edit(
        &self,
        candidate: &Spec,
        target: NodeId,
        payload: &NodeRepl,
    ) -> Fingerprint {
        self.fingerprint_replaced(target, payload)
            .unwrap_or_else(|| spec_fingerprint(candidate))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_spec;
    use crate::printer::print_spec;
    use crate::walk::{collect_sites, node_at, replace_node};

    #[test]
    fn span_insensitive() {
        let a = parse_spec("sig A { f: set A }\nfact { all x: A | x in x.f }").unwrap();
        let b =
            parse_spec("sig A  {  f :  set A }\n\n\nfact {\n  all x : A | x in x.f\n}").unwrap();
        assert_eq!(spec_fingerprint(&a), spec_fingerprint(&b));
    }

    #[test]
    fn id_insensitive() {
        let a = parse_spec("sig A {}\nfact { some A }").unwrap();
        let mut b = a.clone();
        // Shift every id; fingerprint must not move.
        let mut generator = crate::visit::NodeIdGenerator::starting_at(1000);
        for f in &mut b.facts[0].body {
            crate::visit::freshen_formula_ids(f, &mut generator);
        }
        assert_eq!(spec_fingerprint(&a), spec_fingerprint(&b));
    }

    #[test]
    fn alpha_sensitive() {
        let a = parse_spec("sig A { f: set A }\nfact { all x: A | some x.f }").unwrap();
        let b = parse_spec("sig A { f: set A }\nfact { all y: A | some y.f }").unwrap();
        assert_ne!(spec_fingerprint(&a), spec_fingerprint(&b));
        // And matches the canonical-print discipline.
        assert_ne!(print_spec(&a), print_spec(&b));
    }

    #[test]
    fn distinguishes_operator_and_structure() {
        let cases = [
            "fact { some A + B }",
            "fact { some A - B }",
            "fact { some A & B }",
            "fact { some A } fact { some B }",
            "fact { some A some B }",
        ];
        let header = "sig A {} sig B {}\n";
        let mut seen = std::collections::HashSet::new();
        for c in cases {
            let spec = parse_spec(&format!("{header}{c}")).unwrap();
            assert!(
                seen.insert(spec_fingerprint(&spec)),
                "collision for case {c}"
            );
        }
    }

    #[test]
    fn hasher_matches_full_fingerprint() {
        let spec = parse_spec(
            "sig A { f: set A }\n\
             fact Inv { all x: A | x in x.f }\n\
             pred p[a: A] { some a.f }\n\
             fun g[a: A]: set A { a.f }\n\
             assert Q { no A }\n\
             check Q for 3",
        )
        .unwrap();
        let hasher = SpecHasher::new(&spec);
        assert_eq!(hasher.fingerprint(), spec_fingerprint(&spec));
        assert_eq!(hasher.node_count(), collect_sites(&spec).len());
    }

    #[test]
    fn incremental_matches_full_on_every_site() {
        let spec = parse_spec(
            "sig A { f: set A }\n\
             fact Inv { all x: A | x in x.f }\n\
             pred p[a: A] { some a.f or no a.f }\n\
             assert Q { no A }\n\
             check Q for 3",
        )
        .unwrap();
        let hasher = SpecHasher::new(&spec);
        let payload_f = crate::parser::parse_formula("some A").unwrap();
        let payload_e = crate::parser::parse_expr("A.f").unwrap();
        for site in collect_sites(&spec) {
            let payload = if site.is_formula {
                NodeRepl::Formula(payload_f.clone())
            } else {
                NodeRepl::Expr(payload_e.clone())
            };
            let incremental = hasher.fingerprint_replaced(site.id, &payload).unwrap();
            let edited = replace_node(&spec, site.id, payload).unwrap();
            assert_eq!(
                incremental,
                spec_fingerprint(&edited),
                "mismatch at site {:?}",
                site.id
            );
        }
    }

    #[test]
    fn identity_replacement_keeps_fingerprint() {
        let spec = parse_spec("sig A { f: set A }\nfact { all x: A | x in x.f }").unwrap();
        let hasher = SpecHasher::new(&spec);
        for site in collect_sites(&spec) {
            let payload = node_at(&spec, site.id).unwrap();
            assert_eq!(
                hasher.fingerprint_replaced(site.id, &payload),
                Some(hasher.fingerprint())
            );
        }
    }

    #[test]
    fn wrong_kind_or_unknown_id_is_none() {
        let spec = parse_spec("sig A {}\nfact { some A }").unwrap();
        let hasher = SpecHasher::new(&spec);
        let sites = collect_sites(&spec);
        let fsite = sites.iter().find(|s| s.is_formula).unwrap();
        assert!(hasher
            .fingerprint_replaced(fsite.id, &NodeRepl::Expr(Expr::ident("A")))
            .is_none());
        assert!(hasher
            .fingerprint_replaced(NodeId(9999), &NodeRepl::Formula(Formula::truth()))
            .is_none());
        // `fingerprint_edit` then hashes the candidate it is given in full.
        let other = parse_spec("sig A {}\nfact { no A }").unwrap();
        assert_eq!(
            hasher.fingerprint_edit(&other, NodeId(9999), &NodeRepl::Formula(Formula::truth())),
            spec_fingerprint(&other)
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// hash-equal ⟺ canonical-print-equal — the exact contract the old
        /// `Oracle::fingerprint` (a full `print_spec`) provided.
        #[test]
        fn hash_equal_iff_print_equal(
            f in crate::testgen::arb_formula(3),
            g in crate::testgen::arb_formula(3),
        ) {
            let mk = |body: Formula| {
                let mut spec = Spec {
                    sigs: vec![SigDecl {
                        name: "A".into(),
                        is_abstract: false,
                        mult: None,
                        parent: None,
                        fields: vec![FieldDecl {
                            name: "f".into(),
                            cols: vec!["A".into()],
                            mult: Mult::Set,
                            span: Span::synthetic(),
                        }, FieldDecl {
                            name: "g".into(),
                            cols: vec!["A".into()],
                            mult: Mult::Set,
                            span: Span::synthetic(),
                        }],
                        span: Span::synthetic(),
                    }, SigDecl {
                        name: "B".into(),
                        is_abstract: false,
                        mult: None,
                        parent: None,
                        fields: vec![],
                        span: Span::synthetic(),
                    }],
                    facts: vec![Fact { name: "F".into(), body: vec![body], span: Span::synthetic() }],
                    ..Spec::default()
                };
                spec.assign_ids();
                spec
            };
            let a = mk(f);
            let b = mk(g);
            proptest::prop_assert_eq!(
                spec_fingerprint(&a) == spec_fingerprint(&b),
                print_spec(&a) == print_spec(&b)
            );
        }
    }
}
