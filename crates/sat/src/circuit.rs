//! Hash-consed boolean circuits with Tseitin CNF encoding.
//!
//! The μAlloy translator compiles relational formulas into a [`Circuit`] —
//! a DAG of AND/OR gates over input variables, with negation represented by
//! signed references. Structural hashing plus constant folding keep the
//! circuit compact before it is encoded into a [`Solver`] via the Tseitin
//! transformation.
//!
//! Interning is the hot path: a translation asks for far more gates than
//! it creates, because a quantifier body rebuilds the same gates once per
//! binding. A gate's children are folded (identity, absorbing, duplicate
//! and complementary children), sorted, and then looked up by the borrowed
//! child slice, so a hit allocates nothing. Two-child gates, the common
//! case, fold on the stack. Every path folds the same way and probes the
//! same table, so a gate gets the same node however it is asked for.

use crate::cnf::Lit;
use crate::solver::Solver;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A signed reference to a circuit node; negative means negated.
///
/// The constants are [`Circuit::TRUE`] and [`Circuit::FALSE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BoolRef(i32);

impl BoolRef {
    /// The negation of this reference.
    pub fn negate(self) -> BoolRef {
        BoolRef(-self.0)
    }

    fn node(self) -> usize {
        (self.0.unsigned_abs() as usize) - 1
    }

    fn is_negated(self) -> bool {
        self.0 < 0
    }
}

impl std::ops::Not for BoolRef {
    type Output = BoolRef;

    fn not(self) -> BoolRef {
        self.negate()
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Node {
    ConstTrue,
    Input(u32),
    And(Vec<BoolRef>),
    Or(Vec<BoolRef>),
}

/// A point in a [`Circuit`]'s growth, taken by [`Circuit::mark`] and
/// returned to by [`Circuit::truncate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CircuitMark {
    nodes: usize,
    inputs: u32,
}

/// A boolean circuit builder with structural sharing.
///
/// # Example
///
/// ```
/// use mualloy_sat::{Circuit, Solver, SolveResult};
///
/// let mut c = Circuit::new();
/// let x = c.input();
/// let y = c.input();
/// let both = c.and(x, y);
/// let root = c.or(both, !x);
/// let mut solver = Solver::new();
/// let inputs = c.encode(root, &mut solver);
/// assert!(solver.solve().is_sat());
/// assert_eq!(inputs.len(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    nodes: Vec<Node>,
    /// Hash-cons tables of the AND and OR gates, keyed by their sorted
    /// children.
    ands: GateTable,
    ors: GateTable,
    num_inputs: u32,
}

type GateTable = HashMap<Box<[BoolRef]>, i32, FxBuildHasher>;

/// Builds [`FxHasher`]s: the hasher of the circuit's hash-cons tables, fit
/// for any small integer key.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A multiply-rotate hasher in the style of Firefox's and rustc's
/// `FxHasher`: far cheaper than SipHash on integer keys, with no defence
/// against keys crafted to collide. Its keys are references and addresses
/// the program hands out itself, never input from outside.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.add(u64::from(b)));
    }

    fn write_i32(&mut self, i: i32) {
        self.add(u64::from(i as u32));
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        // The product's entropy sits in its high bits; the table indexes
        // buckets by the low ones.
        self.0.rotate_left(26)
    }
}

impl Circuit {
    /// The constant-true reference.
    pub const TRUE: BoolRef = BoolRef(1);
    /// The constant-false reference.
    pub const FALSE: BoolRef = BoolRef(-1);

    /// Creates an empty circuit.
    pub fn new() -> Circuit {
        let mut c = Circuit::default();
        c.nodes.push(Node::ConstTrue);
        c
    }

    /// Number of input variables allocated so far.
    pub fn num_inputs(&self) -> u32 {
        self.num_inputs
    }

    /// Number of nodes (gates + inputs + the constant).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Marks the circuit's current extent, for a later
    /// [`Circuit::truncate`].
    pub fn mark(&self) -> CircuitMark {
        CircuitMark {
            nodes: self.nodes.len(),
            inputs: self.num_inputs,
        }
    }

    /// Drops the nodes, hash-cons entries and inputs added since `mark`.
    ///
    /// The circuit is then the one it was at the mark: the next input or
    /// new gate gets the reference it would have got then, so gates built
    /// after truncating — and their Tseitin encoding — match those of a
    /// circuit that never grew past the mark. References handed out since
    /// the mark dangle.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is already smaller than at `mark`.
    pub fn truncate(&mut self, mark: CircuitMark) {
        assert!(
            mark.nodes <= self.nodes.len() && mark.inputs <= self.num_inputs,
            "circuit truncated past the mark"
        );
        for node in self.nodes.drain(mark.nodes..) {
            match node {
                Node::And(kids) => {
                    self.ands.remove(&kids[..]);
                }
                Node::Or(kids) => {
                    self.ors.remove(&kids[..]);
                }
                Node::ConstTrue | Node::Input(_) => {}
            }
        }
        self.num_inputs = mark.inputs;
    }

    /// Allocates a fresh input variable.
    pub fn input(&mut self) -> BoolRef {
        let id = self.num_inputs;
        self.num_inputs += 1;
        self.nodes.push(Node::Input(id));
        BoolRef(self.nodes.len() as i32)
    }

    /// Returns the input id if the reference is a (possibly negated) input.
    pub fn as_input(&self, r: BoolRef) -> Option<(u32, bool)> {
        match &self.nodes[r.node()] {
            Node::Input(id) => Some((*id, !r.is_negated())),
            _ => None,
        }
    }

    fn constant(value: bool) -> BoolRef {
        if value {
            Circuit::TRUE
        } else {
            Circuit::FALSE
        }
    }

    /// Whether the reference is the constant true/false.
    pub fn as_constant(&self, r: BoolRef) -> Option<bool> {
        if r == Circuit::TRUE {
            Some(true)
        } else if r == Circuit::FALSE {
            Some(false)
        } else {
            None
        }
    }

    fn mk_gate(&mut self, is_and: bool, mut children: Vec<BoolRef>) -> BoolRef {
        let absorbing = Circuit::constant(!is_and);
        let identity = Circuit::constant(is_and);
        children.retain(|&c| c != identity);
        if children.contains(&absorbing) {
            return absorbing;
        }
        children.sort_unstable();
        children.dedup();
        // Complementary pair detection (sorted so x and !x may not be
        // adjacent; scan pairwise via set membership).
        for i in 0..children.len() {
            if children[i..].binary_search(&children[i].negate()).is_ok()
                || children[..i].binary_search(&children[i].negate()).is_ok()
            {
                return absorbing;
            }
        }
        match children.len() {
            0 => identity,
            1 => children[0],
            _ => self.intern(is_and, children),
        }
    }

    /// The gate over `children` — sorted, deduplicated, free of constants
    /// and complementary pairs, at least two — creating it on a miss.
    fn intern(
        &mut self,
        is_and: bool,
        children: impl AsRef<[BoolRef]> + Into<Vec<BoolRef>>,
    ) -> BoolRef {
        let idx = self.nodes.len() as i32 + 1;
        let table = if is_and {
            &mut self.ands
        } else {
            &mut self.ors
        };
        if let Some(&found) = table.get(children.as_ref()) {
            return BoolRef(found);
        }
        let children: Vec<BoolRef> = children.into();
        table.insert(children.as_slice().into(), idx);
        self.nodes.push(if is_and {
            Node::And(children)
        } else {
            Node::Or(children)
        });
        BoolRef(idx)
    }

    /// [`Circuit::mk_gate`] over two children, folded on the stack.
    fn mk_gate2(&mut self, is_and: bool, a: BoolRef, b: BoolRef) -> BoolRef {
        let identity = Circuit::constant(is_and);
        if a == identity {
            return b;
        }
        if b == identity {
            return a;
        }
        let absorbing = !identity;
        if a == absorbing || b == absorbing || a == !b {
            return absorbing;
        }
        if a == b {
            return a;
        }
        self.intern(is_and, if a < b { [a, b] } else { [b, a] })
    }

    /// Conjunction of two references.
    pub fn and(&mut self, a: BoolRef, b: BoolRef) -> BoolRef {
        self.mk_gate2(true, a, b)
    }

    /// Disjunction of two references.
    pub fn or(&mut self, a: BoolRef, b: BoolRef) -> BoolRef {
        self.mk_gate2(false, a, b)
    }

    /// Conjunction of many references.
    pub fn and_many(&mut self, children: Vec<BoolRef>) -> BoolRef {
        self.mk_gate(true, children)
    }

    /// Disjunction of many references.
    pub fn or_many(&mut self, children: Vec<BoolRef>) -> BoolRef {
        self.mk_gate(false, children)
    }

    /// Implication `a -> b`.
    pub fn implies(&mut self, a: BoolRef, b: BoolRef) -> BoolRef {
        self.or(!a, b)
    }

    /// Biconditional `a <-> b`.
    pub fn iff(&mut self, a: BoolRef, b: BoolRef) -> BoolRef {
        let pos = self.or(!a, b);
        let neg = self.or(a, !b);
        self.and(pos, neg)
    }

    /// If-then-else `c ? t : e`.
    pub fn ite(&mut self, c: BoolRef, t: BoolRef, e: BoolRef) -> BoolRef {
        let pos = self.or(!c, t);
        let neg = self.or(c, e);
        self.and(pos, neg)
    }

    /// True iff at most one of `lits` is true (pairwise encoding).
    pub fn at_most_one(&mut self, lits: &[BoolRef]) -> BoolRef {
        let mut constraints = Vec::new();
        for i in 0..lits.len() {
            for j in (i + 1)..lits.len() {
                let pair = self.and(lits[i], lits[j]);
                constraints.push(!pair);
            }
        }
        self.and_many(constraints)
    }

    /// True iff exactly one of `lits` is true.
    pub fn exactly_one(&mut self, lits: &[BoolRef]) -> BoolRef {
        let amo = self.at_most_one(lits);
        let alo = self.or_many(lits.to_vec());
        self.and(amo, alo)
    }

    /// True iff at least `k` of `lits` are true (sequential-counter DP).
    pub fn count_ge(&mut self, lits: &[BoolRef], k: usize) -> BoolRef {
        if k == 0 {
            return Circuit::TRUE;
        }
        if k > lits.len() {
            return Circuit::FALSE;
        }
        // dp[j] = "at least j of the literals seen so far are true".
        let mut dp: Vec<BoolRef> = vec![Circuit::FALSE; k + 1];
        dp[0] = Circuit::TRUE;
        for &l in lits {
            for j in (1..=k).rev() {
                let carry = self.and(dp[j - 1], l);
                dp[j] = self.or(dp[j], carry);
            }
        }
        dp[k]
    }

    /// True iff exactly `k` of `lits` are true.
    pub fn count_eq(&mut self, lits: &[BoolRef], k: usize) -> BoolRef {
        let ge_k = self.count_ge(lits, k);
        let ge_k1 = self.count_ge(lits, k + 1);
        self.and(ge_k, !ge_k1)
    }

    /// Evaluates `root` under the given input assignment.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is shorter than [`Circuit::num_inputs`].
    pub fn eval(&self, root: BoolRef, inputs: &[bool]) -> bool {
        assert!(inputs.len() >= self.num_inputs as usize);
        let mut memo: Vec<Option<bool>> = vec![None; self.nodes.len()];
        self.eval_node(root, inputs, &mut memo)
    }

    fn eval_node(&self, r: BoolRef, inputs: &[bool], memo: &mut Vec<Option<bool>>) -> bool {
        let idx = r.node();
        let v = match memo[idx] {
            Some(v) => v,
            None => {
                let v = match &self.nodes[idx] {
                    Node::ConstTrue => true,
                    Node::Input(i) => inputs[*i as usize],
                    Node::And(cs) => cs.iter().all(|&c| self.eval_node(c, inputs, memo)),
                    Node::Or(cs) => cs.iter().any(|&c| self.eval_node(c, inputs, memo)),
                };
                memo[idx] = Some(v);
                v
            }
        };
        v != r.is_negated()
    }

    /// Tseitin-encodes the constraint `root = true` into `solver`.
    ///
    /// Returns, for each circuit input id, the solver literal representing
    /// it (so callers can decode models and add further constraints). Every
    /// input is allocated a solver variable even if unreachable from `root`,
    /// keeping input ids stable across multiple encodes.
    pub fn encode(&self, root: BoolRef, solver: &mut Solver) -> Vec<Lit> {
        let input_lits: Vec<Lit> = (0..self.num_inputs)
            .map(|_| solver.new_var().positive())
            .collect();
        if let Some(c) = self.as_constant(root) {
            if !c {
                // Assert falsity via an empty clause.
                solver.add_clause([]);
            }
            return input_lits;
        }
        let mut node_lit: Vec<Option<Lit>> = vec![None; self.nodes.len()];
        let root_lit = self.encode_node(root.node(), solver, &input_lits, &mut node_lit);
        let asserted = if root.is_negated() {
            !root_lit
        } else {
            root_lit
        };
        solver.add_clause([asserted]);
        input_lits
    }

    /// Tseitin-encodes `root` into `solver` **without asserting it**,
    /// returning the literal that is true iff the root holds.
    ///
    /// Unlike [`Circuit::encode`] this supports persistent sessions: the
    /// caller owns the `input_lits` and `node_lit` caches and passes them
    /// back on every call against the same (growing) circuit, so gates
    /// shared between successive roots are encoded exactly once and their
    /// definitional clauses stay in the solver. Inputs and gates added to
    /// the circuit since the previous call are allocated on demand;
    /// constant roots flow through the shared `ConstTrue` node instead of
    /// poisoning the solver with an empty clause.
    pub fn encode_literal(
        &self,
        root: BoolRef,
        solver: &mut Solver,
        input_lits: &mut Vec<Lit>,
        node_lit: &mut Vec<Option<Lit>>,
    ) -> Lit {
        while input_lits.len() < self.num_inputs as usize {
            input_lits.push(solver.new_var().positive());
        }
        node_lit.resize(self.nodes.len(), None);
        let lit = self.encode_node(root.node(), solver, input_lits, node_lit);
        if root.is_negated() {
            !lit
        } else {
            lit
        }
    }

    fn encode_node(
        &self,
        idx: usize,
        solver: &mut Solver,
        input_lits: &[Lit],
        node_lit: &mut Vec<Option<Lit>>,
    ) -> Lit {
        if let Some(l) = node_lit[idx] {
            return l;
        }
        let lit = match &self.nodes[idx] {
            Node::ConstTrue => {
                let v = solver.new_var();
                solver.add_clause([v.positive()]);
                v.positive()
            }
            Node::Input(i) => input_lits[*i as usize],
            Node::And(cs) | Node::Or(cs) => {
                for c in cs {
                    self.encode_node(c.node(), solver, input_lits, node_lit);
                }
                let child = |c: &BoolRef| {
                    let l = node_lit[c.node()].expect("children are encoded first");
                    if c.is_negated() {
                        !l
                    } else {
                        l
                    }
                };
                // AND: v -> ci for each child; (c1 & ... & cn) -> v. OR's
                // clauses are AND's with every literal negated: ci -> v;
                // v -> (c1 | ... | cn).
                let is_and = matches!(self.nodes[idx], Node::And(_));
                let pol = |l: Lit| if is_and { l } else { !l };
                let v = solver.new_var().positive();
                for c in cs {
                    solver.add_clause([pol(!v), pol(child(c))]);
                }
                solver.add_clause(std::iter::once(pol(v)).chain(cs.iter().map(|c| pol(!child(c)))));
                v
            }
        };
        node_lit[idx] = Some(lit);
        lit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolveResult;

    #[test]
    fn constant_folding() {
        let mut c = Circuit::new();
        let x = c.input();
        assert_eq!(c.and(x, Circuit::TRUE), x);
        assert_eq!(c.and(x, Circuit::FALSE), Circuit::FALSE);
        assert_eq!(c.or(x, Circuit::TRUE), Circuit::TRUE);
        assert_eq!(c.or(x, Circuit::FALSE), x);
        assert_eq!(c.and(x, !x), Circuit::FALSE);
        assert_eq!(c.or(x, !x), Circuit::TRUE);
        assert_eq!(c.and(x, x), x);
    }

    #[test]
    fn hash_consing_shares_structure() {
        let mut c = Circuit::new();
        let x = c.input();
        let y = c.input();
        let a = c.and(x, y);
        let b = c.and(y, x);
        assert_eq!(a, b);
    }

    /// `and`/`or` fold like `and_many`/`or_many` over the same children
    /// and find the same gate, whichever is asked first, including n-ary
    /// calls that fold down to two children.
    #[test]
    fn two_child_constructors_agree_with_the_n_ary_ones() {
        fn gate(c: &mut Circuit, is_and: bool, a: BoolRef, b: BoolRef) -> BoolRef {
            if is_and {
                c.and(a, b)
            } else {
                c.or(a, b)
            }
        }
        fn gate_many(c: &mut Circuit, is_and: bool, kids: Vec<BoolRef>) -> BoolRef {
            if is_and {
                c.and_many(kids)
            } else {
                c.or_many(kids)
            }
        }
        for two_first in [true, false] {
            let mut c = Circuit::new();
            let x = c.input();
            let y = c.input();
            let refs = [Circuit::TRUE, Circuit::FALSE, x, !x, y, !y];
            for &a in &refs {
                for &b in &refs {
                    for is_and in [true, false] {
                        let identity = Circuit::constant(is_and);
                        let (first, nodes) = if two_first {
                            (gate(&mut c, is_and, a, b), c.num_nodes())
                        } else {
                            (gate_many(&mut c, is_and, vec![a, b]), c.num_nodes())
                        };
                        let others = [
                            gate(&mut c, is_and, b, a),
                            gate_many(&mut c, is_and, vec![b, a]),
                            gate_many(&mut c, is_and, vec![a, identity, b]),
                            gate_many(&mut c, is_and, vec![identity, b, a, b, identity]),
                        ];
                        for other in others {
                            assert_eq!(other, first, "{a:?} {b:?} and={is_and}");
                        }
                        assert_eq!(c.num_nodes(), nodes, "{a:?} {b:?} and={is_and}");
                    }
                }
            }
        }
        let mut c = Circuit::new();
        let a = c.input();
        let b = c.input();
        let padded = c.and_many(vec![a, Circuit::TRUE, b]);
        let nodes = c.num_nodes();
        assert_eq!(c.and(b, a), padded);
        assert_eq!(c.or_many(vec![Circuit::FALSE, b, a, a]), c.or(a, b));
        assert_eq!(c.num_nodes(), nodes + 1);
        assert_eq!(c.and_many(vec![a, b, !a]), Circuit::FALSE);
        assert_eq!(c.or_many(vec![b, !b, a]), Circuit::TRUE);
        assert_eq!(c.and(a, !a), Circuit::FALSE);
        assert_eq!(c.or(!b, b), Circuit::TRUE);
        assert_eq!(c.num_nodes(), nodes + 1);
    }

    /// After a truncation, the two-child and n-ary paths both rebuild the
    /// dropped gates at the references a fresh circuit gives them.
    #[test]
    fn gates_rebuilt_after_truncating_get_a_fresh_circuits_refs() {
        fn program(c: &mut Circuit, xs: &[BoolRef]) -> Vec<BoolRef> {
            let g1 = c.and(xs[0], !xs[1]);
            let g2 = c.or_many(vec![xs[2], g1, !xs[0]]);
            let g3 = c.or(g2, xs[1]);
            let g4 = c.and_many(vec![g3, Circuit::TRUE, xs[2]]);
            vec![g1, g2, g3, g4, c.iff(g4, g1)]
        }
        let mut fresh = Circuit::new();
        let xs: Vec<BoolRef> = (0..3).map(|_| fresh.input()).collect();
        let want = program(&mut fresh, &xs);

        let mut c = Circuit::new();
        let xs: Vec<BoolRef> = (0..3).map(|_| c.input()).collect();
        let mark = c.mark();
        // Other gates first, so the program's gates land at other nodes.
        c.or(xs[1], !xs[2]);
        c.and_many(vec![xs[0], xs[1], xs[2]]);
        let shifted = program(&mut c, &xs);
        assert_ne!(shifted, want);
        c.truncate(mark);
        assert_eq!(program(&mut c, &xs), want);
        assert_eq!(c.num_nodes(), fresh.num_nodes());
    }

    #[test]
    fn de_morgan_via_eval() {
        let mut c = Circuit::new();
        let x = c.input();
        let y = c.input();
        let lhs = {
            let a = c.and(x, y);
            !a
        };
        let rhs = c.or(!x, !y);
        for ins in [[false, false], [false, true], [true, false], [true, true]] {
            assert_eq!(c.eval(lhs, &ins), c.eval(rhs, &ins));
        }
    }

    #[test]
    fn iff_and_ite_truth_tables() {
        let mut c = Circuit::new();
        let x = c.input();
        let y = c.input();
        let z = c.input();
        let iff = c.iff(x, y);
        let ite = c.ite(x, y, z);
        for xs in [false, true] {
            for ys in [false, true] {
                for zs in [false, true] {
                    let ins = [xs, ys, zs];
                    assert_eq!(c.eval(iff, &ins), xs == ys);
                    assert_eq!(c.eval(ite, &ins), if xs { ys } else { zs });
                }
            }
        }
    }

    #[test]
    fn counting_gates() {
        let mut c = Circuit::new();
        let xs: Vec<BoolRef> = (0..4).map(|_| c.input()).collect();
        let amo = c.at_most_one(&xs);
        let exo = c.exactly_one(&xs);
        let ge2 = c.count_ge(&xs, 2);
        let eq2 = c.count_eq(&xs, 2);
        for bits in 0..16u32 {
            let ins: Vec<bool> = (0..4).map(|i| bits & (1 << i) != 0).collect();
            let n = ins.iter().filter(|&&b| b).count();
            assert_eq!(c.eval(amo, &ins), n <= 1, "amo n={n}");
            assert_eq!(c.eval(exo, &ins), n == 1, "exo n={n}");
            assert_eq!(c.eval(ge2, &ins), n >= 2, "ge2 n={n}");
            assert_eq!(c.eval(eq2, &ins), n == 2, "eq2 n={n}");
        }
    }

    #[test]
    fn count_ge_edge_cases() {
        let mut c = Circuit::new();
        let xs: Vec<BoolRef> = (0..3).map(|_| c.input()).collect();
        assert_eq!(c.count_ge(&xs, 0), Circuit::TRUE);
        assert_eq!(c.count_ge(&xs, 4), Circuit::FALSE);
        assert_eq!(c.count_ge(&[], 0), Circuit::TRUE);
        assert_eq!(c.count_ge(&[], 1), Circuit::FALSE);
    }

    #[test]
    fn encode_agrees_with_eval() {
        // Exhaustively compare the SAT models of an encoded circuit against
        // direct evaluation.
        let mut c = Circuit::new();
        let xs: Vec<BoolRef> = (0..3).map(|_| c.input()).collect();
        let f1 = c.and(xs[0], !xs[1]);
        let f2 = c.iff(xs[1], xs[2]);
        let root = c.or(f1, f2);

        let mut sat_models = Vec::new();
        let mut solver = Solver::new();
        let inputs = c.encode(root, &mut solver);
        while let SolveResult::Sat(m) = solver.solve() {
            let assignment: Vec<bool> = inputs
                .iter()
                .map(|l| m[l.var().index()] == l.is_positive())
                .collect();
            sat_models.push(assignment.clone());
            let block: Vec<_> = inputs
                .iter()
                .zip(&assignment)
                .map(|(&l, &v)| if v { !l } else { l })
                .collect();
            if !solver.add_clause(block) {
                break;
            }
        }
        let mut expected = Vec::new();
        for bits in 0..8u32 {
            let ins: Vec<bool> = (0..3).map(|i| bits & (1 << i) != 0).collect();
            if c.eval(root, &ins) {
                expected.push(ins);
            }
        }
        sat_models.sort();
        expected.sort();
        assert_eq!(sat_models, expected);
    }

    #[test]
    fn encode_constant_roots() {
        let c = Circuit::new();
        let mut s = Solver::new();
        c.encode(Circuit::TRUE, &mut s);
        assert!(s.solve().is_sat());
        let mut s2 = Solver::new();
        c.encode(Circuit::FALSE, &mut s2);
        assert_eq!(s2.solve(), SolveResult::Unsat);
    }

    #[test]
    fn truncating_to_the_current_mark_is_a_no_op() {
        let mut c = Circuit::new();
        let x = c.input();
        let y = c.input();
        let both = c.and(x, y);
        let (nodes, inputs) = (c.num_nodes(), c.num_inputs());
        let mark = c.mark();
        c.truncate(mark);
        assert_eq!((c.num_nodes(), c.num_inputs()), (nodes, inputs));
        assert_eq!(c.mark(), mark);
        // The hash-cons entries survive: rebuilding the gate is a hit.
        assert_eq!(c.and(y, x), both);
        assert_eq!(c.num_nodes(), nodes);
    }

    #[test]
    #[should_panic(expected = "truncated past the mark")]
    fn truncating_past_a_mark_panics() {
        let mut c = Circuit::new();
        let start = c.mark();
        c.input();
        let later = c.mark();
        c.truncate(start);
        c.truncate(later);
    }

    #[test]
    fn unreferenced_inputs_still_get_literals() {
        let mut c = Circuit::new();
        let _x = c.input();
        let y = c.input();
        let mut s = Solver::new();
        let inputs = c.encode(y, &mut s);
        assert_eq!(inputs.len(), 2);
        assert!(s.solve().is_sat());
    }

    mod truncation {
        use super::*;
        use proptest::prelude::*;

        /// One step of a random gate program: a fresh input (kind 0) or an
        /// AND, OR or IFF gate over earlier references, each picked by
        /// index modulo the references built so far, possibly negated.
        type Step = (u8, Vec<(usize, bool)>);

        fn arb_program(len: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = Vec<Step>> {
            proptest::collection::vec(
                (
                    0u8..4,
                    proptest::collection::vec((any::<usize>(), any::<bool>()), 1..=4),
                ),
                len,
            )
        }

        /// Runs `program` on `c`, drawing children from `refs` and pushing
        /// every result onto it; returns the program's results.
        fn build(c: &mut Circuit, refs: &mut Vec<BoolRef>, program: &[Step]) -> Vec<BoolRef> {
            let mut out = Vec::with_capacity(program.len());
            for (kind, args) in program {
                let kids: Vec<BoolRef> = args
                    .iter()
                    .map(|&(i, negated)| {
                        let r = refs[i % refs.len()];
                        if negated {
                            !r
                        } else {
                            r
                        }
                    })
                    .collect();
                let r = match kind {
                    0 => c.input(),
                    1 => c.and_many(kids),
                    2 => c.or_many(kids),
                    _ => c.iff(kids[0], kids[kids.len() - 1]),
                };
                refs.push(r);
                out.push(r);
            }
            out
        }

        /// Encodes `root` into a fresh solver: its size and its answer.
        fn encoding(c: &Circuit, root: BoolRef) -> (usize, usize, SolveResult) {
            let mut solver = Solver::new();
            c.encode(root, &mut solver);
            (solver.num_vars(), solver.num_clauses(), solver.solve())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Building A, then throwaway gates C, truncating back to the
            /// mark taken after A and building B leaves exactly the circuit
            /// built by A then B alone: the same references for B, the same
            /// size, and the same Tseitin encoding and model for B's root.
            #[test]
            fn truncation_restores_the_circuit_at_the_mark(
                a in arb_program(0..=12),
                c_program in arb_program(0..=12),
                b in arb_program(1..=12),
            ) {
                let mut reference = Circuit::new();
                let mut refs = vec![Circuit::TRUE];
                build(&mut reference, &mut refs, &a);
                let want = build(&mut reference, &mut refs, &b);

                let mut reused = Circuit::new();
                let mut refs = vec![Circuit::TRUE];
                build(&mut reused, &mut refs, &a);
                let mark = reused.mark();
                // C repeats every gate of A (hash-cons hits returning A's
                // references), adds gates of its own, then runs B's program
                // at other node numbers: a hash-cons entry surviving the
                // truncation would hand B one of C's references.
                let a_nodes = reused.nodes[..mark.nodes].to_vec();
                for node in a_nodes {
                    let (kids, is_and) = match node {
                        Node::And(kids) => (kids, true),
                        Node::Or(kids) => (kids, false),
                        _ => continue,
                    };
                    let before = reused.num_nodes();
                    reused.mk_gate(is_and, kids);
                    prop_assert_eq!(reused.num_nodes(), before);
                }
                let mut c_refs = refs.clone();
                build(&mut reused, &mut c_refs, &c_program);
                build(&mut reused, &mut c_refs, &b);
                reused.truncate(mark);
                let got = build(&mut reused, &mut refs, &b);

                prop_assert_eq!(&got, &want);
                prop_assert_eq!(reused.num_nodes(), reference.num_nodes());
                prop_assert_eq!(reused.num_inputs(), reference.num_inputs());
                let root = want[want.len() - 1];
                prop_assert_eq!(encoding(&reused, root), encoding(&reference, root));
            }
        }
    }
}
