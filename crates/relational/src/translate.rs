//! Translation of μAlloy specifications into boolean circuits.
//!
//! The [`Translator`] mirrors Kodkod's architecture: the universe supplies
//! per-atom membership variables for signatures and per-tuple variables for
//! fields; relational expressions compile into [`Matrix`] values; formulas
//! compile into [`BoolRef`]s. The *base constraint* conjoins declaration
//! multiplicities, field bounds and every fact — every analysis conjoins it
//! with a command-specific formula.
//!
//! Quantifiers, comprehensions and `let`s are expanded: their bodies are
//! compiled once per binding. Within one top-level compile — a
//! [`Translator::compile_formula`] call, or one fact body — a subterm under
//! a binder that names none of the variables bound around it is compiled
//! once and then reused (Kodkod's translation cache). Recompiling it would
//! only hit the circuit's hash-cons table, so the reuse changes no gate, no
//! node number and no clause: the same gates, the same numbering, the same
//! CNF.

use mualloy_sat::{BoolRef, Circuit, FxBuildHasher};
use mualloy_syntax::ast::*;
use std::collections::{BTreeMap, HashMap};

use crate::elaborate::elaborate_spec;
use crate::error::TranslateError;
use crate::instance::Instance;
use crate::matrix::Matrix;
use crate::universe::Universe;

/// Hard cap on the entries fed to a counting gate, guarding against
/// accidentally huge cardinality comparisons.
const MAX_COUNT_ENTRIES: usize = 4096;

/// Environment mapping bound variable names to their compiled matrices.
type Env = BTreeMap<String, Matrix>;

/// The closed subterms under a binder in one top-level formula, keyed by
/// node address, each with its compiled value once known.
///
/// A subterm is closed when it names no variable bound around it, as
/// `^next` in `all n: N | n in n.^next`: every binding compiles it to the
/// same gates. The addresses stay valid because the formula is borrowed
/// for the whole top-level compile, and the cache is dropped when it
/// ends, before any [`Circuit::truncate`] can drop the gates it names.
#[derive(Debug, Default)]
struct ClosedSubterms {
    exprs: HashMap<usize, Option<Matrix>, FxBuildHasher>,
    formulas: HashMap<usize, Option<BoolRef>, FxBuildHasher>,
}

/// A node's address: its key in [`ClosedSubterms`].
fn addr<T>(node: &T) -> usize {
    std::ptr::from_ref(node).addr()
}

/// The binder index of a subterm that names no bound variable.
const UNBOUND: usize = usize::MAX;

/// Marks the closed subterms under a binder of one top-level formula.
///
/// Each visit returns the lowest index, on the stack of enclosing
/// binders, of a variable the subterm names. A subterm at stack depth `d`
/// is closed when that index is at least `d`: everything it names is
/// bound inside it, or is a signature or field.
struct Marker<'a, 'f> {
    bound: Vec<&'f str>,
    closed: &'a mut ClosedSubterms,
}

impl<'f> Marker<'_, 'f> {
    fn formula(&mut self, f: &'f Formula) -> usize {
        let depth = self.bound.len();
        let lowest = match f {
            Formula::Compare(_, l, r, _) => self.expr(l).min(self.expr(r)),
            Formula::IntCompare(_, l, r, _) => self.int_expr(l).min(self.int_expr(r)),
            Formula::Mult(_, e, _) => self.expr(e),
            Formula::Not(inner, _) => self.formula(inner),
            Formula::Binary(_, l, r, _) => self.formula(l).min(self.formula(r)),
            Formula::Quant(_, decls, body, _) => self.binder(decls, body),
            Formula::Let(name, e, body, _) => {
                let lowest = self.expr(e);
                self.bound.push(name);
                let body = self.formula(body);
                self.bound.pop();
                lowest.min(body)
            }
            Formula::PredCall(_, args, _) => self.exprs(args),
        };
        if depth > 0 && lowest >= depth {
            self.closed.formulas.insert(addr(f), None);
        }
        lowest
    }

    fn expr(&mut self, e: &'f Expr) -> usize {
        let depth = self.bound.len();
        let lowest = match e {
            Expr::Ident(name, _) => self
                .bound
                .iter()
                .rposition(|b| b == name)
                .unwrap_or(UNBOUND),
            Expr::Univ(_) | Expr::Iden(_) | Expr::None(_) => UNBOUND,
            Expr::Unary(_, inner, _) => self.expr(inner),
            Expr::Binary(_, l, r, _) => self.expr(l).min(self.expr(r)),
            Expr::Comprehension(decls, body, _) => self.binder(decls, body),
            Expr::IfThenElse(c, t, f, _) => self.formula(c).min(self.expr(t)).min(self.expr(f)),
            Expr::FunCall(_, args, _) => self.exprs(args),
        };
        if depth > 0 && lowest >= depth {
            self.closed.exprs.insert(addr(e), None);
        }
        lowest
    }

    fn exprs(&mut self, es: &'f [Expr]) -> usize {
        es.iter().map(|e| self.expr(e)).min().unwrap_or(UNBOUND)
    }

    fn int_expr(&mut self, e: &'f IntExpr) -> usize {
        match e {
            IntExpr::Card(e, _) => self.expr(e),
            IntExpr::Lit(..) => UNBOUND,
        }
    }

    /// Declarations bind one after another: each bound sees the variables
    /// declared before it, and the body sees them all.
    fn binder(&mut self, decls: &'f [VarDecl], body: &'f Formula) -> usize {
        let depth = self.bound.len();
        let mut lowest = UNBOUND;
        for d in decls {
            lowest = lowest.min(self.expr(&d.bound));
            self.bound.push(&d.name);
        }
        lowest = lowest.min(self.formula(body));
        self.bound.truncate(depth);
        lowest
    }
}

/// A specification translated into a boolean circuit.
#[derive(Debug)]
pub struct Translator {
    /// The circuit under construction (public so analyses can add gates).
    pub circuit: Circuit,
    universe: Universe,
    spec: Spec, // elaborated
    sig_matrices: BTreeMap<String, Matrix>,
    field_matrices: BTreeMap<String, Matrix>,
    /// Per-atom membership refs (input var, or constant TRUE for `one sig`).
    atom_member: Vec<BoolRef>,
    /// The current top-level compile's closed subterms.
    closed: ClosedSubterms,
    decls: BoolRef,
    base: BoolRef,
}

impl Translator {
    /// Elaborates `spec`, builds the universe at the given uniform scope and
    /// compiles the base constraint (declarations + facts).
    ///
    /// # Errors
    ///
    /// Fails on elaboration errors, malformed hierarchies or arity errors in
    /// fact bodies.
    pub fn new(spec: &Spec, scope: u32) -> Result<Translator, TranslateError> {
        let spec = elaborate_spec(spec)?;
        let universe = Universe::build(&spec, scope)?;
        let mut circuit = Circuit::new();

        // Membership variables per atom.
        let mut atom_member = Vec::with_capacity(universe.num_atoms() as usize);
        for atom in 0..universe.num_atoms() {
            let pool = universe.pool_of(atom);
            if pool.fixed {
                atom_member.push(Circuit::TRUE);
            } else {
                atom_member.push(circuit.input());
            }
        }

        // Signature matrices.
        let mut sig_matrices = BTreeMap::new();
        for sig in &spec.sigs {
            let mut m = Matrix::empty(1);
            if let Some(atoms) = universe.sig_atoms(&sig.name) {
                for &a in atoms {
                    m.set(&mut circuit, vec![a], atom_member[a as usize]);
                }
            }
            sig_matrices.insert(sig.name.clone(), m);
        }

        // Field matrices: one input per upper-bound tuple.
        let mut field_matrices = BTreeMap::new();
        for (owner, field) in spec.fields() {
            let mut cols: Vec<&[u32]> = Vec::with_capacity(field.arity());
            let owner_atoms = universe
                .sig_atoms(&owner.name)
                .ok_or_else(|| TranslateError::new(format!("unknown sig `{}`", owner.name)))?;
            cols.push(owner_atoms);
            for c in &field.cols {
                let atoms = universe.sig_atoms(c).ok_or_else(|| {
                    TranslateError::new(format!("unknown sig `{c}` in field `{}`", field.name))
                })?;
                cols.push(atoms);
            }
            let mut m = Matrix::empty(field.arity());
            let mut tuple = vec![0u32; field.arity()];
            fill_product(&cols, 0, &mut tuple, &mut |t| {
                let v = circuit.input();
                m.set(&mut circuit, t.to_vec(), v);
            });
            field_matrices.insert(field.name.clone(), m);
        }

        // The spec moves in once compiled, so compiling can borrow it
        // while the translator grows.
        let mut tr = Translator {
            circuit,
            universe,
            spec: Spec::default(),
            sig_matrices,
            field_matrices,
            atom_member,
            closed: ClosedSubterms::default(),
            decls: Circuit::TRUE,
            base: Circuit::TRUE,
        };
        let decls = tr.compile_declarations(&spec)?;
        let facts = tr.compile_facts(&spec)?;
        tr.spec = spec;
        tr.decls = decls;
        tr.base = tr.circuit.and(decls, facts);
        Ok(tr)
    }

    /// The universe the translation is bounded by.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// The elaborated specification.
    pub fn spec(&self) -> &Spec {
        &self.spec
    }

    /// The base constraint: declaration semantics plus all facts.
    pub fn base_constraint(&self) -> BoolRef {
        self.base
    }

    /// The declaration constraint alone (multiplicities and field bounds),
    /// without any fact. Incremental sessions pin this spec-independent
    /// skeleton once and conjoin per-candidate fact bodies separately.
    pub fn decl_constraint(&self) -> BoolRef {
        self.decls
    }

    /// Compiles a closed formula (no free variables) against this
    /// translation. The formula must already be elaborated — formulas taken
    /// from [`Translator::spec`] or produced by
    /// [`crate::elaborate::elaborate_formula`] qualify.
    ///
    /// # Errors
    ///
    /// Fails on unknown names, arity mismatches or remaining calls.
    pub fn compile_formula(&mut self, f: &Formula) -> Result<BoolRef, TranslateError> {
        Marker {
            bound: Vec::new(),
            closed: &mut self.closed,
        }
        .formula(f);
        let out = self.formula(f, &Env::new());
        self.closed = ClosedSubterms::default();
        out
    }

    /// Decodes a model's input-variable values into a concrete [`Instance`].
    ///
    /// `input_values[i]` must be the value of circuit input `i` (callers
    /// obtain this by mapping [`Circuit::encode`]'s literals through the SAT
    /// model).
    pub fn decode(&self, input_values: &[bool]) -> Instance {
        let read = |r: BoolRef, c: &Circuit| -> bool {
            if let Some(b) = c.as_constant(r) {
                b
            } else if let Some((id, pos)) = c.as_input(r) {
                input_values[id as usize] == pos
            } else {
                // Non-input entry (from a defined matrix) — evaluate.
                c.eval(r, input_values)
            }
        };
        let atom_names: Vec<String> = (0..self.universe.num_atoms())
            .map(|a| self.universe.atom_name(a).to_string())
            .collect();
        let mut inst = Instance::new(atom_names);
        for (name, m) in &self.sig_matrices {
            let atoms = m
                .iter()
                .filter(|&(_, v)| read(v, &self.circuit))
                .map(|(t, _)| t[0])
                .collect();
            inst.set_sig(name.clone(), atoms);
        }
        for (name, m) in &self.field_matrices {
            let tuples = m
                .iter()
                .filter(|&(_, v)| read(v, &self.circuit))
                .map(|(t, _)| t.clone())
                .collect();
            inst.set_field(name.clone(), tuples);
        }
        inst
    }

    // -------------------------------------------------------- declarations

    fn compile_declarations(&mut self, spec: &Spec) -> Result<BoolRef, TranslateError> {
        let mut constraints = Vec::new();

        // Signature multiplicities (`one` handled by fixed pools).
        for sig in &spec.sigs {
            let vals = self.sig_matrices[&sig.name].values();
            match sig.mult {
                Some(SigMult::Lone) => {
                    let amo = self.count_at_most(&vals, 1)?;
                    constraints.push(amo);
                }
                Some(SigMult::Some) => {
                    constraints.push(self.circuit.or_many(vals));
                }
                Some(SigMult::One) if !self.universe.pool_of_sig_fixed(&sig.name) => {
                    // `one sig` over a non-fixed pool cannot happen (the
                    // universe allocates a fixed singleton); defensive only.
                    let eq1 = self.circuit.count_eq(&vals, 1);
                    constraints.push(eq1);
                }
                _ => {}
            }
        }

        // Field bounds and multiplicities.
        for (owner, field) in spec.fields() {
            // A shared handle on the field's matrix, not a copy.
            let fm = self.field_matrices[&field.name].clone();
            // Tuple membership implies column membership.
            let mut col_sigs: Vec<&str> = vec![owner.name.as_str()];
            for c in &field.cols {
                col_sigs.push(c.as_str());
            }
            for (t, v) in fm.iter() {
                let mut guards = Vec::with_capacity(t.len());
                for (i, &atom) in t.iter().enumerate() {
                    guards.push(self.sig_matrices[col_sigs[i]].get(&[atom]));
                }
                let all_in = self.circuit.and_many(guards);
                constraints.push(self.circuit.implies(v, all_in));
            }
            // Multiplicity on the last column.
            if field.mult != Mult::Set {
                let prefix_sigs = &col_sigs[..col_sigs.len() - 1];
                let last_sig = col_sigs[col_sigs.len() - 1];
                let prefix_atoms: Vec<Vec<u32>> = prefix_sigs
                    .iter()
                    .map(|s| self.universe.sig_atoms(s).unwrap_or(&[]).to_vec())
                    .collect();
                let last_atoms: Vec<u32> =
                    self.universe.sig_atoms(last_sig).unwrap_or(&[]).to_vec();
                let prefix_refs: Vec<&[u32]> = prefix_atoms.iter().map(|v| v.as_slice()).collect();
                let mut prefix = vec![0u32; prefix_refs.len()];
                let mut jobs: Vec<Vec<u32>> = Vec::new();
                fill_product(&prefix_refs, 0, &mut prefix, &mut |t| {
                    jobs.push(t.to_vec());
                });
                for prefix_tuple in jobs {
                    let mut guards = Vec::new();
                    for (i, &atom) in prefix_tuple.iter().enumerate() {
                        guards.push(self.sig_matrices[prefix_sigs[i]].get(&[atom]));
                    }
                    let guard = self.circuit.and_many(guards);
                    let mut slot_vals = Vec::with_capacity(last_atoms.len());
                    for &last in &last_atoms {
                        let mut full = prefix_tuple.clone();
                        full.push(last);
                        slot_vals.push(fm.get(&full));
                    }
                    let mult_ok = match field.mult {
                        Mult::One => self.circuit.exactly_one(&slot_vals),
                        Mult::Lone => self.count_at_most(&slot_vals, 1)?,
                        Mult::Some => self.circuit.or_many(slot_vals),
                        Mult::Set => unreachable!("filtered above"),
                    };
                    constraints.push(self.circuit.implies(guard, mult_ok));
                }
            }
        }

        Ok(self.circuit.and_many(constraints))
    }

    fn compile_facts(&mut self, spec: &Spec) -> Result<BoolRef, TranslateError> {
        let mut conj = Vec::new();
        for f in spec.facts.iter().flat_map(|fact| &fact.body) {
            conj.push(self.compile_formula(f)?);
        }
        Ok(self.circuit.and_many(conj))
    }

    // ------------------------------------------------------------ formulas

    /// Compiles `f`, or reuses its gate if it is a closed subterm compiled
    /// before in this top-level compile.
    fn formula(&mut self, f: &Formula, env: &Env) -> Result<BoolRef, TranslateError> {
        if env.is_empty() {
            return self.formula_uncached(f, env);
        }
        let key = addr(f);
        match self.closed.formulas.get(&key).copied() {
            None => self.formula_uncached(f, env),
            Some(Some(gate)) => Ok(gate),
            Some(None) => {
                let gate = self.formula_uncached(f, env)?;
                self.closed.formulas.insert(key, Some(gate));
                Ok(gate)
            }
        }
    }

    fn formula_uncached(&mut self, f: &Formula, env: &Env) -> Result<BoolRef, TranslateError> {
        match f {
            Formula::Compare(op, l, r, _) => {
                let lm = self.expr(l, env)?;
                let rm = self.expr(r, env)?;
                match op {
                    CmpOp::In => lm.subset_of(&rm, &mut self.circuit),
                    CmpOp::NotIn => {
                        let s = lm.subset_of(&rm, &mut self.circuit)?;
                        Ok(!s)
                    }
                    CmpOp::Eq => {
                        let a = lm.subset_of(&rm, &mut self.circuit)?;
                        let b = rm.subset_of(&lm, &mut self.circuit)?;
                        Ok(self.circuit.and(a, b))
                    }
                    CmpOp::Neq => {
                        let a = lm.subset_of(&rm, &mut self.circuit)?;
                        let b = rm.subset_of(&lm, &mut self.circuit)?;
                        let eq = self.circuit.and(a, b);
                        Ok(!eq)
                    }
                }
            }
            Formula::IntCompare(op, l, r, _) => self.int_compare(*op, l, r, env),
            Formula::Mult(op, e, _) => {
                let m = self.expr(e, env)?;
                let vals = m.values();
                match op {
                    MultOp::Some => Ok(self.circuit.or_many(vals)),
                    MultOp::No => {
                        let some = self.circuit.or_many(vals);
                        Ok(!some)
                    }
                    MultOp::Lone => self.count_at_most(&vals, 1),
                    MultOp::One => {
                        let amo = self.count_at_most(&vals, 1)?;
                        let alo = self.circuit.or_many(vals);
                        Ok(self.circuit.and(amo, alo))
                    }
                }
            }
            Formula::Not(inner, _) => {
                let v = self.formula(inner, env)?;
                Ok(!v)
            }
            Formula::Binary(op, l, r, _) => {
                let lv = self.formula(l, env)?;
                let rv = self.formula(r, env)?;
                Ok(match op {
                    BinFormOp::And => self.circuit.and(lv, rv),
                    BinFormOp::Or => self.circuit.or(lv, rv),
                    BinFormOp::Implies => self.circuit.implies(lv, rv),
                    BinFormOp::Iff => self.circuit.iff(lv, rv),
                })
            }
            Formula::Quant(q, decls, body, _) => self.quant(*q, decls, body, env),
            Formula::Let(name, e, body, _) => {
                let m = self.expr(e, env)?;
                let mut env2 = env.clone();
                env2.insert(name.clone(), m);
                self.formula(body, &env2)
            }
            Formula::PredCall(name, _, _) => Err(TranslateError::new(format!(
                "unexpanded predicate call `{name}` (formula must be elaborated first)"
            ))),
        }
    }

    fn quant(
        &mut self,
        q: Quant,
        decls: &[VarDecl],
        body: &Formula,
        env: &Env,
    ) -> Result<BoolRef, TranslateError> {
        match q {
            Quant::All => {
                let mut clauses = Vec::new();
                self.expand_all(decls, body, env, Circuit::TRUE, &mut clauses)?;
                Ok(self.circuit.and_many(clauses))
            }
            Quant::Some => {
                let mut cases = Vec::new();
                self.expand_some(decls, body, env, Circuit::TRUE, &mut cases)?;
                Ok(self.circuit.or_many(cases))
            }
            Quant::No => {
                let mut cases = Vec::new();
                self.expand_some(decls, body, env, Circuit::TRUE, &mut cases)?;
                let some = self.circuit.or_many(cases);
                Ok(!some)
            }
            Quant::Lone => {
                let mut cases = Vec::new();
                self.expand_some(decls, body, env, Circuit::TRUE, &mut cases)?;
                self.count_at_most(&cases, 1)
            }
            Quant::One => {
                let mut cases = Vec::new();
                self.expand_some(decls, body, env, Circuit::TRUE, &mut cases)?;
                let amo = self.count_at_most(&cases, 1)?;
                let alo = self.circuit.or_many(cases);
                Ok(self.circuit.and(amo, alo))
            }
        }
    }

    /// Expands `all decls | body`, pushing one `guard -> body` clause per
    /// atom combination.
    fn expand_all(
        &mut self,
        decls: &[VarDecl],
        body: &Formula,
        env: &Env,
        guard: BoolRef,
        out: &mut Vec<BoolRef>,
    ) -> Result<(), TranslateError> {
        match decls.split_first() {
            None => {
                let b = self.formula(body, env)?;
                out.push(self.circuit.implies(guard, b));
                Ok(())
            }
            Some((d, rest)) => {
                let bound = self.expr(&d.bound, env)?;
                if bound.arity() != 1 {
                    return Err(TranslateError::new(format!(
                        "quantifier bound for `{}` must be unary",
                        d.name
                    )));
                }
                for (t, v) in bound.iter() {
                    let atom = t[0];
                    let guard2 = self.circuit.and(guard, v);
                    if guard2 == Circuit::FALSE {
                        continue;
                    }
                    let mut env2 = env.clone();
                    env2.insert(d.name.clone(), Matrix::singleton(atom));
                    self.expand_all(rest, body, &env2, guard2, out)?;
                }
                Ok(())
            }
        }
    }

    /// Expands `some decls | body`, pushing one `guard && body` case per
    /// atom combination (also used for `no`/`lone`/`one` via counting).
    fn expand_some(
        &mut self,
        decls: &[VarDecl],
        body: &Formula,
        env: &Env,
        guard: BoolRef,
        out: &mut Vec<BoolRef>,
    ) -> Result<(), TranslateError> {
        match decls.split_first() {
            None => {
                let b = self.formula(body, env)?;
                out.push(self.circuit.and(guard, b));
                Ok(())
            }
            Some((d, rest)) => {
                let bound = self.expr(&d.bound, env)?;
                if bound.arity() != 1 {
                    return Err(TranslateError::new(format!(
                        "quantifier bound for `{}` must be unary",
                        d.name
                    )));
                }
                for (t, v) in bound.iter() {
                    let atom = t[0];
                    let guard2 = self.circuit.and(guard, v);
                    if guard2 == Circuit::FALSE {
                        continue;
                    }
                    let mut env2 = env.clone();
                    env2.insert(d.name.clone(), Matrix::singleton(atom));
                    self.expand_some(rest, body, &env2, guard2, out)?;
                }
                Ok(())
            }
        }
    }

    fn int_compare(
        &mut self,
        op: IntCmpOp,
        l: &IntExpr,
        r: &IntExpr,
        env: &Env,
    ) -> Result<BoolRef, TranslateError> {
        match (l, r) {
            (IntExpr::Lit(a, _), IntExpr::Lit(b, _)) => {
                let holds = match op {
                    IntCmpOp::Eq => a == b,
                    IntCmpOp::Neq => a != b,
                    IntCmpOp::Lt => a < b,
                    IntCmpOp::Gt => a > b,
                    IntCmpOp::Le => a <= b,
                    IntCmpOp::Ge => a >= b,
                };
                Ok(if holds { Circuit::TRUE } else { Circuit::FALSE })
            }
            (IntExpr::Card(e, _), IntExpr::Lit(k, _)) => {
                let vals = self.card_values(e, env)?;
                self.count_vs_constant(&vals, op, *k)
            }
            (IntExpr::Lit(k, _), IntExpr::Card(e, _)) => {
                let vals = self.card_values(e, env)?;
                self.count_vs_constant(&vals, flip(op), *k)
            }
            (IntExpr::Card(a, _), IntExpr::Card(b, _)) => {
                let av = self.card_values(a, env)?;
                let bv = self.card_values(b, env)?;
                // #a <= #b  ==  forall j: (#a >= j) -> (#b >= j).
                let le = |this: &mut Self, x: &[BoolRef], y: &[BoolRef]| {
                    let mut conj = Vec::new();
                    for j in 1..=x.len() {
                        let gx = this.circuit.count_ge(x, j);
                        let gy = this.circuit.count_ge(y, j);
                        conj.push(this.circuit.implies(gx, gy));
                    }
                    this.circuit.and_many(conj)
                };
                Ok(match op {
                    IntCmpOp::Le => le(self, &av, &bv),
                    IntCmpOp::Ge => le(self, &bv, &av),
                    IntCmpOp::Eq => {
                        let x = le(self, &av, &bv);
                        let y = le(self, &bv, &av);
                        self.circuit.and(x, y)
                    }
                    IntCmpOp::Neq => {
                        let x = le(self, &av, &bv);
                        let y = le(self, &bv, &av);
                        let eq = self.circuit.and(x, y);
                        !eq
                    }
                    IntCmpOp::Lt => {
                        let x = le(self, &av, &bv);
                        let y = le(self, &bv, &av);
                        self.circuit.and(x, !y)
                    }
                    IntCmpOp::Gt => {
                        let x = le(self, &bv, &av);
                        let y = le(self, &av, &bv);
                        self.circuit.and(x, !y)
                    }
                })
            }
        }
    }

    fn card_values(&mut self, e: &Expr, env: &Env) -> Result<Vec<BoolRef>, TranslateError> {
        let m = self.expr(e, env)?;
        let vals = m.values();
        if vals.len() > MAX_COUNT_ENTRIES {
            return Err(TranslateError::new(format!(
                "cardinality over {} entries exceeds the {MAX_COUNT_ENTRIES} limit",
                vals.len()
            )));
        }
        Ok(vals)
    }

    fn count_vs_constant(
        &mut self,
        vals: &[BoolRef],
        op: IntCmpOp,
        k: i64,
    ) -> Result<BoolRef, TranslateError> {
        let ge = |this: &mut Self, j: i64| -> BoolRef {
            if j <= 0 {
                Circuit::TRUE
            } else {
                this.circuit.count_ge(vals, j as usize)
            }
        };
        Ok(match op {
            IntCmpOp::Eq => {
                let a = ge(self, k);
                let b = ge(self, k + 1);
                self.circuit.and(a, !b)
            }
            IntCmpOp::Neq => {
                let a = ge(self, k);
                let b = ge(self, k + 1);
                let eq = self.circuit.and(a, !b);
                !eq
            }
            IntCmpOp::Lt => !ge(self, k),
            IntCmpOp::Gt => ge(self, k + 1),
            IntCmpOp::Le => !ge(self, k + 1),
            IntCmpOp::Ge => ge(self, k),
        })
    }

    fn count_at_most(&mut self, vals: &[BoolRef], k: usize) -> Result<BoolRef, TranslateError> {
        if vals.len() > MAX_COUNT_ENTRIES {
            return Err(TranslateError::new(format!(
                "multiplicity over {} entries exceeds the {MAX_COUNT_ENTRIES} limit",
                vals.len()
            )));
        }
        let ge = self.circuit.count_ge(vals, k + 1);
        Ok(!ge)
    }

    // --------------------------------------------------------- expressions

    /// Compiles `e`, or shares its matrix if it is a closed subterm
    /// compiled before in this top-level compile.
    fn expr(&mut self, e: &Expr, env: &Env) -> Result<Matrix, TranslateError> {
        if env.is_empty() {
            return self.expr_uncached(e, env);
        }
        let key = addr(e);
        match self.closed.exprs.get(&key).cloned() {
            None => self.expr_uncached(e, env),
            Some(Some(m)) => Ok(m),
            Some(None) => {
                let m = self.expr_uncached(e, env)?;
                self.closed.exprs.insert(key, Some(m.clone()));
                Ok(m)
            }
        }
    }

    fn expr_uncached(&mut self, e: &Expr, env: &Env) -> Result<Matrix, TranslateError> {
        match e {
            Expr::Ident(name, _) => {
                if let Some(m) = env.get(name) {
                    return Ok(m.clone());
                }
                if let Some(m) = self.sig_matrices.get(name) {
                    return Ok(m.clone());
                }
                if let Some(m) = self.field_matrices.get(name) {
                    return Ok(m.clone());
                }
                Err(TranslateError::new(format!("unknown name `{name}`")))
            }
            Expr::Univ(_) => Ok(self.univ_matrix()),
            Expr::Iden(_) => Ok(self.iden_matrix()),
            Expr::None(_) => Ok(Matrix::empty(1)),
            Expr::Unary(op, inner, _) => {
                let m = self.expr(inner, env)?;
                match op {
                    UnExprOp::Transpose => m.transpose(),
                    UnExprOp::Closure => m.closure(&mut self.circuit),
                    UnExprOp::ReflClosure => {
                        let iden = self.iden_matrix();
                        m.reflexive_closure(&iden, &mut self.circuit)
                    }
                }
            }
            Expr::Binary(op, l, r, _) => {
                let lm = self.expr(l, env)?;
                let rm = self.expr(r, env)?;
                match op {
                    BinExprOp::Union => lm.union(&rm, &mut self.circuit),
                    BinExprOp::Diff => lm.difference(&rm, &mut self.circuit),
                    BinExprOp::Intersect => lm.intersect(&rm, &mut self.circuit),
                    BinExprOp::Join => lm.join(&rm, &mut self.circuit),
                    BinExprOp::Product => Ok(lm.product(&rm, &mut self.circuit)),
                    BinExprOp::Override => lm.override_with(&rm, &mut self.circuit),
                    BinExprOp::DomRestrict => rm.domain_restrict(&lm, &mut self.circuit),
                    BinExprOp::RanRestrict => lm.range_restrict(&rm, &mut self.circuit),
                }
            }
            Expr::Comprehension(decls, body, _) => self.comprehension(decls, body, env),
            Expr::IfThenElse(c, t, f, _) => {
                let cond = self.formula(c, env)?;
                let tm = self.expr(t, env)?;
                let fm = self.expr(f, env)?;
                if tm.arity() != fm.arity() {
                    return Err(TranslateError::new(
                        "conditional expression branches have different arities",
                    ));
                }
                let mut out = Matrix::empty(tm.arity());
                let mut tuples: std::collections::BTreeSet<Vec<u32>> =
                    std::collections::BTreeSet::new();
                for (t, _) in tm.iter() {
                    tuples.insert(t.clone());
                }
                for (t, _) in fm.iter() {
                    tuples.insert(t.clone());
                }
                for t in tuples {
                    let tv = tm.get(&t);
                    let fv = fm.get(&t);
                    let v = self.circuit.ite(cond, tv, fv);
                    out.set(&mut self.circuit, t, v);
                }
                Ok(out)
            }
            Expr::FunCall(name, _, _) => Err(TranslateError::new(format!(
                "unexpanded application `{name}[..]` (expression must be elaborated first)"
            ))),
        }
    }

    fn comprehension(
        &mut self,
        decls: &[VarDecl],
        body: &Formula,
        env: &Env,
    ) -> Result<Matrix, TranslateError> {
        let mut out = Matrix::empty(decls.len().max(1));
        let mut stack: Vec<(usize, Env, BoolRef, Vec<u32>)> =
            vec![(0, env.clone(), Circuit::TRUE, Vec::new())];
        while let Some((i, env_i, guard, tuple)) = stack.pop() {
            if i == decls.len() {
                let b = self.formula(body, &env_i)?;
                let v = self.circuit.and(guard, b);
                out.set(&mut self.circuit, tuple, v);
                continue;
            }
            let bound = self.expr(&decls[i].bound, &env_i)?;
            if bound.arity() != 1 {
                return Err(TranslateError::new(format!(
                    "comprehension bound for `{}` must be unary",
                    decls[i].name
                )));
            }
            for (t, v) in bound.iter() {
                let atom = t[0];
                let guard2 = self.circuit.and(guard, v);
                if guard2 == Circuit::FALSE {
                    continue;
                }
                let mut env2 = env_i.clone();
                env2.insert(decls[i].name.clone(), Matrix::singleton(atom));
                let mut tuple2 = tuple.clone();
                tuple2.push(atom);
                stack.push((i + 1, env2, guard2, tuple2));
            }
        }
        Ok(out)
    }

    fn univ_matrix(&mut self) -> Matrix {
        let mut m = Matrix::empty(1);
        for atom in 0..self.universe.num_atoms() {
            m.set(
                &mut self.circuit,
                vec![atom],
                self.atom_member[atom as usize],
            );
        }
        m
    }

    fn iden_matrix(&mut self) -> Matrix {
        let mut m = Matrix::empty(2);
        for atom in 0..self.universe.num_atoms() {
            m.set(
                &mut self.circuit,
                vec![atom, atom],
                self.atom_member[atom as usize],
            );
        }
        m
    }
}

impl Universe {
    /// Whether the (single) pool of the named signature is fixed.
    fn pool_of_sig_fixed(&self, sig: &str) -> bool {
        self.pools().iter().any(|p| p.sig == sig && p.fixed)
    }
}

/// Mirrors a comparison operator: `a op b` iff `b (flip op) a`.
fn flip(op: IntCmpOp) -> IntCmpOp {
    match op {
        IntCmpOp::Eq => IntCmpOp::Eq,
        IntCmpOp::Neq => IntCmpOp::Neq,
        IntCmpOp::Lt => IntCmpOp::Gt,
        IntCmpOp::Gt => IntCmpOp::Lt,
        IntCmpOp::Le => IntCmpOp::Ge,
        IntCmpOp::Ge => IntCmpOp::Le,
    }
}

fn fill_product(cols: &[&[u32]], idx: usize, tuple: &mut Vec<u32>, f: &mut impl FnMut(&[u32])) {
    if idx == cols.len() {
        f(tuple);
        return;
    }
    for &a in cols[idx] {
        tuple[idx] = a;
        fill_product(cols, idx + 1, tuple, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mualloy_sat::{SolveResult, Solver};
    use mualloy_syntax::parse_spec;

    /// Solves base && formula, returning the decoded instance if SAT.
    fn solve_with(spec_src: &str, formula_src: Option<&str>, scope: u32) -> Option<Instance> {
        let spec = parse_spec(spec_src).unwrap();
        let mut tr = Translator::new(&spec, scope).unwrap();
        let mut root = tr.base_constraint();
        if let Some(fsrc) = formula_src {
            let f = mualloy_syntax::parse_formula(fsrc).unwrap();
            let f = crate::elaborate::elaborate_formula(tr.spec(), &f).unwrap();
            let fv = tr.compile_formula(&f).unwrap();
            root = tr.circuit.and(root, fv);
        }
        let mut solver = Solver::new();
        let inputs = tr.circuit.encode(root, &mut solver);
        match solver.solve() {
            SolveResult::Sat(m) => {
                let vals: Vec<bool> = inputs
                    .iter()
                    .map(|l| m[l.var().index()] == l.is_positive())
                    .collect();
                Some(tr.decode(&vals))
            }
            SolveResult::Unsat => None,
        }
    }

    /// Enumerates every instance of base ∧ `formula` and of base ∧
    /// ¬`formula` at `scope`: the ground evaluator must agree on each, and
    /// both sides must have one, so every binding's compile is exercised.
    fn agrees_with_evaluator(spec_src: &str, formula_src: &str, scope: u32) {
        let spec = parse_spec(spec_src).unwrap();
        let f = mualloy_syntax::parse_formula(formula_src).unwrap();
        for holds in [true, false] {
            let mut tr = Translator::new(&spec, scope).unwrap();
            let f = crate::elaborate::elaborate_formula(tr.spec(), &f).unwrap();
            let fv = tr.compile_formula(&f).unwrap();
            let goal = if holds { fv } else { !fv };
            let root = tr.circuit.and(tr.base_constraint(), goal);
            let mut solver = Solver::new();
            let inputs = tr.circuit.encode(root, &mut solver);
            let mut instances = 0;
            while let SolveResult::Sat(m) = solver.solve() {
                let vals: Vec<bool> = inputs
                    .iter()
                    .map(|l| m[l.var().index()] == l.is_positive())
                    .collect();
                let inst = tr.decode(&vals);
                let ground = crate::eval::Evaluator::new(&inst).formula(&f).unwrap();
                assert_eq!(ground, holds, "`{formula_src}` on {inst:?}");
                instances += 1;
                let block: Vec<_> = inputs
                    .iter()
                    .zip(&vals)
                    .map(|(&l, &v)| if v { !l } else { l })
                    .collect();
                if !solver.add_clause(block) {
                    break;
                }
            }
            assert!(instances > 0, "`{formula_src}` is never {holds}");
        }
    }

    /// 440 instances at scope 2.
    const GRAPH: &str = "sig A { r: set A } sig B { s: set A }";

    #[test]
    fn shadowed_quantifier_variables_agree_with_the_evaluator() {
        // The inner `x` is bound by `x.r`, which names the outer `x`; the
        // body's `x.r` names the inner one.
        agrees_with_evaluator(GRAPH, "some x: A | (all x: x.r | no x.r) and some x.r", 2);
        agrees_with_evaluator(GRAPH, "all x: A | all y: x.r | some x: y.r | x in y.r", 2);
    }

    #[test]
    fn let_bound_names_agree_with_the_evaluator() {
        agrees_with_evaluator(GRAPH, "all x: A | let y = x.r | some y implies y in r.A", 2);
        agrees_with_evaluator(GRAPH, "let t = A.r | all x: A | x in t or no x.r", 2);
        agrees_with_evaluator(GRAPH, "some x: A | let x = x.r | some x", 2);
    }

    #[test]
    fn comprehension_variables_agree_with_the_evaluator() {
        agrees_with_evaluator(GRAPH, "all x: A | some { y: A | y in x.r and some B.s }", 2);
        agrees_with_evaluator(GRAPH, "some { x: A, y: x.r | x in y.r } & r", 2);
    }

    #[test]
    fn closed_subterms_under_nested_quantifiers_agree_with_the_evaluator() {
        agrees_with_evaluator(
            GRAPH,
            "all x: A | all y: A | x in y.r or some (B.s & A.r)",
            2,
        );
        agrees_with_evaluator(GRAPH, "some x: A | all y: B | x in y.s and #(A.r) > 1", 2);
    }

    #[test]
    fn closures_in_quantifier_bodies_agree_with_the_evaluator() {
        // 567 instances at scope 3: paths of two hops.
        let chain = "sig N { r: set N }";
        agrees_with_evaluator(chain, "all n: N | n in n.^r or n.*r = n", 3);
        agrees_with_evaluator(
            chain,
            "some n: N | all m: N | m in n.*r and n not in n.^r",
            3,
        );
        agrees_with_evaluator(GRAPH, "all x: B | x.s.^r in x.s", 2);
    }

    #[test]
    fn empty_spec_is_satisfiable() {
        assert!(solve_with("sig A {}", None, 3).is_some());
    }

    #[test]
    fn some_a_forces_nonempty() {
        let inst = solve_with("sig A {}", Some("some A"), 3).unwrap();
        assert!(!inst.sig_set("A").is_empty());
    }

    #[test]
    fn no_and_some_is_unsat() {
        assert!(solve_with("sig A {} fact { no A }", Some("some A"), 3).is_none());
    }

    #[test]
    fn one_sig_has_exactly_one_atom() {
        let inst = solve_with("one sig S {}", None, 3).unwrap();
        assert_eq!(inst.sig_set("S").len(), 1);
    }

    #[test]
    fn field_multiplicity_one_is_enforced() {
        // Every present A atom must map to exactly one B atom.
        let inst = solve_with("sig A { f: one B } sig B {}", Some("some A"), 2).unwrap();
        let a = inst.sig_set("A");
        let f = inst.field_set("f");
        for atom in &a {
            let count = f.iter().filter(|t| t[0] == *atom).count();
            assert_eq!(count, 1, "atom {atom} has {count} f-successors");
        }
    }

    #[test]
    fn field_multiplicity_lone_is_enforced() {
        for _ in 0..3 {
            let inst = solve_with("sig A { f: lone B } sig B {}", Some("some A"), 2).unwrap();
            let f = inst.field_set("f");
            for atom in inst.sig_set("A") {
                assert!(f.iter().filter(|t| t[0] == atom).count() <= 1);
            }
        }
    }

    #[test]
    fn field_tuples_respect_sig_membership() {
        let inst = solve_with("sig A { f: set B } sig B {}", Some("some A.f"), 2).unwrap();
        let a = inst.sig_set("A");
        let b = inst.sig_set("B");
        for t in inst.field_set("f") {
            assert!(a.contains(&t[0]));
            assert!(b.contains(&t[1]));
        }
    }

    #[test]
    fn ternary_field_multiplicity() {
        let inst = solve_with(
            "sig R {} sig K {} one sig D { m: R -> lone K } fact { some R && some K }",
            None,
            2,
        )
        .unwrap();
        let m = inst.field_set("m");
        // For each (d, r) pair at most one k.
        let mut seen = std::collections::BTreeMap::new();
        for t in &m {
            *seen.entry((t[0], t[1])).or_insert(0) += 1;
        }
        assert!(seen.values().all(|&c| c <= 1));
    }

    #[test]
    fn quantifiers_work() {
        // all x: A | some x.f with f: one B is implied by decls.
        assert!(solve_with(
            "sig A { f: one B } sig B {}",
            Some("all x: A | some x.f"),
            2
        )
        .is_some());
        // some x: A | x.f = B requires existence.
        let inst = solve_with(
            "sig A { f: set B } sig B {}",
            Some("some x: A | x.f = B"),
            2,
        );
        assert!(inst.is_some());
    }

    #[test]
    fn closure_detects_cycles() {
        // An acyclicity fact makes `some n: N | n in n.^next` unsat.
        assert!(solve_with(
            "sig N { next: lone N } fact { no n: N | n in n.^next }",
            Some("some n: N | n in n.^next"),
            3
        )
        .is_none());
        // Without the fact a cycle exists at scope 3.
        assert!(solve_with(
            "sig N { next: lone N }",
            Some("some n: N | n in n.^next"),
            3
        )
        .is_some());
    }

    #[test]
    fn cardinality_constraints() {
        let inst = solve_with("sig A {}", Some("#A = 2"), 3).unwrap();
        assert_eq!(inst.sig_set("A").len(), 2);
        assert!(solve_with("sig A {}", Some("#A > 3"), 3).is_none());
        let inst = solve_with("sig A {} sig B {}", Some("#A > #B && some B"), 3).unwrap();
        assert!(inst.sig_set("A").len() > inst.sig_set("B").len());
    }

    #[test]
    fn abstract_sig_partitioned_by_children() {
        let inst = solve_with(
            "abstract sig K {} sig RK extends K {} sig CK extends K {}",
            Some("some RK && some CK"),
            2,
        )
        .unwrap();
        let k = inst.sig_set("K");
        let rk = inst.sig_set("RK");
        let ck = inst.sig_set("CK");
        assert!(rk.iter().all(|a| k.contains(a)));
        assert!(ck.iter().all(|a| k.contains(a)));
        assert!(rk.intersection(&ck).count() == 0);
    }

    #[test]
    fn sig_multiplicity_lone_and_some() {
        let inst = solve_with("lone sig L {} some sig S {}", None, 3).unwrap();
        assert!(inst.sig_set("L").len() <= 1);
        assert!(!inst.sig_set("S").is_empty());
    }

    #[test]
    fn transpose_and_restrict() {
        assert!(solve_with(
            "sig A { f: set A }",
            Some("some ~f && some (A <: f) && some (f :> A)"),
            2
        )
        .is_some());
    }

    #[test]
    fn comprehension_compiles() {
        let inst = solve_with("sig A { f: set A }", Some("some { x: A | some x.f }"), 2);
        assert!(inst.is_some());
    }

    #[test]
    fn override_semantics() {
        // After override, the mapped-over value is gone.
        assert!(solve_with(
            "sig A { f: set A }",
            Some("all x, y: A | (x -> y) in (f ++ (x -> y))"),
            2
        )
        .is_some());
    }

    #[test]
    fn unknown_name_errors() {
        let spec = parse_spec("sig A {}").unwrap();
        let mut tr = Translator::new(&spec, 2).unwrap();
        let f = mualloy_syntax::parse_formula("some Ghost").unwrap();
        assert!(tr.compile_formula(&f).is_err());
    }

    #[test]
    fn hotel_fig1_bug_is_detectable() {
        // The paper's Fig. 1 bug: `no g.gkeys` is overly restrictive. A
        // check-in by a guest who already holds an unrelated key must be
        // impossible under the faulty pred but possible under the fix.
        let faulty = r#"
            abstract sig Key {}
            sig RoomKey extends Key {}
            sig Room { keys: set Key }
            sig Guest { gkeys: set Key }
            pred checkIn[g: Guest, r: Room, k: RoomKey] {
                no g.gkeys
                k not in r.keys
            }
        "#;
        // Guest with a key can never check in under the faulty spec.
        assert!(solve_with(
            faulty,
            Some("some g: Guest, r: Room, k: RoomKey | some g.gkeys && checkIn[g, r, k]"),
            3
        )
        .is_none());
        let fixed = faulty.replace("no g.gkeys", "k not in g.gkeys");
        assert!(solve_with(
            &fixed,
            Some("some g: Guest, r: Room, k: RoomKey | some g.gkeys && checkIn[g, r, k]"),
            3
        )
        .is_some());
    }
}
