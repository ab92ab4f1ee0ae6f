//! Sparse boolean matrices: the symbolic value of a relational expression.
//!
//! A [`Matrix`] maps atom tuples to circuit references; absent tuples are
//! false. All Alloy relational operators are implemented over this
//! representation, mirroring Kodkod's translation.
//!
//! A clone shares its entries with the original, and the first write to a
//! shared matrix copies them. The translator hands out the same compiled
//! matrix many times — a quantified variable's binding, a signature or
//! field, a cached closed subterm — and most uses only read it.

use mualloy_sat::{BoolRef, Circuit};
use std::collections::BTreeMap;
use std::sync::Arc;

use crate::error::TranslateError;

/// An atom tuple (global atom indices).
pub type Tuple = Vec<u32>;

/// A sparse boolean matrix of a fixed arity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matrix {
    arity: usize,
    entries: Arc<BTreeMap<Tuple, BoolRef>>,
}

impl Matrix {
    /// Creates an empty matrix of the given arity.
    ///
    /// # Panics
    ///
    /// Panics if `arity` is 0.
    pub fn empty(arity: usize) -> Matrix {
        assert!(arity > 0, "relations have positive arity");
        Matrix {
            arity,
            entries: Arc::default(),
        }
    }

    /// The unary matrix holding `atom` with constant truth: a quantified
    /// variable's binding.
    pub(crate) fn singleton(atom: u32) -> Matrix {
        Matrix {
            arity: 1,
            entries: Arc::new(BTreeMap::from([(vec![atom], Circuit::TRUE)])),
        }
    }

    /// The matrix arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of (potentially-true) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the matrix has no potentially-true entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sets the entry for `tuple` (or-ing with any existing value).
    pub fn set(&mut self, circuit: &mut Circuit, tuple: Tuple, value: BoolRef) {
        debug_assert_eq!(tuple.len(), self.arity);
        if value == Circuit::FALSE {
            return;
        }
        let entries = Arc::make_mut(&mut self.entries);
        match entries.get(&tuple).copied() {
            None => {
                entries.insert(tuple, value);
            }
            Some(old) => {
                let merged = circuit.or(old, value);
                entries.insert(tuple, merged);
            }
        }
    }

    /// The entry for `tuple`, or constant false if absent.
    pub fn get(&self, tuple: &[u32]) -> BoolRef {
        self.entries.get(tuple).copied().unwrap_or(Circuit::FALSE)
    }

    /// Iterates over entries in tuple order.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, BoolRef)> {
        self.entries.iter().map(|(t, &v)| (t, v))
    }

    /// All entry values (for multiplicity/cardinality gates).
    pub fn values(&self) -> Vec<BoolRef> {
        self.entries.values().copied().collect()
    }

    /// Union of two same-arity matrices.
    ///
    /// # Errors
    ///
    /// Fails on arity mismatch.
    pub fn union(&self, other: &Matrix, circuit: &mut Circuit) -> Result<Matrix, TranslateError> {
        self.require_same_arity(other, "+")?;
        let mut out = self.clone();
        for (t, v) in other.iter() {
            out.set(circuit, t.clone(), v);
        }
        Ok(out)
    }

    /// Difference `self - other`.
    ///
    /// # Errors
    ///
    /// Fails on arity mismatch.
    pub fn difference(
        &self,
        other: &Matrix,
        circuit: &mut Circuit,
    ) -> Result<Matrix, TranslateError> {
        self.require_same_arity(other, "-")?;
        let mut out = Matrix::empty(self.arity);
        for (t, v) in self.iter() {
            let o = other.get(t);
            let kept = circuit.and(v, !o);
            out.set(circuit, t.clone(), kept);
        }
        Ok(out)
    }

    /// Intersection.
    ///
    /// # Errors
    ///
    /// Fails on arity mismatch.
    pub fn intersect(
        &self,
        other: &Matrix,
        circuit: &mut Circuit,
    ) -> Result<Matrix, TranslateError> {
        self.require_same_arity(other, "&")?;
        let mut out = Matrix::empty(self.arity);
        for (t, v) in self.iter() {
            let o = other.get(t);
            let both = circuit.and(v, o);
            out.set(circuit, t.clone(), both);
        }
        Ok(out)
    }

    /// Relational join `self . other`.
    ///
    /// # Errors
    ///
    /// Fails if the result arity would be 0 (joining two unary relations is
    /// a boolean, which μAlloy does not allow in expression position).
    pub fn join(&self, other: &Matrix, circuit: &mut Circuit) -> Result<Matrix, TranslateError> {
        let result_arity = self.arity + other.arity;
        if result_arity < 3 {
            return Err(TranslateError::new(
                "join of two unary relations has arity 0",
            ));
        }
        let mut out = Matrix::empty(result_arity - 2);
        // Group right tuples by first atom for the merge.
        let mut by_first: BTreeMap<u32, Vec<(&Tuple, BoolRef)>> = BTreeMap::new();
        for (t, v) in other.iter() {
            by_first.entry(t[0]).or_default().push((t, v));
        }
        for (lt, lv) in self.iter() {
            let pivot = lt[self.arity - 1];
            if let Some(rights) = by_first.get(&pivot) {
                for (rt, rv) in rights {
                    let both = circuit.and(lv, *rv);
                    if both == Circuit::FALSE {
                        continue;
                    }
                    let mut tuple = Vec::with_capacity(result_arity - 2);
                    tuple.extend_from_slice(&lt[..self.arity - 1]);
                    tuple.extend_from_slice(&rt[1..]);
                    out.set(circuit, tuple, both);
                }
            }
        }
        Ok(out)
    }

    /// Cartesian product `self -> other`.
    pub fn product(&self, other: &Matrix, circuit: &mut Circuit) -> Matrix {
        let mut out = Matrix::empty(self.arity + other.arity);
        for (lt, lv) in self.iter() {
            for (rt, rv) in other.iter() {
                let both = circuit.and(lv, rv);
                if both == Circuit::FALSE {
                    continue;
                }
                let mut tuple = Vec::with_capacity(self.arity + other.arity);
                tuple.extend_from_slice(lt);
                tuple.extend_from_slice(rt);
                out.set(circuit, tuple, both);
            }
        }
        out
    }

    /// Transpose (binary relations only).
    ///
    /// # Errors
    ///
    /// Fails unless the matrix is binary.
    pub fn transpose(&self) -> Result<Matrix, TranslateError> {
        if self.arity != 2 {
            return Err(TranslateError::new(format!(
                "transpose requires a binary relation, got arity {}",
                self.arity
            )));
        }
        let entries = self.iter().map(|(t, v)| (vec![t[1], t[0]], v)).collect();
        Ok(Matrix {
            arity: 2,
            entries: Arc::new(entries),
        })
    }

    /// Transitive closure via iterative squaring (binary relations only).
    ///
    /// # Errors
    ///
    /// Fails unless the matrix is binary.
    pub fn closure(&self, circuit: &mut Circuit) -> Result<Matrix, TranslateError> {
        if self.arity != 2 {
            return Err(TranslateError::new(format!(
                "closure requires a binary relation, got arity {}",
                self.arity
            )));
        }
        // Upper bound on path length is the number of distinct atoms
        // mentioned; iterate squaring log2 of that.
        let mut atoms = std::collections::BTreeSet::new();
        for (t, _) in self.iter() {
            atoms.insert(t[0]);
            atoms.insert(t[1]);
        }
        let n = atoms.len().max(1);
        let mut acc = self.clone();
        let mut hops = 1usize;
        while hops < n {
            let squared = acc.join(&acc, circuit)?;
            acc = acc.union(&squared, circuit)?;
            hops *= 2;
        }
        Ok(acc)
    }

    /// Reflexive-transitive closure over the given identity matrix.
    ///
    /// # Errors
    ///
    /// Fails unless the matrix is binary.
    pub fn reflexive_closure(
        &self,
        iden: &Matrix,
        circuit: &mut Circuit,
    ) -> Result<Matrix, TranslateError> {
        let closed = self.closure(circuit)?;
        closed.union(iden, circuit)
    }

    /// Relational override `self ++ other` (arity ≥ 2: tuples of `self`
    /// whose first atom appears in `other`'s domain are replaced).
    ///
    /// For unary matrices the override degenerates to union, as in Alloy.
    ///
    /// # Errors
    ///
    /// Fails on arity mismatch.
    pub fn override_with(
        &self,
        other: &Matrix,
        circuit: &mut Circuit,
    ) -> Result<Matrix, TranslateError> {
        self.require_same_arity(other, "++")?;
        if self.arity == 1 {
            return self.union(other, circuit);
        }
        // dom(other): first-column presence.
        let mut dom: BTreeMap<u32, Vec<BoolRef>> = BTreeMap::new();
        for (t, v) in other.iter() {
            dom.entry(t[0]).or_default().push(v);
        }
        let dom: BTreeMap<u32, BoolRef> = dom
            .into_iter()
            .map(|(a, vs)| (a, circuit.or_many(vs)))
            .collect();
        let mut out = Matrix::empty(self.arity);
        for (t, v) in self.iter() {
            let in_dom = dom.get(&t[0]).copied().unwrap_or(Circuit::FALSE);
            let kept = circuit.and(v, !in_dom);
            out.set(circuit, t.clone(), kept);
        }
        for (t, v) in other.iter() {
            out.set(circuit, t.clone(), v);
        }
        Ok(out)
    }

    /// Domain restriction `dom <: self` where `dom` is unary.
    ///
    /// # Errors
    ///
    /// Fails if `dom` is not unary.
    pub fn domain_restrict(
        &self,
        dom: &Matrix,
        circuit: &mut Circuit,
    ) -> Result<Matrix, TranslateError> {
        if dom.arity != 1 {
            return Err(TranslateError::new("`<:` requires a unary left operand"));
        }
        let mut out = Matrix::empty(self.arity);
        for (t, v) in self.iter() {
            let d = dom.get(&t[..1]);
            let kept = circuit.and(v, d);
            out.set(circuit, t.clone(), kept);
        }
        Ok(out)
    }

    /// Range restriction `self :> ran` where `ran` is unary.
    ///
    /// # Errors
    ///
    /// Fails if `ran` is not unary.
    pub fn range_restrict(
        &self,
        ran: &Matrix,
        circuit: &mut Circuit,
    ) -> Result<Matrix, TranslateError> {
        if ran.arity != 1 {
            return Err(TranslateError::new("`:>` requires a unary right operand"));
        }
        let mut out = Matrix::empty(self.arity);
        for (t, v) in self.iter() {
            let r = ran.get(&t[self.arity - 1..]);
            let kept = circuit.and(v, r);
            out.set(circuit, t.clone(), kept);
        }
        Ok(out)
    }

    /// The subset formula `self in other`.
    ///
    /// # Errors
    ///
    /// Fails on arity mismatch.
    pub fn subset_of(
        &self,
        other: &Matrix,
        circuit: &mut Circuit,
    ) -> Result<BoolRef, TranslateError> {
        self.require_same_arity(other, "in")?;
        let mut conjuncts = Vec::with_capacity(self.len());
        for (t, v) in self.iter() {
            let o = other.get(t);
            conjuncts.push(circuit.implies(v, o));
        }
        Ok(circuit.and_many(conjuncts))
    }

    fn require_same_arity(&self, other: &Matrix, op: &str) -> Result<(), TranslateError> {
        if self.arity != other.arity {
            Err(TranslateError::new(format!(
                "arity mismatch for `{op}`: {} vs {}",
                self.arity, other.arity
            )))
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn constant_matrix(arity: usize, tuples: &[&[u32]]) -> Matrix {
        let entries = tuples.iter().map(|t| (t.to_vec(), Circuit::TRUE)).collect();
        Matrix {
            arity,
            entries: Arc::new(entries),
        }
    }

    #[test]
    fn union_and_intersect() {
        let mut c = Circuit::new();
        let a = constant_matrix(1, &[&[0], &[1]]);
        let b = constant_matrix(1, &[&[1], &[2]]);
        let u = a.union(&b, &mut c).unwrap();
        assert_eq!(u.len(), 3);
        let i = a.intersect(&b, &mut c).unwrap();
        assert_eq!(i.get(&[1]), Circuit::TRUE);
        assert_eq!(i.get(&[0]), Circuit::FALSE);
        assert_eq!(i.get(&[2]), Circuit::FALSE);
    }

    #[test]
    fn difference_removes_overlap() {
        let mut c = Circuit::new();
        let a = constant_matrix(1, &[&[0], &[1]]);
        let b = constant_matrix(1, &[&[1]]);
        let d = a.difference(&b, &mut c).unwrap();
        assert_eq!(d.get(&[0]), Circuit::TRUE);
        assert_eq!(d.get(&[1]), Circuit::FALSE);
    }

    #[test]
    fn join_matches_composition() {
        let mut c = Circuit::new();
        // r = {(0,1),(1,2)}; r.r = {(0,2)}
        let r = constant_matrix(2, &[&[0, 1], &[1, 2]]);
        let rr = r.join(&r, &mut c).unwrap();
        assert_eq!(rr.get(&[0, 2]), Circuit::TRUE);
        assert_eq!(rr.get(&[0, 1]), Circuit::FALSE);
        // unary.binary
        let s = constant_matrix(1, &[&[0]]);
        let sr = s.join(&r, &mut c).unwrap();
        assert_eq!(sr.arity(), 1);
        assert_eq!(sr.get(&[1]), Circuit::TRUE);
    }

    #[test]
    fn join_arity_zero_is_error() {
        let mut c = Circuit::new();
        let a = constant_matrix(1, &[&[0]]);
        assert!(a.join(&a, &mut c).is_err());
    }

    #[test]
    fn product_concatenates() {
        let mut c = Circuit::new();
        let a = constant_matrix(1, &[&[0]]);
        let b = constant_matrix(1, &[&[1], &[2]]);
        let p = a.product(&b, &mut c);
        assert_eq!(p.arity(), 2);
        assert_eq!(p.len(), 2);
        assert_eq!(p.get(&[0, 2]), Circuit::TRUE);
    }

    #[test]
    fn transpose_swaps_columns() {
        let r = constant_matrix(2, &[&[0, 1]]);
        let t = r.transpose().unwrap();
        assert_eq!(t.get(&[1, 0]), Circuit::TRUE);
        assert_eq!(t.get(&[0, 1]), Circuit::FALSE);
        assert!(constant_matrix(1, &[&[0]]).transpose().is_err());
    }

    #[test]
    fn closure_reaches_all_path_lengths() {
        let mut c = Circuit::new();
        // Chain 0->1->2->3.
        let r = constant_matrix(2, &[&[0, 1], &[1, 2], &[2, 3]]);
        let cl = r.closure(&mut c).unwrap();
        for (a, b) in [(0, 1), (0, 2), (0, 3), (1, 3)] {
            assert_eq!(cl.get(&[a, b]), Circuit::TRUE, "({a},{b})");
        }
        assert_eq!(cl.get(&[3, 0]), Circuit::FALSE);
    }

    #[test]
    fn override_replaces_mapped_domain() {
        let mut c = Circuit::new();
        let p = constant_matrix(2, &[&[0, 1], &[2, 3]]);
        let q = constant_matrix(2, &[&[0, 5]]);
        let o = p.override_with(&q, &mut c).unwrap();
        assert_eq!(o.get(&[0, 5]), Circuit::TRUE);
        assert_eq!(o.get(&[0, 1]), Circuit::FALSE);
        assert_eq!(o.get(&[2, 3]), Circuit::TRUE);
    }

    #[test]
    fn restrictions_filter_rows() {
        let mut c = Circuit::new();
        let r = constant_matrix(2, &[&[0, 1], &[2, 3]]);
        let dom = constant_matrix(1, &[&[0]]);
        let ran = constant_matrix(1, &[&[3]]);
        let dr = r.domain_restrict(&dom, &mut c).unwrap();
        assert_eq!(dr.get(&[0, 1]), Circuit::TRUE);
        assert_eq!(dr.get(&[2, 3]), Circuit::FALSE);
        let rr = r.range_restrict(&ran, &mut c).unwrap();
        assert_eq!(rr.get(&[2, 3]), Circuit::TRUE);
        assert_eq!(rr.get(&[0, 1]), Circuit::FALSE);
    }

    #[test]
    fn subset_constant_cases() {
        let mut c = Circuit::new();
        let a = constant_matrix(1, &[&[0]]);
        let b = constant_matrix(1, &[&[0], &[1]]);
        assert_eq!(a.subset_of(&b, &mut c).unwrap(), Circuit::TRUE);
        assert_eq!(b.subset_of(&a, &mut c).unwrap(), Circuit::FALSE);
    }

    #[test]
    fn symbolic_entries_survive_ops() {
        let mut c = Circuit::new();
        let x = c.input();
        let mut a = Matrix::empty(1);
        a.set(&mut c, vec![0], x);
        let b = constant_matrix(1, &[&[0]]);
        let d = b.difference(&a, &mut c).unwrap();
        // d[0] = !x (symbolic).
        assert_eq!(d.get(&[0]), !x);
    }

    #[test]
    fn set_ors_duplicate_tuples() {
        let mut c = Circuit::new();
        let x = c.input();
        let y = c.input();
        let mut m = Matrix::empty(1);
        m.set(&mut c, vec![0], x);
        m.set(&mut c, vec![0], y);
        let v = m.get(&[0]);
        // v == x | y: check truth table.
        for xs in [false, true] {
            for ys in [false, true] {
                assert_eq!(c.eval(v, &[xs, ys]), xs || ys);
            }
        }
    }
}
