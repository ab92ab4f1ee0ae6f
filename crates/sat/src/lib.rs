//! # mualloy-sat
//!
//! A from-scratch CDCL SAT solver and boolean-circuit layer, playing the
//! role MiniSat/Kodkod's backend plays for the real Alloy Analyzer.
//!
//! - [`Solver`]: conflict-driven clause learning with two-watched literals,
//!   first-UIP learning, VSIDS, phase saving, restarts and assumptions;
//! - [`Circuit`]: hash-consed AND/OR/NOT circuits with constant folding,
//!   cardinality gates and Tseitin encoding into a [`Solver`];
//! - [`Cnf`]: plain clause storage for tests and cross-checking.
//!
//! # Example
//!
//! ```
//! use mualloy_sat::{Circuit, Solver, SolveResult};
//!
//! let mut circuit = Circuit::new();
//! let a = circuit.input();
//! let b = circuit.input();
//! let one_of = circuit.exactly_one(&[a, b]);
//! let mut solver = Solver::new();
//! let inputs = circuit.encode(one_of, &mut solver);
//! let SolveResult::Sat(model) = solver.solve() else { panic!("satisfiable") };
//! let a_val = model[inputs[0].var().index()];
//! let b_val = model[inputs[1].var().index()];
//! assert!(a_val ^ b_val);
//! ```

#![warn(missing_docs)]

pub mod circuit;
pub mod cnf;
pub mod incremental;
pub mod solver;
pub mod stats;

pub use circuit::{BoolRef, Circuit, CircuitMark, FxBuildHasher};
pub use cnf::{Cnf, Lit, Var};
pub use incremental::{IncrementalSession, SessionStats};
pub use solver::{SolveResult, Solver};
pub use stats::SolverStats;

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Brute-force satisfiability over all assignments (for small n).
    fn brute_force_sat(cnf: &Cnf) -> bool {
        let n = cnf.num_vars() as usize;
        assert!(n <= 16);
        (0..(1u32 << n)).any(|bits| {
            let assignment: Vec<bool> = (0..n).map(|i| bits & (1 << i) != 0).collect();
            cnf.eval(&assignment) == Some(true)
        })
    }

    fn arb_cnf() -> impl Strategy<Value = Cnf> {
        // Up to 8 variables, up to 24 clauses of width 1..=4.
        (
            1u32..=8,
            proptest::collection::vec(
                proptest::collection::vec((0u32..8, any::<bool>()), 1..=4),
                0..24,
            ),
        )
            .prop_map(|(nvars, raw)| {
                let mut cnf = Cnf::new();
                for _ in 0..nvars {
                    cnf.fresh_var();
                }
                for clause in raw {
                    let lits: Vec<Lit> = clause
                        .into_iter()
                        .map(|(v, pos)| Lit::new(Var(v % nvars), pos))
                        .collect();
                    cnf.add_clause(lits);
                }
                cnf
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// CDCL agrees with brute force on random small CNFs, and when SAT
        /// the returned model satisfies the formula.
        #[test]
        fn cdcl_matches_brute_force(cnf in arb_cnf()) {
            let expected = brute_force_sat(&cnf);
            let mut solver = Solver::from_cnf(&cnf);
            match solver.solve() {
                SolveResult::Sat(m) => {
                    prop_assert!(expected, "solver said SAT but formula is UNSAT");
                    prop_assert_eq!(cnf.eval(&m[..cnf.num_vars() as usize]), Some(true));
                }
                SolveResult::Unsat => prop_assert!(!expected, "solver said UNSAT but formula is SAT"),
            }
        }

        /// Solving under assumptions equals solving the formula with the
        /// assumptions added as unit clauses — including multi-assumption
        /// prefixes, which exercise backjumps across unrelated assumption
        /// levels.
        #[test]
        fn assumptions_equal_units(
            cnf in arb_cnf(),
            polarities in proptest::collection::vec(any::<bool>(), 1..=4),
        ) {
            let n = cnf.num_vars();
            let assumptions: Vec<Lit> = polarities
                .iter()
                .enumerate()
                .map(|(i, &pos)| Lit::new(Var(i as u32 % n), pos))
                .collect();
            let mut with_assumption = Solver::from_cnf(&cnf);
            let r1 = with_assumption.solve_with_assumptions(&assumptions).is_sat();
            let mut with_unit = Solver::from_cnf(&cnf);
            for &a in &assumptions {
                with_unit.add_clause([a]);
            }
            let r2 = with_unit.solve().is_sat();
            prop_assert_eq!(r1, r2);
        }
    }
}
