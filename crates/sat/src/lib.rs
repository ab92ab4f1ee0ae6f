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

    /// A gate of a random circuit: AND (`true`) or OR over two earlier
    /// references, each an index taken modulo the references so far and a
    /// negation flag.
    type Gate = (bool, (usize, bool), (usize, bool));

    /// Random circuits: up to 6 inputs, then up to 16 gates. The root is the
    /// last reference.
    fn arb_circuit() -> impl Strategy<Value = (u32, Vec<Gate>)> {
        (
            1u32..=6,
            proptest::collection::vec(
                (
                    any::<bool>(),
                    (any::<usize>(), any::<bool>()),
                    (any::<usize>(), any::<bool>()),
                ),
                0..16,
            ),
        )
    }

    fn build_circuit(inputs: u32, gates: &[Gate]) -> (Circuit, BoolRef) {
        let mut c = Circuit::new();
        let mut refs: Vec<BoolRef> = (0..inputs).map(|_| c.input()).collect();
        for &(is_and, a, b) in gates {
            let pick = |(i, neg): (usize, bool)| {
                let r = refs[i % refs.len()];
                if neg {
                    !r
                } else {
                    r
                }
            };
            let (a, b) = (pick(a), pick(b));
            let g = if is_and { c.and(a, b) } else { c.or(a, b) };
            refs.push(g);
        }
        let root = *refs.last().expect("at least one input");
        (c, root)
    }

    /// What one solve left observable: the result with its model, the
    /// counters, and the clause and variable counts.
    type Step = (SolveResult, SolverStats, usize, usize);

    fn step(solver: &Solver, result: SolveResult) -> Step {
        (
            result,
            solver.stats(),
            solver.num_clauses(),
            solver.num_vars(),
        )
    }

    /// Enumerates up to `limit` models over `inputs` the way the analyzer's
    /// cold path does: solve, block the inputs' assignment, solve again.
    fn enumerate(solver: &mut Solver, inputs: &[Lit], limit: usize) -> Vec<Step> {
        let mut steps = Vec::new();
        while steps.len() < limit {
            let result = solver.solve();
            let block: Option<Vec<Lit>> = result.model().map(|m| {
                inputs
                    .iter()
                    .map(|&l| {
                        if m[l.var().index()] == l.is_positive() {
                            !l
                        } else {
                            l
                        }
                    })
                    .collect()
            });
            steps.push(step(solver, result));
            match block {
                Some(b) if !b.is_empty() => {
                    if !solver.add_clause(b) {
                        break;
                    }
                }
                _ => break,
            }
        }
        steps
    }

    /// Loads `cnf` into an empty `solver`, solves under `assumptions` (taken
    /// modulo the CNF's variables), then enumerates its models.
    fn cnf_workload(solver: &mut Solver, cnf: &Cnf, assumptions: &[Lit]) -> Vec<Step> {
        let n = cnf.num_vars();
        let vars: Vec<Var> = (0..n).map(|_| solver.new_var()).collect();
        for c in cnf.clauses() {
            solver.add_clause(c.iter().copied());
        }
        let assumed: Vec<Lit> = assumptions
            .iter()
            .map(|a| Lit::new(Var(a.var().0 % n), a.is_positive()))
            .collect();
        let result = solver.solve_with_assumptions(&assumed);
        let mut steps = vec![step(solver, result)];
        let inputs: Vec<Lit> = vars.iter().map(|v| v.positive()).collect();
        steps.extend(enumerate(solver, &inputs, 6));
        steps
    }

    /// Encodes a random circuit and enumerates its input assignments.
    fn circuit_workload(solver: &mut Solver, inputs: u32, gates: &[Gate]) -> Vec<Step> {
        let (circuit, root) = build_circuit(inputs, gates);
        let input_lits = circuit.encode(root, solver);
        enumerate(solver, &input_lits, 8)
    }

    fn assumptions() -> impl Strategy<Value = Vec<Lit>> {
        proptest::collection::vec((0u32..8, any::<bool>()), 0..=3).prop_map(|raw| {
            raw.into_iter()
                .map(|(v, pos)| Lit::new(Var(v), pos))
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A solver cleared after any earlier CNF workload replays a later
        /// one exactly as a fresh solver does: same results and models,
        /// same counters, same clause and variable counts at every step.
        #[test]
        fn cleared_solver_replays_cnfs_like_a_fresh_one(
            earlier in arb_cnf(),
            earlier_assumptions in assumptions(),
            later in arb_cnf(),
            later_assumptions in assumptions(),
        ) {
            let mut reused = Solver::new();
            cnf_workload(&mut reused, &earlier, &earlier_assumptions);
            reused.clear();
            prop_assert_eq!(
                (reused.stats(), reused.num_clauses(), reused.num_vars()),
                (SolverStats::default(), 0, 0)
            );
            let replayed = cnf_workload(&mut reused, &later, &later_assumptions);
            let fresh = cnf_workload(&mut Solver::new(), &later, &later_assumptions);
            prop_assert_eq!(replayed, fresh);
        }

        /// The same over Tseitin-encoded circuits enumerated with blocking
        /// clauses, the analyzer's cold path, after earlier circuits and a
        /// CNF solved under assumptions.
        #[test]
        fn cleared_solver_replays_circuits_like_a_fresh_one(
            earlier in arb_circuit(),
            earlier_cnf in arb_cnf(),
            earlier_assumptions in assumptions(),
            later in arb_circuit(),
        ) {
            let mut reused = Solver::new();
            circuit_workload(&mut reused, earlier.0, &earlier.1);
            reused.clear();
            cnf_workload(&mut reused, &earlier_cnf, &earlier_assumptions);
            reused.clear();
            let replayed = circuit_workload(&mut reused, later.0, &later.1);
            let fresh = circuit_workload(&mut Solver::new(), later.0, &later.1);
            prop_assert_eq!(replayed, fresh);
        }

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
