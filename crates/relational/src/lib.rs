//! # mualloy-relational
//!
//! Bounded relational model finding for μAlloy — the equivalent of Kodkod
//! inside the real Alloy Analyzer, built from scratch on top of
//! [`mualloy_sat`]:
//!
//! - [`universe::Universe`]: atom-pool allocation from signature
//!   declarations under a uniform scope;
//! - [`matrix::Matrix`]: sparse boolean matrices implementing every Alloy
//!   relational operator symbolically;
//! - [`elaborate`]: predicate/function inlining with capture-free binder
//!   freshening;
//! - [`translate::Translator`]: compilation of declarations, facts and
//!   formulas into a circuit, plus model decoding into [`instance::Instance`];
//! - [`eval::Evaluator`]: the ground semantic reference used for
//!   cross-checking and AUnit test execution.
//!
//! # Example
//!
//! ```
//! use mualloy_relational::{Translator, elaborate::elaborate_formula};
//! use mualloy_sat::{Solver, SolveResult};
//! use mualloy_syntax::{parse_spec, parse_formula};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = parse_spec("sig Node { next: lone Node } fact { no n: Node | n in n.^next }")?;
//! let mut tr = Translator::new(&spec, 3)?;
//! let goal = elaborate_formula(tr.spec(), &parse_formula("some Node")?)?;
//! let goal = tr.compile_formula(&goal)?;
//! let root = tr.circuit.and(tr.base_constraint(), goal);
//! let mut solver = Solver::new();
//! let inputs = tr.circuit.encode(root, &mut solver);
//! let SolveResult::Sat(model) = solver.solve() else { panic!("acyclic list exists") };
//! let values: Vec<bool> = inputs.iter().map(|l| model[l.var().index()] == l.is_positive()).collect();
//! let instance = tr.decode(&values);
//! assert!(!instance.sig_set("Node").is_empty());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod elaborate;
pub mod error;
pub mod eval;
mod extra_tests;
pub mod instance;
pub mod matrix;
pub mod translate;
pub mod universe;

pub use elaborate::{
    assert_body, elaborate_facts, elaborate_formula, elaborate_spec, pred_as_existential,
};
pub use error::TranslateError;
pub use eval::{Evaluator, GroundSet};
pub use instance::Instance;
pub use matrix::{Matrix, Tuple};
pub use translate::Translator;
pub use universe::{Pool, Universe};

#[cfg(test)]
mod proptests {
    use super::*;
    use mualloy_sat::{SolveResult, Solver};
    use mualloy_syntax::parse_spec;
    use proptest::prelude::*;

    /// Random small spec sources exercising diverse constructs.
    fn spec_sources() -> Vec<&'static str> {
        vec![
            "sig A { f: set A }",
            "sig A { f: lone A } fact { no a: A | a in a.^f }",
            "sig A {} sig B { g: some A }",
            "abstract sig K {} sig R extends K {} sig C extends K {} one sig D { m: R -> lone C }",
            "sig N { next: lone N } fact { all n: N | n not in n.next }",
            "sig P { knows: set P } fact { all p: P | p not in p.knows knows = ~knows }",
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every SAT-extracted instance satisfies all facts according to the
        /// independent ground evaluator.
        #[test]
        fn extracted_instances_satisfy_facts(idx in 0usize..6, scope in 1u32..4) {
            let src = spec_sources()[idx];
            let spec = parse_spec(src).unwrap();
            let tr = Translator::new(&spec, scope).unwrap();
            let root = tr.base_constraint();
            let mut solver = Solver::new();
            let inputs = tr.circuit.encode(root, &mut solver);
            if let SolveResult::Sat(m) = solver.solve() {
                let vals: Vec<bool> = inputs
                    .iter()
                    .map(|l| m[l.var().index()] == l.is_positive())
                    .collect();
                let inst = tr.decode(&vals);
                let ev = Evaluator::new(&inst);
                for fact in &tr.spec().facts.clone() {
                    for f in &fact.body {
                        prop_assert!(
                            ev.formula(f).unwrap(),
                            "fact violated in extracted instance of `{src}`:\n{inst}"
                        );
                    }
                }
            }
        }
    }
}
