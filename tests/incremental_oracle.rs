//! Integration: the incremental oracle subsystem agrees with cold solving
//! at every layer.
//!
//! - SAT layer (property-based): an [`IncrementalSession`] answers exactly
//!   what a fresh [`Solver`] answers for every root in a random mutation
//!   sequence, and every SAT witness it returns actually satisfies the
//!   root under circuit evaluation.
//! - Analyzer layer: an incremental [`Oracle`] and a cold one return the
//!   same verdict for a family of candidate mutations, while the
//!   incremental one demonstrably reuses clauses across candidates.

use mualloy_analyzer::Oracle;
use mualloy_sat::{BoolRef, Circuit, IncrementalSession, SolveResult, Solver};
use mualloy_syntax::parse_spec;
use proptest::prelude::*;

const NUM_INPUTS: usize = 4;

/// A random expression as a straight-line gate program over the inputs:
/// each step picks an op and two earlier nodes, the last node is the root.
type Program = Vec<(u8, usize, usize)>;

fn arb_program() -> impl Strategy<Value = Program> {
    proptest::collection::vec((0u8..3, 0usize..64, 0usize..64), 1..20)
}

/// Builds `program` into the circuit over the shared inputs.
fn build(c: &mut Circuit, inputs: &[BoolRef], program: &Program) -> BoolRef {
    let mut nodes: Vec<BoolRef> = inputs.to_vec();
    for &(op, a, b) in program {
        let a = nodes[a % nodes.len()];
        let b = nodes[b % nodes.len()];
        nodes.push(match op {
            0 => !a,
            1 => c.and(a, b),
            _ => c.or(a, b),
        });
    }
    *nodes.last().unwrap()
}

/// Decodes a session model into circuit-input values.
fn inputs_of(session: &IncrementalSession, model: &[bool]) -> Vec<bool> {
    session
        .input_lits()
        .iter()
        .map(|l| model[l.var().index()] == l.is_positive())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// One session over a random skeleton conjoined with a sequence of
    /// random mutated fragments: each check answers what a cold solver
    /// answers, and SAT witnesses evaluate true.
    #[test]
    fn session_agrees_with_cold_solver(
        skeleton in arb_program(),
        variants in proptest::collection::vec(arb_program(), 1..6),
    ) {
        let mut c = Circuit::new();
        let inputs: Vec<BoolRef> = (0..NUM_INPUTS).map(|_| c.input()).collect();
        let skeleton = build(&mut c, &inputs, &skeleton);
        let mut session = IncrementalSession::new();
        for variant in &variants {
            let fragment = build(&mut c, &inputs, variant);
            let root = c.and(skeleton, fragment);
            let incremental = session.check(&c, root);
            let mut cold = Solver::new();
            let _ = c.encode(root, &mut cold);
            prop_assert_eq!(incremental.is_sat(), cold.solve().is_sat());
            if let SolveResult::Sat(model) = &incremental {
                // Pad: inputs the encoder never materialized default false.
                let mut vals = inputs_of(&session, model);
                vals.resize(NUM_INPUTS, false);
                prop_assert!(c.eval(root, &vals), "witness must satisfy the root");
            }
        }
        prop_assert_eq!(session.stats().checks, variants.len() as u64);
    }
}

const FAULTY: &str = "sig N { next: lone N } \
    fact Acyclic { no n: N | n in n.^next } \
    pred somePath { some n: N | some n.next } \
    assert NoSelfLoop { all n: N | n not in n.next } \
    run somePath for 3 expect 1 \
    check NoSelfLoop for 3 expect 0";

#[test]
fn oracle_incremental_and_cold_verdicts_agree() {
    let incremental = Oracle::new();
    let cold = Oracle::cold();

    // Candidate mutations of one faulty spec, the shape every repair
    // search produces: same skeleton, varied fact/assert/pred bodies.
    let variants = [
        FAULTY.to_string(),
        FAULTY.replace("no n: N | n in n.^next", "some N || no N"),
        FAULTY.replace("all n: N | n not in n.next", "no N"),
        FAULTY.replace("some n: N | some n.next", "no next"),
        FAULTY.replace("expect 0", "expect 1"),
    ];
    for src in &variants {
        let spec = parse_spec(src).unwrap();
        assert_eq!(
            incremental.satisfies_oracle(&spec).unwrap(),
            cold.satisfies_oracle(&spec).unwrap(),
            "verdicts must agree on `{src}`"
        );
    }

    let stats = incremental.incremental_stats();
    assert!(
        stats.checks > 0,
        "engine must have answered checks: {stats:?}"
    );
    assert_eq!(
        stats.fallbacks, 0,
        "no candidate should fall back: {stats:?}"
    );
    assert!(
        stats.clause_reuse_rate() > 0.0,
        "later candidates must reuse earlier clauses: {stats:?}"
    );
    let cold_stats = cold.incremental_stats();
    assert_eq!(
        cold_stats.checks, 0,
        "a cold oracle must never run the engine: {cold_stats:?}"
    );
}
