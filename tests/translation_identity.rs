//! Integration: the translator's output is pinned. Every command of every
//! benchmark spec is translated on a fresh base, encoded into a fresh
//! solver and solved once, and the mutants of each faulty spec have their
//! facts compiled onto one shared translation. One FNV-1a digest folds in
//! the circuit sizes, the CNF sizes, the solver's search counters, every
//! model's input bits and every compiled root's node number, so a change
//! to a gate, its numbering, the number of variables or clauses, the
//! solver's search or a model moves it. The order of one gate's clauses
//! can change without moving it: on these small instances the search does
//! not depend on it.
//!
//! `PINNED` was computed before the translator learned to reuse closed
//! subterms and to intern gates without allocating: a speed change to the
//! translation layer must leave it unmoved. Never regenerate it to make a
//! change pass.

use mualloy_relational::{
    assert_body, elaborate_formula, elaborate_spec, pred_as_existential, TranslateError, Translator,
};
use mualloy_sat::{SolveResult, Solver};
use mualloy_syntax::ast::{CommandKind, Formula, Spec};
use specrepair_benchmarks::full_study;
use specrepair_mutation::MutationEngine;

const PINNED: u64 = 0xb312_18de_3b45_82c2;

/// Mutants per faulty spec whose facts are compiled.
const MUTANTS: usize = 20;

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// The formula a command solves: a run's predicate with its parameters
/// quantified, or a check's negated assertion.
fn command_formula(spec: &Spec, kind: &CommandKind) -> Result<Formula, TranslateError> {
    match kind {
        CommandKind::Run(name) => pred_as_existential(spec, name),
        CommandKind::Check(name) => Ok(Formula::not(assert_body(spec, name)?)),
    }
}

/// Translates, encodes and solves every command of `spec` on a fresh base.
fn fold_commands(h: &mut Fnv, spec: &Spec) {
    for cmd in &spec.commands {
        let compiled = command_formula(spec, &cmd.kind).and_then(|f| {
            let mut tr = Translator::new(spec, cmd.scope)?;
            let f = elaborate_formula(tr.spec(), &f)?;
            let fv = tr.compile_formula(&f)?;
            Ok((tr, fv))
        });
        let Ok((mut tr, fv)) = compiled else {
            h.bytes(b"error");
            continue;
        };
        let root = tr.circuit.and(tr.base_constraint(), fv);
        let mut solver = Solver::new();
        let inputs = tr.circuit.encode(root, &mut solver);
        h.u64(tr.circuit.num_nodes() as u64);
        h.u64(solver.num_vars() as u64);
        h.u64(solver.num_clauses() as u64);
        let result = solver.solve();
        let stats = solver.stats();
        h.u64(stats.conflicts);
        h.u64(stats.decisions);
        h.u64(stats.propagations);
        match result {
            SolveResult::Sat(model) => {
                h.bytes(b"sat");
                for l in &inputs {
                    h.bytes(&[u8::from(model[l.var().index()] == l.is_positive())]);
                }
            }
            SolveResult::Unsat => h.bytes(b"unsat"),
        }
    }
}

/// Compiles the elaborated facts of `faulty`'s first mutants onto one
/// translation of `faulty`, as the incremental sessions do.
fn fold_mutants(h: &mut Fnv, faulty: &Spec) {
    let scope = faulty.commands.first().map_or(3, |c| c.scope);
    let Ok(mut tr) = Translator::new(faulty, scope) else {
        h.bytes(b"no base");
        return;
    };
    let engine = MutationEngine::new(faulty);
    for m in engine.all_mutations().iter().take(MUTANTS) {
        let Some(elab) = engine.apply(m).and_then(|s| elaborate_spec(&s).ok()) else {
            h.bytes(b"no mutant");
            continue;
        };
        for f in elab.facts.iter().flat_map(|fact| &fact.body) {
            match tr.compile_formula(f) {
                Ok(root) => h.bytes(format!("{root:?}").as_bytes()),
                Err(_) => h.bytes(b"error"),
            }
        }
        h.u64(tr.circuit.num_nodes() as u64);
    }
}

#[test]
fn translation_of_the_benchmark_is_pinned() {
    let mut h = Fnv::new();
    for p in full_study(0.005) {
        fold_commands(&mut h, &p.faulty);
        fold_commands(&mut h, &p.truth);
        fold_mutants(&mut h, &p.faulty);
    }
    assert_eq!(
        h.0, PINNED,
        "translation digest moved: {:#018x} (pinned {PINNED:#018x})",
        h.0
    );
}
