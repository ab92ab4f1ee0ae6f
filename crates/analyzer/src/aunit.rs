//! AUnit-style unit tests for μAlloy specifications.
//!
//! An [`AUnitTest`] pairs a concrete valuation (an [`Instance`]) with a
//! formula and an expected result, mirroring the AUnit framework ARepair
//! consumes: a test passes against a candidate specification when the
//! formula *and the candidate's facts* evaluate on the valuation to the
//! expected boolean.

use mualloy_relational::{elaborate_facts, elaborate_formula, Evaluator, Instance};
use mualloy_syntax::ast::{Formula, Spec};

use crate::error::AnalyzerError;

/// A concrete-valuation unit test.
#[derive(Debug, Clone, PartialEq)]
pub struct AUnitTest {
    /// Test name (for reporting).
    pub name: String,
    /// The concrete valuation the test runs against.
    pub valuation: Instance,
    /// The formula under test.
    pub formula: Formula,
    /// The expected evaluation result of `facts && formula`.
    pub expect: bool,
}

impl AUnitTest {
    /// Creates a test.
    pub fn new(
        name: impl Into<String>,
        valuation: Instance,
        formula: Formula,
        expect: bool,
    ) -> AUnitTest {
        AUnitTest {
            name: name.into(),
            valuation,
            formula,
            expect,
        }
    }

    /// Evaluates the test against a candidate specification.
    ///
    /// The candidate's facts are conjoined with the test formula before
    /// evaluation, so repairs that weaken or strengthen facts are observable.
    ///
    /// # Errors
    ///
    /// Fails when elaboration or evaluation fails (e.g. the candidate
    /// renamed a referenced field).
    pub fn run(&self, candidate: &Spec) -> Result<bool, AnalyzerError> {
        self.run_elaborated(candidate, &elaborate_facts(candidate)?)
    }

    /// [`AUnitTest::run`] against the candidate's facts as
    /// [`elaborate_facts`] returns them.
    fn run_elaborated(&self, candidate: &Spec, facts: &[Formula]) -> Result<bool, AnalyzerError> {
        let ev = Evaluator::new(&self.valuation);
        let mut value = true;
        for f in facts {
            if !ev.formula(f)? {
                value = false;
            }
        }
        if value {
            let elaborated = elaborate_formula(candidate, &self.formula)?;
            value = ev.formula(&elaborated)?;
        }
        Ok(value == self.expect)
    }
}

/// A suite of AUnit tests with pass/fail accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TestSuite {
    tests: Vec<AUnitTest>,
}

impl TestSuite {
    /// Creates an empty suite.
    pub fn new() -> TestSuite {
        TestSuite::default()
    }

    /// Adds a test to the suite.
    pub fn push(&mut self, test: AUnitTest) {
        self.tests.push(test);
    }

    /// The tests in the suite.
    pub fn tests(&self) -> &[AUnitTest] {
        &self.tests
    }

    /// Number of tests.
    pub fn len(&self) -> usize {
        self.tests.len()
    }

    /// Whether the suite has no tests.
    pub fn is_empty(&self) -> bool {
        self.tests.is_empty()
    }

    /// Runs the whole suite; a test that errors counts as failing.
    ///
    /// The candidate's facts are elaborated once for every test: when that
    /// fails, every test fails, as each would alone.
    ///
    /// Returns `(passed, failed)`.
    pub fn run(&self, candidate: &Spec) -> (usize, usize) {
        let Ok(facts) = elaborate_facts(candidate) else {
            return (0, self.tests.len());
        };
        let mut passed = 0;
        let mut failed = 0;
        for t in &self.tests {
            match t.run_elaborated(candidate, &facts) {
                Ok(true) => passed += 1,
                _ => failed += 1,
            }
        }
        (passed, failed)
    }

    /// Whether every test passes against the candidate.
    pub fn all_pass(&self, candidate: &Spec) -> bool {
        self.run(candidate).1 == 0
    }
}

impl Extend<AUnitTest> for TestSuite {
    fn extend<T: IntoIterator<Item = AUnitTest>>(&mut self, iter: T) {
        self.tests.extend(iter);
    }
}

impl FromIterator<AUnitTest> for TestSuite {
    fn from_iter<T: IntoIterator<Item = AUnitTest>>(iter: T) -> Self {
        TestSuite {
            tests: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mualloy_syntax::{parse_formula, parse_spec};
    use std::collections::BTreeSet;

    fn chain_instance() -> Instance {
        let mut inst = Instance::new((0..3).map(|i| format!("N${i}")).collect());
        inst.set_sig("N", [0u32, 1, 2].into_iter().collect());
        inst.set_field("next", [vec![0u32, 1], vec![1, 2]].into_iter().collect());
        inst
    }

    fn spec() -> Spec {
        parse_spec("sig N { next: lone N } fact { no n: N | n in n.^next }").unwrap()
    }

    #[test]
    fn passing_test() {
        let t = AUnitTest::new(
            "chain ok",
            chain_instance(),
            parse_formula("some n: N | no n.next").unwrap(),
            true,
        );
        assert!(t.run(&spec()).unwrap());
    }

    #[test]
    fn failing_expectation() {
        let t = AUnitTest::new(
            "wrong expectation",
            chain_instance(),
            parse_formula("no next").unwrap(),
            true,
        );
        assert!(!t.run(&spec()).unwrap());
    }

    #[test]
    fn facts_participate_in_evaluation() {
        // A valuation with a cycle violates the acyclicity fact, so the
        // conjunction is false regardless of the formula.
        let mut inst = chain_instance();
        let mut next: BTreeSet<Vec<u32>> = inst.field_set("next");
        next.insert(vec![2, 0]);
        inst.set_field("next", next);
        let t = AUnitTest::new(
            "cycle violates facts",
            inst,
            parse_formula("some N").unwrap(),
            false, // expected false because facts fail
        );
        assert!(t.run(&spec()).unwrap());
    }

    #[test]
    fn suite_accounting() {
        let mut suite = TestSuite::new();
        suite.push(AUnitTest::new(
            "t1",
            chain_instance(),
            parse_formula("some N").unwrap(),
            true,
        ));
        suite.push(AUnitTest::new(
            "t2",
            chain_instance(),
            parse_formula("no N").unwrap(),
            true, // wrong: fails
        ));
        let (p, f) = suite.run(&spec());
        assert_eq!((p, f), (1, 1));
        assert!(!suite.all_pass(&spec()));
        assert_eq!(suite.len(), 2);
    }

    #[test]
    fn erroring_test_counts_as_failure() {
        let mut suite = TestSuite::new();
        suite.push(AUnitTest::new(
            "bad name",
            chain_instance(),
            parse_formula("some Ghost").unwrap(),
            true,
        ));
        let (p, f) = suite.run(&spec());
        assert_eq!((p, f), (0, 1));
    }

    #[test]
    fn suite_matches_each_test_run_alone() {
        // Evaluating the acyclicity fact on this valuation errors: it has
        // no `next`.
        let mut no_next = Instance::new((0..2).map(|i| format!("N${i}")).collect());
        no_next.set_sig("N", [0u32, 1].into_iter().collect());
        let suite: TestSuite = [
            ("chain", chain_instance(), "some N", true),
            ("no next", no_next, "some N", true),
            ("expect false", chain_instance(), "no N", false),
        ]
        .into_iter()
        .map(|(name, v, f, expect)| AUnitTest::new(name, v, parse_formula(f).unwrap(), expect))
        .collect();
        let alone = |candidate: &Spec| {
            let passed = suite
                .tests()
                .iter()
                .filter(|t| matches!(t.run(candidate), Ok(true)))
                .count();
            (passed, suite.len() - passed)
        };
        // An evaluation error fails only its own test.
        let good = spec();
        assert!(suite.tests()[1].run(&good).is_err());
        assert_eq!(suite.run(&good), (2, 1));
        assert_eq!(suite.run(&good), alone(&good));
        // A fact that fails to elaborate fails every test.
        let broken =
            parse_spec("sig N { next: lone N } fact { no n: N | n in n.^next } fact { ghost }")
                .unwrap();
        assert!(suite.tests().iter().all(|t| t.run(&broken).is_err()));
        assert_eq!(suite.run(&broken), (0, 3));
        assert_eq!(suite.run(&broken), alone(&broken));
    }

    #[test]
    fn collect_from_iterator() {
        let suite: TestSuite = vec![AUnitTest::new(
            "t",
            chain_instance(),
            parse_formula("some N").unwrap(),
            true,
        )]
        .into_iter()
        .collect();
        assert_eq!(suite.len(), 1);
    }
}
