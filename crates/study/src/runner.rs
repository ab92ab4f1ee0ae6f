//! The study runner: every technique over every benchmark problem, with
//! per-candidate metrics. All tables and figures derive from one run.

use mualloy_analyzer::{IncrementalStats, Oracle, OracleCacheStats};
use parking_lot::Mutex;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use specrepair_benchmarks::RepairProblem;
use specrepair_core::{
    CancelToken, DedupStats, OracleHandle, OutcomeReason, RepairContext, RepairOutcome,
    RepairTechnique, VerdictStore,
};
use specrepair_llm::{invert_fix_description, MultiRound, ProblemHints, ResilientLm, SingleRound};
use specrepair_metrics::candidate_metrics;
use specrepair_traditional::{ARepair, Atr, BeAFix, Icebar};
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, OnceLock};

use crate::config::{StudyConfig, TechniqueId};
use crate::journal::StudyJournal;

/// One (problem, technique) evaluation record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SpecRecord {
    /// Problem id (`classroom/tutoring/17`).
    pub problem: String,
    /// `"A4F"` or `"ARepair"`.
    pub benchmark: String,
    /// Domain / problem family.
    pub domain: String,
    /// Technique label.
    pub technique: String,
    /// REP against the ground truth.
    pub rep: u8,
    /// Token Match of the final candidate, if any.
    pub tm: Option<f64>,
    /// Syntax Match of the final candidate, if any.
    pub sm: Option<f64>,
    /// Tree-diff edit distance of the candidate against the *faulty* spec
    /// (persistent-id matched; see [`specrepair_metrics::tree_diff`]): how
    /// many subtree edits the repair made. `None` without a parsed
    /// candidate.
    pub tree_edits: Option<u32>,
    /// Tree-diff similarity of the candidate against the faulty spec, in
    /// `[0, 1]` — high values mean a minimal, surgical repair.
    pub tree_sim: Option<f64>,
    /// The technique's own success verdict.
    pub internal_success: bool,
    /// Oracle validations / drafts spent.
    pub explored: usize,
    /// Why the attempt ended ([`OutcomeReason::Crashed`] marks a cell whose
    /// technique panicked — contained by the runner, never lost).
    pub reason: OutcomeReason,
}

impl SpecRecord {
    /// The journal / dedup key of this record's cell.
    pub fn cell_key(&self) -> (String, String) {
        (self.problem.clone(), self.technique.clone())
    }
}

/// The full result set of a study run.
#[derive(Debug, Default)]
pub struct StudyResults {
    /// All records, grouped by problem (all techniques for problem 0, then
    /// problem 1, …).
    pub records: Vec<SpecRecord>,
    /// Number of problems evaluated.
    pub num_problems: usize,
    /// Lazily-built `technique label -> record positions` index; every
    /// per-technique accessor is a lookup instead of a scan over all
    /// `problems × 12` records. Built on first use — `records` must not be
    /// mutated afterwards (the study pipeline never does).
    index: OnceLock<HashMap<String, Vec<u32>>>,
}

// Manual impls: the index is derived state and must stay out of the
// serialized form (the cache-on/cache-off byte-identity check compares
// serialized `StudyResults`) and reset on clone/deserialize.
impl Clone for StudyResults {
    fn clone(&self) -> StudyResults {
        StudyResults {
            records: self.records.clone(),
            num_problems: self.num_problems,
            index: OnceLock::new(),
        }
    }
}

impl Serialize for StudyResults {
    fn to_value(&self) -> serde::Value {
        serde::Value::Map(vec![
            ("records".to_string(), self.records.to_value()),
            ("num_problems".to_string(), self.num_problems.to_value()),
        ])
    }
}

impl Deserialize for StudyResults {
    fn from_value(v: &serde::Value) -> Result<StudyResults, serde::Error> {
        let serde::Value::Map(m) = v else {
            return Err(serde::Error::custom("StudyResults: expected a map"));
        };
        Ok(StudyResults {
            records: Deserialize::from_value(serde::field(m, "records")?)?,
            num_problems: Deserialize::from_value(serde::field(m, "num_problems")?)?,
            index: OnceLock::new(),
        })
    }
}

impl StudyResults {
    /// Builds a result set over the given records.
    pub fn new(records: Vec<SpecRecord>, num_problems: usize) -> StudyResults {
        StudyResults {
            records,
            num_problems,
            index: OnceLock::new(),
        }
    }

    fn index(&self) -> &HashMap<String, Vec<u32>> {
        self.index.get_or_init(|| {
            let mut idx: HashMap<String, Vec<u32>> = HashMap::new();
            for (i, r) in self.records.iter().enumerate() {
                idx.entry(r.technique.clone()).or_default().push(i as u32);
            }
            idx
        })
    }

    /// Records of one technique, in problem order.
    pub fn of_technique(&self, label: &str) -> Vec<&SpecRecord> {
        self.index()
            .get(label)
            .map(|positions| {
                positions
                    .iter()
                    .map(|&i| &self.records[i as usize])
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Total REP count of a technique, optionally filtered by benchmark.
    pub fn rep_count(&self, label: &str, benchmark: Option<&str>) -> usize {
        self.of_technique(label)
            .iter()
            .filter(|r| benchmark.is_none_or(|b| r.benchmark == b))
            .map(|r| r.rep as usize)
            .sum()
    }

    /// Per-spec REP booleans of a technique, in problem order.
    pub fn rep_vector(&self, label: &str) -> Vec<bool> {
        self.of_technique(label)
            .iter()
            .map(|r| r.rep == 1)
            .collect()
    }

    /// Per-spec combined similarity (mean of TM and SM; 0 when absent), in
    /// problem order — the signal Figure 3 correlates.
    pub fn similarity_vector(&self, label: &str) -> Vec<f64> {
        self.of_technique(label)
            .iter()
            .map(|r| match (r.tm, r.sm) {
                (Some(t), Some(s)) => (t + s) / 2.0,
                (Some(t), None) => t,
                (None, Some(s)) => s,
                (None, None) => 0.0,
            })
            .collect()
    }
}

/// Aggregated performance-layer counters of one study run's oracles. The
/// oracle is required to be behaviorally inert (asserted by the
/// `study_pipeline` byte-identity gate), so these counters are pure
/// observability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RunStats {
    /// Oracle memo-table counters, aggregated over every per-problem
    /// oracle.
    pub cache: OracleCacheStats,
    /// Verdict-chain counters (`candidate_dedup`), aggregated likewise.
    pub dedup: DedupStats,
    /// Incremental-oracle session counters, aggregated likewise.
    pub incremental: IncrementalStats,
}

/// Builds the hints the Single-Round prompts may use for one problem: the
/// benchmark's known fault locations, the inverted edit script, and a
/// failing check command as the *Pass* requirement.
pub fn hints_for(problem: &RepairProblem) -> ProblemHints {
    hints_for_with(&Oracle::new(), problem)
}

/// [`hints_for`] against a caller-provided oracle: the failing-command scan
/// it performs is the same query every technique issues first, so sharing
/// the oracle makes it free within a study run.
pub fn hints_for_with(oracle: &Oracle, problem: &RepairProblem) -> ProblemHints {
    let pass = oracle
        .failing_commands(&problem.faulty)
        .ok()
        .and_then(|fs| {
            fs.into_iter()
                .find(|o| o.command.is_check())
                .map(|o| o.command.target().to_string())
        });
    ProblemHints {
        loc: problem.fault_spans.clone(),
        sites: specrepair_core::sites_for_spans(&problem.faulty, &problem.fault_spans),
        fix: problem
            .edits
            .iter()
            .map(|e| invert_fix_description(e))
            .collect(),
        pass,
    }
}

/// Runs one technique on one problem with a fresh oracle.
pub fn repair_with(
    id: TechniqueId,
    problem: &RepairProblem,
    config: &StudyConfig,
) -> RepairOutcome {
    repair_with_oracle(&OracleHandle::fresh(), id, problem, config)
}

/// Runs one technique on one problem against a shared oracle. Portfolio
/// ids race their roster on a machine-sized worker pool (see
/// [`crate::portfolio`] for explicit worker control).
pub fn repair_with_oracle(
    oracle: &OracleHandle,
    id: TechniqueId,
    problem: &RepairProblem,
    config: &StudyConfig,
) -> RepairOutcome {
    if let TechniqueId::Portfolio(roster) = id {
        return crate::portfolio::race(oracle, roster, problem, config, None).outcome;
    }
    let ctx = RepairContext::new(problem.faulty.clone(), config.budget_for(id))
        .with_source(&problem.faulty_source)
        .with_oracle(oracle.clone())
        .with_cancel(CancelToken::none());
    run_solo(id, problem, config, &ctx)
}

/// Dispatches one *non-portfolio* technique against a prepared context —
/// the shared core of the solo study cells and of every portfolio entrant
/// (which arrives here with its own budget, child cancel token and the
/// race's shared oracle).
///
/// Each LLM cell gets its own transport stack: with fault injection on,
/// the cell's fault schedule is a pure function of (fault_seed, cell
/// identity), independent of scheduling — a portfolio entrant sees exactly
/// the faults its solo row would.
pub(crate) fn run_solo(
    id: TechniqueId,
    problem: &RepairProblem,
    config: &StudyConfig,
    ctx: &RepairContext,
) -> RepairOutcome {
    let lm = |label: &str| {
        if config.chaos_enabled() {
            specrepair_llm::chaos_stack(config.fault_plan_for(&problem.id, label))
        } else {
            ResilientLm::synthetic()
        }
    };
    match id {
        TechniqueId::ARepair => ARepair::default().repair(ctx),
        TechniqueId::Icebar => Icebar::default().repair(ctx),
        TechniqueId::BeAFix => BeAFix::default().repair(ctx),
        TechniqueId::Atr => Atr::default().repair(ctx),
        TechniqueId::Single(setting) => SingleRound::new(setting, config.seed)
            .with_hints(hints_for_with(ctx.oracle.service(), problem))
            .with_lm(lm(setting.label()))
            .repair(ctx),
        TechniqueId::Multi(feedback) => MultiRound::new(feedback, config.seed)
            .with_lm(lm(feedback.label()))
            .repair(ctx),
        TechniqueId::Portfolio(_) => unreachable!("portfolios are raced, not run solo"),
    }
}

/// Evaluates one (problem, technique) pair into a record with a fresh
/// oracle.
pub fn evaluate(id: TechniqueId, problem: &RepairProblem, config: &StudyConfig) -> SpecRecord {
    evaluate_with(&OracleHandle::fresh(), id, problem, config)
}

/// Evaluates one (problem, technique) pair against a shared oracle.
pub fn evaluate_with(
    oracle: &OracleHandle,
    id: TechniqueId,
    problem: &RepairProblem,
    config: &StudyConfig,
) -> SpecRecord {
    let outcome = repair_with_oracle(oracle, id, problem, config);
    record_from(oracle.service(), problem, id.label(), &outcome)
}

/// Assembles a [`SpecRecord`] from one finished outcome — shared by the
/// solo study cells and the portfolio passes (which race an outcome first
/// and score it the same way afterwards). REP is asked of `oracle`, the
/// one the cell repaired with, so the ground truth's results are solved
/// once per problem and an accepted candidate scores from the memo.
pub fn record_from(
    oracle: &Oracle,
    problem: &RepairProblem,
    label: &str,
    outcome: &RepairOutcome,
) -> SpecRecord {
    let metrics = candidate_metrics(
        oracle,
        &problem.truth,
        &problem.truth_source,
        outcome.candidate_source.as_deref(),
    );
    // How far the repair strayed from the faulty spec, as a minimal edit
    // script over persistent node ids (exact for mutation-derived
    // candidates, positional for re-parsed model output).
    let diff = outcome
        .candidate
        .as_ref()
        .map(|c| specrepair_metrics::tree_diff(&problem.faulty, c).summary());
    SpecRecord {
        problem: problem.id.clone(),
        benchmark: problem.benchmark.label().to_string(),
        domain: problem.domain.clone(),
        technique: label.to_string(),
        rep: metrics.rep,
        tm: metrics.tm,
        sm: metrics.sm,
        tree_edits: diff.map(|d| d.edit_distance),
        tree_sim: diff.map(|d| d.similarity),
        internal_success: outcome.success,
        explored: outcome.candidates_explored,
        reason: outcome.reason,
    }
}

/// [`evaluate_with`], with panics contained: a technique that panics is
/// recorded as a [`OutcomeReason::Crashed`] cell instead of tearing down
/// the whole study run. The rest of the corpus still completes and the
/// crash stays visible in the artifacts.
pub fn evaluate_cell(
    oracle: &OracleHandle,
    id: TechniqueId,
    problem: &RepairProblem,
    config: &StudyConfig,
) -> SpecRecord {
    // Root of the cell's trace: a deterministic span-id space seeded from
    // the cell identity, plus one "cell" span covering the whole attempt.
    // All span-tree bookkeeping is inert (one relaxed atomic load) unless a
    // collector was enabled via `specrepair_trace::set_enabled`.
    let _trace_scope =
        specrepair_trace::cell_scope(config.cell_seed_for(&problem.id, id.label()), 0, None);
    let cell_span = specrepair_trace::span("cell", specrepair_trace::Phase::Orchestration);
    if cell_span.is_active() {
        cell_span.attr_str("technique", id.label());
        cell_span.attr_str("problem", &problem.id);
    }
    std::panic::catch_unwind(AssertUnwindSafe(|| {
        evaluate_with(oracle, id, problem, config)
    }))
    .unwrap_or_else(|_| SpecRecord {
        problem: problem.id.clone(),
        benchmark: problem.benchmark.label().to_string(),
        domain: problem.domain.clone(),
        technique: id.label().to_string(),
        rep: 0,
        tm: None,
        sm: None,
        tree_edits: None,
        tree_sim: None,
        internal_success: false,
        explored: 0,
        reason: OutcomeReason::Crashed,
    })
}

/// Runs all twelve techniques over the problem set (data-parallel across
/// problems), sharing one memoizing oracle per problem.
pub fn run_study(problems: &[RepairProblem], config: &StudyConfig) -> StudyResults {
    run_study_cached(problems, config, true).0
}

/// [`run_study`] with explicit cache control, reporting the aggregated
/// oracle statistics alongside the results.
///
/// The oracle memoizes by the candidate's canonical fingerprint, so a
/// cached run returns exactly the answers a fresh [`Oracle`] would
/// compute: `use_cache` may not change `StudyResults` by a single byte
/// (asserted by the `study_pipeline` integration tests).
pub fn run_study_cached(
    problems: &[RepairProblem],
    config: &StudyConfig,
    use_cache: bool,
) -> (StudyResults, RunStats) {
    run_study_journaled(problems, config, use_cache, None, &HashMap::new())
}

/// [`run_study_cached`] with crash-safe journaling and resume.
///
/// Cells present in `done` (loaded from a prior run's journal) are reused
/// verbatim and not re-evaluated; every freshly computed record is appended
/// to `journal` — write-through, before the runner moves on — so a run
/// killed at any point can resume from the journal and still produce
/// byte-identical results: cells are deterministic and the final record
/// vector is assembled in canonical (problem × technique) order regardless
/// of which run computed which cell.
pub fn run_study_journaled(
    problems: &[RepairProblem],
    config: &StudyConfig,
    use_cache: bool,
    journal: Option<&StudyJournal>,
    done: &HashMap<(String, String), SpecRecord>,
) -> (StudyResults, RunStats) {
    run_study_persistent(problems, config, use_cache, journal, done, None)
}

/// [`run_study_journaled`] with a persistent verdict tier: when `persist`
/// is given, every per-problem oracle probes it before invoking the solver
/// and writes fresh verdicts through to it, so a second run over the same
/// corpus warm-boots from disk. The tier only serves memoized *verdicts*
/// (never changes them), so results stay byte-identical with or without
/// it — the same inertness contract `use_cache` already carries.
pub fn run_study_persistent(
    problems: &[RepairProblem],
    config: &StudyConfig,
    use_cache: bool,
    journal: Option<&StudyJournal>,
    done: &HashMap<(String, String), SpecRecord>,
    persist: Option<&Arc<dyn VerdictStore>>,
) -> (StudyResults, RunStats) {
    let techniques = TechniqueId::all();
    let stats = Mutex::new(RunStats::default());
    let records: Vec<SpecRecord> = problems
        .par_iter()
        .flat_map_iter(|p| {
            let config = *config;
            // One oracle per problem: the twelve techniques keep re-checking
            // the same faulty spec and overlapping candidate sets, which is
            // where the memo table earns its keep. Problems stay independent
            // so rayon's work-stealing never contends on one table.
            let mut oracle = if use_cache {
                OracleHandle::fresh()
            } else {
                OracleHandle::disabled()
            };
            if let Some(store) = persist {
                oracle = oracle.with_persistent(Arc::clone(store));
            }
            let records: Vec<SpecRecord> = techniques
                .iter()
                .map(|&id| {
                    if let Some(r) = done.get(&(p.id.clone(), id.label().to_string())) {
                        return r.clone();
                    }
                    let r = evaluate_cell(&oracle, id, p, &config);
                    if let Some(j) = journal {
                        // A journal that cannot be written is a loud stop:
                        // continuing would silently forfeit crash safety.
                        j.append(&r).expect("cannot append to study journal");
                    }
                    r
                })
                .collect();
            let mut s = stats.lock();
            s.cache.absorb(&oracle.stats());
            s.dedup.absorb(&oracle.dedup_stats());
            s.incremental.absorb(&oracle.incremental_stats());
            drop(s);
            records
        })
        .collect();
    (
        StudyResults::new(records, problems.len()),
        stats.into_inner(),
    )
}

/// Convenience: generates both corpora at the configured scale and runs
/// the study.
pub fn run_full_study(config: &StudyConfig) -> (Vec<RepairProblem>, StudyResults) {
    let problems = specrepair_benchmarks::full_study(config.scale);
    let results = run_study(&problems, config);
    (problems, results)
}

/// Stable problem ordering check used by the correlation and hybrid
/// analyses: record vectors of two techniques must be aligned by problem.
pub fn aligned(results: &StudyResults, a: &str, b: &str) -> bool {
    let av = results.of_technique(a);
    let bv = results.of_technique(b);
    av.len() == bv.len() && av.iter().zip(&bv).all(|(x, y)| x.problem == y.problem)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Vec<RepairProblem>, StudyResults) {
        let config = StudyConfig {
            scale: 0.003,
            seed: 7,
            ..StudyConfig::default()
        };
        run_full_study(&config)
    }

    #[test]
    fn produces_twelve_records_per_problem() {
        let (problems, results) = tiny();
        assert!(!problems.is_empty());
        assert_eq!(results.records.len(), problems.len() * 12);
        assert_eq!(results.num_problems, problems.len());
        for id in TechniqueId::all() {
            assert!(aligned(&results, id.label(), "ATR"), "{}", id.label());
        }
    }

    #[test]
    fn rep_vectors_match_counts() {
        let (_, results) = tiny();
        for id in TechniqueId::all() {
            let v = results.rep_vector(id.label());
            let count = results.rep_count(id.label(), None);
            assert_eq!(v.iter().filter(|&&x| x).count(), count);
        }
    }

    #[test]
    fn similarity_vectors_are_bounded() {
        let (_, results) = tiny();
        for id in TechniqueId::all() {
            for s in results.similarity_vector(id.label()) {
                assert!((0.0..=1.0).contains(&s));
            }
        }
    }

    #[test]
    fn benchmark_filter_partitions_counts() {
        let (_, results) = tiny();
        for id in TechniqueId::all() {
            let total = results.rep_count(id.label(), None);
            let a4f = results.rep_count(id.label(), Some("A4F"));
            let arep = results.rep_count(id.label(), Some("ARepair"));
            assert_eq!(total, a4f + arep);
        }
    }

    #[test]
    fn hints_include_locations_and_fixes() {
        let problems = specrepair_benchmarks::arepair(0.1);
        let h = hints_for(&problems[0]);
        assert!(!h.loc.is_empty());
        assert!(!h.fix.is_empty());
    }
}
