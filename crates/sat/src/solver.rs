//! A CDCL (conflict-driven clause learning) SAT solver.
//!
//! Features: two-watched-literal propagation, first-UIP conflict analysis
//! with non-chronological backjumping, VSIDS variable activity with an
//! indexed max-heap, phase saving, geometric restarts and incremental
//! solving under assumptions. Clause deletion is intentionally omitted: the
//! μAlloy translations solved in this workspace are small (thousands of
//! variables) and keeping all learnt clauses is faster than managing a
//! reduction schedule at that scale.
//!
//! Every attached clause, original or learnt, lives in one append-only
//! literal arena: a clause is a start offset into it, and a clause
//! reference is the clause's index. Since no clause is ever deleted the
//! arena only grows, and attaching a clause allocates nothing beyond the
//! arena's own growth. [`Solver::clear`] empties the solver back to the
//! state of [`Solver::new`] but keeps its allocations, so a solver reused
//! for many small formulas stops allocating once it has seen the largest.

use crate::cnf::{Cnf, Lit, Var};
use crate::stats::{self, SolverStats};

/// Result of a [`Solver::solve`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveResult {
    /// Satisfiable, with a model mapping each variable index to a value.
    Sat(Vec<bool>),
    /// Unsatisfiable (under the given assumptions, if any).
    Unsat,
}

impl SolveResult {
    /// Whether the result is SAT.
    pub fn is_sat(&self) -> bool {
        matches!(self, SolveResult::Sat(_))
    }

    /// The model, if SAT.
    pub fn model(&self) -> Option<&[bool]> {
        match self {
            SolveResult::Sat(m) => Some(m),
            SolveResult::Unsat => None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LBool {
    True,
    False,
    Undef,
}

/// Index of an attached clause.
type ClauseRef = u32;

#[derive(Debug, Clone, Copy)]
struct Watcher {
    clause: ClauseRef,
    blocker: Lit,
}

/// An incremental CDCL SAT solver.
///
/// # Example
///
/// ```
/// use mualloy_sat::{Solver, SolveResult};
///
/// let mut solver = Solver::new();
/// let a = solver.new_var();
/// let b = solver.new_var();
/// solver.add_clause([a.positive(), b.positive()]);
/// solver.add_clause([a.negative()]);
/// match solver.solve() {
///     SolveResult::Sat(model) => assert!(model[b.index()]),
///     SolveResult::Unsat => unreachable!(),
/// }
/// ```
#[derive(Debug)]
pub struct Solver {
    /// The literals of every attached clause, back to back in attach order.
    arena: Vec<Lit>,
    /// Where each clause starts in `arena`; it ends where the next starts.
    clause_start: Vec<usize>,
    /// Indexed by `Lit::index()`. After [`Solver::clear`] the lists of
    /// earlier variables stay allocated (and empty) for `new_var` to reuse,
    /// so only the first `2 * num_vars()` lists belong to the formula.
    watches: Vec<Vec<Watcher>>,
    assign: Vec<LBool>, // indexed by Var::index()
    phase: Vec<bool>,   // saved phases
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    reason: Vec<Option<ClauseRef>>,
    level: Vec<u32>,
    activity: Vec<f64>,
    var_inc: f64,
    heap: Vec<Var>,         // binary max-heap on activity
    heap_index: Vec<usize>, // var -> position in heap (usize::MAX if absent)
    seen: Vec<bool>,
    /// Scratch space in which [`Solver::add_clause`] filters a clause.
    clause_buf: Vec<Lit>,
    qhead: usize,
    ok: bool,
    conflicts: u64,
    decisions: u64,
    propagations: u64,
    restarts: u64,
    learned_clauses: u64,
}

const HEAP_ABSENT: usize = usize::MAX;

impl Default for Solver {
    /// Same as [`Solver::new`]: an empty solver ready to accept clauses.
    fn default() -> Solver {
        Solver::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Solver {
        Solver {
            arena: Vec::new(),
            clause_start: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            phase: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            reason: Vec::new(),
            level: Vec::new(),
            activity: Vec::new(),
            var_inc: 1.0,
            heap: Vec::new(),
            heap_index: Vec::new(),
            seen: Vec::new(),
            clause_buf: Vec::new(),
            qhead: 0,
            ok: true,
            conflicts: 0,
            decisions: 0,
            propagations: 0,
            restarts: 0,
            learned_clauses: 0,
        }
    }

    /// Creates a solver preloaded with a CNF formula.
    pub fn from_cnf(cnf: &Cnf) -> Solver {
        let mut s = Solver::new();
        for _ in 0..cnf.num_vars() {
            s.new_var();
        }
        for c in cnf.clauses() {
            s.add_clause(c.iter().copied());
        }
        s
    }

    /// Empties the solver back to the state of [`Solver::new`]: no
    /// variables, no clauses, no assignments and every counter at zero.
    ///
    /// Unlike a fresh solver it keeps its allocations, the clause arena,
    /// the per-variable vectors and each variable's pair of watch lists,
    /// so re-encoding a formula of a similar size allocates nothing. A
    /// cleared solver answers every later call exactly as a fresh one.
    pub fn clear(&mut self) {
        fn emptied<T>(v: &mut Vec<T>) -> Vec<T> {
            let mut v = std::mem::take(v);
            v.clear();
            v
        }
        let mut watches = std::mem::take(&mut self.watches);
        watches.iter_mut().for_each(Vec::clear);
        // Every field not named here takes its value from `Solver::new`.
        *self = Solver {
            arena: emptied(&mut self.arena),
            clause_start: emptied(&mut self.clause_start),
            watches,
            assign: emptied(&mut self.assign),
            phase: emptied(&mut self.phase),
            trail: emptied(&mut self.trail),
            trail_lim: emptied(&mut self.trail_lim),
            reason: emptied(&mut self.reason),
            level: emptied(&mut self.level),
            activity: emptied(&mut self.activity),
            heap: emptied(&mut self.heap),
            heap_index: emptied(&mut self.heap_index),
            seen: emptied(&mut self.seen),
            clause_buf: emptied(&mut self.clause_buf),
            ..Solver::new()
        };
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assign.len() as u32);
        self.assign.push(LBool::Undef);
        self.phase.push(false);
        self.reason.push(None);
        self.level.push(0);
        self.activity.push(0.0);
        self.seen.push(false);
        // Reuse the pair of watch lists a cleared solver kept, if any.
        if self.watches.len() == v.positive().index() {
            self.watches.push(Vec::new());
            self.watches.push(Vec::new());
        }
        debug_assert!(self.watches[v.positive().index()].is_empty());
        debug_assert!(self.watches[v.negative().index()].is_empty());
        self.heap_index.push(HEAP_ABSENT);
        self.heap_insert(v);
        v
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Number of conflicts encountered so far.
    pub fn num_conflicts(&self) -> u64 {
        self.conflicts
    }

    /// Number of decisions made so far.
    pub fn num_decisions(&self) -> u64 {
        self.decisions
    }

    /// Number of literal propagations performed so far.
    pub fn num_propagations(&self) -> u64 {
        self.propagations
    }

    /// Number of restarts taken so far.
    pub fn num_restarts(&self) -> u64 {
        self.restarts
    }

    /// Number of clauses learned from conflict analysis so far.
    pub fn num_learned_clauses(&self) -> u64 {
        self.learned_clauses
    }

    /// Number of attached (non-unit) clauses, including learnt ones.
    /// Incremental sessions use this to measure clause retention across
    /// solves.
    pub fn num_clauses(&self) -> usize {
        self.clause_start.len()
    }

    /// A snapshot of all statistics counters (with `solves` left at 0 —
    /// the per-call bookkeeping lives in [`Solver::solve_with_assumptions`]).
    pub fn stats(&self) -> SolverStats {
        SolverStats {
            conflicts: self.conflicts,
            decisions: self.decisions,
            propagations: self.propagations,
            restarts: self.restarts,
            learned_clauses: self.learned_clauses,
            solves: 0,
        }
    }

    /// Adds a clause. Returns `false` if the solver became trivially UNSAT.
    ///
    /// Tautologies are silently dropped and duplicate literals removed. The
    /// solver must be at decision level 0 (which it always is between
    /// `solve` calls). The clause is filtered in a reused buffer and stored
    /// in the clause arena, so nothing is allocated for it alone.
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) -> bool {
        if !self.ok {
            return false;
        }
        debug_assert_eq!(self.decision_level(), 0);
        let mut clause = std::mem::take(&mut self.clause_buf);
        clause.clear();
        clause.extend(lits);
        let ok = self.add_filtered(&mut clause);
        self.clause_buf = clause;
        ok
    }

    /// [`Solver::add_clause`] on a clause collected into `clause`.
    fn add_filtered(&mut self, clause: &mut Vec<Lit>) -> bool {
        clause.sort_unstable();
        clause.dedup();
        // Tautology or satisfied-at-root detection; drop false literals,
        // keeping the rest in place.
        let mut kept = 0;
        for i in 0..clause.len() {
            let l = clause[i];
            if i + 1 < clause.len() && clause[i + 1] == !l {
                return true; // tautology: contains l and !l adjacent after sort
            }
            match self.value(l) {
                LBool::True => return true,
                LBool::False => {}
                LBool::Undef => {
                    clause[kept] = l;
                    kept += 1;
                }
            }
        }
        clause.truncate(kept);
        match clause.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(clause[0], None);
                self.ok = self.propagate().is_none();
                self.ok
            }
            _ => {
                self.attach_clause(clause);
                true
            }
        }
    }

    /// Copies `lits` to the end of the clause arena and watches its first
    /// two literals.
    fn attach_clause(&mut self, lits: &[Lit]) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let cref = self.clause_start.len() as ClauseRef;
        let w0 = Watcher {
            clause: cref,
            blocker: lits[1],
        };
        let w1 = Watcher {
            clause: cref,
            blocker: lits[0],
        };
        self.watches[(!lits[0]).index()].push(w0);
        self.watches[(!lits[1]).index()].push(w1);
        self.clause_start.push(self.arena.len());
        self.arena.extend_from_slice(lits);
        cref
    }

    /// The arena range holding clause `cref`'s literals.
    fn clause_range(&self, cref: ClauseRef) -> std::ops::Range<usize> {
        let c = cref as usize;
        let end = self
            .clause_start
            .get(c + 1)
            .copied()
            .unwrap_or(self.arena.len());
        self.clause_start[c]..end
    }

    fn value(&self, l: Lit) -> LBool {
        match self.assign[l.var().index()] {
            LBool::Undef => LBool::Undef,
            LBool::True => {
                if l.is_positive() {
                    LBool::True
                } else {
                    LBool::False
                }
            }
            LBool::False => {
                if l.is_positive() {
                    LBool::False
                } else {
                    LBool::True
                }
            }
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn unchecked_enqueue(&mut self, l: Lit, reason: Option<ClauseRef>) {
        debug_assert_eq!(self.value(l), LBool::Undef);
        let v = l.var();
        self.assign[v.index()] = if l.is_positive() {
            LBool::True
        } else {
            LBool::False
        };
        self.phase[v.index()] = l.is_positive();
        self.reason[v.index()] = reason;
        self.level[v.index()] = self.decision_level();
        self.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause if any.
    fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.propagations += 1;
            let mut i = 0;
            // Take the watch list to satisfy the borrow checker; we put
            // retained watchers back as we go.
            let mut ws = std::mem::take(&mut self.watches[p.index()]);
            let mut j = 0;
            let mut conflict = None;
            'watchers: while i < ws.len() {
                let w = ws[i];
                i += 1;
                // Quick skip when the blocker is already true.
                if self.value(w.blocker) == LBool::True {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let cref = w.clause;
                // Normalize so lits[0] is the other watched literal.
                let range = self.clause_range(cref);
                let first = {
                    let c = &mut self.arena[range.clone()];
                    if c[0] == !p {
                        c.swap(0, 1);
                    }
                    debug_assert_eq!(c[1], !p);
                    c[0]
                };
                if first != w.blocker && self.value(first) == LBool::True {
                    ws[j] = Watcher {
                        clause: cref,
                        blocker: first,
                    };
                    j += 1;
                    continue;
                }
                // Look for a new literal to watch.
                for k in range.start + 2..range.end {
                    let lk = self.arena[k];
                    if self.value(lk) != LBool::False {
                        self.arena.swap(range.start + 1, k);
                        self.watches[(!lk).index()].push(Watcher {
                            clause: cref,
                            blocker: first,
                        });
                        continue 'watchers;
                    }
                }
                // Clause is unit or conflicting.
                ws[j] = Watcher {
                    clause: cref,
                    blocker: first,
                };
                j += 1;
                if self.value(first) == LBool::False {
                    // Conflict: copy remaining watchers back and bail.
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                    conflict = Some(cref);
                } else {
                    self.unchecked_enqueue(first, Some(cref));
                }
            }
            ws.truncate(j);
            self.watches[p.index()] = ws;
            if let Some(c) = conflict {
                return Some(c);
            }
        }
        None
    }

    // -------------------------------------------------------------- VSIDS

    fn var_bump(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap_sift_up(v);
    }

    fn var_decay(&mut self) {
        self.var_inc /= 0.95;
    }

    fn heap_insert(&mut self, v: Var) {
        if self.heap_index[v.index()] != HEAP_ABSENT {
            return;
        }
        self.heap_index[v.index()] = self.heap.len();
        self.heap.push(v);
        self.heap_sift_up(v);
    }

    fn heap_sift_up(&mut self, v: Var) {
        let mut i = match self.heap_index.get(v.index()) {
            Some(&idx) if idx != HEAP_ABSENT => idx,
            _ => return,
        };
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.activity[self.heap[parent].index()] >= self.activity[self.heap[i].index()] {
                break;
            }
            self.heap_swap(i, parent);
            i = parent;
        }
    }

    fn heap_sift_down(&mut self, mut i: usize) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len()
                && self.activity[self.heap[l].index()] > self.activity[self.heap[best].index()]
            {
                best = l;
            }
            if r < self.heap.len()
                && self.activity[self.heap[r].index()] > self.activity[self.heap[best].index()]
            {
                best = r;
            }
            if best == i {
                break;
            }
            self.heap_swap(i, best);
            i = best;
        }
    }

    fn heap_swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.heap_index[self.heap[i].index()] = i;
        self.heap_index[self.heap[j].index()] = j;
    }

    fn heap_pop(&mut self) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        self.heap_index[top.index()] = HEAP_ABSENT;
        let last = self.heap.pop().expect("non-empty heap");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.heap_index[last.index()] = 0;
            self.heap_sift_down(0);
        }
        Some(top)
    }

    // ----------------------------------------------------------- analysis

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backjump level.
    fn analyze(&mut self, confl: ClauseRef) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::new(Var(0), true)]; // placeholder for UIP
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut confl = Some(confl);
        loop {
            let cref = confl.expect("conflict clause must exist during analysis");
            let range = self.clause_range(cref);
            for k in range.start + usize::from(p.is_some())..range.end {
                let q = self.arena[k];
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.var_bump(v);
                    if self.level[v.index()] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Find the next literal on the trail to resolve on.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let lit = self.trail[index];
            p = Some(lit);
            self.seen[lit.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                break;
            }
            confl = self.reason[lit.var().index()];
        }
        learnt[0] = !p.expect("first UIP exists");

        // Compute the backjump level (second-highest level in the clause).
        let backjump = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var().index()]
        };
        for l in &learnt {
            self.seen[l.var().index()] = false;
        }
        (learnt, backjump)
    }

    fn backtrack_to(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let target = self.trail_lim[level as usize];
        for i in (target..self.trail.len()).rev() {
            let v = self.trail[i].var();
            self.assign[v.index()] = LBool::Undef;
            self.reason[v.index()] = None;
            self.heap_insert(v);
        }
        self.trail.truncate(target);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    // -------------------------------------------------------------- solve

    /// Solves the current formula with no assumptions.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves under the given assumption literals.
    ///
    /// Returns [`SolveResult::Unsat`] if the formula is unsatisfiable when
    /// every assumption is forced true. The solver remains usable (and the
    /// assumptions are dropped) afterwards.
    ///
    /// Each completed call records its counter deltas into any open
    /// [`stats::collect`] scope and, when tracing is enabled, a
    /// `sat.solve` span carrying the deltas as attributes.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        let before = self.stats();
        let span = specrepair_trace::span("sat.solve", specrepair_trace::Phase::Sat);
        let result = self.search(assumptions);
        let mut delta = self.stats().delta_since(&before);
        delta.solves = 1;
        stats::record(&delta);
        if span.is_active() {
            span.attr_bool("sat", result.is_sat());
            span.attr_u64("vars", self.num_vars() as u64);
            span.attr_u64("conflicts", delta.conflicts);
            span.attr_u64("decisions", delta.decisions);
            span.attr_u64("propagations", delta.propagations);
            span.attr_u64("restarts", delta.restarts);
            span.attr_u64("learned_clauses", delta.learned_clauses);
        }
        result
    }

    /// The CDCL search loop behind [`Solver::solve_with_assumptions`].
    fn search(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.backtrack_to(0);
        if !self.ok {
            return SolveResult::Unsat;
        }
        if self.propagate().is_some() {
            self.ok = false;
            return SolveResult::Unsat;
        }
        let mut restart_limit = 64u64;
        let mut conflicts_since_restart = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                self.conflicts += 1;
                conflicts_since_restart += 1;
                if self.decision_level() <= assumptions.len() as u32 {
                    // Conflict at or below the assumption levels: check if it
                    // depends on assumptions; at level 0 it is a real UNSAT.
                    if self.decision_level() == 0 {
                        self.ok = false;
                    } else {
                        self.backtrack_to(0);
                    }
                    return SolveResult::Unsat;
                }
                let (learnt, backjump) = self.analyze(confl);
                self.learned_clauses += 1;
                // Never backjump below the assumption levels.
                let backjump = backjump.max(self.assumption_safe_level(&learnt, assumptions));
                self.backtrack_to(backjump);
                if learnt.len() == 1 {
                    if self.value(learnt[0]) == LBool::Undef {
                        self.unchecked_enqueue(learnt[0], None);
                    } else if self.value(learnt[0]) == LBool::False {
                        self.ok = self.decision_level() > 0;
                        if !self.ok {
                            return SolveResult::Unsat;
                        }
                    }
                } else {
                    let cref = self.attach_clause(&learnt);
                    if self.value(learnt[0]) == LBool::Undef {
                        self.unchecked_enqueue(learnt[0], Some(cref));
                    }
                }
                self.var_decay();
                if conflicts_since_restart >= restart_limit {
                    conflicts_since_restart = 0;
                    restart_limit = restart_limit.saturating_mul(3) / 2;
                    self.restarts += 1;
                    self.backtrack_to((assumptions.len() as u32).min(self.decision_level()));
                }
            } else {
                // Place assumptions as pseudo-decisions first.
                let dl = self.decision_level() as usize;
                if dl < assumptions.len() {
                    let a = assumptions[dl];
                    match self.value(a) {
                        LBool::True => {
                            // Already implied: open an empty decision level.
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => {
                            self.backtrack_to(0);
                            return SolveResult::Unsat;
                        }
                        LBool::Undef => {
                            self.trail_lim.push(self.trail.len());
                            self.unchecked_enqueue(a, None);
                        }
                    }
                    continue;
                }
                // Normal decision.
                let next = loop {
                    match self.heap_pop() {
                        None => break None,
                        Some(v) if self.assign[v.index()] == LBool::Undef => break Some(v),
                        Some(_) => continue,
                    }
                };
                match next {
                    None => {
                        // All variables assigned: SAT.
                        let model: Vec<bool> = self
                            .assign
                            .iter()
                            .map(|a| matches!(a, LBool::True))
                            .collect();
                        self.backtrack_to(0);
                        return SolveResult::Sat(model);
                    }
                    Some(v) => {
                        self.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let phase = self.phase[v.index()];
                        self.unchecked_enqueue(Lit::new(v, phase), None);
                    }
                }
            }
        }
    }

    /// The minimum level the solver may backjump to without discarding
    /// assumption decisions that the learnt clause depends on.
    ///
    /// Only the assumption levels actually present among the learnt
    /// clause's literals pin the backjump: a conflict whose learnt clause
    /// touches no assumption may jump all the way to level 0 (the search
    /// loop re-places missing assumptions before the next real decision),
    /// while one whose deepest assumption literal sits at level `k` must
    /// keep levels `1..=k` intact so the clause stays asserting. Capped
    /// below the current decision level so the backjump always undoes at
    /// least the conflicting level.
    fn assumption_safe_level(&self, learnt: &[Lit], assumptions: &[Lit]) -> u32 {
        if assumptions.is_empty() {
            return 0;
        }
        let n = assumptions.len() as u32;
        let dl = self.decision_level();
        let mut safe = 0;
        for l in learnt {
            let lv = self.level[l.var().index()];
            if lv <= n && lv > safe {
                safe = lv;
            }
        }
        safe.min(dl.saturating_sub(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: Var, pos: bool) -> Lit {
        Lit::new(v, pos)
    }

    #[test]
    fn trivial_sat() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause([a.positive()]);
        let r = s.solve();
        assert!(r.is_sat());
        assert!(r.model().unwrap()[a.index()]);
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause([a.positive()]);
        s.add_clause([a.negative()]);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert!(s.solve().is_sat());
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        let _ = s.new_var();
        assert!(!s.add_clause([]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // p[i][j]: pigeon i in hole j; 3 pigeons, 2 holes.
        let mut s = Solver::new();
        let mut p = [[Var(0); 2]; 3];
        for row in p.iter_mut() {
            for cell in row.iter_mut() {
                *cell = s.new_var();
            }
        }
        for row in &p {
            s.add_clause([row[0].positive(), row[1].positive()]);
        }
        for (i1, row1) in p.iter().enumerate() {
            for row2 in &p[i1 + 1..] {
                for (a, b) in row1.iter().zip(row2) {
                    s.add_clause([a.negative(), b.negative()]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn chain_of_implications_propagates() {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..50).map(|_| s.new_var()).collect();
        for w in vars.windows(2) {
            s.add_clause([w[0].negative(), w[1].positive()]);
        }
        s.add_clause([vars[0].positive()]);
        match s.solve() {
            SolveResult::Sat(m) => assert!(vars.iter().all(|v| m[v.index()])),
            SolveResult::Unsat => panic!("expected SAT"),
        }
    }

    #[test]
    fn model_satisfies_formula() {
        let mut cnf = Cnf::new();
        let vars: Vec<Var> = (0..6).map(|_| cnf.fresh_var()).collect();
        cnf.add_clause([lit(vars[0], true), lit(vars[1], false), lit(vars[2], true)]);
        cnf.add_clause([lit(vars[3], false), lit(vars[4], true)]);
        cnf.add_clause([lit(vars[1], true), lit(vars[5], false)]);
        cnf.add_clause([lit(vars[2], false), lit(vars[3], true)]);
        let mut s = Solver::from_cnf(&cnf);
        match s.solve() {
            SolveResult::Sat(m) => assert_eq!(cnf.eval(&m), Some(true)),
            SolveResult::Unsat => panic!("expected SAT"),
        }
    }

    #[test]
    fn assumptions_constrain_and_release() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause([a.positive(), b.positive()]);
        // Assuming !a forces b.
        match s.solve_with_assumptions(&[a.negative()]) {
            SolveResult::Sat(m) => {
                assert!(!m[a.index()]);
                assert!(m[b.index()]);
            }
            SolveResult::Unsat => panic!("expected SAT"),
        }
        // Conflicting assumptions: UNSAT, but solver still usable.
        s.add_clause([a.positive()]);
        assert_eq!(
            s.solve_with_assumptions(&[a.negative()]),
            SolveResult::Unsat
        );
        assert!(s.solve().is_sat());
    }

    #[test]
    fn incremental_blocking_clauses_enumerate_models() {
        // 2 free variables -> 4 models.
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause([a.positive(), a.negative()]); // touch both vars
        s.add_clause([b.positive(), b.negative()]);
        let mut count = 0;
        while let SolveResult::Sat(m) = s.solve() {
            count += 1;
            assert!(count <= 4, "enumerated too many models");
            let block: Vec<Lit> = [a, b].iter().map(|&v| Lit::new(v, !m[v.index()])).collect();
            if !s.add_clause(block) {
                break;
            }
        }
        assert_eq!(count, 4);
    }

    #[test]
    fn statistics_accumulate() {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..20).map(|_| s.new_var()).collect();
        for w in vars.chunks(3) {
            if w.len() == 3 {
                s.add_clause([w[0].positive(), w[1].positive(), w[2].positive()]);
                s.add_clause([w[0].negative(), w[1].negative()]);
            }
        }
        let _ = s.solve();
        assert!(s.num_decisions() > 0 || s.num_propagations() > 0);
        assert_eq!(s.num_vars(), 20);
        let stats = s.stats();
        assert_eq!(stats.conflicts, s.num_conflicts());
        assert_eq!(stats.decisions, s.num_decisions());
        assert_eq!(stats.propagations, s.num_propagations());
        assert_eq!(stats.restarts, s.num_restarts());
        assert_eq!(stats.learned_clauses, s.num_learned_clauses());
    }

    #[test]
    fn assumption_safe_level_inspects_the_learnt_clause() {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..5).map(|_| s.new_var()).collect();
        let assumptions: Vec<Lit> = vars[..3].iter().map(|v| v.positive()).collect();
        // Mirror the search loop: three assumption pseudo-decisions at
        // levels 1..=3, then one real decision at level 4.
        for &a in &assumptions {
            s.trail_lim.push(s.trail.len());
            s.unchecked_enqueue(a, None);
        }
        s.trail_lim.push(s.trail.len());
        s.unchecked_enqueue(vars[3].positive(), None);
        assert_eq!(s.decision_level(), 4);
        // A learnt clause touching only assumption level 2 pins the
        // backjump there, not at the full prefix depth of 3.
        let learnt = [vars[4].negative(), vars[1].negative()];
        assert_eq!(s.assumption_safe_level(&learnt, &assumptions), 2);
        // One touching no assumption at all releases the jump to level 0.
        let learnt = [vars[4].negative()];
        assert_eq!(s.assumption_safe_level(&learnt, &assumptions), 0);
        // With no assumptions the prefix never constrains anything.
        assert_eq!(s.assumption_safe_level(&learnt, &[]), 0);
    }

    #[test]
    fn backjumps_below_unrelated_assumptions_stay_sound() {
        // Pigeonhole 6-into-5 with six extra free variables assumed
        // positive: every core conflict learns a clause over pigeon
        // variables only, so the backjump may now cross the assumption
        // prefix entirely. The verdict and the follow-up solves must match
        // what adding the assumptions as unit clauses yields.
        let build = |s: &mut Solver| -> (Vec<Lit>, Vec<Vec<Var>>) {
            let free: Vec<Lit> = (0..6).map(|_| s.new_var().positive()).collect();
            let p: Vec<Vec<Var>> = (0..6)
                .map(|_| (0..5).map(|_| s.new_var()).collect())
                .collect();
            for row in &p {
                s.add_clause(row.iter().map(|v| v.positive()));
            }
            for (i1, row1) in p.iter().enumerate() {
                for row2 in &p[i1 + 1..] {
                    for (a, b) in row1.iter().zip(row2) {
                        s.add_clause([a.negative(), b.negative()]);
                    }
                }
            }
            (free, p)
        };
        let mut s = Solver::new();
        let (free, p) = build(&mut s);
        assert_eq!(s.solve_with_assumptions(&free), SolveResult::Unsat);
        // The solver survives the UNSAT answer: releasing pigeon 5 (allow
        // it to share hole 0 with anyone) makes the core satisfiable, and
        // the model must honor every assumption despite the deep backjumps
        // the search performed.
        for row in &p[..5] {
            s.add_clause([row[0].negative(), p[5][0].positive()]);
        }
        let relax = s.new_var();
        s.add_clause([relax.positive()]);
        let mut assumptions = free.clone();
        assumptions.push(relax.positive());
        match s.solve_with_assumptions(&assumptions) {
            SolveResult::Sat(_) => panic!("pigeonhole stays UNSAT"),
            SolveResult::Unsat => {}
        }
        // A satisfiable formula under many unrelated assumptions: chain of
        // implications plus the free prefix.
        let mut s2 = Solver::new();
        let free2: Vec<Lit> = (0..8).map(|_| s2.new_var().positive()).collect();
        let chain: Vec<Var> = (0..30).map(|_| s2.new_var()).collect();
        for w in chain.windows(2) {
            s2.add_clause([w[0].negative(), w[1].positive()]);
        }
        s2.add_clause([chain[0].positive()]);
        match s2.solve_with_assumptions(&free2) {
            SolveResult::Sat(m) => {
                for a in &free2 {
                    assert_eq!(m[a.var().index()], a.is_positive());
                }
                assert!(chain.iter().all(|v| m[v.index()]));
            }
            SolveResult::Unsat => panic!("expected SAT"),
        }
    }

    /// Adds pigeonhole `pigeons`-into-`holes` to `s`.
    fn pigeonhole(s: &mut Solver, pigeons: usize, holes: usize) {
        let p: Vec<Vec<Var>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| s.new_var()).collect())
            .collect();
        for row in &p {
            s.add_clause(row.iter().map(|v| v.positive()));
        }
        for (i1, row1) in p.iter().enumerate() {
            for row2 in &p[i1 + 1..] {
                for (a, b) in row1.iter().zip(row2) {
                    s.add_clause([a.negative(), b.negative()]);
                }
            }
        }
    }

    #[test]
    fn conflicts_learn_clauses_and_hard_instances_restart() {
        // Pigeonhole 7-into-6: plenty of conflicts, enough to trip the
        // 64-conflict geometric restart schedule.
        let mut s = Solver::new();
        pigeonhole(&mut s, 7, 6);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.num_conflicts() > 64, "conflicts: {}", s.num_conflicts());
        assert!(s.num_learned_clauses() > 0);
        assert!(
            s.num_learned_clauses() <= s.num_conflicts(),
            "at most one learnt clause per conflict"
        );
        assert!(s.num_restarts() > 0, "restart schedule never fired");
    }

    #[test]
    fn clear_leaves_a_fresh_solver_that_keeps_its_allocations() {
        // After a search with learnt clauses, restarts and a root-level
        // UNSAT verdict, every field but the kept watch lists prints as a
        // fresh solver's; the watch lists are all empty.
        let mut s = Solver::new();
        pigeonhole(&mut s, 7, 6);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let (lits, vars) = (s.arena.len(), s.num_vars());
        s.clear();
        assert!(s.arena.capacity() >= lits && s.assign.capacity() >= vars);
        assert_eq!(s.watches.len(), 2 * vars);
        assert!(s.watches.iter().all(Vec::is_empty));
        let kept = std::mem::take(&mut s.watches);
        assert_eq!(format!("{s:?}"), format!("{:?}", Solver::new()));
        // The kept pairs serve the next formula's variables, and it solves
        // as on a fresh solver.
        s.watches = kept;
        let mut fresh = Solver::new();
        pigeonhole(&mut s, 4, 4);
        pigeonhole(&mut fresh, 4, 4);
        assert_eq!(s.watches.len(), 2 * vars);
        assert_eq!(s.solve(), fresh.solve());
        assert_eq!(s.stats(), fresh.stats());
        assert_eq!(s.num_clauses(), fresh.num_clauses());
    }
}
