//! # specrepair-faults
//!
//! Deterministic fault injection for the repair pipelines' chaos mode.
//!
//! The paper's LLM pipelines sit on a flaky remote API: calls time out, get
//! rate-limited, fail transiently, or come back truncated (Alhanahnah et
//! al. report malformed model output as a routine failure mode). This crate
//! models that fault surface *reproducibly*: a [`FaultPlan`] is a pure
//! function from a seed and a call index to an optional [`FaultKind`], so a
//! chaos run is exactly replayable — same seed, same faults, same outcome —
//! the property every resilience test in this workspace leans on.
//!
//! [`FaultStats`] is the shared injected-fault accounting surfaced by
//! `specrepaird`'s `GET /metrics` and the study harness's chaos report.

#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};

/// The kinds of transport fault the plan can inject, mirroring the failure
/// taxonomy of a remote LLM API (DESIGN.md §7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The call exceeded its transport timeout; nothing came back.
    Timeout,
    /// The provider rejected the call with a rate limit; retry later.
    RateLimit,
    /// A transient transport error (connection reset, 5xx, …).
    Transient,
    /// The completion came back truncated / malformed mid-stream.
    Truncated,
}

impl FaultKind {
    /// All kinds, in taxonomy order.
    pub const ALL: [FaultKind; 4] = [
        FaultKind::Timeout,
        FaultKind::RateLimit,
        FaultKind::Transient,
        FaultKind::Truncated,
    ];

    /// Stable lower-case label (metrics keys, reports).
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Timeout => "timeout",
            FaultKind::RateLimit => "rate_limit",
            FaultKind::Transient => "transient",
            FaultKind::Truncated => "truncated",
        }
    }
}

/// SplitMix64: a tiny, high-quality mixer — the per-call fault draw must
/// not need any shared RNG state, so each call index is hashed directly.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic per-call fault schedule.
///
/// `fault_at(i)` is a pure function of `(seed, i)`: two plans with the same
/// seed, rate and kind set inject byte-identical fault sequences, no matter
/// how calls interleave across threads. Retried calls consume fresh indices,
/// so a retry is a fresh draw — exactly how a real flaky endpoint behaves,
/// minus the nondeterminism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the schedule.
    pub seed: u64,
    /// Probability of injecting a fault on any given call, in `[0, 1]`.
    pub rate: f64,
    /// Which kinds the plan may inject (subset of [`FaultKind::ALL`]).
    kinds: [bool; 4],
}

impl FaultPlan {
    /// The fault-free plan (rate 0): the production default.
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            rate: 0.0,
            kinds: [true; 4],
        }
    }

    /// A plan injecting every fault kind at `rate`.
    pub fn new(seed: u64, rate: f64) -> FaultPlan {
        FaultPlan {
            seed,
            rate: rate.clamp(0.0, 1.0),
            kinds: [true; 4],
        }
    }

    /// Restricts the plan to the given kinds (empty = keep all).
    pub fn with_kinds(mut self, kinds: &[FaultKind]) -> FaultPlan {
        if kinds.is_empty() {
            return self;
        }
        self.kinds = [false; 4];
        for k in kinds {
            self.kinds[*k as usize] = true;
        }
        self
    }

    /// Whether the plan can inject anything at all.
    pub fn is_active(&self) -> bool {
        self.rate > 0.0 && self.kinds.iter().any(|&k| k)
    }

    /// The fault (if any) scheduled for call number `call` — a pure
    /// function of the plan and the index.
    pub fn fault_at(&self, call: u64) -> Option<FaultKind> {
        if !self.is_active() {
            return None;
        }
        let draw = mix(self.seed ^ call.wrapping_mul(0x2545_f491_4f6c_dd1d));
        // Top 53 bits → uniform f64 in [0, 1).
        let unit = (draw >> 11) as f64 / (1u64 << 53) as f64;
        if unit >= self.rate {
            return None;
        }
        let enabled: Vec<FaultKind> = FaultKind::ALL
            .into_iter()
            .filter(|k| self.kinds[*k as usize])
            .collect();
        let pick = mix(draw) as usize % enabled.len();
        Some(enabled[pick])
    }

    /// The longest run of consecutive scheduled faults in the first
    /// `calls` indices — the retry budget needed to absorb every fault of
    /// a bounded run (chaos CI sizes its `--retries` with this).
    pub fn max_consecutive_faults(&self, calls: u64) -> usize {
        let mut longest = 0usize;
        let mut current = 0usize;
        for i in 0..calls {
            if self.fault_at(i).is_some() {
                current += 1;
                longest = longest.max(current);
            } else {
                current = 0;
            }
        }
        longest
    }
}

/// The kinds of disk fault the persistent cache's I/O seam can inject,
/// modeling the storage failure taxonomy (DESIGN.md §14): a write that
/// errors outright, a write that lands only partially (torn tail), and
/// silent media corruption flipping a stored byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiskFaultKind {
    /// The write syscall fails; nothing reaches the log.
    WriteError,
    /// Only a prefix of the record reaches the log (torn write).
    ShortWrite,
    /// The record lands whole but one byte is flipped (media corruption).
    BitFlip,
}

impl DiskFaultKind {
    /// All kinds, in taxonomy order.
    pub const ALL: [DiskFaultKind; 3] = [
        DiskFaultKind::WriteError,
        DiskFaultKind::ShortWrite,
        DiskFaultKind::BitFlip,
    ];

    /// Stable lower-case label (metrics keys, reports).
    pub fn label(&self) -> &'static str {
        match self {
            DiskFaultKind::WriteError => "write_error",
            DiskFaultKind::ShortWrite => "short_write",
            DiskFaultKind::BitFlip => "bit_flip",
        }
    }
}

/// A deterministic per-append disk fault schedule, sharing [`FaultPlan`]'s
/// pure-function discipline: `fault_at(i)` depends only on `(seed, i)`, so
/// a chaotic cache run replays byte-identically under the same seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskFaultPlan {
    /// Seed of the schedule.
    pub seed: u64,
    /// Probability of injecting a fault on any given append, in `[0, 1]`.
    pub rate: f64,
    /// Which kinds the plan may inject (subset of [`DiskFaultKind::ALL`]).
    kinds: [bool; 3],
}

impl DiskFaultPlan {
    /// The fault-free plan (rate 0): the production default.
    pub fn none() -> DiskFaultPlan {
        DiskFaultPlan {
            seed: 0,
            rate: 0.0,
            kinds: [true; 3],
        }
    }

    /// A plan injecting every disk fault kind at `rate`.
    pub fn new(seed: u64, rate: f64) -> DiskFaultPlan {
        DiskFaultPlan {
            seed,
            rate: rate.clamp(0.0, 1.0),
            kinds: [true; 3],
        }
    }

    /// Restricts the plan to the given kinds (empty = keep all).
    pub fn with_kinds(mut self, kinds: &[DiskFaultKind]) -> DiskFaultPlan {
        if kinds.is_empty() {
            return self;
        }
        self.kinds = [false; 3];
        for k in kinds {
            self.kinds[*k as usize] = true;
        }
        self
    }

    /// Whether the plan can inject anything at all.
    pub fn is_active(&self) -> bool {
        self.rate > 0.0 && self.kinds.iter().any(|&k| k)
    }

    /// The disk fault (if any) scheduled for append number `call` — a pure
    /// function of the plan and the index. A distinct stream constant keeps
    /// disk draws uncorrelated with the transport plan at equal seeds.
    pub fn fault_at(&self, call: u64) -> Option<DiskFaultKind> {
        if !self.is_active() {
            return None;
        }
        let draw =
            mix(self.seed ^ call.wrapping_mul(0x9e6c_63d0_876a_3f35) ^ 0xd15c_fa17_0000_0001);
        let unit = (draw >> 11) as f64 / (1u64 << 53) as f64;
        if unit >= self.rate {
            return None;
        }
        let enabled: Vec<DiskFaultKind> = DiskFaultKind::ALL
            .into_iter()
            .filter(|k| self.kinds[*k as usize])
            .collect();
        let pick = mix(draw) as usize % enabled.len();
        Some(enabled[pick])
    }
}

/// A call-count circuit breaker: the degradation discipline shared by every
/// unreliable seam in the workspace (the persistent cache's disk appends,
/// the LM transport, the cluster's per-shard links).
///
/// Counting calls instead of wall-clock time keeps chaos runs deterministic:
/// the same fault schedule trips and heals the breaker at the same call
/// indices on every run. `trip_after` consecutive failures open it; while
/// open every `halfopen_after`-th call is allowed through as a probe, and a
/// probe success closes it again.
#[derive(Debug)]
pub struct CallBreaker {
    trip_after: u32,
    halfopen_after: u32,
    inner: std::sync::Mutex<CallBreakerInner>,
}

#[derive(Debug, Default)]
struct CallBreakerInner {
    consecutive_failures: u32,
    open: bool,
    skips_while_open: u32,
}

impl CallBreaker {
    /// A closed breaker tripping after `trip_after` consecutive failures
    /// and probing every `halfopen_after`-th call while open.
    pub fn new(trip_after: u32, halfopen_after: u32) -> CallBreaker {
        CallBreaker {
            trip_after: trip_after.max(1),
            halfopen_after: halfopen_after.max(1),
            inner: std::sync::Mutex::new(CallBreakerInner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CallBreakerInner> {
        // Poisoning is absorbed: a panicking caller leaves valid counters.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Whether the next call may go through. While open, every
    /// `halfopen_after`-th request is allowed as a half-open probe.
    pub fn allow(&self) -> bool {
        let mut inner = self.lock();
        if !inner.open {
            return true;
        }
        inner.skips_while_open += 1;
        if inner.skips_while_open >= self.halfopen_after {
            inner.skips_while_open = 0;
            return true;
        }
        false
    }

    /// Records a success; a successful half-open probe closes the breaker.
    pub fn success(&self) {
        let mut inner = self.lock();
        inner.consecutive_failures = 0;
        inner.open = false;
    }

    /// Records a failure. Returns `true` when this failure tripped the
    /// breaker open.
    pub fn failure(&self) -> bool {
        let mut inner = self.lock();
        inner.consecutive_failures += 1;
        if inner.open {
            // A failed half-open probe restarts the cooldown.
            inner.skips_while_open = 0;
            return false;
        }
        if inner.consecutive_failures >= self.trip_after {
            inner.open = true;
            inner.skips_while_open = 0;
            return true;
        }
        false
    }

    /// Whether the breaker is currently open (the seam is degraded).
    pub fn is_open(&self) -> bool {
        self.lock().open
    }
}

/// Shared injected-fault accounting: one atomic counter per kind. Cheap to
/// clone behind an `Arc`; every decorated transport records here.
#[derive(Debug, Default)]
pub struct FaultStats {
    counters: [AtomicU64; 4],
}

impl FaultStats {
    /// A zeroed registry.
    pub fn new() -> FaultStats {
        FaultStats::default()
    }

    /// Records one injected fault.
    pub fn record(&self, kind: FaultKind) {
        self.counters[kind as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Count injected so far for one kind.
    pub fn count(&self, kind: FaultKind) -> u64 {
        self.counters[kind as usize].load(Ordering::Relaxed)
    }

    /// Total faults injected across all kinds.
    pub fn total(&self) -> u64 {
        FaultKind::ALL.iter().map(|&k| self.count(k)).sum()
    }

    /// Snapshot as `(kind label, count)` pairs in taxonomy order — what
    /// the daemon's `transport.injected_faults` metrics read.
    pub fn pairs(&self) -> Vec<(String, u64)> {
        FaultKind::ALL
            .iter()
            .map(|&k| (k.label().to_string(), self.count(k)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_plans_never_fault() {
        let plan = FaultPlan::none();
        assert!(!plan.is_active());
        assert!((0..10_000).all(|i| plan.fault_at(i).is_none()));
        let zero_rate = FaultPlan::new(7, 0.0);
        assert!((0..1_000).all(|i| zero_rate.fault_at(i).is_none()));
    }

    #[test]
    fn schedule_is_deterministic_and_seed_sensitive() {
        let a = FaultPlan::new(42, 0.2);
        let b = FaultPlan::new(42, 0.2);
        let c = FaultPlan::new(43, 0.2);
        let seq = |p: &FaultPlan| (0..500).map(|i| p.fault_at(i)).collect::<Vec<_>>();
        assert_eq!(seq(&a), seq(&b), "same seed, same schedule");
        assert_ne!(seq(&a), seq(&c), "different seed, different schedule");
    }

    #[test]
    fn rate_is_approximately_honored() {
        let plan = FaultPlan::new(9, 0.25);
        let hits = (0..20_000).filter(|&i| plan.fault_at(i).is_some()).count();
        let rate = hits as f64 / 20_000.0;
        assert!((0.22..=0.28).contains(&rate), "observed rate {rate}");
    }

    #[test]
    fn kind_restriction_holds() {
        let plan = FaultPlan::new(3, 0.5).with_kinds(&[FaultKind::Transient]);
        let mut saw = 0;
        for i in 0..2_000 {
            if let Some(kind) = plan.fault_at(i) {
                assert_eq!(kind, FaultKind::Transient);
                saw += 1;
            }
        }
        assert!(saw > 500, "restricted plan still injects ({saw})");
    }

    #[test]
    fn all_kinds_eventually_appear() {
        let plan = FaultPlan::new(5, 0.5);
        let mut seen = std::collections::HashSet::new();
        for i in 0..2_000 {
            if let Some(kind) = plan.fault_at(i) {
                seen.insert(kind);
            }
        }
        assert_eq!(seen.len(), 4, "only saw {seen:?}");
    }

    #[test]
    fn max_consecutive_bounds_the_schedule() {
        let plan = FaultPlan::new(11, 0.15);
        let longest = plan.max_consecutive_faults(5_000);
        assert!(longest >= 1, "a 15% plan faults somewhere in 5k calls");
        assert!(longest <= 10, "unreasonable run length {longest}");
        // Verify against a direct recount.
        let (mut cur, mut max) = (0usize, 0usize);
        for i in 0..5_000 {
            cur = if plan.fault_at(i).is_some() {
                cur + 1
            } else {
                0
            };
            max = max.max(cur);
        }
        assert_eq!(longest, max);
    }

    #[test]
    fn disk_plan_is_deterministic_and_distinct_from_transport_stream() {
        let a = DiskFaultPlan::new(42, 0.3);
        let b = DiskFaultPlan::new(42, 0.3);
        let seq = |p: &DiskFaultPlan| (0..500).map(|i| p.fault_at(i)).collect::<Vec<_>>();
        assert_eq!(seq(&a), seq(&b), "same seed, same schedule");
        assert!(!DiskFaultPlan::none().is_active());
        assert!((0..1_000).all(|i| DiskFaultPlan::new(7, 0.0).fault_at(i).is_none()));
        // Equal seeds must not mean equal draws across the two fault surfaces.
        let transport = FaultPlan::new(42, 0.3);
        let disk_hits: Vec<u64> = (0..2_000).filter(|&i| a.fault_at(i).is_some()).collect();
        let lm_hits: Vec<u64> = (0..2_000)
            .filter(|&i| transport.fault_at(i).is_some())
            .collect();
        assert_ne!(disk_hits, lm_hits, "disk and transport streams correlate");
    }

    #[test]
    fn disk_plan_kind_restriction_and_coverage() {
        let only_flip = DiskFaultPlan::new(3, 0.5).with_kinds(&[DiskFaultKind::BitFlip]);
        let mut saw = 0;
        for i in 0..2_000 {
            if let Some(kind) = only_flip.fault_at(i) {
                assert_eq!(kind, DiskFaultKind::BitFlip);
                saw += 1;
            }
        }
        assert!(saw > 500, "restricted plan still injects ({saw})");
        let all = DiskFaultPlan::new(5, 0.5);
        let mut seen = std::collections::HashSet::new();
        for i in 0..2_000 {
            if let Some(kind) = all.fault_at(i) {
                seen.insert(kind);
            }
        }
        assert_eq!(seen.len(), 3, "only saw {seen:?}");
    }

    #[test]
    fn breaker_trips_after_consecutive_failures_and_probes_half_open() {
        let breaker = CallBreaker::new(3, 4);
        assert!(!breaker.is_open());
        assert!(!breaker.failure());
        assert!(!breaker.failure());
        breaker.success(); // a success resets the consecutive count
        assert!(!breaker.failure());
        assert!(!breaker.failure());
        assert!(breaker.failure(), "third consecutive failure trips");
        assert!(breaker.is_open());
        // While open, exactly one probe per `halfopen_after` calls.
        let allowed = (0..8).filter(|_| breaker.allow()).count();
        assert_eq!(allowed, 2);
        // A failed probe restarts the cooldown without re-tripping.
        assert!(!breaker.failure());
        assert!(breaker.is_open());
        // A successful probe closes the breaker.
        breaker.success();
        assert!(!breaker.is_open());
        assert!(breaker.allow());
    }

    #[test]
    fn stats_count_per_kind_and_total() {
        let stats = FaultStats::new();
        stats.record(FaultKind::Timeout);
        stats.record(FaultKind::Timeout);
        stats.record(FaultKind::Truncated);
        assert_eq!(stats.count(FaultKind::Timeout), 2);
        assert_eq!(stats.count(FaultKind::RateLimit), 0);
        assert_eq!(stats.total(), 3);
        assert_eq!(stats.pairs()[0], ("timeout".to_string(), 2));
    }
}
