//! # specrepair-faults
//!
//! The degradation discipline shared by the workspace's three unreliable
//! seams: the LM transport, the persistent verdict tier's disk, and the
//! router's shard links.
//!
//! The paper's LLM pipelines sit on a flaky remote API: calls time out, get
//! rate-limited, fail transiently, or come back truncated (Alhanahnah et
//! al. report malformed model output as a routine failure mode). This crate
//! models that fault surface, and the disk's, *reproducibly*:
//!
//! - a [`Schedule`] is a pure function from a seed and a call index to an
//!   optional fault of one [`Taxonomy`] — [`FaultPlan`] draws the
//!   transport's [`FaultKind`]s, [`DiskFaultPlan`] the disk's
//!   [`DiskFaultKind`]s — so a chaos run is exactly replayable (same seed,
//!   same faults, same outcome), the property every resilience test in this
//!   workspace leans on;
//! - a [`FaultCounts`] counts injected faults per kind ([`FaultStats`] for
//!   the transport, surfaced by `specrepaird`'s `GET /metrics` and the study
//!   harness's chaos report; the disk tier's `persistent.injected_*`);
//! - a [`CallBreaker`] sheds calls to a seam that keeps failing and probes
//!   it back, counted in calls rather than seconds.

#![warn(missing_docs)]

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

/// Most kinds a [`Taxonomy`] may have.
const MAX_KINDS: usize = 4;

/// A fault taxonomy: the kinds one seam can fail with, and the draw stream a
/// [`Schedule`] of them uses.
pub trait Taxonomy: Copy + 'static {
    /// Every kind in taxonomy order, at most four; a kind's position here is
    /// its [`Taxonomy::index`].
    const ALL: &'static [Self];
    /// Odd multiplier spreading call indices over the draw's input.
    const STREAM: u64;
    /// Folded into every draw, so two taxonomies' schedules at equal seeds
    /// stay uncorrelated.
    const SALT: u64;
    /// The kind's position in [`Taxonomy::ALL`].
    fn index(self) -> usize;
    /// Stable lower-case label (metrics keys, reports).
    fn label(self) -> &'static str;
}

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

impl Taxonomy for FaultKind {
    const ALL: &'static [FaultKind] = &[
        FaultKind::Timeout,
        FaultKind::RateLimit,
        FaultKind::Transient,
        FaultKind::Truncated,
    ];
    const STREAM: u64 = 0x2545_f491_4f6c_dd1d;
    const SALT: u64 = 0;

    fn index(self) -> usize {
        self as usize
    }

    fn label(self) -> &'static str {
        match self {
            FaultKind::Timeout => "timeout",
            FaultKind::RateLimit => "rate_limit",
            FaultKind::Transient => "transient",
            FaultKind::Truncated => "truncated",
        }
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

impl Taxonomy for DiskFaultKind {
    const ALL: &'static [DiskFaultKind] = &[
        DiskFaultKind::WriteError,
        DiskFaultKind::ShortWrite,
        DiskFaultKind::BitFlip,
    ];
    const STREAM: u64 = 0x9e6c_63d0_876a_3f35;
    const SALT: u64 = 0xd15c_fa17_0000_0001;

    fn index(self) -> usize {
        self as usize
    }

    fn label(self) -> &'static str {
        match self {
            DiskFaultKind::WriteError => "write_error",
            DiskFaultKind::ShortWrite => "short_write",
            DiskFaultKind::BitFlip => "bit_flip",
        }
    }
}

/// One SplitMix64 step: a tiny, high-quality mixer. The workspace's seeded
/// draws (fault schedules, backoff jitter, the load generator's sampler)
/// hash their index with it instead of holding RNG state.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic per-call fault schedule over the taxonomy `K`.
///
/// `fault_at(i)` is a pure function of `(seed, i)`: two schedules with the
/// same seed, rate and kind set inject byte-identical fault sequences, no
/// matter how calls interleave across threads. Retried calls consume fresh
/// indices, so a retry is a fresh draw — exactly how a real flaky endpoint
/// behaves, minus the nondeterminism.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Schedule<K> {
    /// Seed of the schedule.
    pub seed: u64,
    /// Probability of injecting a fault on any given call, in `[0, 1]`.
    pub rate: f64,
    /// Bit `i` set when `K::ALL[i]` may be injected.
    kinds: u8,
    taxonomy: PhantomData<K>,
}

/// The LM transport's fault schedule.
pub type FaultPlan = Schedule<FaultKind>;

/// The persistent cache's per-append disk fault schedule.
pub type DiskFaultPlan = Schedule<DiskFaultKind>;

impl<K: Taxonomy> Schedule<K> {
    /// The fault-free schedule (rate 0): the production default.
    pub fn none() -> Schedule<K> {
        Schedule::new(0, 0.0)
    }

    /// A schedule injecting every kind at `rate`.
    pub fn new(seed: u64, rate: f64) -> Schedule<K> {
        Schedule {
            seed,
            rate: rate.clamp(0.0, 1.0),
            kinds: (1 << K::ALL.len()) - 1,
            taxonomy: PhantomData,
        }
    }

    /// Restricts the schedule to the given kinds (empty = keep all).
    pub fn with_kinds(mut self, kinds: &[K]) -> Schedule<K> {
        if !kinds.is_empty() {
            self.kinds = kinds.iter().fold(0, |mask, k| mask | 1 << k.index());
        }
        self
    }

    /// Whether the schedule can inject anything at all.
    pub fn is_active(&self) -> bool {
        self.rate > 0.0 && self.kinds != 0
    }

    /// The fault (if any) scheduled for call number `call` — a pure
    /// function of the schedule and the index.
    pub fn fault_at(&self, call: u64) -> Option<K> {
        if !self.is_active() {
            return None;
        }
        let draw = mix(self.seed ^ call.wrapping_mul(K::STREAM) ^ K::SALT);
        // Top 53 bits → uniform f64 in [0, 1).
        let unit = (draw >> 11) as f64 / (1u64 << 53) as f64;
        if unit >= self.rate {
            return None;
        }
        let pick = mix(draw) % u64::from(self.kinds.count_ones());
        K::ALL
            .iter()
            .filter(|k| self.kinds & 1 << k.index() != 0)
            .nth(pick as usize)
            .copied()
    }

    /// The longest run of consecutive scheduled faults in the first
    /// `calls` indices — the retry budget needed to absorb every fault of
    /// a bounded run (`specrepair_llm::chaos_stack` sizes its retries with
    /// this).
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

/// A call-count circuit breaker: the degradation discipline of every
/// unreliable seam in the workspace — the LM transport (`ResilientLm`), the
/// persistent cache's disk appends, and the router's per-shard links.
///
/// Counting calls instead of wall-clock time keeps chaos runs deterministic:
/// the same fault schedule trips and heals the breaker at the same call
/// indices on every run. The one rule:
///
/// - `trip_after` consecutive failures open it (one trip);
/// - while open it sheds calls, letting every `halfopen_after`-th through
///   as a probe;
/// - a successful probe closes it; a failed probe restarts the cooldown
///   without counting a new trip.
///
/// Whether it has ever tripped is sticky: [`CallBreaker::has_tripped`]
/// stays true after the breaker closes again.
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
    tripped: bool,
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
            inner.tripped = true;
            return true;
        }
        false
    }

    /// Whether the breaker is currently open (the seam is degraded).
    pub fn is_open(&self) -> bool {
        self.lock().open
    }

    /// Whether the breaker has ever tripped, even if it has closed since.
    pub fn has_tripped(&self) -> bool {
        self.lock().tripped
    }
}

/// Injected-fault accounting for the taxonomy `K`: one atomic counter per
/// kind. Cheap to share behind an `Arc`.
#[derive(Debug)]
pub struct FaultCounts<K> {
    counters: [AtomicU64; MAX_KINDS],
    taxonomy: PhantomData<K>,
}

/// The LM transport's injected-fault counters; every decorated transport
/// records here.
pub type FaultStats = FaultCounts<FaultKind>;

impl<K> Default for FaultCounts<K> {
    fn default() -> Self {
        FaultCounts {
            counters: Default::default(),
            taxonomy: PhantomData,
        }
    }
}

impl<K: Taxonomy> FaultCounts<K> {
    /// A zeroed registry.
    pub fn new() -> FaultCounts<K> {
        FaultCounts::default()
    }

    /// Records one injected fault.
    pub fn record(&self, kind: K) {
        self.counters[kind.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Count injected so far for one kind.
    pub fn count(&self, kind: K) -> u64 {
        self.counters[kind.index()].load(Ordering::Relaxed)
    }

    /// Total faults injected across all kinds.
    pub fn total(&self) -> u64 {
        K::ALL.iter().map(|&k| self.count(k)).sum()
    }

    /// Snapshot as `(kind label, count)` pairs in taxonomy order — what
    /// the daemon's `transport.injected_faults` metrics read.
    pub fn pairs(&self) -> Vec<(String, u64)> {
        K::ALL
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
        assert!(!breaker.has_tripped());
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
        // A successful probe closes the breaker; the trip stays on record.
        breaker.success();
        assert!(!breaker.is_open());
        assert!(breaker.has_tripped());
        assert!(breaker.allow());
    }

    fn fnv1a(h: &mut u64, bytes: &[u8]) {
        for b in bytes {
            *h ^= u64::from(*b);
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// FNV-1a over the first 4096 draws and the longest burst of transport
    /// and disk schedules across seeds, rates and kind restrictions. Pinned
    /// before the two schedules shared one implementation; never regenerate
    /// it to make a change pass.
    #[test]
    fn schedules_match_the_pinned_digest() {
        const PINNED: u64 = 0xea51_0597_7a37_caf0;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for seed in [0, 7, 0xD15C, 0xC4A05, 0xFA017] {
            for rate in [0.05, 0.3, 1.0] {
                let lm = FaultPlan::new(seed, rate);
                for plan in [
                    lm,
                    lm.with_kinds(&[FaultKind::Truncated]),
                    lm.with_kinds(&[FaultKind::Timeout, FaultKind::Transient]),
                ] {
                    let draws: Vec<u8> = (0..4096)
                        .map(|i| plan.fault_at(i).map_or(0, |k| k as u8 + 1))
                        .collect();
                    fnv1a(&mut h, &draws);
                    fnv1a(
                        &mut h,
                        &(plan.max_consecutive_faults(4096) as u64).to_le_bytes(),
                    );
                }
                let disk = DiskFaultPlan::new(seed, rate);
                for plan in [
                    disk,
                    disk.with_kinds(&[DiskFaultKind::BitFlip]),
                    disk.with_kinds(&[DiskFaultKind::WriteError, DiskFaultKind::BitFlip]),
                ] {
                    let draws: Vec<u8> = (0..4096)
                        .map(|i| plan.fault_at(i).map_or(0, |k| k as u8 + 1))
                        .collect();
                    fnv1a(&mut h, &draws);
                    // The longest burst, recounted from the draws: the digest
                    // predates the disk schedule's `max_consecutive_faults`.
                    let burst = draws.split(|&d| d == 0).map(<[u8]>::len).max().unwrap_or(0);
                    fnv1a(&mut h, &(burst as u64).to_le_bytes());
                }
            }
        }
        assert_eq!(h, PINNED, "schedule digest moved: {h:#018x}");
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
