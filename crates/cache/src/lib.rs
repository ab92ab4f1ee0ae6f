//! # specrepair-cache
//!
//! The crash-safe persistent oracle cache tier (DESIGN.md §14).
//!
//! [`PersistentCache`] implements [`VerdictStore`] over a log-structured,
//! append-only file of checksummed fixed-frame verdict records keyed by the
//! 128-bit canonical spec fingerprint:
//!
//! - **Recovery** tolerates any torn tail or corrupt record: a bad line is
//!   quarantined (skipped and counted), never a panic — the same loader
//!   discipline as the study journal, shared via `specrepair_core::logio`.
//! - **Compaction** writes a fresh segment, fsyncs, and atomically renames
//!   it over the live log; a kill at any instant leaves either the old or
//!   the new log whole, never a mix.
//! - **Degradation** is breaker-style: consecutive append failures trip the
//!   store into memory-only mode (lookups keep working, records stop
//!   touching disk), with periodic half-open probes to heal; a sealing
//!   compaction at drain re-persists what the degraded period skipped.
//! - **Chaos**: a deterministic [`DiskFaultPlan`] under the append seam
//!   injects write errors, short writes and bit flips on schedule, so every
//!   recovery path above is exercised by tests and CI.
//!
//! The store is *infallible at the [`VerdictStore`] interface*: once open,
//! lookups and records never surface an error to the oracle.

#![warn(missing_docs)]

pub mod log;
pub mod record;

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use mualloy_analyzer::VerdictStore;
use mualloy_syntax::Fingerprint;
use parking_lot::RwLock;
use serde::Serialize;
use specrepair_faults::{CallBreaker, DiskFaultKind, DiskFaultPlan};

use crate::log::VerdictLog;

/// Consecutive append failures before the breaker opens (memory-only mode).
const TRIP_AFTER: u32 = 3;

/// Skipped records while open before one half-open probe append is allowed.
const HALFOPEN_AFTER: u32 = 32;

/// Non-record lines tolerated in the live log before an automatic
/// compaction rewrites it.
const COMPACT_GARBAGE: u64 = 16;

/// A point-in-time snapshot of the persistent tier's counters, embedded in
/// `GET /metrics` (`persistent` section) and the study's stderr report.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct PersistStats {
    /// Entries recovered from disk when the store opened (warm boot size).
    pub preloaded: u64,
    /// Corrupt or torn records skipped (at open and across compactions).
    pub quarantined: u64,
    /// Entries currently held (memory map = disk union degraded-period).
    pub live_entries: u64,
    /// Lines currently in the live log file (valid or not).
    pub disk_lines: u64,
    /// Valid records currently in the live log file.
    pub disk_good: u64,
    /// Store lookups that found a verdict.
    pub hits: u64,
    /// Store lookups in total.
    pub lookups: u64,
    /// Records durably appended.
    pub appends: u64,
    /// Appends that failed (real or injected I/O errors).
    pub append_errors: u64,
    /// Records skipped because the breaker was open (memory-only mode).
    pub skipped_degraded: u64,
    /// Times the breaker tripped open.
    pub breaker_trips: u64,
    /// Whether the store is currently degraded (breaker open).
    pub degraded: bool,
    /// Completed compactions.
    pub compactions: u64,
    /// Failed compaction attempts (live log left intact).
    pub compaction_failures: u64,
    /// Injected write errors (chaos mode).
    pub injected_write_errors: u64,
    /// Injected short writes (chaos mode).
    pub injected_short_writes: u64,
    /// Injected bit flips (chaos mode).
    pub injected_bit_flips: u64,
}

/// The disk-tier circuit breaker: the shared call-count
/// [`CallBreaker`] discipline (no wall clock, so chaos runs stay
/// deterministic), instantiated with this tier's trip and cooldown counts.
fn disk_breaker() -> CallBreaker {
    CallBreaker::new(TRIP_AFTER, HALFOPEN_AFTER)
}

/// The crash-safe persistent verdict store. Cheap to share behind an
/// `Arc`; all methods take `&self` and are safe from concurrent workers.
pub struct PersistentCache {
    log: VerdictLog,
    /// Every known entry: disk contents at open plus everything recorded
    /// since (including records the degraded mode kept memory-only).
    map: RwLock<HashMap<u128, bool>>,
    breaker: CallBreaker,
    preloaded: u64,
    quarantined: AtomicU64,
    hits: AtomicU64,
    lookups: AtomicU64,
    appends: AtomicU64,
    append_errors: AtomicU64,
    skipped_degraded: AtomicU64,
    breaker_trips: AtomicU64,
    compactions: AtomicU64,
    compaction_failures: AtomicU64,
}

impl std::fmt::Debug for PersistentCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PersistentCache")
            .field("stats", &self.stats())
            .finish()
    }
}

impl PersistentCache {
    /// Opens (creating as needed) the cache under `dir` with no fault
    /// injection — the production path.
    ///
    /// # Errors
    ///
    /// Fails when the directory or log cannot be created/read at all; the
    /// caller (e.g. `specrepaird`) degrades to memory-only operation.
    pub fn open(dir: &Path) -> io::Result<PersistentCache> {
        PersistentCache::open_with_faults(dir, DiskFaultPlan::none())
    }

    /// [`PersistentCache::open`] with a deterministic disk fault plan
    /// injected under the append seam (chaos mode).
    ///
    /// # Errors
    ///
    /// Fails when the directory or log cannot be created/read at all.
    pub fn open_with_faults(dir: &Path, plan: DiskFaultPlan) -> io::Result<PersistentCache> {
        let (log, recovered) = VerdictLog::open(dir, plan)?;
        let cache = PersistentCache {
            log,
            preloaded: recovered.entries.len() as u64,
            quarantined: AtomicU64::new(recovered.quarantined),
            map: RwLock::new(recovered.entries),
            breaker: disk_breaker(),
            hits: AtomicU64::new(0),
            lookups: AtomicU64::new(0),
            appends: AtomicU64::new(0),
            append_errors: AtomicU64::new(0),
            skipped_degraded: AtomicU64::new(0),
            breaker_trips: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            compaction_failures: AtomicU64::new(0),
        };
        if recovered.quarantined > 0 {
            // Boot-time cleanup: rewrite the log without the corrupt lines
            // so quarantine never accumulates across lives.
            cache.compact_now();
        }
        Ok(cache)
    }

    /// Entries recovered from disk at open (0 on a cold boot).
    pub fn preloaded(&self) -> u64 {
        self.preloaded
    }

    /// Whether the store is currently degraded to memory-only mode.
    pub fn degraded(&self) -> bool {
        self.breaker.is_open()
    }

    /// Snapshot of every counter.
    pub fn stats(&self) -> PersistStats {
        PersistStats {
            preloaded: self.preloaded,
            quarantined: self.quarantined.load(Ordering::Relaxed),
            live_entries: self.map.read().len() as u64,
            disk_lines: self.log.disk_lines(),
            disk_good: self.log.disk_good(),
            hits: self.hits.load(Ordering::Relaxed),
            lookups: self.lookups.load(Ordering::Relaxed),
            appends: self.appends.load(Ordering::Relaxed),
            append_errors: self.append_errors.load(Ordering::Relaxed),
            skipped_degraded: self.skipped_degraded.load(Ordering::Relaxed),
            breaker_trips: self.breaker_trips.load(Ordering::Relaxed),
            degraded: self.degraded(),
            compactions: self.compactions.load(Ordering::Relaxed),
            compaction_failures: self.compaction_failures.load(Ordering::Relaxed),
            injected_write_errors: self.log.injected.count(DiskFaultKind::WriteError),
            injected_short_writes: self.log.injected.count(DiskFaultKind::ShortWrite),
            injected_bit_flips: self.log.injected.count(DiskFaultKind::BitFlip),
        }
    }

    /// Rewrites the live log from the in-memory map (kill-safe: segment +
    /// fsync + atomic rename). Returns whether the compaction completed;
    /// on failure the live log is untouched.
    pub fn compact_now(&self) -> bool {
        let snapshot = self.map.read().clone();
        match self.log.compact(&snapshot) {
            Ok(()) => {
                self.compactions.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(_) => {
                self.compaction_failures.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// The drain hook: makes the log as clean and complete as the disk
    /// allows — a sealing compaction when the log carries garbage or lacks
    /// entries the degraded period kept memory-only — then fsyncs.
    pub fn seal(&self) {
        let live = self.map.read().len() as u64;
        let needs_compact = self.log.disk_good() != live || self.log.disk_lines() != live;
        if needs_compact {
            self.compact_now();
        }
        self.log.sync().ok();
    }

    fn maybe_auto_compact(&self) {
        let garbage = self.log.disk_lines().saturating_sub(self.log.disk_good());
        if garbage >= COMPACT_GARBAGE {
            self.compact_now();
        }
    }
}

impl VerdictStore for PersistentCache {
    fn lookup(&self, key: Fingerprint) -> Option<bool> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let verdict = self.map.read().get(&key.0).copied();
        if verdict.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        verdict
    }

    fn record(&self, key: Fingerprint, verdict: bool) {
        let fresh = self.map.write().insert(key.0, verdict).is_none();
        if !fresh {
            return;
        }
        if !self.breaker.allow() {
            self.skipped_degraded.fetch_add(1, Ordering::Relaxed);
            return;
        }
        match self.log.append(key, verdict) {
            Ok(()) => {
                self.appends.fetch_add(1, Ordering::Relaxed);
                self.breaker.success();
                self.maybe_auto_compact();
            }
            Err(_) => {
                self.append_errors.fetch_add(1, Ordering::Relaxed);
                if self.breaker.failure() {
                    self.breaker_trips.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::log::{LOG_FILE, TMP_FILE};
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("specrepair-cache-{name}-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        dir
    }

    fn fp(n: u128) -> Fingerprint {
        Fingerprint(n)
    }

    #[test]
    fn warm_boot_round_trips_verdicts() {
        let dir = tmp_dir("warm");
        {
            let cache = PersistentCache::open(&dir).unwrap();
            assert_eq!(cache.preloaded(), 0, "cold boot");
            cache.record(fp(1), true);
            cache.record(fp(2), false);
            cache.record(fp(1), true); // duplicate: no second append
            assert_eq!(cache.stats().appends, 2);
            cache.seal();
        }
        let cache = PersistentCache::open(&dir).unwrap();
        assert_eq!(cache.preloaded(), 2, "warm boot");
        assert_eq!(cache.lookup(fp(1)), Some(true));
        assert_eq!(cache.lookup(fp(2)), Some(false));
        assert_eq!(cache.lookup(fp(3)), None);
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.lookups, 3);
        assert_eq!(stats.quarantined, 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_byte_is_quarantined_and_cleaned() {
        let dir = tmp_dir("quarantine");
        {
            let cache = PersistentCache::open(&dir).unwrap();
            cache.record(fp(10), true);
            cache.record(fp(20), false);
        }
        // Flip one byte of the first record on disk.
        let log_path = dir.join(LOG_FILE);
        let mut bytes = fs::read(&log_path).unwrap();
        bytes[7] ^= 0x01;
        fs::write(&log_path, &bytes).unwrap();
        let cache = PersistentCache::open(&dir).unwrap();
        let stats = cache.stats();
        assert_eq!(stats.quarantined, 1, "one corrupt record counted");
        assert_eq!(stats.preloaded, 1, "the other record survived");
        assert_eq!(cache.lookup(fp(20)), Some(false));
        assert_eq!(cache.lookup(fp(10)), None, "corrupt entry is gone");
        // Boot-time cleanup compacted the corruption away.
        assert_eq!(stats.compactions, 1);
        assert_eq!(stats.disk_lines, 1);
        let reloaded = PersistentCache::open(&dir).unwrap();
        assert_eq!(reloaded.stats().quarantined, 0, "quarantine not sticky");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_quarantined_not_fatal() {
        let dir = tmp_dir("torn");
        {
            let cache = PersistentCache::open(&dir).unwrap();
            cache.record(fp(77), true);
        }
        // Simulate a kill mid-append: half a record, no newline.
        let log_path = dir.join(LOG_FILE);
        let mut bytes = fs::read(&log_path).unwrap();
        let half = record::encode(fp(88), false);
        bytes.extend_from_slice(&half.as_bytes()[..20]);
        fs::write(&log_path, &bytes).unwrap();
        let cache = PersistentCache::open(&dir).unwrap();
        assert_eq!(cache.lookup(fp(77)), Some(true), "acknowledged entry kept");
        assert_eq!(cache.lookup(fp(88)), None, "torn entry never landed");
        assert_eq!(cache.stats().quarantined, 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn leftover_compaction_segment_is_ignored() {
        let dir = tmp_dir("tmp-segment");
        {
            let cache = PersistentCache::open(&dir).unwrap();
            cache.record(fp(5), true);
        }
        // A kill mid-compaction can leave any tmp state: partial garbage …
        fs::write(dir.join(TMP_FILE), b"partial segment garb").unwrap();
        {
            let cache = PersistentCache::open(&dir).unwrap();
            assert_eq!(cache.lookup(fp(5)), Some(true));
            assert!(!dir.join(TMP_FILE).exists(), "stale tmp deleted");
        }
        // … or a complete segment that never got renamed: still ignored,
        // the live log is the only truth.
        let complete = format!("{}\n", record::encode(fp(999), true));
        fs::write(dir.join(TMP_FILE), complete).unwrap();
        let cache = PersistentCache::open(&dir).unwrap();
        assert_eq!(cache.lookup(fp(999)), None, "unpublished segment unread");
        assert_eq!(cache.lookup(fp(5)), Some(true));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_is_kill_safe_at_the_rename_boundary() {
        let dir = tmp_dir("compact-rename");
        let entries: Vec<u128> = (0..20).collect();
        {
            let cache = PersistentCache::open(&dir).unwrap();
            for &k in &entries {
                cache.record(fp(k), k % 2 == 0);
            }
            cache.compact_now();
        }
        // Post-rename crash state: the new segment IS the live log.
        let cache = PersistentCache::open(&dir).unwrap();
        for &k in &entries {
            assert_eq!(cache.lookup(fp(k)), Some(k % 2 == 0));
        }
        assert_eq!(cache.stats().quarantined, 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_errors_trip_the_breaker_into_memory_only_mode() {
        let dir = tmp_dir("breaker");
        // Every append fails.
        let plan = DiskFaultPlan::new(1, 1.0).with_kinds(&[DiskFaultKind::WriteError]);
        let cache = PersistentCache::open_with_faults(&dir, plan).unwrap();
        for k in 0..10u128 {
            cache.record(fp(k), true);
        }
        let stats = cache.stats();
        assert!(stats.degraded, "breaker open after consecutive failures");
        assert_eq!(stats.breaker_trips, 1);
        assert_eq!(stats.append_errors as u32, TRIP_AFTER);
        assert_eq!(stats.skipped_degraded, 10 - TRIP_AFTER as u64);
        // Memory-only mode still serves every acknowledged verdict.
        for k in 0..10u128 {
            assert_eq!(cache.lookup(fp(k)), Some(true));
        }
        assert_eq!(stats.appends, 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn breaker_heals_through_a_half_open_probe() {
        let dir = tmp_dir("halfopen");
        // Faults 0..TRIP_AFTER fail, then the disk "recovers": rate 1.0
        // cannot model that, so drive the breaker directly through a
        // fault-free cache by tripping it by hand.
        let cache = PersistentCache::open(&dir).unwrap();
        for _ in 0..TRIP_AFTER {
            assert!(cache.breaker.allow());
            cache.breaker.failure();
        }
        assert!(cache.degraded());
        // While open, the next HALFOPEN_AFTER - 1 records are skipped …
        let mut allowed = 0;
        for _ in 0..HALFOPEN_AFTER {
            if cache.breaker.allow() {
                allowed += 1;
            }
        }
        assert_eq!(allowed, 1, "exactly one half-open probe per cooldown");
        // … and a successful probe closes the breaker.
        cache.breaker.success();
        assert!(!cache.degraded());
        cache.record(fp(1), true);
        assert_eq!(cache.stats().appends, 1, "healed store persists again");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn seal_persists_entries_the_degraded_period_skipped() {
        let dir = tmp_dir("seal-heal");
        let plan = DiskFaultPlan::new(2, 1.0).with_kinds(&[DiskFaultKind::WriteError]);
        {
            let cache = PersistentCache::open_with_faults(&dir, plan).unwrap();
            for k in 0..8u128 {
                cache.record(fp(k), true);
            }
            assert_eq!(cache.stats().appends, 0, "everything failed or skipped");
            // The injected plan only covers the append seam; compaction
            // goes through the segment writer, which works — exactly the
            // "disk came back" healing scenario.
            cache.seal();
            assert_eq!(cache.stats().compactions, 1);
        }
        let cache = PersistentCache::open(&dir).unwrap();
        assert_eq!(cache.preloaded(), 8, "sealing compaction saved them all");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flips_are_acknowledged_but_quarantined_on_reload() {
        let dir = tmp_dir("bitflip");
        let plan = DiskFaultPlan::new(3, 1.0).with_kinds(&[DiskFaultKind::BitFlip]);
        {
            let cache = PersistentCache::open_with_faults(&dir, plan).unwrap();
            cache.record(fp(123), true);
            let stats = cache.stats();
            assert_eq!(stats.injected_bit_flips, 1);
            assert_eq!(stats.appends, 1, "silent corruption is an ack'd write");
            // In-process the verdict is still served from memory.
            assert_eq!(cache.lookup(fp(123)), Some(true));
        }
        let cache = PersistentCache::open(&dir).unwrap();
        // Reload quarantines the corrupt record; boot cleanup scrubs it.
        assert_eq!(cache.stats().quarantined, 1);
        assert_eq!(cache.lookup(fp(123)), None);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn short_writes_leave_a_sealed_fragment_and_fail_the_append() {
        let dir = tmp_dir("shortwrite");
        let plan = DiskFaultPlan::new(4, 1.0).with_kinds(&[DiskFaultKind::ShortWrite]);
        {
            let cache = PersistentCache::open_with_faults(&dir, plan).unwrap();
            cache.record(fp(9), true);
            let stats = cache.stats();
            assert_eq!(stats.injected_short_writes, 1);
            assert_eq!(stats.append_errors, 1);
            assert_eq!(cache.lookup(fp(9)), Some(true), "memory still serves it");
        }
        let cache = PersistentCache::open(&dir).unwrap();
        assert_eq!(cache.stats().quarantined, 1, "the fragment is quarantined");
        assert_eq!(cache.lookup(fp(9)), None);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn garbage_accumulation_triggers_auto_compaction() {
        let dir = tmp_dir("autocompact");
        // Bit-flip every record: each append is acknowledged garbage.
        let plan = DiskFaultPlan::new(5, 1.0).with_kinds(&[DiskFaultKind::BitFlip]);
        let cache = PersistentCache::open_with_faults(&dir, plan).unwrap();
        for k in 0..(COMPACT_GARBAGE + 4) {
            cache.record(fp(k as u128), true);
        }
        let stats = cache.stats();
        assert!(stats.compactions >= 1, "garbage threshold compacted");
        // Compaction rewrote from memory, resetting the garbage ratio;
        // only post-compaction bit flips remain in the log.
        assert!(stats.disk_lines - stats.disk_good < COMPACT_GARBAGE);
        fs::remove_dir_all(&dir).ok();
    }
}
