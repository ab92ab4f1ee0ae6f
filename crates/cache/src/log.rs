//! The log-structured verdict file: append-only records over the shared
//! [`LineLog`] discipline, torn-tail-tolerant recovery, and kill-safe
//! compaction (write a fresh segment, fsync, atomic rename).
//!
//! Every I/O path is deterministic-chaos-capable: a [`DiskFaultPlan`]
//! injected under the append seam produces write errors, short (torn)
//! writes and bit-flip corruption on schedule, so recovery code is
//! exercised by tests and chaos CI rather than only by real disk failures.

use std::collections::HashMap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use mualloy_syntax::Fingerprint;
use parking_lot::Mutex;
use specrepair_core::logio::{read_lines, LineLog};
use specrepair_faults::{DiskFaultKind, DiskFaultPlan, FaultCounts};
use specrepair_trace::Phase;

use crate::record;

/// File name of the live log inside a cache directory.
pub const LOG_FILE: &str = "verdicts.log";

/// File name of the in-progress compaction segment. A crash can leave it
/// behind in any state; recovery ignores and deletes it — only the atomic
/// rename onto [`LOG_FILE`] ever publishes a segment.
pub const TMP_FILE: &str = "verdicts.log.tmp";

/// What recovery found in an existing log.
#[derive(Debug)]
pub struct Recovered {
    /// All valid entries, in file order (duplicates resolved last-wins;
    /// a fingerprint only ever maps to one verdict, so order is moot).
    pub entries: HashMap<u128, bool>,
    /// Lines rejected by the frame/checksum codec (torn tails, bit flips,
    /// foreign garbage) — skipped and counted, never fatal.
    pub quarantined: u64,
    /// Total lines seen (valid + quarantined).
    pub lines: u64,
}

/// The on-disk verdict log: one [`LineLog`] handle guarded for swap-out by
/// compaction, plus the fault-injection seam and its counters.
pub struct VerdictLog {
    dir: PathBuf,
    log: Mutex<LineLog>,
    plan: DiskFaultPlan,
    /// Per-append fault schedule index.
    appends: AtomicU64,
    /// Injected disk faults, per kind.
    pub(crate) injected: FaultCounts<DiskFaultKind>,
    /// Lines currently in the file (valid or not).
    disk_lines: AtomicU64,
    /// Valid records currently in the file.
    disk_good: AtomicU64,
}

impl VerdictLog {
    fn live_path(dir: &Path) -> PathBuf {
        dir.join(LOG_FILE)
    }

    fn tmp_path(dir: &Path) -> PathBuf {
        dir.join(TMP_FILE)
    }

    /// Opens (creating the directory and log as needed) and recovers the
    /// live log. A leftover compaction segment is deleted unread: it was
    /// never published, so the live log is the only truth.
    pub fn open(dir: &Path, plan: DiskFaultPlan) -> io::Result<(VerdictLog, Recovered)> {
        let _span = specrepair_trace::span("persist.recover", Phase::OracleCache);
        fs::create_dir_all(dir)?;
        fs::remove_file(Self::tmp_path(dir)).ok();
        let live = Self::live_path(dir);
        let recovered = if live.exists() {
            let loaded = read_lines(&live)?;
            let mut entries = HashMap::new();
            let mut quarantined = 0u64;
            let mut lines = 0u64;
            for line in &loaded.lines {
                lines += 1;
                match record::decode(line) {
                    Some((key, verdict)) => {
                        entries.insert(key.0, verdict);
                    }
                    None => quarantined += 1,
                }
            }
            Recovered {
                entries,
                quarantined,
                lines,
            }
        } else {
            Recovered {
                entries: HashMap::new(),
                quarantined: 0,
                lines: 0,
            }
        };
        let log = if live.exists() {
            LineLog::append_to(&live)?
        } else {
            LineLog::create(&live)?
        };
        let verdict_log = VerdictLog {
            dir: dir.to_path_buf(),
            log: Mutex::new(log),
            plan,
            appends: AtomicU64::new(0),
            injected: FaultCounts::new(),
            disk_lines: AtomicU64::new(recovered.lines),
            disk_good: AtomicU64::new(recovered.lines - recovered.quarantined),
        };
        Ok((verdict_log, recovered))
    }

    /// Lines currently in the file (valid or not).
    pub fn disk_lines(&self) -> u64 {
        self.disk_lines.load(Ordering::Relaxed)
    }

    /// Valid records currently in the file.
    pub fn disk_good(&self) -> u64 {
        self.disk_good.load(Ordering::Relaxed)
    }

    /// Appends one verdict record, routed through the fault seam.
    ///
    /// # Errors
    ///
    /// Real I/O errors, injected write errors, and injected short writes
    /// (the torn fragment is sealed so the log stays line-framed; the
    /// record did not land). An injected bit flip returns `Ok` — silent
    /// media corruption *is* an acknowledged write — and the damage
    /// surfaces as a quarantined line on the next recovery or compaction.
    pub fn append(&self, key: Fingerprint, verdict: bool) -> io::Result<()> {
        let span = specrepair_trace::span("persist.append", Phase::OracleCache);
        let idx = self.appends.fetch_add(1, Ordering::Relaxed);
        let line = record::encode(key, verdict);
        let fault = self.plan.fault_at(idx);
        if span.is_active() {
            span.attr_bool("injected", fault.is_some());
        }
        if let Some(kind) = fault {
            self.injected.record(kind);
        }
        match fault {
            None => {
                let log = self.log.lock();
                log.append_line(&line)?;
                self.disk_lines.fetch_add(1, Ordering::Relaxed);
                self.disk_good.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Some(DiskFaultKind::WriteError) => Err(io::Error::other("injected disk write error")),
            Some(DiskFaultKind::ShortWrite) => {
                let log = self.log.lock();
                // Half the record lands, then the "failure"; seal the
                // fragment so later appends stay line-framed (recovery
                // would do the same after a real kill).
                let cut = line.len() / 2;
                log.append_bytes(&line.as_bytes()[..cut]).ok();
                log.append_bytes(b"\n").ok();
                self.disk_lines.fetch_add(1, Ordering::Relaxed);
                Err(io::Error::other("injected short write"))
            }
            Some(DiskFaultKind::BitFlip) => {
                let mut bytes = line.into_bytes();
                let pos = (self.plan.seed ^ idx.wrapping_mul(0x9e37_79b9_7f4a_7c15)) as usize
                    % bytes.len();
                bytes[pos] ^= 0x01;
                let corrupted = String::from_utf8_lossy(&bytes).into_owned();
                let log = self.log.lock();
                log.append_line(&corrupted)?;
                self.disk_lines.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
        }
    }

    /// Forces the log to stable storage.
    pub fn sync(&self) -> io::Result<()> {
        self.log.lock().sync()
    }

    /// Rewrites the log from `entries` — the kill-safe compaction protocol:
    ///
    /// 1. write every record to a fresh `verdicts.log.tmp`,
    /// 2. `fsync` the segment,
    /// 3. atomically `rename` it onto `verdicts.log`,
    /// 4. reopen the append handle on the new file.
    ///
    /// A kill before (3) leaves the live log untouched (the tmp segment is
    /// deleted unread on next open); a kill after (3) leaves the complete
    /// new segment as the live log. There is no instant at which a reader
    /// can observe a partially compacted live log.
    ///
    /// # Errors
    ///
    /// Any I/O failure; the live log is still intact and the handle still
    /// appends to it (the failed tmp segment is removed best-effort).
    pub fn compact(&self, entries: &HashMap<u128, bool>) -> io::Result<()> {
        let span = specrepair_trace::span("persist.compact", Phase::OracleCache);
        if span.is_active() {
            span.attr_u64("entries", entries.len() as u64);
        }
        let tmp = Self::tmp_path(&self.dir);
        let live = Self::live_path(&self.dir);
        // Hold the append handle across the whole swap: no append may
        // interleave between segment write and rename, or it would land on
        // the doomed old inode.
        let mut guard = self.log.lock();
        let write_segment = || -> io::Result<()> {
            let mut keys: Vec<&u128> = entries.keys().collect();
            keys.sort_unstable();
            let mut file = io::BufWriter::new(fs::File::create(&tmp)?);
            for key in keys {
                let line = record::encode(Fingerprint(*key), entries[key]);
                file.write_all(line.as_bytes())?;
                file.write_all(b"\n")?;
            }
            let file = file.into_inner().map_err(|e| e.into_error())?;
            file.sync_all()?;
            fs::rename(&tmp, &live)?;
            Ok(())
        };
        match write_segment() {
            Ok(()) => {
                *guard = LineLog::append_to(&live)?;
                self.disk_lines
                    .store(entries.len() as u64, Ordering::Relaxed);
                self.disk_good
                    .store(entries.len() as u64, Ordering::Relaxed);
                Ok(())
            }
            Err(e) => {
                fs::remove_file(&tmp).ok();
                Err(e)
            }
        }
    }
}
