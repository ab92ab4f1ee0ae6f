//! The crash-safe study journal: a JSONL record of completed cells.
//!
//! A full-corpus study run is hours of work; losing it to a crash at cell
//! 23,600 of 23,688 is not acceptable. The runner therefore appends every
//! completed `(problem, technique)` record to a journal file — one JSON
//! object per line, written through to the OS before the runner moves on —
//! and `study --resume` reloads the journal, skips the finished cells and
//! recomputes only the missing ones. Because every cell is deterministic
//! and the final record vector is assembled in canonical order, a resumed
//! run's artifacts are byte-identical to an uninterrupted run's.
//!
//! # Format
//!
//! ```text
//! {"config":{...},"num_problems":38}          <- header (line 1)
//! {"problem":"...","technique":"ARepair",...} <- one SpecRecord per line
//! ...
//! ```
//!
//! The loader is tolerant of a torn tail: a process killed mid-write
//! leaves at most one truncated final line, which is skipped (and counted)
//! rather than poisoning the file.

use serde::{Deserialize, Serialize};
use specrepair_core::logio::{read_lines, LineLog};
use std::collections::HashMap;
use std::io;
use std::path::Path;

use crate::config::StudyConfig;
use crate::runner::SpecRecord;

/// The journal's first line: enough to refuse a resume under a different
/// configuration (which would silently mix incompatible cells).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JournalHeader {
    /// The configuration of the run that created the journal.
    pub config: StudyConfig,
    /// Number of problems in that run's corpus.
    pub num_problems: usize,
}

/// An append-only journal handle over the shared [`LineLog`] discipline
/// (`specrepair_core::logio`): single-write lines, newline sealing on
/// reopen, so even a `kill -9` leaves at most one torn line. Thread-safe:
/// the runner appends from rayon workers.
#[derive(Debug)]
pub struct StudyJournal {
    log: LineLog,
}

impl StudyJournal {
    /// Creates (truncating) a journal for a fresh run and writes the
    /// header line.
    pub fn create(
        path: &Path,
        config: &StudyConfig,
        num_problems: usize,
    ) -> io::Result<StudyJournal> {
        let log = LineLog::create(path)?;
        let header = JournalHeader {
            config: *config,
            num_problems,
        };
        log.append_line(&serde_json::to_string(&header).map_err(io::Error::other)?)?;
        Ok(StudyJournal { log })
    }

    /// Reopens an existing journal for appending (the resume path; load
    /// its contents with [`load`] first). [`LineLog::append_to`] seals a
    /// torn tail with a newline, so the first resumed record is never
    /// welded onto the fragment a killed run left behind.
    pub fn append_to(path: &Path) -> io::Result<StudyJournal> {
        Ok(StudyJournal {
            log: LineLog::append_to(path)?,
        })
    }

    /// Appends one completed cell.
    pub fn append(&self, record: &SpecRecord) -> io::Result<()> {
        self.log
            .append_line(&serde_json::to_string(record).map_err(io::Error::other)?)
    }
}

/// What a journal file held when loaded.
#[derive(Debug)]
pub struct JournalContents {
    /// The header, when the first line parsed as one.
    pub header: Option<JournalHeader>,
    /// All well-formed records, in file order.
    pub records: Vec<SpecRecord>,
    /// Lines that did not parse (a torn tail from a killed run, typically).
    pub malformed: usize,
}

impl JournalContents {
    /// The completed cells as a lookup map (first occurrence wins, so a
    /// record is never replaced by a later duplicate).
    pub fn done_cells(&self) -> HashMap<(String, String), SpecRecord> {
        let mut done = HashMap::new();
        for r in &self.records {
            done.entry(r.cell_key()).or_insert_with(|| r.clone());
        }
        done
    }
}

/// Loads a journal, tolerating a torn final line (and, defensively, any
/// other malformed line — each is counted, none aborts the load).
pub fn load(path: &Path) -> io::Result<JournalContents> {
    let loaded = read_lines(path)?;
    let mut header = None;
    let mut records = Vec::new();
    let mut malformed = 0usize;
    for (i, line) in loaded.lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        if i == 0 {
            match serde_json::from_str::<JournalHeader>(line) {
                Ok(h) => header = Some(h),
                Err(_) => malformed += 1,
            }
            continue;
        }
        match serde_json::from_str::<SpecRecord>(line) {
            Ok(r) => records.push(r),
            Err(_) => malformed += 1,
        }
    }
    Ok(JournalContents {
        header,
        records,
        malformed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use specrepair_core::OutcomeReason;
    use std::fs::OpenOptions;
    use std::io::Write;

    fn record(problem: &str, technique: &str) -> SpecRecord {
        SpecRecord {
            problem: problem.to_string(),
            benchmark: "A4F".to_string(),
            domain: "graphs".to_string(),
            technique: technique.to_string(),
            rep: 1,
            tm: Some(0.75),
            sm: None,
            tree_edits: Some(2),
            tree_sim: Some(0.9),
            internal_success: true,
            explored: 9,
            reason: OutcomeReason::Repaired,
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("specrepair-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.jsonl", std::process::id()))
    }

    #[test]
    fn round_trips_header_and_records() {
        let path = tmp("roundtrip");
        let config = StudyConfig::smoke();
        let journal = StudyJournal::create(&path, &config, 3).unwrap();
        journal.append(&record("p/1", "ARepair")).unwrap();
        journal.append(&record("p/1", "ATR")).unwrap();
        journal.append(&record("p/2", "ARepair")).unwrap();
        let loaded = load(&path).unwrap();
        let header = loaded.header.as_ref().expect("header line");
        assert_eq!(header.num_problems, 3);
        assert_eq!(header.config.seed, config.seed);
        assert_eq!(loaded.records.len(), 3);
        assert_eq!(loaded.malformed, 0);
        let done = loaded.done_cells();
        assert!(done.contains_key(&("p/1".to_string(), "ATR".to_string())));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_with_retired_oracle_switches_still_resumes() {
        // Journals written while the study config still carried the
        // `dedup` and `incremental` oracle switches keep both keys in their
        // header; a resume must still accept them as the same run.
        let path = tmp("retired-keys");
        let header = r#"{"config":{"scale":0.01,"seed":42,"fault_rate":0.0,"fault_seed":1024023,"dedup":true,"incremental":true},"num_problems":3}"#;
        std::fs::write(&path, format!("{header}\n")).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.malformed, 0);
        let header = loaded.header.expect("header line");
        assert_eq!(header.num_problems, 3);
        assert!(header.config.same_run(&StudyConfig::smoke()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_skipped_not_fatal() {
        let path = tmp("torn");
        let journal = StudyJournal::create(&path, &StudyConfig::smoke(), 1).unwrap();
        journal.append(&record("p/1", "ARepair")).unwrap();
        drop(journal);
        // Simulate a kill mid-write: append half a record, no newline.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"problem\":\"p/1\",\"technique\":\"IC")
            .unwrap();
        drop(f);
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.records.len(), 1);
        assert_eq!(loaded.malformed, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_appends_after_existing_records() {
        let path = tmp("resume");
        let journal = StudyJournal::create(&path, &StudyConfig::smoke(), 2).unwrap();
        journal.append(&record("p/1", "ARepair")).unwrap();
        drop(journal);
        let journal = StudyJournal::append_to(&path).unwrap();
        journal.append(&record("p/2", "ARepair")).unwrap();
        let loaded = load(&path).unwrap();
        assert!(loaded.header.is_some(), "header survives reopen");
        assert_eq!(loaded.records.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_after_torn_tail_does_not_weld_records() {
        let path = tmp("torn-resume");
        let journal = StudyJournal::create(&path, &StudyConfig::smoke(), 2).unwrap();
        journal.append(&record("p/1", "ARepair")).unwrap();
        drop(journal);
        // The kill left a torn line with no trailing newline.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"problem\":\"p/1\",\"technique\":\"IC")
            .unwrap();
        drop(f);
        // Resuming must seal the tail so the next record starts on its own
        // line rather than being welded onto the torn fragment.
        let journal = StudyJournal::append_to(&path).unwrap();
        journal.append(&record("p/2", "ARepair")).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.records.len(), 2, "the resumed record survived");
        assert_eq!(loaded.malformed, 1, "the torn fragment stays malformed");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicate_cells_keep_the_first_record() {
        let path = tmp("dupes");
        let journal = StudyJournal::create(&path, &StudyConfig::smoke(), 1).unwrap();
        let mut first = record("p/1", "ARepair");
        first.explored = 1;
        let mut second = record("p/1", "ARepair");
        second.explored = 2;
        journal.append(&first).unwrap();
        journal.append(&second).unwrap();
        let done = load(&path).unwrap().done_cells();
        assert_eq!(
            done[&("p/1".to_string(), "ARepair".to_string())].explored,
            1
        );
        std::fs::remove_file(&path).ok();
    }
}
