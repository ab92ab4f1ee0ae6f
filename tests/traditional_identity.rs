//! Integration: the traditional techniques' study records are pinned.
//! ARepair, ICEBAR, BeAFix and ATR run cell by cell over the
//! `study_traditional` corpus (`full_study(0.03125)`), each cell with a
//! fresh oracle as the runner gives it, and one FNV-1a digest folds in
//! every field of every record, floats by their bit pattern: the digest
//! the end-to-end benchmark checks on every `study_traditional` run,
//! folded the same way.
//!
//! `PINNED` was computed before the traditional tools checked candidates
//! against cached ground verdicts: a change to how they search, screen,
//! key or build candidates must leave it unmoved. Never regenerate it to
//! make a change pass. About 11 s unoptimized.

use specrepair_core::OracleHandle;
use specrepair_study::{runner, SpecRecord, StudyConfig, TechniqueId};

const PINNED: u64 = 0xd6a5_49e4_2a0f_7b07;

/// 64-bit FNV-1a.
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

    /// A length-prefixed string, so field boundaries cannot alias.
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn u64(&mut self, n: u64) {
        self.bytes(&n.to_le_bytes());
    }

    /// An optional value behind a presence tag.
    fn opt<T>(&mut self, v: Option<T>, f: impl FnOnce(&mut Fnv, T)) {
        match v {
            None => self.bytes(&[0]),
            Some(x) => {
                self.bytes(&[1]);
                f(self, x);
            }
        }
    }
}

/// Every field of every record, in order.
fn records_digest(records: &[SpecRecord]) -> u64 {
    let mut h = Fnv::new();
    for r in records {
        h.str(&r.problem);
        h.str(&r.benchmark);
        h.str(&r.domain);
        h.str(&r.technique);
        h.u64(u64::from(r.rep));
        h.opt(r.tm, |h, x| h.u64(x.to_bits()));
        h.opt(r.sm, |h, x| h.u64(x.to_bits()));
        h.opt(r.tree_edits, |h, x| h.u64(u64::from(x)));
        h.opt(r.tree_sim, |h, x| h.u64(x.to_bits()));
        h.u64(u64::from(r.internal_success));
        h.u64(r.explored as u64);
        h.str(r.reason.label());
    }
    h.0
}

#[test]
fn traditional_records_are_pinned() {
    let scale = 0.03125;
    let config = StudyConfig {
        scale,
        seed: 42,
        ..StudyConfig::default()
    };
    let mut records = Vec::new();
    for problem in &specrepair_benchmarks::full_study(scale) {
        for id in TechniqueId::traditional() {
            let oracle = OracleHandle::fresh();
            records.push(runner::evaluate_cell(&oracle, id, problem, &config));
        }
    }
    assert_eq!(records.len(), 288);
    let digest = records_digest(&records);
    assert_eq!(
        digest, PINNED,
        "traditional records digest 0x{digest:016x}, pinned 0x{PINNED:016x}"
    );
}
