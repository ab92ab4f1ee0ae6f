//! Output digests behind the correctness gates: FNV-1a over every field
//! of the study records, and over `/repair` responses with their only
//! timing-dependent field masked.

use specrepair_study::SpecRecord;

/// 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds raw bytes into the hash.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a length-prefixed string, so field boundaries cannot alias.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Folds an integer as little-endian bytes.
    pub fn u64(&mut self, n: u64) {
        self.bytes(&n.to_le_bytes());
    }

    /// Folds an optional value behind a presence tag.
    fn opt<T>(&mut self, v: Option<T>, f: impl FnOnce(&mut Fnv, T)) {
        match v {
            None => self.bytes(&[0]),
            Some(x) => {
                self.bytes(&[1]);
                f(self, x);
            }
        }
    }

    /// The hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of a study result set: every field of every record, in order,
/// with floats hashed by their bit pattern so any change to a score shows.
pub fn records_digest<'a>(records: impl IntoIterator<Item = &'a SpecRecord>) -> u64 {
    let mut h = Fnv::default();
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
    h.finish()
}

/// A `/repair` response body with the wall-clock `duration_ms` value
/// replaced by 0: the rest of the document is a pure function of the
/// request.
pub fn mask_duration(body: &str) -> String {
    const KEY: &str = "\"duration_ms\":";
    let Some(at) = body.find(KEY) else {
        return body.to_string();
    };
    let start = at + KEY.len();
    let digits = body[start..].bytes().take_while(u8::is_ascii_digit).count();
    format!("{}0{}", &body[..start], &body[start + digits..])
}

#[cfg(test)]
mod tests {
    use super::*;
    use specrepair_core::OutcomeReason;

    fn record() -> SpecRecord {
        SpecRecord {
            problem: "classroom/inv1/0".to_string(),
            benchmark: "A4F".to_string(),
            domain: "classroom".to_string(),
            technique: "ATR".to_string(),
            rep: 1,
            tm: Some(0.5),
            sm: None,
            tree_edits: Some(2),
            tree_sim: Some(0.9),
            internal_success: true,
            explored: 7,
            reason: OutcomeReason::Repaired,
        }
    }

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        let mut h = Fnv::default();
        h.bytes(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn every_record_field_moves_the_digest() {
        let base = records_digest([&record()]);
        assert_eq!(base, records_digest([&record()]));
        let edits: [fn(&mut SpecRecord); 6] = [
            |r| r.rep = 0,
            |r| r.tm = Some(0.5000000000000001),
            |r| r.sm = Some(0.0),
            |r| r.tree_edits = None,
            |r| r.explored += 1,
            |r| r.reason = OutcomeReason::Crashed,
        ];
        for edit in edits {
            let mut r = record();
            edit(&mut r);
            assert_ne!(records_digest([&r]), base, "{r:?}");
        }
    }

    #[test]
    fn masking_zeroes_only_the_duration() {
        let a = r#"{"success":true,"explored":12,"duration_ms":183,"trace_id":"00ff"}"#;
        let b = r#"{"success":true,"explored":12,"duration_ms":7,"trace_id":"00ff"}"#;
        assert_eq!(mask_duration(a), mask_duration(b));
        assert_eq!(
            mask_duration(a),
            r#"{"success":true,"explored":12,"duration_ms":0,"trace_id":"00ff"}"#
        );
        assert_eq!(mask_duration("{}"), "{}");
    }
}
