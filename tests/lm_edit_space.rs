//! Integration: the synthetic model keeps the edit space of the last prompt
//! source it saw. The reference is a fresh model per call, which builds the
//! edit space anew every time; one long-lived model fed the same
//! prompts must return the same completions and leave the RNG at the same
//! point, across every faulty spec of the study corpus.
//!
//! Both sides run the same code, so the test also folds every completion
//! and every RNG position of the sequence into one FNV-1a digest. `PINNED`
//! was computed before the model stopped materializing its whole edit space
//! per draw: a change to how the model samples or builds its edits must
//! leave it unmoved. Never regenerate it to make a change pass.

use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use specrepair_benchmarks::{full_study, RepairProblem};
use specrepair_core::localization::constraint_sites;
use specrepair_llm::{Feedback, Guidance, ProblemHints, Prompt, PromptSetting, SyntheticLm};
use specrepair_study::runner::hints_for;

/// No mutable site: assertion bodies are never mutated.
const NO_SITES: &str = "sig A {} assert Empty { no A } check Empty for 2 expect 0";

const FEEDBACK: Feedback = Feedback::StillFaulty;

const PINNED: u64 = 0x53ce_d167_37bd_8e70;

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

    fn u64(&mut self, n: u64) {
        self.bytes(&n.to_le_bytes());
    }

    /// A completion behind a presence tag, length-prefixed so completions
    /// cannot alias.
    fn completion(&mut self, text: Option<&str>) {
        match text {
            None => self.bytes(&[0]),
            Some(t) => {
                self.bytes(&[1]);
                self.u64(t.len() as u64);
                self.bytes(t.as_bytes());
            }
        }
    }
}

fn prompt(source: &str, hints: ProblemHints, feedback: Option<Feedback>) -> Prompt {
    Prompt {
        source: source.to_string(),
        hints,
        feedback,
    }
}

/// Prompts on `p`'s faulty source with every kind of hint, feedback and
/// guidance; a switch to `q`'s source and back; an unparsable source, then
/// `p` again; and a spec with nothing to mutate.
fn sequence(p: &RepairProblem, q: &RepairProblem) -> Vec<(Prompt, Option<Guidance>)> {
    let src = p.faulty_source.as_str();
    let hints = hints_for(p);
    let mut variants: Vec<ProblemHints> = PromptSetting::ALL
        .iter()
        .map(|s| hints.filtered(*s))
        .collect();
    variants.push(ProblemHints {
        fix: hints.fix.clone(),
        ..ProblemHints::default()
    });
    variants.push(ProblemHints {
        sites: hints.sites.clone(),
        ..ProblemHints::default()
    });
    let site_weights: Vec<_> = constraint_sites(&p.faulty)
        .iter()
        .enumerate()
        .map(|(i, s)| (s.id, 1.0 / (i + 1) as f64))
        .collect();
    let guided = |restrict_top| {
        Some(Guidance {
            site_weights: site_weights.clone(),
            restrict_top,
        })
    };

    let mut out: Vec<_> = variants
        .into_iter()
        .map(|h| (prompt(src, h, None), None))
        .collect();
    for g in [None, guided(None), guided(Some(2))] {
        out.push((prompt(src, ProblemHints::default(), Some(FEEDBACK)), g));
    }
    out.push((prompt(&q.faulty_source, hints_for(q), None), guided(None)));
    out.push((prompt(src, hints.clone(), Some(FEEDBACK)), guided(Some(1))));
    let cut_off = format!("{src}\nsig {{");
    out.push((prompt(&cut_off, hints.clone(), None), None));
    out.push((prompt(src, hints, None), None));
    out.push((prompt(NO_SITES, ProblemHints::default(), None), None));
    out
}

#[test]
fn long_lived_model_proposes_like_a_fresh_model_per_call() {
    let problems = full_study(0.005);
    let long_lived = SyntheticLm::default();
    let (mut memo_rng, mut fresh_rng) =
        (ChaCha8Rng::seed_from_u64(42), ChaCha8Rng::seed_from_u64(42));
    let (mut declined, mut verbatim, mut proposed) = (0, 0, 0);
    let mut digest = Fnv::new();
    for (i, p) in problems.iter().enumerate() {
        let q = &problems[(i + 1) % problems.len()];
        for (j, (prompt, guidance)) in sequence(p, q).iter().enumerate() {
            for draw in 0..2 {
                let label = format!("{} prompt {j} draw {draw}", p.id);
                let memo = long_lived.propose(prompt, guidance.as_ref(), &mut memo_rng);
                let fresh =
                    SyntheticLm::default().propose(prompt, guidance.as_ref(), &mut fresh_rng);
                assert_eq!(memo, fresh, "{label}");
                let position = memo_rng.clone().next_u64();
                assert_eq!(
                    position,
                    fresh_rng.clone().next_u64(),
                    "{label}: rng position"
                );
                digest.completion(memo.as_deref());
                digest.u64(position);
                match memo.as_deref() {
                    None => declined += 1,
                    Some(text) if text == prompt.source => verbatim += 1,
                    Some(_) => proposed += 1,
                }
            }
        }
    }
    // Every unparsable prompt is declined and every spec without sites is
    // echoed; the rest draw edits.
    assert_eq!(declined, 2 * problems.len());
    assert!(verbatim >= 2 * problems.len(), "{verbatim} verbatim");
    assert!(proposed > 20 * problems.len(), "{proposed} proposed");
    assert_eq!(
        digest.0, PINNED,
        "completions digest {:#018x} moved from the pinned {PINNED:#018x}",
        digest.0
    );
}
