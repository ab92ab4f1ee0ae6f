//! The persistent verdict tier's seam.
//!
//! The [`Oracle`](crate::Oracle) memoizes in process memory; a restart loses
//! everything. A [`VerdictStore`] is the disk tier behind it: a durable map
//! from canonical spec fingerprint to boolean oracle verdict, probed after
//! an in-memory miss and fed every freshly computed verdict. The trait lives
//! here (not in the cache crate) so the analyzer has no dependency on any
//! storage implementation — `specrepair-cache` implements it over a
//! crash-safe log-structured file, tests implement it over a `HashMap`.
//!
//! Only the boolean verdict is persisted: it is the query the corpus
//! workloads repeat (thousands of near-identical buggy candidate specs, the
//! Alloy4Fun scenario), it is tiny and checksummable in a fixed frame, and
//! it is exactly reconstructible from the fingerprint alone — unlike full
//! command outcomes or instance enumerations, which stay memory-only.
//!
//! Implementations must be infallible at this interface: a store that hits
//! disk trouble degrades internally (memory-only mode, breaker-style) and
//! simply answers `None` / ignores records. The oracle never sees an error
//! from its persistent tier.

use mualloy_syntax::Fingerprint;

/// A durable fingerprint → verdict map (the persistent oracle cache tier).
pub trait VerdictStore: Send + Sync {
    /// The persisted verdict for `key`, if any.
    fn lookup(&self, key: Fingerprint) -> Option<bool>;

    /// Durably records a freshly computed verdict. Best-effort: errors are
    /// absorbed by the implementation (degradation, not propagation).
    fn record(&self, key: Fingerprint, verdict: bool);
}
