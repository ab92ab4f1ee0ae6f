//! `specrepair-telemetry`: the unified, std-only metric layer.
//!
//! The crate holds the format-level machinery every metrics surface
//! shares; what each metric means, and which stats field it reads, is
//! described once by its owner (the daemon's descriptions live in
//! `specrepair-server`). The pieces:
//!
//! 1. [`metric`] — the primitives: [`Counter`], [`Gauge`] and the log₂
//!    [`Histogram`], all with lock-free relaxed-atomic hot paths, plus the
//!    immutable [`HistogramSnapshot`].
//! 2. [`registry`] — named, labeled families with idempotent registration
//!    and deterministic [`Registry::gather`] order, yielding [`Sample`]s.
//! 3. [`prom`] — Prometheus text exposition of a sample list for
//!    `GET /metrics/prom`, with an in-repo parser so the round trip is
//!    testable.
//! 4. [`history`] — the fixed-capacity time-series ring behind
//!    `GET /metrics/history` and the `metrics_history.jsonl` drain dump.
//! 5. [`aggregate`] — fleet-wide merging behind the router's
//!    `GET /cluster/metrics`.
//!
//! The crate depends only on the vendored `serde`/`serde_json` used
//! everywhere else in the workspace — no external dependencies.

pub mod aggregate;
pub mod history;
pub mod metric;
pub mod prom;
pub mod registry;

pub use aggregate::{fleet_document, ShardScrape};
pub use history::{History, HistorySample};
pub use metric::{bucket_upper_micros, Counter, Gauge, Histogram, HistogramSnapshot, BUCKETS};
pub use registry::{series_id, MetricKind, Registry, Sample, SampleValue};
