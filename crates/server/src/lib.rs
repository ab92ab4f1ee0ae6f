//! `specrepair-server`: repair-as-a-service.
//!
//! The `specrepaird` daemon exposes every technique of the study over a
//! hand-rolled HTTP/1.1 API (the build environment is offline, so there is
//! no async runtime — a blocking acceptor, a bounded admission queue and a
//! fixed worker pool over `std::net` carry the whole thing):
//!
//! - `POST /repair` — repair one μAlloy specification with a named
//!   technique under a budget and a wall-clock deadline; optionally score
//!   the candidate against a reference (ground-truth) specification.
//! - `GET /techniques` — every accepted technique label: the twelve
//!   studied techniques plus the five portfolio rosters.
//! - `GET /healthz` — liveness (reports `draining` during shutdown).
//! - `GET /metrics` — request counts, per-technique latency percentiles,
//!   queue depth, the shared oracle's cache statistics and the LM
//!   transport's resilience counters, as JSON.
//! - `GET /metrics/prom` — the same metrics in the Prometheus text format.
//! - `GET /metrics/history` — the sampled metrics ring, when the daemon
//!   was booted with `--metrics-history-interval-ms`.
//! - `GET /trace/summary` — per-phase span totals since boot, when the
//!   daemon was booted with `--trace`.
//! - `POST /shutdown` — graceful shutdown: stop admitting, drain, exit.
//!
//! Overload sheds at admission (`503` + `Retry-After`), deadlines cancel
//! cooperatively through [`specrepair_core::CancelToken`] (a late repair
//! returns `504` with the partial outcome instead of hanging), and the
//! bundled [`loadgen`] drives a running daemon for smoke tests and
//! capacity checks.
//!
//! A repair request runs as a study cell keyed by its spec text: the
//! study runner's [`specrepair_study::runner::run_cell`] builds the
//! technique, its LM transport stack or a roster's entrants exactly as
//! the study does.
//!
//! The daemon also scales out: `specrepaird route --shards …` runs the
//! deterministic [`router`] that forwards each repair to the shard owning
//! its spec fingerprint, so every repeat of a spec reaches the memo that
//! solved it, and degrades to a local solve when that shard is down. A
//! shard is a plain daemon; `serve --shard-id N --peers …` only adds its
//! place in the peer list to `/metrics`.
//!
//! Module map: [`http`] wire parsing · [`service`] request→repair→response
//! · `engine` threads, queue, shutdown · [`server`] the daemon/shard ·
//! [`router`] the cluster front-end · [`metrics`] observability, with
//! each metric described once in `snapshot` · [`loadgen`] the client.

pub(crate) mod engine;
pub mod http;
pub mod loadgen;
pub mod metrics;
pub mod router;
pub mod server;
pub mod service;
pub(crate) mod snapshot;

pub use loadgen::{LoadgenConfig, LoadgenReport, WorkloadProfile};
pub use metrics::{Histogram, ServerMetrics};
pub use router::{spawn_router, RouterConfig, RouterHandle};
pub use server::{roundtrip, spawn, ServerConfig, ServerHandle, ShardConfig};
pub use service::{RepairRequest, RepairService, ServiceConfig};
