//! # specrepair-cluster
//!
//! Cluster primitives for `specrepaird`: N shard daemons split the 128-bit
//! canonical spec-fingerprint space, and a router sends each repair to the
//! shard that owns its spec. Every repeat of a spec lands on the memo that
//! solved it, so the shards need no verdict traffic between them.
//!
//! Two pieces, both deterministic:
//!
//! - [`ShardRing`] — consistent hashing with fixed per-node virtual points
//!   seeded from the node id via SplitMix64. No RNG at lookup; the same
//!   node list yields the same ring in every process, and removing a node
//!   remaps only the keys that node owned.
//! - [`client`] — the tiny blocking `std::net` HTTP/1.1 client shared by
//!   the router, the load generator and the tests (the build environment
//!   is offline: no async runtime, no HTTP crate).

#![warn(missing_docs)]

pub mod client;
pub mod ring;

pub use ring::{ShardNode, ShardRing};
