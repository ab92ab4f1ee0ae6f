//! Integration tests for the shard cluster: real shards and a real router
//! on ephemeral TCP ports, driven with the same client calls
//! `specrepaird loadgen` uses.
//!
//! Covers the headline invariant (a routed `/repair` answer is
//! byte-identical to a single-node daemon's, at any shard count), memo
//! locality (the router sends every repeat of a spec to the shard whose
//! memo solved it, so a repeated pass solves nothing anywhere), and the
//! failure mode (killing a shard trips the router into degraded local
//! solves that still produce the canonical answer).

use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use mualloy_analyzer::Oracle;
use specrepair_cluster::ShardRing;
use specrepair_server::server::{roundtrip, spawn, ShardConfig};
use specrepair_server::service::push_json_string;
use specrepair_server::{router, RouterConfig, ServerConfig, ServerHandle};

const FAULTY: &str = "sig N { next: lone N } \
    fact { some n: N | n in n.next } \
    assert NoSelf { all n: N | n not in n.next } \
    check NoSelf for 3 expect 0";

/// A family of distinct-but-equivalent faulty specs: renaming the sig
/// changes the canonical fingerprint, which spreads the family across the
/// ring without changing what a repair has to do.
fn spec_variant(name: &str) -> String {
    format!(
        "sig {name} {{ next: lone {name} }} \
         fact {{ some n: {name} | n in n.next }} \
         assert NoSelf {{ all n: {name} | n not in n.next }} \
         check NoSelf for 3 expect 0"
    )
}

fn fingerprint(spec: &str) -> mualloy_syntax::Fingerprint {
    Oracle::fingerprint(&mualloy_syntax::parse_spec(spec).expect("test spec parses"))
}

fn repair_body(spec: &str, technique: &str) -> String {
    let mut escaped = String::new();
    push_json_string(spec, &mut escaped);
    format!("{{\"spec\":{escaped},\"technique\":\"{technique}\"}}")
}

fn call(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connecting");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    roundtrip(&mut stream, method, path, body).expect("a well-formed response")
}

/// Drops the nondeterministic wall-clock field; everything else in a
/// repair response is part of the byte-identity contract.
fn strip_duration(body: &str) -> String {
    let serde::Value::Map(map) = serde_json::from_str(body).expect("response is JSON") else {
        panic!("response is not an object: {body}");
    };
    let kept: Vec<_> = map
        .into_iter()
        .filter(|(k, _)| k != "duration_ms")
        .collect();
    serde_json::to_string(&serde::Value::Map(kept)).unwrap()
}

fn metric(addr: &str, pointer: &[&str]) -> f64 {
    let (status, body) = call(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let value: serde::Value = serde_json::from_str(&body).expect("metrics is JSON");
    let mut cursor = &value;
    for key in pointer {
        let serde::Value::Map(map) = cursor else {
            panic!("{pointer:?}: not a map at {key} in {body}");
        };
        cursor = &map
            .iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("{pointer:?}: no {key} in {body}"))
            .1;
    }
    match cursor {
        serde::Value::U64(n) => *n as f64,
        serde::Value::I64(n) => *n as f64,
        serde::Value::F64(n) => *n,
        serde::Value::Bool(b) => u8::from(*b) as f64,
        other => panic!("{pointer:?}: not a number: {other:?}"),
    }
}

/// A booted cluster: `n` shards plus one router, all on ephemeral ports.
struct Cluster {
    peers: Vec<String>,
    shards: Vec<Option<ServerHandle>>,
    router: Option<router::RouterHandle>,
    router_addr: String,
}

impl Cluster {
    /// Reserves `n` ephemeral ports (the peer list must be complete before
    /// the first shard boots), then releases each reservation just before
    /// the shard binds it.
    fn boot(n: usize) -> Cluster {
        let reservations: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("reserving a port"))
            .collect();
        let peers: Vec<String> = reservations
            .iter()
            .map(|l| l.local_addr().unwrap().to_string())
            .collect();
        let mut shards = Vec::new();
        for (shard_id, reservation) in reservations.into_iter().enumerate() {
            drop(reservation);
            let handle = spawn(ServerConfig {
                addr: peers[shard_id].clone(),
                shard: Some(ShardConfig {
                    shard_id,
                    peers: peers.clone(),
                }),
                ..ServerConfig::default()
            })
            .expect("shard binds its reserved port");
            shards.push(Some(handle));
        }
        let router = router::spawn_router(RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            shards: peers.clone(),
            ..RouterConfig::default()
        })
        .expect("router binds an ephemeral port");
        let router_addr = router.addr().to_string();
        Cluster {
            peers,
            shards,
            router: Some(router),
            router_addr,
        }
    }

    fn ring(&self) -> ShardRing {
        ShardRing::from_addrs(&self.peers)
    }

    /// Shuts one shard down mid-test — the failure the router must absorb.
    fn kill_shard(&mut self, index: usize) {
        let handle = self.shards[index].take().expect("shard still running");
        handle.shutdown();
        handle.join();
    }

    fn drain(mut self) {
        if let Some(router) = self.router.take() {
            router.shutdown();
            router.join();
        }
        for shard in self.shards.iter_mut().filter_map(Option::take) {
            shard.shutdown();
            shard.join();
        }
    }
}

fn boot_single_node() -> (ServerHandle, String) {
    let handle = spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    })
    .expect("binding an ephemeral port");
    let addr = handle.addr().to_string();
    (handle, addr)
}

#[test]
fn routed_repairs_are_byte_identical_to_single_node_at_any_shard_count() {
    let cases: Vec<(String, &str)> = vec![
        (FAULTY.to_string(), "ATR"),
        (spec_variant("M"), "BeAFix"),
        (spec_variant("Link"), "ATR"),
        ("definitely not alloy".to_string(), "ATR"),
    ];

    // The ground truth: one plain daemon, no cluster anywhere.
    let (single, single_addr) = boot_single_node();
    let baseline: Vec<(u16, String)> = cases
        .iter()
        .map(|(spec, technique)| {
            let (status, body) = call(
                &single_addr,
                "POST",
                "/repair",
                &repair_body(spec, technique),
            );
            let body = if status == 200 {
                strip_duration(&body)
            } else {
                body
            };
            (status, body)
        })
        .collect();
    single.shutdown();
    single.join();

    // The same requests through a router must relay the same bytes,
    // whether one shard owns everything or three split the keyspace.
    for shard_count in [1, 3] {
        let cluster = Cluster::boot(shard_count);
        for ((spec, technique), (want_status, want_body)) in cases.iter().zip(&baseline) {
            let (status, body) = call(
                &cluster.router_addr,
                "POST",
                "/repair",
                &repair_body(spec, technique),
            );
            assert_eq!(status, *want_status, "{shard_count} shard(s): {body}");
            let body = if status == 200 {
                strip_duration(&body)
            } else {
                body
            };
            assert_eq!(
                body, *want_body,
                "{shard_count} shard(s): routed answer drifted from single-node"
            );
        }
        // Nothing above was a degraded answer: every shard was healthy.
        assert_eq!(
            metric(&cluster.router_addr, &["cluster", "degraded_local_solves"]),
            0.0
        );
        cluster.drain();
    }
}

#[test]
fn a_repeated_routed_pass_solves_nothing_and_hits_the_owning_memos() {
    let cluster = Cluster::boot(3);
    let cases = [
        (FAULTY.to_string(), "ATR"),
        (spec_variant("M"), "BeAFix"),
        (spec_variant("Link"), "ATR"),
        (spec_variant("Node"), "ICEBAR"),
    ];
    let pass = || -> Vec<String> {
        cases
            .iter()
            .map(|(spec, technique)| {
                let (status, body) = call(
                    &cluster.router_addr,
                    "POST",
                    "/repair",
                    &repair_body(spec, technique),
                );
                assert_eq!(status, 200, "{body}");
                strip_duration(&body)
            })
            .collect()
    };
    let solves = || -> Vec<f64> {
        cluster
            .peers
            .iter()
            .map(|addr| metric(addr, &["oracle_cache", "solver_invocations"]))
            .collect()
    };
    let summed_hits = || -> f64 {
        cluster
            .peers
            .iter()
            .map(|addr| metric(addr, &["oracle_cache", "hits"]))
            .sum()
    };

    let first = pass();
    let (solves_before, hits_before) = (solves(), summed_hits());
    assert!(
        solves_before.iter().sum::<f64>() > 0.0,
        "the first pass solved nothing"
    );
    // The router sends each repeat to the shard that solved it, so that
    // shard's memo answers every verdict: no shard solves again.
    assert_eq!(pass(), first, "the repeated pass answered differently");
    assert_eq!(solves(), solves_before, "a shard solved a repeated verdict");
    assert!(
        summed_hits() > hits_before,
        "the repeated pass never hit a shard memo"
    );
    assert_eq!(
        metric(&cluster.router_addr, &["cluster", "degraded_local_solves"]),
        0.0
    );
    cluster.drain();
}

#[test]
fn killing_the_owning_shard_degrades_to_a_correct_local_solve() {
    let spec = spec_variant("Victim");
    let body = repair_body(&spec, "ATR");

    // What the answer must look like, cluster or not.
    let (single, single_addr) = boot_single_node();
    let (status, want) = call(&single_addr, "POST", "/repair", &body);
    assert_eq!(status, 200, "{want}");
    let want = strip_duration(&want);
    single.shutdown();
    single.join();

    let mut cluster = Cluster::boot(3);
    let owner = cluster.ring().owner_index(fingerprint(&spec));
    cluster.kill_shard(owner);

    // The router retries, gives up on the dead owner, and solves locally —
    // same deterministic pipeline, same bytes.
    let (status, got) = call(&cluster.router_addr, "POST", "/repair", &body);
    assert_eq!(status, 200, "{got}");
    assert_eq!(strip_duration(&got), want, "degraded answer drifted");
    assert!(
        metric(&cluster.router_addr, &["cluster", "degraded_local_solves"]) >= 1.0,
        "the degraded solve was not counted"
    );
    // The dead shard's row records why: a failed forward, or one skipped on
    // its open breaker.
    let dead = cluster.peers[owner].as_str();
    let failures = metric(
        &cluster.router_addr,
        &["cluster", "shards", dead, "failures"],
    );
    let skipped = metric(&cluster.router_addr, &["cluster", "skipped_open"]);
    assert!(
        failures > 0.0 || skipped > 0.0,
        "the dead shard's failures went unrecorded"
    );

    // And the router is still healthy for the rest of the keyspace.
    let (status, _) = call(&cluster.router_addr, "GET", "/healthz", "");
    assert_eq!(status, 200);

    cluster.drain();
}
