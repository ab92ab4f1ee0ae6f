//! Integration tests for the distributed oracle cluster: real shards and a
//! real router on ephemeral TCP ports, driven with the same client calls
//! `specrepaird loadgen` uses.
//!
//! Covers the headline invariant (a routed `/repair` answer is
//! byte-identical to a single-node daemon's, at any shard count), the
//! verdict-exchange plane (PUT/GET through the router land on the owning
//! shard and warm *other* clients: solved verdicts are pushed to their
//! owners, and a shard owning neither the spec nor the candidate pulls
//! them through its remote tier), and the failure mode (killing a shard trips
//! the router into degraded local solves that still produce the canonical
//! answer).

use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use mualloy_analyzer::Oracle;
use mualloy_syntax::Fingerprint;
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

fn fingerprint(spec: &str) -> Fingerprint {
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

/// The final candidate's source text in a `/repair` response.
fn candidate_of(body: &str) -> String {
    let serde::Value::Map(map) = serde_json::from_str(body).expect("response is JSON") else {
        panic!("response is not an object: {body}");
    };
    match map.into_iter().find(|(k, _)| k == "candidate") {
        Some((_, serde::Value::Str(source))) => source,
        other => panic!("no candidate in {body}: {other:?}"),
    }
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
fn verdicts_warm_the_owning_shard_and_cross_client_reads() {
    let cluster = Cluster::boot(3);
    let ring = cluster.ring();

    // An injected verdict routes to the owner and is readable through the
    // router *and* directly on the owning shard — two different clients.
    let injected = fingerprint(&spec_variant("Seeded"));
    let (status, body) = call(
        &cluster.router_addr,
        "PUT",
        &format!("/verdict/{injected}"),
        "1",
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"stored\":true"), "{body}");
    let (status, body) = call(
        &cluster.router_addr,
        "GET",
        &format!("/verdict/{injected}"),
        "",
    );
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"verdict\":true"), "{body}");
    let owner_addr = &ring.owner(injected).addr;
    let (status, body) = call(owner_addr, "GET", &format!("/verdict/{injected}"), "");
    assert_eq!(status, 200, "owner shard does not hold the verdict: {body}");

    // A repair solved through the router runs on the spec's owner, which
    // pushes each candidate verdict it solves to that candidate's owner.
    let spec = spec_variant("Shared");
    let spec_owner = ring.owner_index(fingerprint(&spec));
    let (status, body) = call(
        &cluster.router_addr,
        "POST",
        "/repair",
        &repair_body(&spec, "ATR"),
    );
    assert_eq!(status, 200, "{body}");
    let candidate = fingerprint(&candidate_of(&body));
    let candidate_owner = ring.owner_index(candidate);
    let (status, reply) = call(
        &cluster.peers[candidate_owner],
        "GET",
        &format!("/verdict/{candidate}"),
        "",
    );
    assert_eq!(status, 200, "{reply}");
    assert!(
        reply.contains("\"source\":\"memo\""),
        "candidate owner {candidate_owner} (spec owner {spec_owner}) \
         does not hold the candidate verdict in memory: {reply}"
    );

    // A shard owning neither the spec nor the candidate, asked the same
    // question afterwards, pulls the verdict off the cluster's remote tier
    // instead of solving it. (A shard owning the candidate would answer
    // from the pushed memo entry and never read the remote tier.)
    let prober = (0..cluster.peers.len())
        .find(|&i| i != spec_owner && i != candidate_owner)
        .expect("three shards leave one owning neither key");
    let prober_addr = cluster.peers[prober].clone();
    let remote_hits = |addr: &str| metric(addr, &["cluster", "remote_hits"]);
    let checks = |addr: &str| metric(addr, &["incremental", "incremental_checks"]);
    let (hits_before, checks_before) = (remote_hits(&prober_addr), checks(&prober_addr));
    let (status, body) = call(&prober_addr, "POST", "/repair", &repair_body(&spec, "ATR"));
    assert_eq!(status, 200, "{body}");
    assert!(
        remote_hits(&prober_addr) > hits_before,
        "shard {prober} never read the remote tier"
    );
    assert_eq!(
        checks(&prober_addr),
        checks_before,
        "shard {prober} solved a verdict the cluster already held"
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
    let key = fingerprint(&spec);
    let owner = cluster.ring().owner_index(key);
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

    // The verdict plane degrades too: a PUT for a key the dead shard owns
    // lands in the router's own memo and reads back as degraded.
    let (status, reply) = call(&cluster.router_addr, "PUT", &format!("/verdict/{key}"), "0");
    assert_eq!(status, 200, "{reply}");
    assert!(reply.contains("\"degraded\":true"), "{reply}");
    let (status, reply) = call(&cluster.router_addr, "GET", &format!("/verdict/{key}"), "");
    assert_eq!(status, 200, "{reply}");
    assert!(reply.contains("\"source\":\"degraded\""), "{reply}");

    // And the router is still healthy for the rest of the keyspace.
    let (status, _) = call(&cluster.router_addr, "GET", "/healthz", "");
    assert_eq!(status, 200);

    cluster.drain();
}
