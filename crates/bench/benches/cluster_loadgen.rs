//! Bench for the shard cluster: the same zipfian loadgen workload driven
//! against a single-node daemon and against a router over three shards,
//! all in-process on ephemeral ports. Measures cold and warm throughput
//! and hit rates, prints a summary line, and writes `BENCH_cluster.json`
//! at the repo root with the same measurements — the committed record of
//! what routing costs (one router hop) against one node.

use criterion::{criterion_group, criterion_main, Criterion};
use specrepair_server::server::{spawn, ShardConfig};
use specrepair_server::{
    loadgen, router, LoadgenConfig, LoadgenReport, RouterConfig, ServerConfig, WorkloadProfile,
};
use std::net::TcpListener;

/// Requests per loadgen run; enough for the zipfian head to repeat.
const REQUESTS: usize = 48;
const CONNECTIONS: usize = 4;

fn workload(addr: String, shards: Vec<String>) -> LoadgenConfig {
    LoadgenConfig {
        addr,
        requests: REQUESTS,
        connections: CONNECTIONS,
        profile: WorkloadProfile::Zipfian,
        tenants: 4,
        shards,
        ..LoadgenConfig::default()
    }
}

/// Boots one plain daemon; returns (handle, addr).
fn boot_single() -> (specrepair_server::ServerHandle, String) {
    let handle = spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    })
    .expect("binding an ephemeral port");
    let addr = handle.addr().to_string();
    (handle, addr)
}

/// Boots `n` shards plus a router; returns (shard handles, router handle,
/// router addr, shard addrs).
#[allow(clippy::type_complexity)]
fn boot_cluster(
    n: usize,
) -> (
    Vec<specrepair_server::ServerHandle>,
    router::RouterHandle,
    String,
    Vec<String>,
) {
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
        shards.push(
            spawn(ServerConfig {
                addr: peers[shard_id].clone(),
                shard: Some(ShardConfig {
                    shard_id,
                    peers: peers.clone(),
                }),
                ..ServerConfig::default()
            })
            .expect("shard binds its reserved port"),
        );
    }
    let router = router::spawn_router(RouterConfig {
        addr: "127.0.0.1:0".to_string(),
        shards: peers.clone(),
        ..RouterConfig::default()
    })
    .expect("router binds an ephemeral port");
    let addr = router.addr().to_string();
    (shards, router, addr, peers)
}

fn clean_run(config: &LoadgenConfig) -> LoadgenReport {
    let report = loadgen::run(config);
    assert!(report.clean(), "unexpected statuses: {}", report.render());
    report
}

fn bench_cluster_loadgen(c: &mut Criterion) {
    // The acceptance measurement: one cold and one warm zipfian run against
    // each topology. Cold runs pay the SAT solves; warm runs replay the
    // memo, which is where the router hop's overhead becomes visible.
    let (single, single_addr) = boot_single();
    let single_cold = clean_run(&workload(single_addr.clone(), Vec::new()));
    let single_warm = clean_run(&workload(single_addr.clone(), Vec::new()));

    let (shards, router_handle, router_addr, peers) = boot_cluster(3);
    let cluster_cold = clean_run(&workload(router_addr.clone(), peers.clone()));
    let cluster_warm = clean_run(&workload(router_addr.clone(), peers.clone()));

    println!(
        "cluster_loadgen: single {:.1}/{:.1} req/s cold/warm, \
         3-shard {:.1}/{:.1} req/s cold/warm, \
         aggregate hit rate {:.1}%",
        single_cold.throughput(),
        single_warm.throughput(),
        cluster_cold.throughput(),
        cluster_warm.throughput(),
        cluster_warm.cache_hit_rate.unwrap_or(0.0) * 100.0,
    );

    let json = format!(
        "{{\n  \"bench\": \"cluster_loadgen\",\n  \"requests\": {REQUESTS},\n  \
         \"connections\": {CONNECTIONS},\n  \"profile\": \"zipfian\",\n  \
         \"single_node\": {{\n    \"cold_req_per_s\": {:.1},\n    \
         \"warm_req_per_s\": {:.1},\n    \"warm_hit_rate\": {:.4}\n  }},\n  \
         \"three_shards\": {{\n    \"cold_req_per_s\": {:.1},\n    \
         \"warm_req_per_s\": {:.1},\n    \"warm_aggregate_hit_rate\": {:.4},\n    \
         \"degraded_local_solves\": 0\n  }}\n}}\n",
        single_cold.throughput(),
        single_warm.throughput(),
        single_warm.cache_hit_rate.unwrap_or(0.0),
        cluster_cold.throughput(),
        cluster_warm.throughput(),
        cluster_warm.cache_hit_rate.unwrap_or(0.0),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_cluster.json");
    std::fs::write(path, json).expect("can write BENCH_cluster.json");

    // Criterion groups over the warm paths only: a cold run would re-solve
    // nothing (the memos are hot by now), so both measure steady state.
    let mut group = c.benchmark_group("cluster_loadgen");
    group.sample_size(10);
    group.bench_function("single_node_warm", |b| {
        b.iter(|| clean_run(&workload(single_addr.clone(), Vec::new())).ok)
    });
    group.bench_function("three_shards_warm", |b| {
        b.iter(|| clean_run(&workload(router_addr.clone(), peers.clone())).ok)
    });
    group.finish();

    single.shutdown();
    single.join();
    router_handle.shutdown();
    router_handle.join();
    for shard in shards {
        shard.shutdown();
        shard.join();
    }
}

criterion_group!(benches, bench_cluster_loadgen);
criterion_main!(benches);
