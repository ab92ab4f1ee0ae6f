//! Integration tests for the unified telemetry subsystem over real TCP:
//! the Prometheus exposition endpoint reconciling exactly with the legacy
//! JSON document, the time-series history ring (sampling, monotone
//! indices, drain-time JSONL dump), and the router's fleet-wide
//! `/cluster/metrics` aggregation with a killed shard reported stale.

use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

use specrepair_server::server::{roundtrip, spawn, ShardConfig};
use specrepair_server::service::push_json_string;
use specrepair_server::{router, RouterConfig, ServerConfig, ServerHandle};
use specrepair_telemetry::{prom, Sample, SampleValue};

const FAULTY: &str = "sig N { next: lone N } \
    fact { some n: N | n in n.next } \
    assert NoSelf { all n: N | n not in n.next } \
    check NoSelf for 3 expect 0";

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

/// A unique scratch file under the system temp dir.
fn temp_file(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "specrepaird-telemetry-{name}-{}",
        std::process::id()
    ))
}

/// The counter sample with this exact series id, or a panic naming it.
fn counter_value(samples: &[Sample], id: &str) -> u64 {
    let sample = samples
        .iter()
        .find(|s| s.id() == id)
        .unwrap_or_else(|| panic!("no sample {id}"));
    match sample.value {
        SampleValue::Counter(n) => n,
        ref other => panic!("{id} is not a counter: {other:?}"),
    }
}

/// Reads `pointer` out of a JSON document, failing with the path.
fn json_field<'a>(value: &'a serde::Value, pointer: &[&str]) -> &'a serde::Value {
    let mut cursor = value;
    for key in pointer {
        let serde::Value::Map(map) = cursor else {
            panic!("{pointer:?}: not a map at {key}");
        };
        cursor = &map
            .iter()
            .find(|(k, _)| k == key)
            .unwrap_or_else(|| panic!("{pointer:?}: no {key}"))
            .1;
    }
    cursor
}

fn json_u64(value: &serde::Value, pointer: &[&str]) -> u64 {
    match json_field(value, pointer) {
        serde::Value::U64(n) => *n,
        serde::Value::I64(n) => *n as u64,
        other => panic!("{pointer:?}: not an integer: {other:?}"),
    }
}

#[test]
fn prom_exposition_reconciles_exactly_with_the_json_document() {
    let handle = spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    })
    .expect("binding an ephemeral port");
    let addr = handle.addr().to_string();

    // Two repairs of the same spec: a miss, then an oracle-cache hit.
    for _ in 0..2 {
        let (status, body) = call(&addr, "POST", "/repair", &repair_body(FAULTY, "ATR"));
        assert_eq!(status, 200, "{body}");
    }

    let (status, json_body) = call(&addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let (status, prom_body) = call(&addr, "GET", "/metrics/prom", "");
    assert_eq!(status, 200);
    assert!(prom_body.starts_with("# HELP"), "{prom_body}");

    // The exposition carries the same values as the JSON document: both
    // are rendered from one walk over the metric descriptions.
    let json_doc: serde::Value = serde_json::from_str(&json_body).expect("metrics is JSON");
    let samples = prom::parse(&prom_body).expect("exposition parses");
    assert_eq!(
        counter_value(&samples, "specrepair_oracle_hits_total"),
        json_u64(&json_doc, &["oracle_cache", "hits"])
    );
    assert_eq!(
        counter_value(&samples, "specrepair_oracle_misses_total"),
        json_u64(&json_doc, &["oracle_cache", "misses"])
    );
    let repair_ok = "specrepair_requests_total{endpoint=\"repair\",status=\"200\"}";
    let json_repair_ok = json_u64(&json_doc, &["requests", "repair", "200"]);
    assert_eq!(counter_value(&samples, repair_ok), json_repair_ok);
    assert!(json_repair_ok >= 2, "both repairs were counted");
    // Histograms survive the text round trip with full bucket fidelity.
    let latency = samples
        .iter()
        .find(|s| s.id() == "specrepair_repair_latency_us{technique=\"ATR\"}")
        .expect("the ATR latency histogram is exposed");
    match &latency.value {
        SampleValue::Histogram(h) => {
            assert!(h.count() >= 2, "both repairs recorded a latency");
            assert!(h.sum_micros() > 0);
        }
        other => panic!("latency series is not a histogram: {other:?}"),
    }

    handle.shutdown();
    handle.join();
}

#[test]
fn history_ring_samples_monotonically_and_dumps_on_drain() {
    // A daemon without the flag answers the endpoint with enabled: false.
    let plain = spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    })
    .expect("binding an ephemeral port");
    let (status, body) = call(&plain.addr().to_string(), "GET", "/metrics/history", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"enabled\": false"), "{body}");
    plain.shutdown();
    plain.join();

    let dump = temp_file("history.jsonl");
    let _ = std::fs::remove_file(&dump);
    let handle = spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        metrics_history_interval_ms: 25,
        metrics_history_capacity: 64,
        metrics_history_file: Some(dump.clone()),
        ..ServerConfig::default()
    })
    .expect("binding an ephemeral port");
    let addr = handle.addr().to_string();

    let (status, body) = call(&addr, "POST", "/repair", &repair_body(FAULTY, "ATR"));
    assert_eq!(status, 200, "{body}");
    std::thread::sleep(Duration::from_millis(150));

    let (status, body) = call(&addr, "GET", "/metrics/history", "");
    assert_eq!(status, 200);
    let doc: serde::Value = serde_json::from_str(&body).expect("history is JSON");
    assert_eq!(json_field(&doc, &["enabled"]), &serde::Value::Bool(true));
    assert_eq!(json_u64(&doc, &["interval_ms"]), 25);
    let serde::Value::Seq(samples) = json_field(&doc, &["samples"]) else {
        panic!("samples is not a list: {body}");
    };
    assert!(samples.len() >= 2, "expected >= 2 samples in {body}");
    // Sample indices are the deterministic tick numbers: strictly
    // increasing, and counters never move backwards between ticks.
    let mut last_index = None;
    let mut last_requests = 0.0f64;
    for sample in samples {
        let index = json_u64(sample, &["index"]);
        assert!(last_index.is_none_or(|prev| index > prev), "{body}");
        last_index = Some(index);
        let serde::Value::Map(values) = json_field(sample, &["values"]) else {
            panic!("values is not a map: {body}");
        };
        let requests: f64 = values
            .iter()
            .filter(|(k, _)| k.starts_with("specrepair_requests_total"))
            .map(|(_, v)| match v {
                serde::Value::F64(n) => *n,
                serde::Value::U64(n) => *n as f64,
                other => panic!("not a number: {other:?}"),
            })
            .sum();
        assert!(requests >= last_requests, "a counter went backwards");
        last_requests = requests;
    }

    // Drain writes the ring to the JSONL file, one sample per line.
    handle.shutdown();
    handle.join();
    let dumped = std::fs::read_to_string(&dump).expect("the drain dump exists");
    assert!(!dumped.trim().is_empty(), "the dump is empty");
    for line in dumped.lines() {
        let parsed: serde::Value = serde_json::from_str(line).expect("each line is JSON");
        json_u64(&parsed, &["index"]);
    }
    let _ = std::fs::remove_file(&dump);
}

#[test]
fn cluster_metrics_aggregates_shards_and_marks_dead_ones_stale() {
    // Two shards on reserved ports plus a router, as tests/cluster.rs.
    let reservations: Vec<TcpListener> = (0..2)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("reserving a port"))
        .collect();
    let peers: Vec<String> = reservations
        .iter()
        .map(|l| l.local_addr().unwrap().to_string())
        .collect();
    let mut shards: Vec<Option<ServerHandle>> = Vec::new();
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

    let (status, body) = call(&router_addr, "POST", "/repair", &repair_body(FAULTY, "ATR"));
    assert_eq!(status, 200, "{body}");
    // Shard 1 also cold-solves a spec nobody has seen: the ring assigns
    // the routed spec to a port-dependent owner, so this pins a miss on
    // the shard that survives the kill below either way.
    let faulty_m = FAULTY
        .replace(" N ", " M ")
        .replace("N |", "M |")
        .replace(": N", ": M");
    let (status, body) = call(&peers[1], "POST", "/repair", &repair_body(&faulty_m, "ATR"));
    assert_eq!(status, 200, "{body}");

    // The fleet counter is the sum of what each shard exposes itself.
    let mut want_hits = 0u64;
    for peer in &peers {
        let (status, exposition) = call(peer, "GET", "/metrics/prom", "");
        assert_eq!(status, 200);
        let samples = prom::parse(&exposition).expect("shard exposition parses");
        want_hits += counter_value(&samples, "specrepair_oracle_misses_total");
    }
    let (status, body) = call(&router_addr, "GET", "/cluster/metrics", "");
    assert_eq!(status, 200);
    let doc: serde::Value = serde_json::from_str(&body).expect("fleet document is JSON");
    assert_eq!(json_u64(&doc, &["shards_total"]), 2);
    assert_eq!(json_u64(&doc, &["shards_ok"]), 2);
    assert_eq!(json_u64(&doc, &["shards_stale"]), 0);
    assert_eq!(
        json_u64(&doc, &["counters", "specrepair_oracle_misses_total"]),
        want_hits
    );

    // Kill one shard: its scrape fails, it is labeled stale, and the
    // aggregate keeps serving from the survivor.
    let dead = shards[0].take().expect("shard 0 running");
    dead.shutdown();
    dead.join();
    let (status, body) = call(&router_addr, "GET", "/cluster/metrics", "");
    assert_eq!(status, 200);
    let doc: serde::Value = serde_json::from_str(&body).expect("fleet document is JSON");
    assert_eq!(json_u64(&doc, &["shards_total"]), 2);
    assert_eq!(json_u64(&doc, &["shards_ok"]), 1);
    assert_eq!(json_u64(&doc, &["shards_stale"]), 1);
    assert_eq!(
        json_field(&doc, &["shards", peers[0].as_str(), "stale"]),
        &serde::Value::Bool(true)
    );
    let serde::Value::Str(error) = json_field(&doc, &["shards", peers[0].as_str(), "error"]) else {
        panic!("stale shard carries no error: {body}");
    };
    assert!(!error.is_empty());
    assert_eq!(
        json_field(&doc, &["shards", peers[1].as_str(), "stale"]),
        &serde::Value::Bool(false)
    );
    // Aggregated counters are still present (now from one shard only).
    assert!(
        json_u64(&doc, &["counters", "specrepair_oracle_misses_total"]) >= 1,
        "{body}"
    );

    router.shutdown();
    router.join();
    for shard in shards.iter_mut().filter_map(Option::take) {
        shard.shutdown();
        shard.join();
    }
}
