//! Integration tests for the persistent verdict tier: a real daemon on an
//! ephemeral port, a real cache directory, driven over real TCP sockets.
//!
//! Covers the warm-boot path (verdicts survive a drain and serve the next
//! process), corruption quarantine (a damaged record never takes the daemon
//! down), chaotic-disk degradation (the breaker keeps the daemon serving
//! memory-only, and the drain-time seal heals the log), and the
//! singleflight `collapsed` counter surfacing in `GET /metrics`.

use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use specrepair_server::server::{roundtrip, spawn};
use specrepair_server::service::push_json_string;
use specrepair_server::ServerConfig;

const FAULTY: &str = "sig N { next: lone N } \
    fact { some n: N | n in n.next } \
    assert NoSelf { all n: N | n not in n.next } \
    check NoSelf for 3 expect 0";

fn cache_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("specrepaird-persist-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn boot(config: ServerConfig) -> (specrepair_server::ServerHandle, String) {
    let handle = spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..config
    })
    .expect("binding an ephemeral port");
    let addr = handle.addr().to_string();
    (handle, addr)
}

fn call(addr: &str, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connecting to the daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    roundtrip(&mut stream, method, path, body).expect("a well-formed response")
}

fn repair_body(technique: &str) -> String {
    let mut spec = String::new();
    push_json_string(FAULTY, &mut spec);
    format!("{{\"spec\":{spec},\"technique\":\"{technique}\"}}")
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
        serde::Value::Bool(b) => {
            if *b {
                1.0
            } else {
                0.0
            }
        }
        other => panic!("{pointer:?}: not a number: {other:?}"),
    }
}

fn repair_wave(addr: &str) {
    for technique in ["ATR", "BeAFix"] {
        let (status, body) = call(addr, "POST", "/repair", &repair_body(technique));
        assert_eq!(status, 200, "{technique}: {body}");
    }
}

#[test]
fn warm_boot_preloads_and_serves_persist_hits() {
    let dir = cache_dir("warm");

    // Cold boot: empty tier, every verdict is computed and appended.
    let (handle, addr) = boot(ServerConfig {
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    assert_eq!(metric(&addr, &["persistent", "enabled"]), 1.0);
    assert_eq!(metric(&addr, &["persistent", "preloaded"]), 0.0);
    repair_wave(&addr);
    let appends = metric(&addr, &["persistent", "appends"]);
    assert!(appends >= 1.0, "cold run appended nothing");
    assert_eq!(metric(&addr, &["oracle_cache", "persist_hits"]), 0.0);
    handle.shutdown();
    handle.join();

    // Warm boot: the same verdicts come off disk instead of the solver.
    let (handle, addr) = boot(ServerConfig {
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let preloaded = metric(&addr, &["persistent", "preloaded"]);
    assert!(preloaded >= 1.0, "warm boot recovered nothing");
    let hit_rate_cold = metric(&addr, &["oracle_cache", "hit_rate"]);
    repair_wave(&addr);
    let persist_hits = metric(&addr, &["oracle_cache", "persist_hits"]);
    assert!(
        persist_hits >= 1.0,
        "warm run never hit the persistent tier"
    );
    let hit_rate_warm = metric(&addr, &["oracle_cache", "hit_rate"]);
    assert!(
        hit_rate_warm > hit_rate_cold,
        "persistent tier did not lift the hit rate: {hit_rate_cold} -> {hit_rate_warm}"
    );
    handle.shutdown();
    handle.join();

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_record_is_quarantined_not_fatal() {
    let dir = cache_dir("quarantine");

    let (handle, addr) = boot(ServerConfig {
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    repair_wave(&addr);
    handle.shutdown();
    handle.join();

    // Damage the sealed log: one garbage line plus one flipped byte in the
    // first record.
    let log = dir.join("verdicts.log");
    let mut bytes = std::fs::read(&log).unwrap();
    if !bytes.is_empty() {
        bytes[2] ^= 0x40;
    }
    bytes.extend_from_slice(b"this is not a verdict record\n");
    std::fs::write(&log, &bytes).unwrap();

    // The daemon boots anyway, counts the damage, and keeps serving.
    let (handle, addr) = boot(ServerConfig {
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    assert!(
        metric(&addr, &["persistent", "quarantined"]) >= 1.0,
        "damage was not quarantined"
    );
    assert!(
        metric(&addr, &["persistent", "preloaded"]) >= 1.0,
        "quarantine threw away the good records"
    );
    let (status, _) = call(&addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    repair_wave(&addr);
    handle.shutdown();
    handle.join();

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaotic_disk_degrades_gracefully_and_seal_heals_the_log() {
    let dir = cache_dir("chaos");

    // Every append faults. The daemon must keep answering 200s (memory-only
    // at worst) and the drain-time seal must rebuild the log from memory.
    let (handle, addr) = boot(ServerConfig {
        cache_dir: Some(dir.clone()),
        disk_chaos_rate: 1.0,
        disk_chaos_seed: 0xD15C,
        ..ServerConfig::default()
    });
    repair_wave(&addr);
    let injected = metric(&addr, &["persistent", "injected_write_errors"])
        + metric(&addr, &["persistent", "injected_short_writes"])
        + metric(&addr, &["persistent", "injected_bit_flips"]);
    assert!(injected >= 1.0, "chaos rate 1.0 injected nothing");
    let live = metric(&addr, &["persistent", "live_entries"]);
    assert!(live >= 1.0, "no verdicts held in memory");
    handle.shutdown();
    handle.join();

    // Warm boot with a healthy disk: the sealed log replays every verdict
    // the chaotic run acknowledged, with nothing quarantined.
    let (handle, addr) = boot(ServerConfig {
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let preloaded = metric(&addr, &["persistent", "preloaded"]);
    assert!(
        preloaded >= live,
        "seal lost verdicts: {live} live, {preloaded} preloaded"
    );
    assert_eq!(metric(&addr, &["persistent", "quarantined"]), 0.0);
    handle.shutdown();
    handle.join();

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn collapsed_counter_reconciles_with_metrics() {
    let (handle, addr) = boot(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    });

    // Concurrent identical repairs: any solve collapsed by singleflight
    // re-probes the memo, so every collapse also lands a hit.
    std::thread::scope(|scope| {
        for _ in 0..6 {
            let addr = &addr;
            scope.spawn(move || {
                let (status, body) = call(addr, "POST", "/repair", &repair_body("ATR"));
                assert_eq!(status, 200, "{body}");
            });
        }
    });
    let collapsed = metric(&addr, &["oracle_cache", "collapsed"]);
    let hits = metric(&addr, &["oracle_cache", "hits"]);
    assert!(
        collapsed <= hits,
        "collapsed ({collapsed}) cannot exceed hits ({hits})"
    );

    handle.shutdown();
    handle.join();
}
