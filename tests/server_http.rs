//! Integration tests for `specrepaird`: a real daemon on an ephemeral
//! port, driven over real TCP sockets.

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use specrepair_server::server::{read_response, roundtrip, spawn};
use specrepair_server::service::push_json_string;
use specrepair_server::{loadgen, LoadgenConfig, ServerConfig};

const FAULTY: &str = "sig N { next: lone N } \
    fact { some n: N | n in n.next } \
    assert NoSelf { all n: N | n not in n.next } \
    check NoSelf for 3 expect 0";

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

fn repair_body(technique: &str, extra: &str) -> String {
    let mut spec = String::new();
    push_json_string(FAULTY, &mut spec);
    format!("{{\"spec\":{spec},\"technique\":\"{technique}\"{extra}}}")
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
        other => panic!("{pointer:?}: not a number: {other:?}"),
    }
}

#[test]
fn health_techniques_and_routing() {
    let (handle, addr) = boot(ServerConfig::default());
    let (status, body) = call(&addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\""));

    let (status, body) = call(&addr, "GET", "/techniques", "");
    assert_eq!(status, 200);
    for label in [
        "ARepair",
        "ICEBAR",
        "BeAFix",
        "ATR",
        "Multi-Round_Auto",
        "Portfolio_All",
        "Portfolio_Traditional",
    ] {
        assert!(body.contains(label), "{body}");
    }

    let (status, _) = call(&addr, "GET", "/nowhere", "");
    assert_eq!(status, 404);
    let (status, _) = call(&addr, "GET", "/repair", "");
    assert_eq!(status, 405);

    handle.shutdown();
    handle.join();
}

#[test]
fn malformed_bodies_are_400() {
    let (handle, addr) = boot(ServerConfig::default());
    let (status, body) = call(&addr, "POST", "/repair", "this is not json");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("error"));

    let (status, body) = call(&addr, "POST", "/repair", "{\"technique\":\"ATR\"}");
    assert_eq!(status, 400);
    assert!(body.contains("spec"), "{body}");

    // Garbage that is not even HTTP also gets a 400 before the connection
    // is dropped.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(b"complete nonsense\r\n\r\n").unwrap();
    let mut reader = std::io::BufReader::new(stream);
    let (status, _) = read_response(&mut reader).unwrap();
    assert_eq!(status, 400);

    handle.shutdown();
    handle.join();
}

#[test]
fn concurrent_repairs_reconcile_with_metrics_and_cache_warms() {
    let (handle, addr) = boot(ServerConfig {
        workers: 4,
        queue_capacity: 64,
        ..ServerConfig::default()
    });

    let techniques = ["ATR", "BeAFix", "Single-Round_None", "Multi-Round_None"];
    let wave = |expect_success: bool| {
        std::thread::scope(|scope| {
            for technique in techniques {
                let addr = &addr;
                scope.spawn(move || {
                    let (status, body) = call(addr, "POST", "/repair", &repair_body(technique, ""));
                    assert_eq!(status, 200, "{technique}: {body}");
                    assert!(body.contains("\"technique\":"), "{body}");
                    if expect_success {
                        assert!(
                            body.contains(&format!("\"technique\":\"{technique}\"")),
                            "{body}"
                        );
                    }
                });
            }
        });
    };

    wave(true);
    let repairs_after_first = metric(&addr, &["requests", "repair", "200"]);
    assert_eq!(repairs_after_first as usize, techniques.len());
    assert!(metric(&addr, &["latency_ms", "ATR", "count"]) >= 1.0);
    let hit_rate_first = metric(&addr, &["oracle_cache", "hit_rate"]);

    // Identical second wave: every candidate was already memoized, so the
    // cache hit rate must strictly rise.
    wave(true);
    let repairs_after_second = metric(&addr, &["requests", "repair", "200"]);
    assert_eq!(repairs_after_second as usize, 2 * techniques.len());
    let hit_rate_second = metric(&addr, &["oracle_cache", "hit_rate"]);
    assert!(
        hit_rate_second > hit_rate_first,
        "cache did not warm: {hit_rate_first} -> {hit_rate_second}"
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn portfolio_repair_over_http_reports_entrants_and_per_entrant_metrics() {
    let (handle, addr) = boot(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    });
    let portfolio = "Portfolio_ARepair+Single-Round_Loc";
    let (status, body) = call(&addr, "POST", "/repair", &repair_body(portfolio, ""));
    assert_eq!(status, 200, "{body}");
    assert!(
        body.contains(&format!("\"technique\":\"{portfolio}\"")),
        "{body}"
    );
    assert!(body.contains("\"entrants\""), "{body}");
    assert!(body.contains("\"cancelled_at_ms\""), "{body}");

    // The race itself and every entrant that ran get latency rows.
    assert!(metric(&addr, &["latency_ms", portfolio, "count"]) >= 1.0);
    let (status, metrics_body) = call(&addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(
        metrics_body.contains(&format!("{portfolio}/ARepair")),
        "no per-entrant latency row:\n{metrics_body}"
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn chaotic_loadgen_is_absorbed_and_counted_daemon_wide() {
    let (handle, addr) = boot(ServerConfig {
        workers: 4,
        queue_capacity: 64,
        ..ServerConfig::default()
    });
    // loadgen opts every request into fault injection.
    let report = loadgen::run(&LoadgenConfig {
        addr: addr.clone(),
        requests: 50,
        connections: 4,
        chaos_rate: 0.25,
        shed_backoff_ms: 50,
        ..LoadgenConfig::default()
    });
    assert!(report.clean(), "{}", report.render());

    // Every request's LM stack counts into the daemon-wide transport stats.
    let transport = |key: &str| metric(&addr, &["transport", key]);
    assert!(
        metric(&addr, &["transport", "injected_faults", "total"]) > 0.0,
        "no faults injected"
    );
    assert!(transport("retries") > 0.0, "faults were never retried");
    // A giveup is only legitimate when a deadline fired mid-attempt.
    let forced = metric(&addr, &["deadline_exceeded_total"]) + transport("cancelled_backoffs");
    assert!(
        transport("giveups") <= forced,
        "{} unforced giveups against {forced} deadline-forced",
        transport("giveups")
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn millisecond_deadline_times_out_rather_than_hanging() {
    let (handle, addr) = boot(ServerConfig::default());
    let (status, body) = call(
        &addr,
        "POST",
        "/repair",
        &repair_body("Multi-Round_Auto", ",\"deadline_ms\":1"),
    );
    assert_eq!(status, 504, "{body}");
    assert!(body.contains("\"timed_out\":true"), "{body}");
    assert!(metric(&addr, &["deadline_exceeded_total"]) >= 1.0);

    handle.shutdown();
    handle.join();
}

#[test]
fn full_queue_sheds_with_503_and_retry_after() {
    // One worker, capacity one. An idle connection occupies the worker
    // (it blocks on the keep-alive read until its idle timeout), a second
    // idle connection fills the single queue slot, and every further
    // connection must be shed at admission.
    let (handle, addr) = boot(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    });

    let blocker = TcpStream::connect(&addr).unwrap();
    std::thread::sleep(Duration::from_millis(300));
    let parked = TcpStream::connect(&addr).unwrap();
    std::thread::sleep(Duration::from_millis(200));

    let mut shed = 0;
    for _ in 0..3 {
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nconnection: close\r\n\r\n")
            .unwrap();
        let mut reader = std::io::BufReader::new(stream);
        let (status, body) = read_response(&mut reader).unwrap();
        if status == 503 {
            assert!(body.contains("retry"), "{body}");
            shed += 1;
        }
    }
    assert!(shed >= 1, "no connection was shed");

    // Release the worker and the queue slot, then confirm the shed counter.
    drop(blocker);
    drop(parked);
    std::thread::sleep(Duration::from_millis(300));
    assert!(metric(&addr, &["shed_total"]) >= 1.0);

    handle.shutdown();
    handle.join();
}

#[test]
fn shutdown_drains_and_joins() {
    let (handle, addr) = boot(ServerConfig::default());
    let (status, _) = call(&addr, "POST", "/repair", &repair_body("ATR", ""));
    assert_eq!(status, 200);

    let (status, body) = call(&addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    assert!(body.contains("draining"));
    handle.join();

    // The listener is gone: new connections are refused (or reset).
    assert!(
        TcpStream::connect(&addr).is_err() || call_may_fail(&addr, "GET", "/healthz").is_none(),
        "daemon still accepting after drain"
    );
}

fn call_may_fail(addr: &str, method: &str, path: &str) -> Option<(u16, String)> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(2))).ok()?;
    roundtrip(&mut stream, method, path, "").ok()
}

#[test]
fn shutdown_file_stops_the_daemon() {
    let dir = std::env::temp_dir().join(format!("specrepaird-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("stop");
    let _ = std::fs::remove_file(&file);

    let (handle, addr) = boot(ServerConfig {
        shutdown_file: Some(file.clone()),
        ..ServerConfig::default()
    });
    let (status, _) = call(&addr, "GET", "/healthz", "");
    assert_eq!(status, 200);

    std::fs::write(&file, "stop").unwrap();
    handle.join();
    let _ = std::fs::remove_file(&file);
    let _ = std::fs::remove_dir(&dir);
}
