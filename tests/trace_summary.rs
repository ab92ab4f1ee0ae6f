//! Integration: a daemon booted with tracing on reports per-phase span
//! totals on `GET /trace/summary` after a loadgen run, and the phase
//! percentages add up to the whole.
//!
//! This binary holds a single test: tracing is enabled process-wide, so a
//! second concurrently-running daemon would share its span collector.

use std::net::TcpStream;
use std::time::Duration;

use serde::Value;
use specrepair_server::server::{roundtrip, spawn};
use specrepair_server::{loadgen, LoadgenConfig, ServerConfig};

fn field<'a>(value: &'a Value, key: &str) -> &'a Value {
    let Value::Map(map) = value else {
        panic!("not a map at {key}: {value:?}");
    };
    map.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("no {key} in {value:?}"))
}

fn number(value: &Value) -> f64 {
    match value {
        Value::U64(n) => *n as f64,
        Value::I64(n) => *n as f64,
        Value::F64(n) => *n,
        other => panic!("not a number: {other:?}"),
    }
}

#[test]
fn traced_daemon_reports_phase_totals_that_sum_to_the_whole() {
    let handle = spawn(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        queue_capacity: 64,
        trace: true,
        ..ServerConfig::default()
    })
    .expect("binding an ephemeral port");
    let addr = handle.addr().to_string();

    let report = loadgen::run(&LoadgenConfig {
        addr: addr.clone(),
        requests: 20,
        connections: 4,
        ..LoadgenConfig::default()
    });
    assert!(report.clean(), "{}", report.render());

    let mut stream = TcpStream::connect(&addr).expect("connecting to the daemon");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let (status, body) =
        roundtrip(&mut stream, "GET", "/trace/summary", "").expect("a well-formed response");
    assert_eq!(status, 200, "{body}");
    let doc: Value = serde_json::from_str(&body).expect("the summary is JSON");

    assert_eq!(field(&doc, "tracing_enabled"), &Value::Bool(true), "{body}");
    assert!(number(field(&doc, "spans_total")) > 0.0, "{body}");
    assert!(number(field(&doc, "attributed_ms_total")) > 0.0, "{body}");
    let Value::Map(phases) = field(&doc, "phases") else {
        panic!("phases is not a map: {body}");
    };
    let pct: f64 = phases.iter().map(|(_, p)| number(field(p, "pct"))).sum();
    assert!((pct - 100.0).abs() < 0.5, "phase percentages sum to {pct}");

    drop(stream);
    handle.shutdown();
    handle.join();
}
