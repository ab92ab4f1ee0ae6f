//! Integration: `POST /repair` responses are pinned. A fixed body set runs
//! through an in-process `RepairService`: every label `GET /techniques`
//! lists (the twelve techniques and the five rosters) on two Alloy4Fun
//! faulty specs, one body with a `reference`, and LM bodies with injected
//! transport faults. One FNV-1a digest folds in each response's status and
//! body, with `duration_ms` masked. A portfolio response's entrants keep
//! their label, rank, budget and `counted` flag; the entrants counted in
//! the merged outcome also keep their verdict and cost, while the fields
//! that depend on thread timing (timestamps, and how far a cancelled loser
//! got) are masked. The daemon-wide transport counters after the fault
//! bodies are pinned too.
//!
//! `PINNED` and the counters were computed while the daemon still built
//! its techniques itself, before it called the study runner's dispatch: a
//! change to how a technique, its LM stack or a roster is built must leave
//! them unmoved. Never regenerate them to make a change pass.

use serde::Value;
use specrepair_core::OracleHandle;
use specrepair_server::service::push_json_string;
use specrepair_server::{RepairService, ServiceConfig};

const PINNED: u64 = 0xb756_eacc_9060_47fe;

/// Retries, giveups, breaker trips, breaker rejections, cancelled
/// backoffs, then injected faults per kind in taxonomy order.
const PINNED_TRANSPORT: [u64; 9] = [58, 0, 0, 0, 0, 19, 14, 13, 12];

/// A deadline no body reaches, so a slow host cannot turn a 200 into a 504.
const DEADLINE_MS: u64 = 600_000;

const LLM_LABELS: [&str; 8] = [
    "Single-Round_Loc+Fix",
    "Single-Round_Loc",
    "Single-Round_Pass",
    "Single-Round_None",
    "Single-Round_Loc+Pass",
    "Multi-Round_None",
    "Multi-Round_Generic",
    "Multi-Round_Auto",
];

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

fn body(spec: &str, technique: &str, extra: &str) -> String {
    let mut quoted = String::new();
    push_json_string(spec, &mut quoted);
    format!(
        "{{\"spec\":{quoted},\"technique\":\"{technique}\",\"deadline_ms\":{DEADLINE_MS}{extra}}}"
    )
}

fn field<'a>(map: &'a [(String, Value)], key: &str) -> &'a Value {
    &map.iter()
        .find(|(k, _)| k == key)
        .unwrap_or_else(|| panic!("no `{key}` in {map:?}"))
        .1
}

/// The entrant fields every race reproduces.
const ENTRANT_KEPT: [&str; 4] = ["label", "rank", "budget_candidates", "counted"];
/// The fields an entrant counted in the merged outcome also reproduces:
/// it ran to completion exactly as it would alone.
const COUNTED_KEPT: [&str; 4] = ["success", "reason", "explored", "rounds"];

fn mask_entrant(entrant: &Value) -> Value {
    let Value::Map(map) = entrant else {
        panic!("entrant is not an object: {entrant:?}");
    };
    let counted = matches!(field(map, "counted"), Value::Bool(true));
    Value::Map(
        map.iter()
            .filter(|(k, _)| {
                ENTRANT_KEPT.contains(&k.as_str())
                    || (counted && COUNTED_KEPT.contains(&k.as_str()))
            })
            .cloned()
            .collect(),
    )
}

/// The response body with `duration_ms` dropped and each entrant masked.
fn mask(body: &str) -> String {
    let Value::Map(map) = serde_json::from_str(body).expect("response is JSON") else {
        panic!("response is not an object: {body}");
    };
    let kept: Vec<(String, Value)> = map
        .into_iter()
        .filter(|(k, _)| k != "duration_ms")
        .map(|(k, v)| match (k.as_str(), v) {
            ("entrants", Value::Seq(entrants)) => {
                (k, Value::Seq(entrants.iter().map(mask_entrant).collect()))
            }
            (_, v) => (k, v),
        })
        .collect();
    serde_json::to_string(&Value::Map(kept)).expect("masked response serializes")
}

fn labels() -> Vec<String> {
    let Value::Map(doc) = serde_json::from_str(&RepairService::techniques_document()).unwrap()
    else {
        panic!("techniques document is not an object");
    };
    let Value::Seq(labels) = field(&doc, "techniques") else {
        panic!("`techniques` is not a list");
    };
    labels
        .iter()
        .map(|l| match l {
            Value::Str(s) => s.clone(),
            other => panic!("label is not a string: {other:?}"),
        })
        .collect()
}

#[test]
fn repair_responses_match_the_pinned_digest() {
    let problems = specrepair_benchmarks::alloy4fun(0.003);
    let specs = [&problems[0], &problems[1]];
    let labels = labels();
    assert_eq!(labels.len(), 17, "{labels:?}");

    let service = RepairService::new(OracleHandle::fresh(), ServiceConfig::default());
    let mut h = Fnv::new();
    let mut run = |body: &str| {
        let handled = service.handle_repair(body);
        let status = handled.response.status;
        assert_eq!(status, 200, "{body}\n{}", handled.response.body);
        h.bytes(&status.to_le_bytes());
        h.bytes(mask(&handled.response.body).as_bytes());
    };

    // The fault bodies first, so the transport counters see only them.
    for (i, label) in LLM_LABELS.iter().enumerate() {
        run(&body(
            &specs[i % 2].faulty_source,
            label,
            &format!(",\"fault_rate\":0.3,\"fault_seed\":{}", 7 + i),
        ));
    }
    let transport = service.transport_stats();
    let mut counters = vec![
        transport.retries.get(),
        transport.giveups.get(),
        transport.breaker_trips.get(),
        transport.breaker_rejections.get(),
        transport.cancelled_backoffs.get(),
    ];
    counters.extend(transport.faults.pairs().into_iter().map(|(_, n)| n));
    assert!(transport.faults.total() > 0, "no faults were injected");

    for spec in specs {
        for label in &labels {
            run(&body(&spec.faulty_source, label, ""));
        }
    }
    let mut reference = String::new();
    push_json_string(&specs[0].truth_source, &mut reference);
    run(&body(
        &specs[0].faulty_source,
        "ATR",
        &format!(",\"reference\":{reference}"),
    ));

    assert_eq!(
        counters, PINNED_TRANSPORT,
        "transport counters after the fault bodies moved"
    );
    assert_eq!(
        h.0, PINNED,
        "/repair responses digest moved: 0x{:016x}",
        h.0
    );
}
