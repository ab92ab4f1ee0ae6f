//! The repair service proper: parses a `POST /repair` body, admits or
//! rejects it, runs the requested technique under a deadline, and shapes
//! the JSON response.
//!
//! This module is transport-agnostic — it maps body text to
//! [`crate::http::Response`] values and leaves sockets, queues and threads
//! to [`crate::server`]. That split keeps the whole admission/deadline
//! policy unit-testable without opening a port.

use std::time::{Duration, Instant};

use std::sync::Arc;

use serde::{Serialize, Value};
use specrepair_core::{
    CancelToken, OracleHandle, RepairBudget, RepairContext, RepairOutcome, RepairTechnique,
};
use specrepair_llm::{
    FaultyLm, MultiRound, ResilientLm, RetryPolicy, SingleRound, SyntheticLm, TransportStats,
};
use specrepair_metrics::{candidate_metrics, CandidateMetrics};
use specrepair_portfolio::{Entrant, EntrantReport, Portfolio};
use specrepair_study::{RosterId, StudyConfig, TechniqueId};
use specrepair_traditional::{ARepair, Atr, BeAFix, Icebar};

use crate::http::Response;

/// Appends `s` as a JSON string literal (quotes and escapes included).
pub fn push_json_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Policy knobs of the service (transport-independent).
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Deadline applied when the request does not carry `deadline_ms`.
    pub default_deadline_ms: u64,
    /// Largest analysis scope admitted: a spec whose commands ask for more
    /// is rejected with `422` instead of being allowed to monopolise a
    /// worker (scope is the dominant cost driver of bounded analysis).
    pub max_scope: u32,
    /// Server-wide injected LM-transport fault rate (0.0 = off). A request
    /// may override it with a `fault_rate` field. Faults are absorbed by
    /// the resilience layer; this exists so a daemon can run in chaos mode
    /// for smoke tests.
    pub chaos_rate: f64,
    /// Base seed for the server's fault schedules (per-request plans also
    /// mix in the spec text and technique label).
    pub chaos_seed: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            default_deadline_ms: 10_000,
            max_scope: 6,
            chaos_rate: 0.0,
            chaos_seed: 0xC4A05,
        }
    }
}

/// One parsed `POST /repair` request.
#[derive(Debug, Clone)]
pub struct RepairRequest {
    /// The faulty μAlloy specification source.
    pub spec: String,
    /// Technique label (see `GET /techniques`).
    pub technique: String,
    /// Budget override; defaults to the study calibration for the
    /// technique.
    pub budget: Option<RepairBudget>,
    /// Per-request deadline override in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Seed for the stochastic (LLM) techniques.
    pub seed: Option<u64>,
    /// Optional ground-truth source; when present the response carries
    /// TM/SM/REP metrics of the candidate against it.
    pub reference: Option<String>,
    /// Per-request injected-fault rate override (chaos testing).
    pub fault_rate: Option<f64>,
    /// Per-request fault-schedule seed override.
    pub fault_seed: Option<u64>,
}

fn get<'a>(map: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    map.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .filter(|v| !matches!(v, Value::Null))
}

fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::U64(n) => Some(*n),
        Value::I64(n) if *n >= 0 => Some(*n as u64),
        _ => None,
    }
}

fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    }
}

impl RepairRequest {
    /// Parses a request from a JSON body.
    ///
    /// The vendored serde derive requires every field on deserialize, so
    /// the optional-field handling here is by hand: `spec` and `technique`
    /// are mandatory, everything else defaults.
    ///
    /// # Errors
    ///
    /// A human-readable message for any malformed body (not JSON, not an
    /// object, missing/ill-typed fields).
    pub fn parse(body: &str) -> Result<RepairRequest, String> {
        let value: Value =
            serde_json::from_str(body).map_err(|e| format!("body is not valid JSON: {e}"))?;
        let Value::Map(map) = &value else {
            return Err("body must be a JSON object".to_string());
        };
        let spec = get(map, "spec")
            .and_then(as_str)
            .ok_or("missing required string field `spec`")?
            .to_string();
        let technique = get(map, "technique")
            .and_then(as_str)
            .ok_or("missing required string field `technique`")?
            .to_string();
        let budget = match get(map, "budget") {
            None => None,
            Some(Value::Map(b)) => {
                let max_candidates = get(b, "max_candidates")
                    .and_then(as_u64)
                    .ok_or("`budget.max_candidates` must be a non-negative integer")?;
                let max_rounds = get(b, "max_rounds")
                    .and_then(as_u64)
                    .ok_or("`budget.max_rounds` must be a non-negative integer")?;
                Some(RepairBudget {
                    max_candidates: max_candidates as usize,
                    max_rounds: max_rounds as usize,
                })
            }
            Some(_) => return Err("`budget` must be an object".to_string()),
        };
        let number = |key: &str| match get(map, key) {
            None => Ok(None),
            Some(v) => as_u64(v)
                .map(Some)
                .ok_or(format!("`{key}` must be a non-negative integer")),
        };
        let deadline_ms = number("deadline_ms")?;
        let seed = number("seed")?;
        let fault_seed = number("fault_seed")?;
        let fault_rate = match get(map, "fault_rate") {
            None => None,
            Some(v) => Some(
                as_f64(v)
                    .filter(|r| (0.0..=1.0).contains(r))
                    .ok_or("`fault_rate` must be a number in [0, 1]")?,
            ),
        };
        let reference = match get(map, "reference") {
            None => None,
            Some(v) => Some(as_str(v).ok_or("`reference` must be a string")?.to_string()),
        };
        Ok(RepairRequest {
            spec,
            technique,
            budget,
            deadline_ms,
            seed,
            reference,
            fault_rate,
            fault_seed,
        })
    }
}

/// The JSON document returned by `POST /repair` (status `200`, or `504`
/// with `timed_out: true` when the deadline fired first — the fields then
/// describe the partial attempt).
#[derive(Debug, Clone, Serialize)]
pub struct RepairResponse {
    /// Technique label that ran.
    pub technique: String,
    /// Whether the technique's own oracle accepted the final candidate.
    pub success: bool,
    /// Whether the per-request deadline fired during the attempt.
    pub timed_out: bool,
    /// Source text of the final candidate, if any.
    pub candidate: Option<String>,
    /// Oracle validations / drafts spent.
    pub explored: usize,
    /// Refinement rounds used.
    pub rounds: usize,
    /// Wall-clock duration of the attempt in milliseconds.
    pub duration_ms: u64,
    /// REP/TM/SM against `reference`, when one was supplied.
    pub metrics: Option<CandidateMetrics>,
    /// Label of the winning roster member (portfolio techniques only).
    pub winner: Option<String>,
    /// Per-entrant race reports (portfolio techniques only): rank,
    /// success, cost, start/finish/cancelled-at timestamps.
    pub entrants: Option<Vec<EntrantReport>>,
    /// Deterministic trace id of this request's span tree: the root span
    /// id of the cell seeded from (spec, technique, seed), as 16 hex
    /// digits. Stable across replays of the same request whether or not
    /// the collector is on, so a client can correlate its response with
    /// `GET /trace/summary` windows or an offline trace dump.
    pub trace_id: String,
}

/// What one handled repair request looked like, for the metrics registry.
#[derive(Debug, Clone)]
pub struct Handled {
    /// The response to write to the client.
    pub response: Response,
    /// Technique label, when the request got far enough to resolve one.
    pub technique: Option<String>,
    /// Repair wall-clock latency, when a repair actually ran.
    pub latency: Option<Duration>,
    /// Whether the deadline fired.
    pub timed_out: bool,
    /// Per-entrant latencies of a portfolio race, as
    /// `("<portfolio>/<member>", micros)` pairs — the registry records
    /// them as their own `/metrics` histogram rows.
    pub entrant_latency: Vec<(String, u64)>,
}

impl Handled {
    fn rejection(response: Response) -> Handled {
        Handled {
            response,
            technique: None,
            latency: None,
            timed_out: false,
            entrant_latency: Vec::new(),
        }
    }
}

/// The repair service: one shared oracle plus the admission policy.
#[derive(Debug, Clone)]
pub struct RepairService {
    oracle: OracleHandle,
    config: ServiceConfig,
    /// Daemon-wide resilience counters: every per-request LM stack writes
    /// its retries, breaker events and injected-fault counts here, so
    /// `GET /metrics` reports them aggregated.
    transport: Arc<TransportStats>,
}

impl RepairService {
    /// A service over the given shared oracle.
    pub fn new(oracle: OracleHandle, config: ServiceConfig) -> RepairService {
        RepairService {
            oracle,
            config,
            transport: Arc::new(TransportStats::new()),
        }
    }

    /// The shared oracle handle (for `/metrics`).
    pub fn oracle(&self) -> &OracleHandle {
        &self.oracle
    }

    /// The aggregated resilience counters (for `/metrics`).
    pub fn transport_stats(&self) -> &Arc<TransportStats> {
        &self.transport
    }

    /// Handles one `POST /repair` body end to end.
    pub fn handle_repair(&self, body: &str) -> Handled {
        let request = match RepairRequest::parse(body) {
            Ok(r) => r,
            Err(msg) => return Handled::rejection(Response::error(400, &msg)),
        };
        let Some(id) = TechniqueId::from_label(&request.technique) else {
            return Handled::rejection(Response::error(
                400,
                &format!(
                    "unknown technique {:?}; see GET /techniques",
                    request.technique
                ),
            ));
        };
        let faulty = match mualloy_syntax::parse_spec(&request.spec) {
            Ok(s) => s,
            Err(e) => {
                return Handled::rejection(Response::error(
                    400,
                    &format!("`spec` does not parse: {e}"),
                ))
            }
        };
        if let Some(cmd) = faulty
            .commands
            .iter()
            .find(|c| c.scope > self.config.max_scope)
        {
            return Handled::rejection(Response::error(
                422,
                &format!(
                    "command `{}` asks for scope {}, above this server's limit of {}",
                    cmd.target(),
                    cmd.scope,
                    self.config.max_scope
                ),
            ));
        }
        let reference = match &request.reference {
            None => None,
            Some(src) => match mualloy_syntax::parse_spec(src) {
                Ok(spec) => Some((spec, src.clone())),
                Err(e) => {
                    return Handled::rejection(Response::error(
                        400,
                        &format!("`reference` does not parse: {e}"),
                    ))
                }
            },
        };

        let study = StudyConfig {
            seed: request.seed.unwrap_or(StudyConfig::default().seed),
            fault_rate: request.fault_rate.unwrap_or(self.config.chaos_rate),
            fault_seed: request.fault_seed.unwrap_or(self.config.chaos_seed),
            ..StudyConfig::default()
        };
        let budget = request.budget.unwrap_or_else(|| study.budget_for(id));
        let deadline_ms = request
            .deadline_ms
            .unwrap_or(self.config.default_deadline_ms);
        let cancel = CancelToken::with_deadline(Duration::from_millis(deadline_ms));
        let ctx = RepairContext::new(faulty, budget)
            .with_source(&request.spec)
            .with_oracle(self.oracle.clone())
            .with_cancel(cancel.clone());

        // The request's deterministic span-id space: seeded from the cell
        // identity (spec text × technique × seed), so a replayed request
        // produces the same trace_id and span ids every time.
        let trace_seed = study.cell_seed_for(&request.spec, id.label());
        let trace_id = format!("{:016x}", specrepair_trace::root_span_id(trace_seed));

        let started = Instant::now();
        let (outcome, reports) = {
            let _trace_scope = specrepair_trace::cell_scope(trace_seed, 0, None);
            let cell_span = specrepair_trace::span("cell", specrepair_trace::Phase::Orchestration);
            if cell_span.is_active() {
                cell_span.attr_str("technique", id.label());
                cell_span.attr_str("problem", &trace_id);
            }
            match id {
                TechniqueId::Portfolio(roster) => {
                    let (outcome, reports) = run_portfolio(roster, &study, &ctx, &self.transport);
                    (outcome, Some(reports))
                }
                _ => (run_technique(id, &study, &ctx, &self.transport), None),
            }
        };
        let latency = started.elapsed();
        let timed_out = cancel.is_cancelled();

        let entrant_latency = reports
            .as_deref()
            .map(|reports| {
                reports
                    .iter()
                    .filter_map(|r| {
                        let (start, finish) = (r.started_ms?, r.finished_ms?);
                        let micros = finish.saturating_sub(start).saturating_mul(1000);
                        Some((format!("{}/{}", id.label(), r.label), micros))
                    })
                    .collect()
            })
            .unwrap_or_default();
        let winner = reports.as_deref().and_then(|reports| {
            reports
                .iter()
                .find(|r| r.success && r.counted)
                .map(|r| r.label.clone())
        });
        let metrics = reference.as_ref().map(|(truth, truth_source)| {
            candidate_metrics(
                self.oracle.service(),
                truth,
                truth_source,
                outcome.candidate_source.as_deref(),
            )
        });
        let doc = RepairResponse {
            technique: outcome.technique.clone(),
            success: outcome.success,
            timed_out,
            candidate: outcome.candidate_source.clone(),
            explored: outcome.candidates_explored,
            rounds: outcome.rounds,
            duration_ms: latency.as_millis() as u64,
            metrics,
            winner,
            entrants: reports,
            trace_id,
        };
        let body = serde_json::to_string(&doc).expect("repair response always serializes");
        let status = if timed_out { 504 } else { 200 };
        Handled {
            response: Response::json(status, body),
            technique: Some(id.label().to_string()),
            latency: Some(latency),
            timed_out,
            entrant_latency,
        }
    }

    /// The `GET /techniques` document: every label the service accepts —
    /// the twelve studied techniques plus the portfolio rosters.
    pub fn techniques_document() -> String {
        let labels: Vec<String> = TechniqueId::with_portfolios()
            .into_iter()
            .map(|id| id.label().to_string())
            .collect();
        serde_json::to_string_pretty(&Value::Map(vec![(
            "techniques".to_string(),
            labels.to_value(),
        )]))
        .expect("techniques document always serializes")
    }
}

/// Dispatches one technique by id. Single-Round runs without problem hints:
/// a service request carries no benchmark fault metadata, which matches the
/// paper's `None` prompt ablation for the hinted settings.
///
/// The LLM techniques run behind a [`ResilientLm`]; when the effective
/// fault rate is nonzero the stack additionally injects deterministic
/// transport faults (keyed by the request's spec text and technique, so a
/// replayed request sees the same schedule). Either way the stack's
/// counters aggregate into the daemon-wide `stats`.
fn run_technique(
    id: TechniqueId,
    study: &StudyConfig,
    ctx: &RepairContext,
    stats: &Arc<TransportStats>,
) -> RepairOutcome {
    let lm = || {
        let base = if study.chaos_enabled() {
            let plan = study.fault_plan_for(&ctx.source, id.label());
            let retries = plan.max_consecutive_faults(4096).max(4);
            ResilientLm::over(
                FaultyLm::new(SyntheticLm::default(), plan).with_stats(stats.faults.clone()),
            )
            .with_policy(RetryPolicy::snappy().with_max_retries(retries))
        } else {
            ResilientLm::synthetic()
        };
        base.with_stats(Arc::clone(stats))
    };
    match id {
        TechniqueId::ARepair => ARepair::default().repair(ctx),
        TechniqueId::Icebar => Icebar::default().repair(ctx),
        TechniqueId::BeAFix => BeAFix::default().repair(ctx),
        TechniqueId::Atr => Atr::default().repair(ctx),
        TechniqueId::Single(setting) => SingleRound::new(setting, study.seed)
            .with_lm(lm())
            .repair(ctx),
        TechniqueId::Multi(feedback) => MultiRound::new(feedback, study.seed)
            .with_lm(lm())
            .repair(ctx),
        TechniqueId::Portfolio(_) => unreachable!("portfolios dispatch through run_portfolio"),
    }
}

/// Races one roster for a service request: every member becomes an entrant
/// running this service's own technique dispatch (so each gets the daemon's
/// resilient LM stack, and a chaos-afflicted entrant retries or loses the
/// race instead of stalling it). The request's deadline token is the race's
/// parent: when it fires, every entrant's child token fires with it.
fn run_portfolio(
    roster: RosterId,
    study: &StudyConfig,
    ctx: &RepairContext,
    stats: &Arc<TransportStats>,
) -> (RepairOutcome, Vec<EntrantReport>) {
    let entrants: Vec<Entrant> = roster
        .members()
        .into_iter()
        .map(|member| {
            let stats = Arc::clone(stats);
            Entrant::new(
                member.label(),
                study.budget_for(member),
                move |entrant_ctx: &RepairContext| {
                    run_technique(member, study, entrant_ctx, &stats)
                },
            )
        })
        .collect();
    let raced = Portfolio::new(roster.label()).race(ctx, entrants);
    (raced.outcome, raced.entrants)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FAULTY: &str = "sig N { next: lone N } \
        fact { some n: N | n in n.next } \
        assert NoSelf { all n: N | n not in n.next } \
        check NoSelf for 3 expect 0";

    const TRUTH: &str = "sig N { next: lone N } \
        fact { no n: N | n in n.next } \
        assert NoSelf { all n: N | n not in n.next } \
        check NoSelf for 3 expect 0";

    fn service() -> RepairService {
        RepairService::new(OracleHandle::fresh(), ServiceConfig::default())
    }

    fn repair_body(technique: &str, extra: &str) -> String {
        let mut spec = String::new();
        push_json_string(FAULTY, &mut spec);
        format!("{{\"spec\":{spec},\"technique\":\"{technique}\"{extra}}}")
    }

    #[test]
    fn push_json_string_escapes() {
        let mut out = String::new();
        push_json_string("a\"b\\c\nd\u{1}", &mut out);
        assert_eq!(out, "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn parse_requires_spec_and_technique() {
        assert!(RepairRequest::parse("not json").is_err());
        assert!(RepairRequest::parse("[1,2]").is_err());
        assert!(RepairRequest::parse("{\"spec\":\"x\"}")
            .unwrap_err()
            .contains("technique"));
        let r = RepairRequest::parse(
            "{\"spec\":\"x\",\"technique\":\"ATR\",\"deadline_ms\":250,\
             \"budget\":{\"max_candidates\":5,\"max_rounds\":1},\"seed\":9}",
        )
        .unwrap();
        assert_eq!(r.technique, "ATR");
        assert_eq!(r.deadline_ms, Some(250));
        assert_eq!(r.seed, Some(9));
        assert_eq!(r.budget.unwrap().max_candidates, 5);
        assert!(r.reference.is_none());
    }

    #[test]
    fn unknown_technique_and_bad_spec_are_400() {
        let s = service();
        let h = s.handle_repair(&repair_body("NoSuchTool", ""));
        assert_eq!(h.response.status, 400);
        assert!(h.response.body.contains("unknown technique"));
        let h = s.handle_repair("{\"spec\":\"sig {\",\"technique\":\"ATR\"}");
        assert_eq!(h.response.status, 400);
        assert!(h.response.body.contains("does not parse"));
    }

    #[test]
    fn oversized_scope_is_422() {
        let s = RepairService::new(
            OracleHandle::fresh(),
            ServiceConfig {
                max_scope: 2,
                ..ServiceConfig::default()
            },
        );
        let h = s.handle_repair(&repair_body("ATR", ""));
        assert_eq!(h.response.status, 422, "{}", h.response.body);
        assert!(h.response.body.contains("scope 3"));
    }

    #[test]
    fn repair_succeeds_and_reports_metrics() {
        let s = service();
        let mut reference = String::new();
        push_json_string(TRUTH, &mut reference);
        let h = s.handle_repair(&repair_body("ATR", &format!(",\"reference\":{reference}")));
        assert_eq!(h.response.status, 200, "{}", h.response.body);
        assert_eq!(h.technique.as_deref(), Some("ATR"));
        assert!(h.latency.is_some());
        assert!(h.response.body.contains("\"success\":true"));
        assert!(h.response.body.contains("\"rep\":1"));
    }

    #[test]
    fn chaos_request_is_absorbed_and_counted() {
        let s = service();
        let clean = s.handle_repair(&repair_body("Single-Round_None", ""));
        let chaotic = s.handle_repair(&repair_body("Single-Round_None", ",\"fault_rate\":0.9"));
        assert_eq!(chaotic.response.status, 200, "{}", chaotic.response.body);
        // Injected transient faults are retried away and must not change
        // the repair result (only the wall-clock field may differ).
        let strip = |body: &str| {
            let Value::Map(map) = serde_json::from_str(body).unwrap() else {
                panic!("response is not an object");
            };
            let kept: Vec<_> = map
                .into_iter()
                .filter(|(k, _)| k != "duration_ms")
                .collect();
            serde_json::to_string(&Value::Map(kept)).unwrap()
        };
        assert_eq!(strip(&clean.response.body), strip(&chaotic.response.body));
        // The injected faults and retries land in the daemon-wide stats.
        let stats = s.transport_stats();
        assert!(stats.faults.total() > 0, "faults were injected");
        assert!(
            stats.retries.get() >= stats.faults.total(),
            "every injected fault was retried"
        );
    }

    #[test]
    fn fault_rate_outside_unit_interval_is_400() {
        let s = service();
        let h = s.handle_repair(&repair_body("ATR", ",\"fault_rate\":1.5"));
        assert_eq!(h.response.status, 400);
        assert!(h.response.body.contains("fault_rate"));
    }

    #[test]
    fn millisecond_deadline_times_out_instead_of_hanging() {
        let s = service();
        let h = s.handle_repair(&repair_body("Multi-Round_Auto", ",\"deadline_ms\":0"));
        assert_eq!(h.response.status, 504, "{}", h.response.body);
        assert!(h.timed_out);
        assert!(h.response.body.contains("\"timed_out\":true"));
    }

    #[test]
    fn techniques_document_lists_all_twelve_plus_portfolios() {
        let doc = RepairService::techniques_document();
        for id in TechniqueId::with_portfolios() {
            assert!(doc.contains(id.label()), "{doc}");
        }
        assert!(doc.contains("Portfolio_All"), "{doc}");
    }

    #[test]
    fn portfolio_request_races_and_reports_entrants() {
        let s = service();
        let mut reference = String::new();
        push_json_string(TRUTH, &mut reference);
        let h = s.handle_repair(&repair_body(
            "Portfolio_ARepair+Single-Round_Loc",
            &format!(",\"reference\":{reference}"),
        ));
        assert_eq!(h.response.status, 200, "{}", h.response.body);
        assert_eq!(
            h.technique.as_deref(),
            Some("Portfolio_ARepair+Single-Round_Loc")
        );
        assert!(
            h.response.body.contains("\"entrants\""),
            "{}",
            h.response.body
        );
        assert!(h.response.body.contains("\"rank\""), "{}", h.response.body);
        // Both members ran (or were raced); each ran one reports a latency
        // row the daemon exposes as "<portfolio>/<member>".
        for (label, _) in &h.entrant_latency {
            assert!(
                label.starts_with("Portfolio_ARepair+Single-Round_Loc/"),
                "{label}"
            );
        }
        // The winner (if the race repaired the spec) is one of the members.
        if h.response.body.contains("\"success\":true") {
            assert!(
                h.response.body.contains("\"winner\""),
                "{}",
                h.response.body
            );
        }
    }

    #[test]
    fn portfolio_respects_the_request_deadline() {
        let s = service();
        let h = s.handle_repair(&repair_body("Portfolio_All", ",\"deadline_ms\":0"));
        assert_eq!(h.response.status, 504, "{}", h.response.body);
        assert!(h.timed_out);
    }
}
