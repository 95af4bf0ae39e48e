//! Request routing: URL space → campaign registry / result store / queue.
//!
//! Every endpoint answers JSON. Harness failures map onto HTTP statuses
//! through the harness error taxonomy ([`error_status`]), mirroring the
//! `dspatch-lab` exit-code table: spec errors are the client's fault (400),
//! a foreign store file is a 409, everything else on the error path is the
//! server's problem (500).

use crate::http::{Request, Response};
use crate::queue::{lock_unpoisoned, Campaign, Phase, ServeState, SubmitError, Submitted};
use dspatch_harness::analytics::{self, ColumnarView, Query, QueryFormat, QueryOutput};
use dspatch_harness::campaign::CampaignSpec;
use dspatch_harness::{ErrorClass, HarnessError, Json};
use std::sync::Arc;

/// What the connection handler should do with a routed request.
#[derive(Debug)]
pub enum Reply {
    /// Write this response and close.
    Full(Response),
    /// Stream the campaign's JSON-lines event feed (chunked) until it
    /// drains, then close.
    Events(Arc<Campaign>),
}

/// HTTP status for a typed harness failure, reusing the exit-code taxonomy.
pub fn error_status(error: &HarnessError) -> u16 {
    match error.class() {
        // The submitted spec is at fault.
        ErrorClass::Spec => 400,
        // The store file on disk is of a foreign kind or format version.
        ErrorClass::Mismatch => 409,
        // I/O failures, corruption, and cell panics are server-side.
        ErrorClass::Io | ErrorClass::Corrupt | ErrorClass::Cell => 500,
    }
}

fn error_body(status: u16, message: &str) -> Response {
    let body = Json::obj([
        ("error", Json::str(message)),
        ("status", Json::num(f64::from(status))),
    ]);
    Response::json(status, body.render())
}

fn harness_error_body(error: &HarnessError) -> Response {
    let status = error_status(error);
    let body = Json::obj([
        ("error", Json::str(error.to_string())),
        ("class", Json::str(error.class().label())),
        ("status", Json::num(f64::from(status))),
        ("detail", error.to_json()),
    ]);
    Response::json(status, body.render())
}

fn method_not_allowed(allow: &str) -> Response {
    error_body(405, &format!("method not allowed; allowed: {allow}")).with_header("Allow", allow)
}

fn not_found(path: &str) -> Response {
    error_body(404, &format!("no such resource: {path}"))
}

/// Routes one parsed request.
pub fn route(state: &Arc<ServeState>, request: &Request) -> Reply {
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    let method = request.method.as_str();
    match segments.as_slice() {
        ["healthz"] => match method {
            "GET" => Reply::Full(healthz(state)),
            _ => Reply::Full(method_not_allowed("GET")),
        },
        ["campaigns"] => match method {
            "POST" => Reply::Full(submit(state, &request.body)),
            _ => Reply::Full(method_not_allowed("POST")),
        },
        ["campaigns", id] => match method {
            "GET" => Reply::Full(status(state, id)),
            _ => Reply::Full(method_not_allowed("GET")),
        },
        ["campaigns", id, "events"] => match method {
            "GET" => match state.get(id) {
                Some(campaign) => Reply::Events(campaign),
                None => Reply::Full(not_found(&request.path)),
            },
            _ => Reply::Full(method_not_allowed("GET")),
        },
        ["campaigns", id, "results"] => match method {
            "GET" => Reply::Full(results_of(state, id)),
            _ => Reply::Full(method_not_allowed("GET")),
        },
        ["results"] => match method {
            "GET" => Reply::Full(query_results(state, request)),
            _ => Reply::Full(method_not_allowed("GET")),
        },
        ["query"] => match method {
            "GET" => Reply::Full(run_query(state, request)),
            _ => Reply::Full(method_not_allowed("GET")),
        },
        ["admin", "shutdown"] => match method {
            "POST" => Reply::Full(shutdown(state)),
            _ => Reply::Full(method_not_allowed("POST")),
        },
        _ => Reply::Full(not_found(&request.path)),
    }
}

fn healthz(state: &Arc<ServeState>) -> Response {
    let body = Json::obj([
        (
            "status",
            Json::str(if state.draining() { "draining" } else { "ok" }),
        ),
        ("campaigns", Json::num(state.campaigns().len() as f64)),
        ("stored_cells", Json::num(state.stored_cells() as f64)),
    ]);
    Response::json(200, body.render())
}

/// `POST /campaigns`: the body is a campaign spec document — the *same
/// bytes* `dspatch-lab --spec <file>` accepts, which is what makes CLI/serve
/// parity trivial to state and test.
fn submit(state: &Arc<ServeState>, body: &[u8]) -> Response {
    // Refuse before parsing: a draining server takes no new work at all.
    if state.draining() {
        return error_body(503, "server is draining; not accepting work");
    }
    let text = match std::str::from_utf8(body) {
        Ok(text) => text,
        Err(_) => return error_body(400, "request body is not UTF-8"),
    };
    // Parse JSON first so syntax problems surface with the typed kind and
    // byte offset from the hardened parser.
    let json = match Json::parse(text) {
        Ok(json) => json,
        Err(err) => {
            let status = 400;
            let body = Json::obj([
                ("error", Json::str(err.to_string())),
                ("kind", Json::str(err.kind.label())),
                ("offset", Json::num(err.offset as f64)),
                ("status", Json::num(f64::from(status))),
            ]);
            return Response::json(status, body.render());
        }
    };
    let spec = match CampaignSpec::from_json(&json) {
        Ok(spec) => spec,
        Err(message) => return error_body(400, &format!("invalid campaign spec: {message}")),
    };
    match state.submit(spec) {
        Ok(submitted) => {
            let campaign = submitted.campaign();
            let status = match submitted {
                Submitted::New(_) => 202,
                Submitted::Existing(_) => 200,
            };
            Response::json(status, campaign.status_json().render())
                .with_header("Location", format!("/campaigns/{}", campaign.id))
        }
        Err(SubmitError::Spec(message)) => {
            error_body(400, &format!("invalid campaign scale: {message}"))
        }
        Err(SubmitError::Draining) => error_body(503, "server is draining; not accepting work"),
        Err(SubmitError::QueueFull { capacity }) => {
            error_body(503, &format!("queue full (capacity {capacity})"))
                .with_header("Retry-After", "1")
        }
    }
}

fn status(state: &Arc<ServeState>, id: &str) -> Response {
    match state.get(id) {
        Some(campaign) => Response::json(200, campaign.status_json().render()),
        None => not_found(&format!("/campaigns/{id}")),
    }
}

/// `GET /campaigns/:id/results`: once done, the body is the exact
/// `CampaignResult::to_json().render()` bytes — byte-identical to
/// `dspatch-lab --spec ... --format json` output for the same spec.
fn results_of(state: &Arc<ServeState>, id: &str) -> Response {
    let Some(campaign) = state.get(id) else {
        return not_found(&format!("/campaigns/{id}"));
    };
    match campaign.phase() {
        Phase::Done => match campaign.result_json() {
            Some(body) => Response::json(200, body),
            None => error_body(500, "completed campaign lost its result"),
        },
        Phase::Failed => match campaign.error() {
            Some(error) => harness_error_body(&error),
            None => error_body(500, "failed campaign lost its error"),
        },
        Phase::Queued | Phase::Running => {
            Response::json(202, campaign.status_json().render()).with_header("Retry-After", "1")
        }
    }
}

/// Loads the analytics view from the shared result store. The lock is held
/// only for the copy into columns; queries then run lock-free.
fn load_view(state: &Arc<ServeState>) -> ColumnarView {
    let store = lock_unpoisoned(state.store());
    ColumnarView::from_store(&store)
}

/// `GET /query?...`: the full analytics engine over the result store.
///
/// Parameters are the exact grammar `dspatch-lab query` speaks
/// ([`Query::from_params`]): `where=FIELD<OP>VALUE`, bare `FIELD=VALUE`
/// filters, `group_by=`, `agg=FN:METRIC`, `trend=METRIC`,
/// `all_versions=1`, plus `format=table|json|csv` (default `json`). The
/// body is byte-identical to the CLI's output for the same query — both
/// call [`analytics::render`] on the same engine.
fn run_query(state: &Arc<ServeState>, request: &Request) -> Response {
    let mut format = QueryFormat::Json;
    let mut params: Vec<(String, String)> = Vec::new();
    for (key, value) in &request.query {
        if key == "format" {
            match QueryFormat::parse(value) {
                Some(parsed) => format = parsed,
                None => {
                    return error_body(400, &format!("unknown format '{value}' (table/json/csv)"))
                }
            }
        } else {
            params.push((key.clone(), value.clone()));
        }
    }
    let query = match Query::from_params(&params) {
        Ok(query) => query,
        Err(error) => return harness_error_body(&error),
    };
    let output = match load_view(state).run(&query) {
        Ok(output) => output,
        Err(error) => return harness_error_body(&error),
    };
    let body = analytics::render(&output, format);
    match format {
        QueryFormat::Json => Response::json(200, body),
        QueryFormat::Table | QueryFormat::Csv => Response::text(200, body),
    }
}

/// `GET /results?figure=&target=&workload=&prefetcher=&config=`: the
/// legacy flat row listing, now a compat shim over the same analytics
/// engine as `/query`. All filters are exact-match and optional; `figure`
/// matches the campaign name and `target` is an alias for `workload`.
/// Superseded duplicates are hidden — when the store holds the same cell
/// simulated by several code versions, only the **newest** `code_version`
/// rows count, unless `all_versions=1` asks for the full history.
fn query_results(state: &Arc<ServeState>, request: &Request) -> Response {
    let mut params: Vec<(String, String)> = Vec::new();
    for (key, value) in &request.query {
        let key = match key.as_str() {
            // The pre-analytics listing named the workload column "target".
            "target" => "workload",
            key @ ("figure" | "workload" | "prefetcher" | "config" | "all_versions") => key,
            other => {
                return error_body(
                    400,
                    &format!(
                        "unknown /results parameter '{other}' \
                         (figure/target/workload/prefetcher/config/all_versions; \
                         /query speaks the full grammar)"
                    ),
                )
            }
        };
        params.push((key.to_owned(), value.clone()));
    }
    let query = match Query::from_params(&params) {
        Ok(query) => query,
        Err(error) => return harness_error_body(&error),
    };
    let output = match load_view(state).run(&query) {
        Ok(output) => output,
        Err(error) => return harness_error_body(&error),
    };
    let QueryOutput { columns, rows } = output;
    let results: Vec<Json> = rows
        .into_iter()
        .map(|row| Json::Obj(columns.iter().cloned().zip(row).collect()))
        .collect();
    let body = Json::obj([
        ("matched", Json::num(results.len() as f64)),
        ("results", Json::Arr(results)),
    ]);
    Response::json(200, body.render())
}

fn shutdown(state: &Arc<ServeState>) -> Response {
    state.begin_drain();
    let body = Json::obj([("status", Json::str("draining"))]);
    Response::json(200, body.render())
}
