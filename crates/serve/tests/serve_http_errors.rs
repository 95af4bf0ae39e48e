//! Hostile-input and error-path behavior of the service over real TCP:
//! typed 400s from the hardened JSON parser, 404/405 routing, the request
//! body cap, `/healthz`, and the drain rejection. No test here runs a
//! simulation.

use dspatch_harness::Json;
use dspatch_serve::{http_request, Server, ServerConfig};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dspatch-serve-{tag}-{}", std::process::id()));
    drop(std::fs::remove_dir_all(&dir));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn body_json(body: &[u8]) -> Json {
    Json::parse(std::str::from_utf8(body).expect("utf-8")).expect("JSON body")
}

#[test]
fn routing_parsing_and_drain_errors_are_typed() {
    let server = Server::start(&ServerConfig {
        store_dir: temp_dir("errors"),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.local_addr();

    // Liveness.
    let (status, _, body) = http_request(addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!(status, 200);
    assert_eq!(
        body_json(&body).get("status").and_then(Json::as_str),
        Some("ok")
    );

    // Unknown resources and wrong methods.
    let (status, _, _) = http_request(addr, "GET", "/campaigns/no-such-id", None).expect("404");
    assert_eq!(status, 404);
    let (status, _, _) = http_request(addr, "GET", "/nope", None).expect("404");
    assert_eq!(status, 404);
    let (status, headers, _) = http_request(addr, "DELETE", "/campaigns", None).expect("405");
    assert_eq!(status, 405);
    assert!(headers.iter().any(|(n, v)| n == "allow" && v == "POST"));

    // Hostile bodies surface the hardened parser's typed kinds.
    let (status, _, body) =
        http_request(addr, "POST", "/campaigns", Some("{\"a\": ")).expect("400");
    assert_eq!(status, 400);
    assert_eq!(
        body_json(&body).get("kind").and_then(Json::as_str),
        Some("syntax")
    );
    let dup = r#"{"name": "x", "name": "y", "cells": []}"#;
    let (status, _, body) = http_request(addr, "POST", "/campaigns", Some(dup)).expect("400");
    assert_eq!(status, 400);
    assert_eq!(
        body_json(&body).get("kind").and_then(Json::as_str),
        Some("duplicate_key")
    );
    let bomb = "[".repeat(200);
    let (status, _, body) = http_request(addr, "POST", "/campaigns", Some(&bomb)).expect("400");
    assert_eq!(status, 400);
    assert_eq!(
        body_json(&body).get("kind").and_then(Json::as_str),
        Some("depth_exceeded")
    );
    // Valid JSON, invalid spec.
    let (status, _, body) =
        http_request(addr, "POST", "/campaigns", Some("{\"zonk\": 1}")).expect("400");
    assert_eq!(status, 400);
    let message = body_json(&body)
        .get("error")
        .and_then(Json::as_str)
        .expect("message")
        .to_owned();
    assert!(message.contains("invalid campaign spec"), "got: {message}");
    // A spec without cells would print an empty result.
    let empty = r#"{"name": "x", "scale": "smoke", "cells": []}"#;
    let (status, _, body) = http_request(addr, "POST", "/campaigns", Some(empty)).expect("400");
    assert_eq!(status, 400);
    let message = body_json(&body)
        .get("error")
        .and_then(Json::as_str)
        .expect("message")
        .to_owned();
    assert!(
        message.starts_with("invalid campaign spec: ") && message.contains("at least one cell"),
        "got: {message}"
    );
    // A valid spec whose scale would simulate nothing.
    let zero = r#"{
        "name": "zero",
        "scale": {"accesses_per_workload": 0, "workloads_per_category": 1, "mixes": 1},
        "cells": [{
            "label": "cloud",
            "targets": {"category": "cloud"},
            "prefetchers": ["spp"],
            "config": {"base": "single_thread"},
            "baseline": true
        }]
    }"#;
    let (status, _, body) = http_request(addr, "POST", "/campaigns", Some(zero)).expect("400");
    assert_eq!(status, 400);
    let message = body_json(&body)
        .get("error")
        .and_then(Json::as_str)
        .expect("message")
        .to_owned();
    assert!(
        message.starts_with("invalid campaign scale: ")
            && message.contains("'accesses_per_workload' must be at least 1"),
        "got: {message}"
    );

    // Oversized bodies are refused from the Content-Length alone, before a
    // single body byte is read (so this request never sends one).
    {
        use std::io::{Read, Write};
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        write!(
            stream,
            "POST /campaigns HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            dspatch_serve::http::MAX_BODY + 1
        )
        .expect("send headers");
        stream.flush().expect("flush");
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).expect("read response");
        let (status, _, _) = dspatch_serve::parse_http_response(&raw).expect("parse");
        assert_eq!(status, 413);
    }

    // Draining: submissions are refused with 503, health says so, and the
    // server exits cleanly.
    let (status, _, _) = http_request(addr, "POST", "/admin/shutdown", None).expect("shutdown");
    assert_eq!(status, 200);
    let (status, _, _) = http_request(addr, "POST", "/campaigns", Some("{}")).expect("503");
    assert_eq!(status, 503);
    server.begin_drain();
    server.wait();
}
