//! Route-by-route byte snapshots of both daemons' HTTP surfaces.
//!
//! Every exchange goes over a raw `TcpStream`, so the snapshot pins the
//! exact bytes on the wire — status line, header order, and body — and
//! not what a client library makes of them. Deterministic routes are
//! compared byte-for-byte; routes whose bodies carry uptime, ids or
//! ephemeral ports are checked by their status line, headers (minus
//! `Content-Length`) and the key set of their JSON body.

use proof_fleet::{Fleet, FleetConfig, FleetServer, FleetServerConfig};
use proof_serve::{ServeConfig, Server};
use serde_json::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// Send `raw` as-is and read the whole reply (the daemons close every
/// connection after one response).
fn exchange(addr: SocketAddr, raw: &str) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(raw.as_bytes()).unwrap();
    let mut out = Vec::new();
    s.read_to_end(&mut out).unwrap();
    String::from_utf8(out).unwrap()
}

fn get(addr: SocketAddr, path: &str) -> String {
    exchange(addr, &format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n"))
}

fn send(addr: SocketAddr, method: &str, path: &str, body: &str) -> String {
    exchange(
        addr,
        &format!(
            "{method} {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// The exact bytes of a reply from the shared response writer.
fn reply(status: &str, content_type: &str, retry_after: Option<u64>, body: &str) -> String {
    let retry = retry_after.map_or(String::new(), |s| format!("Retry-After: {s}\r\n"));
    format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n{retry}Connection: close\r\n\r\n{body}",
        body.len()
    )
}

fn json(status: &str, body: &str) -> String {
    reply(status, "application/json", None, body)
}

/// Status line + headers without `Content-Length`, and the body.
fn split(raw: &str) -> (Vec<String>, String) {
    let (head, body) = raw.split_once("\r\n\r\n").expect("header terminator");
    let head = head
        .split("\r\n")
        .filter(|l| !l.starts_with("Content-Length:"))
        .map(str::to_string)
        .collect();
    (head, body.to_string())
}

fn keys(v: &Value) -> Vec<String> {
    v.as_object()
        .expect("JSON object")
        .keys()
        .cloned()
        .collect()
}

/// A route whose body varies run to run: pin the head and the key set.
fn assert_json_shape(raw: &str, status: &str, want_keys: &[&str]) -> Value {
    let (head, body) = split(raw);
    assert_eq!(
        head,
        [
            format!("HTTP/1.1 {status}"),
            "Content-Type: application/json".to_string(),
            "Connection: close".to_string(),
        ],
        "{raw}"
    );
    let v: Value = serde_json::from_str(&body).unwrap();
    if v.as_object().is_some() {
        assert_eq!(keys(&v), want_keys, "{raw}");
    }
    v
}

fn assert_prometheus(raw: &str) -> String {
    let (head, body) = split(raw);
    assert_eq!(
        head,
        [
            "HTTP/1.1 200 OK",
            "Content-Type: text/plain; version=0.0.4",
            "Connection: close",
        ],
        "{raw}"
    );
    assert!(body.starts_with("# "), "{body}");
    body
}

const MODELS: &str = r#"{"models":["distilbert-base","sd-unet","efficientnet-b0","efficientnet-b4","efficientnetv2-t","efficientnetv2-s","mlp-mixer-b16","mobilenetv2-0.5","mobilenetv2-1.0","resnet-34","resnet-50","shufflenetv2-x0.5","shufflenetv2-x1.0","shufflenetv2-x1.0-mod","swin-tiny","swin-small","swin-base","vit-tiny","vit-small","vit-base"]}"#;

#[test]
fn serve_routes_are_byte_stable() {
    let server = Server::start(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();

    // the flight recorder of an idle daemon is empty
    assert_eq!(
        get(addr, "/debug/events"),
        json("200 OK", "{\"dropped\":0,\"events\":[]}\n")
    );
    assert_eq!(get(addr, "/models"), json("200 OK", MODELS));

    // transport-level rejections from the request parser
    assert_eq!(
        exchange(addr, "BAD\r\n\r\n"),
        json("400 Bad Request", r#"{"error":"malformed request line"}"#)
    );
    assert_eq!(
        exchange(addr, "POST /jobs HTTP/1.1\r\nContent-Length: x\r\n\r\n"),
        json("400 Bad Request", r#"{"error":"bad Content-Length"}"#)
    );

    // unknown paths and methods
    let not_found = json("404 Not Found", r#"{"error":"no such endpoint"}"#);
    assert_eq!(get(addr, "/nope"), not_found);
    assert_eq!(send(addr, "PUT", "/nope", ""), not_found);
    assert_eq!(
        send(addr, "DELETE", "/jobs/1", ""),
        json(
            "405 Method Not Allowed",
            r#"{"error":"method not allowed"}"#
        )
    );

    // backpressure: a sweep the queue cannot hold is a 429 with Retry-After
    assert_eq!(
        send(
            addr,
            "POST",
            "/sweep",
            r#"{"model":"mobilenetv2-0.5","hardware":"a100","batches":[1,2]}"#
        ),
        reply(
            "429 Too Many Requests",
            "application/json",
            Some(1),
            r#"{"error":"job queue cannot hold the whole sweep"}"#
        )
    );

    // id parsing and unknown resources
    for (path, status, body) in [
        (
            "/jobs/abc",
            "400 Bad Request",
            r#"{"error":"job id must be an integer"}"#,
        ),
        ("/jobs/99", "404 Not Found", r#"{"error":"no such job"}"#),
        (
            "/jobs/99/report",
            "404 Not Found",
            r#"{"error":"no such job"}"#,
        ),
        (
            "/sweep/abc",
            "400 Bad Request",
            r#"{"error":"sweep group id must be an integer"}"#,
        ),
        (
            "/sweep/9",
            "404 Not Found",
            r#"{"error":"no such sweep group"}"#,
        ),
        (
            "/trace/abc",
            "400 Bad Request",
            r#"{"error":"trace id must be an integer"}"#,
        ),
        ("/trace/9", "404 Not Found", r#"{"error":"no such trace"}"#),
        (
            "/trace/9?format=spans",
            "404 Not Found",
            r#"{"error":"no such trace"}"#,
        ),
        (
            "/cache/.bad",
            "400 Bad Request",
            r#"{"error":"artifact key must not start with '.'"}"#,
        ),
        (
            "/cache/ffff0000ffff0000",
            "404 Not Found",
            r#"{"error":"no such cache entry"}"#,
        ),
    ] {
        assert_eq!(get(addr, path), json(status, body), "GET {path}");
    }

    // body validation
    assert_eq!(
        send(addr, "POST", "/jobs", "{"),
        json(
            "400 Bad Request",
            r#"{"error":"invalid JSON: expected `\"` at line 1 column 2"}"#
        )
    );
    assert_eq!(
        send(
            addr,
            "POST",
            "/jobs",
            r#"{"model":"nope","hardware":"a100"}"#
        ),
        json(
            "400 Bad Request",
            r#"{"error":"unknown model 'nope' (see GET /models)"}"#
        )
    );
    assert_eq!(
        send(addr, "POST", "/cache/peers", "{}"),
        json(
            "400 Bad Request",
            r#"{"error":"body must be {\"peers\": [\"ip:port\", ...]}"}"#
        )
    );
    assert_eq!(
        send(addr, "POST", "/cache/peers", r#"{"peers":["nope"]}"#),
        json(
            "400 Bad Request",
            r#"{"error":"invalid peer address: \"nope\""}"#
        )
    );
    assert_eq!(
        send(addr, "POST", "/cache/peers", r#"{"peers":[]}"#),
        json("200 OK", r#"{"added":0,"peers":0}"#)
    );

    // the peer-cache write/read surface round-trips bytes exactly
    assert_eq!(
        send(addr, "PUT", "/cache/deadbeef00112233", r#"{"x":1}"#),
        json("201 Created", r#"{"bytes":7,"key":"deadbeef00112233"}"#)
    );
    assert_eq!(
        get(addr, "/cache/deadbeef00112233"),
        json("200 OK", r#"{"x":1}"#)
    );
    assert_eq!(
        send(addr, "PUT", "/cache/deadbeef99887766", "not-json{"),
        json(
            "400 Bad Request",
            r#"{"error":"corrupt artifact: artifact does not parse as JSON"}"#
        )
    );

    // uptime- and state-carrying routes: head and key set
    assert_json_shape(
        &get(addr, "/healthz"),
        "200 OK",
        &[
            "cache",
            "in_flight",
            "queue_capacity",
            "queue_depth",
            "status",
            "uptime_s",
            "version",
            "workers",
        ],
    );
    assert_json_shape(
        &get(addr, "/metrics"),
        "200 OK",
        &[
            "cache",
            "jobs",
            "latency",
            "queue",
            "stage_cache",
            "stages",
            "workers",
        ],
    );
    let prom = assert_prometheus(&get(addr, "/metrics?format=prometheus"));
    assert!(prom.contains("# TYPE proof_serve_http_requests_total counter\n"));
    assert!(prom.contains("\nproof_serve_queue_capacity 1\n"), "{prom}");
    let prom = assert_prometheus(&get(addr, "/metrics?x=1&format=prometheus"));
    assert!(prom.contains("# TYPE proof_serve_stage_compile_us histogram\n"));

    let v = assert_json_shape(
        &send(
            addr,
            "POST",
            "/jobs",
            r#"{"model":"mobilenetv2-0.5","hardware":"a100","batch":1,"seed":3}"#,
        ),
        "201 Created",
        &["id", "key", "status", "trace"],
    );
    assert_eq!(v["id"], 1);
    assert_eq!(v["status"], "queued");
    server.shutdown();
}

#[test]
fn fleet_routes_are_byte_stable() {
    let fleet = Fleet::start(FleetConfig::local(1)).unwrap();
    let server = FleetServer::start(fleet, FleetServerConfig::default()).unwrap();
    let addr = server.addr();

    assert_eq!(
        get(addr, "/debug/events"),
        json("200 OK", "{\"dropped\":0,\"events\":[]}\n")
    );
    assert_eq!(
        get(addr, "/grid/trace"),
        json("404 Not Found", r#"{"error":"no grid run yet"}"#)
    );
    assert_eq!(
        exchange(addr, "BAD\r\n\r\n"),
        json("400 Bad Request", r#"{"error":"malformed request line"}"#)
    );
    let not_found = json("404 Not Found", r#"{"error":"no such endpoint"}"#);
    assert_eq!(get(addr, "/nope"), not_found);
    assert_eq!(send(addr, "POST", "/nope", ""), not_found);
    let not_allowed = json(
        "405 Method Not Allowed",
        r#"{"error":"method not allowed"}"#,
    );
    assert_eq!(send(addr, "PUT", "/grid", ""), not_allowed);
    assert_eq!(send(addr, "DELETE", "/nodes", ""), not_allowed);

    let no_run = json("404 Not Found", r#"{"error":"no such run"}"#);
    assert_eq!(get(addr, "/grid/abc/status"), no_run);
    assert_eq!(get(addr, "/grid/999/status"), no_run);
    assert_eq!(get(addr, "/grid/999/result"), no_run);
    assert_eq!(
        get(addr, "/grid/999/status?since=x"),
        json("400 Bad Request", r#"{"error":"malformed since cursor"}"#)
    );

    let bad_json = json(
        "400 Bad Request",
        r#"{"error":"invalid JSON: expected `\"` at line 1 column 2"}"#,
    );
    assert_eq!(send(addr, "POST", "/grid", "{"), bad_json);
    assert_eq!(send(addr, "POST", "/grid/submit", "{"), bad_json);
    assert_eq!(send(addr, "POST", "/grid?mode=async", "{"), bad_json);
    assert_eq!(
        send(
            addr,
            "POST",
            "/grid/submit",
            r#"{"model":"mobilenetv2-0.5","platform":"a100","batches":[]}"#
        ),
        json(
            "400 Bad Request",
            r#"{"error":"invalid spec: grid spec needs at least one batch size"}"#
        )
    );

    assert_json_shape(
        &get(addr, "/healthz"),
        "200 OK",
        &[
            "alive",
            "cache",
            "nodes",
            "running",
            "runs_active",
            "runs_total",
            "status",
            "uptime_s",
            "version",
        ],
    );
    let nodes = assert_json_shape(&get(addr, "/nodes"), "200 OK", &[]);
    let nodes = nodes.as_array().expect("node array");
    assert_eq!(nodes.len(), 1);
    assert_eq!(
        keys(&nodes[0]),
        [
            "addr",
            "completed",
            "dispatched",
            "failures",
            "in_flight",
            "state",
            "workers"
        ]
    );
    assert_json_shape(
        &get(addr, "/metrics"),
        "200 OK",
        &["counters", "gauges", "nodes"],
    );
    let prom = assert_prometheus(&get(addr, "/metrics?format=prometheus"));
    assert!(
        prom.contains("proof_serve_jobs_done_total{node=\""),
        "{prom}"
    );

    server.shutdown();
}
