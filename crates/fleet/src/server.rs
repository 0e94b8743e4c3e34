//! The coordinator's own HTTP surface: submit grids and watch the fleet.
//!
//! Endpoints:
//!
//! - `POST /grid` — run a grid spec to completion and return the merged
//!   artifact (synchronous: submit + wait; response bytes identical to
//!   the streaming path's finished result).
//! - `POST /grid/submit` (or `POST /grid?mode=async`) — validate the spec,
//!   mint a run id, and return `202 {run_id, shards}` immediately while a
//!   dedicated run thread executes the dispatch.
//! - `GET /grid/<id>/status[?since=<seq>]` — live per-shard progress:
//!   completed/pending/in-flight/rescheduled counts plus the run's
//!   seq-numbered progress events past the `since` cursor (all of them
//!   when omitted). `seq` in the reply is the cursor for the next poll.
//! - `GET /grid/<id>/result` — `202` while the run executes, `200` with
//!   the merged artifact when done (byte-identical to the synchronous
//!   path and `run_grid_local`), or the run's error (`400` for spec/merge
//!   rejections, `500` otherwise).
//! - `GET /grid/trace` — the merged cross-node Chrome-trace document of
//!   the most recent finished run (Perfetto-loadable).
//! - `GET /healthz` — coordinator liveness, version, uptime, node counts
//!   (`alive` always present, `running` true while any run is active),
//!   and the fleet-wide cache-tier summary aggregated from the nodes.
//! - `GET /nodes` — per-node registry snapshot: health state, in-flight,
//!   advertised worker count, shard-latency EWMA (`ewma_us`, once
//!   observed), and lifetime dispatch counters. Served from the shared
//!   [`FleetView`] the dispatcher republishes, so it answers mid-run.
//! - `GET /metrics[?format=prometheus]` — fleet counters; the Prometheus
//!   form federates every reachable node's own exposition under a
//!   `node="<addr>"` label, so one scrape covers the whole fleet. Both
//!   forms stay readable *during* a grid run (a CI smoke can watch
//!   `fleet_rescheduled` move while shards are still in flight).
//! - `GET /debug/events` — the coordinator's flight recorder: the bounded
//!   ring of scheduling and run-lifecycle events for post-mortems.
//!
//! The transport is proof-serve's [`Daemon`] shell — the same parser,
//! caps, error body, single-request connections and drain-on-shutdown as
//! the worker daemons; this module is only the route table and its state.

use crate::coordinator::{
    federated_prometheus, metrics_json_from, scrape_nodes, Fleet, FleetError,
};
use crate::runs::{FleetView, RunLedger};
use proof_core::GridSpec;
use proof_obs::{FlightRecorder, MetricsRegistry};
use proof_serve::http::{query_has, query_param, Daemon, Reply, Request};
use serde_json::{json, Map, Value};
use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Coordinator HTTP configuration.
#[derive(Debug, Clone)]
pub struct FleetServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
}

impl Default for FleetServerConfig {
    fn default() -> Self {
        FleetServerConfig {
            addr: "127.0.0.1:0".to_string(),
        }
    }
}

struct SharedFleet {
    /// The fleet, in a takeable slot: handlers borrow it briefly (submits
    /// are quick — the dispatch runs on a fleet-owned thread), and a stop
    /// takes it out so the drain always runs, however many `Arc` clones of
    /// this struct are still alive.
    fleet: Mutex<Option<Fleet>>,
    /// Cloned out of the fleet so reads never touch the fleet slot: the
    /// metrics registry, flight recorder, run ledger, and the registry/
    /// trace view the dispatcher republishes mid-run.
    metrics: Arc<MetricsRegistry>,
    flight: Arc<FlightRecorder>,
    view: Arc<FleetView>,
    runs: Arc<RunLedger>,
    node_addrs: Vec<SocketAddr>,
    started: Instant,
}

/// A running coordinator server. Owns the [`Fleet`] (and so its embedded
/// daemons); shutdown or drop drains both.
pub struct FleetServer {
    shared: Arc<SharedFleet>,
    daemon: Daemon,
}

impl FleetServer {
    pub fn start(fleet: Fleet, config: FleetServerConfig) -> std::io::Result<FleetServer> {
        let listener = TcpListener::bind(&config.addr)?;
        let shared = Arc::new(SharedFleet {
            metrics: Arc::clone(fleet.metrics()),
            flight: Arc::clone(fleet.flight()),
            view: Arc::clone(fleet.view()),
            runs: Arc::clone(fleet.runs()),
            node_addrs: fleet.node_addrs(),
            started: Instant::now(),
            fleet: Mutex::new(Some(fleet)),
        });
        let daemon = {
            let shared = Arc::clone(&shared);
            // thread-per-connection: run threads own the dispatch, so every
            // endpoint answers concurrently
            Daemon::serve(listener, "proof-fleet", move |req| route(&shared, req))?
        };
        Ok(FleetServer { shared, daemon })
    }

    pub fn addr(&self) -> SocketAddr {
        self.daemon.addr()
    }

    /// Stop accepting and drain live connections (a synchronous
    /// `POST /grid` still gets its merged artifact), then take the fleet
    /// out of its slot and shut it down — draining run threads and
    /// embedded daemons.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.daemon.stop();
        let fleet = self
            .shared
            .fleet
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        if let Some(fleet) = fleet {
            fleet.shutdown();
        }
    }
}

impl Drop for FleetServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn route(shared: &SharedFleet, req: &Request) -> Reply {
    match (req.method.as_str(), req.segments().as_slice()) {
        ("GET", ["healthz"]) => Reply::json(200, healthz_body(shared)),
        ("GET", ["metrics"]) if query_has(&req.query, "format", "prometheus") => {
            Reply::prometheus(federated_prometheus(&shared.metrics, &shared.node_addrs))
        }
        ("GET", ["metrics"]) => Reply::json(
            200,
            metrics_json_from(&shared.metrics, &shared.view.nodes()),
        ),
        ("GET", ["grid", "trace"]) => match shared.view.last_trace() {
            Some(trace) => Reply::json(200, trace),
            None => Reply::error(404, "no grid run yet"),
        },
        ("GET", ["grid", id, "status"]) => grid_status(shared, id, &req.query),
        ("GET", ["grid", id, "result"]) => grid_result(shared, id),
        ("GET", ["debug", "events"]) => Reply::json(200, shared.flight.to_json()),
        ("GET", ["nodes"]) => Reply::json(
            200,
            Value::Array(shared.view.nodes().iter().map(|n| n.to_value()).collect()).to_string(),
        ),
        ("POST", ["grid"]) if query_has(&req.query, "mode", "async") => {
            post_grid_submit(shared, &req.body)
        }
        ("POST", ["grid", "submit"]) => post_grid_submit(shared, &req.body),
        ("POST", ["grid"]) => post_grid(shared, &req.body),
        ("GET" | "POST", _) => Reply::error(404, "no such endpoint"),
        _ => Reply::error(405, "method not allowed"),
    }
}

/// Sum every reachable node's `/healthz` cache-tier summary into one
/// fleet-wide view; `nodes_reporting` says how many answered.
fn aggregate_node_cache(shared: &SharedFleet) -> Value {
    let keys = ["memory_hits", "disk_hits", "remote_hits", "misses"];
    let mut totals = [0u64; 4];
    let mut reporting = 0u64;
    for (_, body) in scrape_nodes(&shared.node_addrs, "/healthz") {
        let Ok(v) = serde_json::from_str::<Value>(&body) else {
            continue;
        };
        let Some(cache) = v.get("cache") else {
            continue;
        };
        reporting += 1;
        for (key, total) in keys.iter().zip(&mut totals) {
            *total += cache.get(key).and_then(Value::as_u64).unwrap_or(0);
        }
    }
    let mut c: Map<String, Value> = keys
        .iter()
        .zip(totals)
        .map(|(k, t)| (k.to_string(), Value::from(t)))
        .collect();
    c.insert("nodes_reporting".to_string(), Value::from(reporting));
    Value::Object(c)
}

/// Always the full document: `alive` comes from the shared registry view
/// (the dispatcher republishes it mid-run) and `running` from the run
/// ledger — neither key ever disappears while a grid executes.
fn healthz_body(shared: &SharedFleet) -> String {
    json!({
        "status": "ok",
        "version": (env!("CARGO_PKG_VERSION")),
        "uptime_s": (shared.started.elapsed().as_secs()),
        "nodes": (shared.node_addrs.len()),
        "cache": (aggregate_node_cache(shared)),
        "alive": (shared.view.alive()),
        "running": (shared.runs.active() > 0),
        "runs_total": (shared.runs.total()),
        "runs_active": (shared.runs.active()),
    })
    .to_string()
}

/// Parse and submit a grid spec, returning the accepted run's handle.
fn submit(shared: &SharedFleet, body: &str) -> Result<Arc<crate::runs::RunHandle>, Reply> {
    let value: Value =
        serde_json::from_str(body).map_err(|e| Reply::error(400, &format!("invalid JSON: {e}")))?;
    let spec = GridSpec::from_value(&value).map_err(|e| Reply::error(400, &e.to_string()))?;
    let fleet = shared.fleet.lock().unwrap_or_else(|e| e.into_inner());
    let Some(fleet) = fleet.as_ref() else {
        return Err(Reply::error(503, "coordinator shutting down"));
    };
    fleet.submit_grid(&spec).map_err(|e| run_error(&e))
}

/// A run's terminal error: `400` for spec/merge rejections, `500` otherwise.
fn run_error(e: &FleetError) -> Reply {
    match e {
        FleetError::Grid(_) => Reply::error(400, &e.to_string()),
        _ => Reply::error(500, &e.to_string()),
    }
}

/// `POST /grid` — synchronous: submit, then wait on the run handle. The
/// response bytes are exactly the streaming path's finished result.
fn post_grid(shared: &SharedFleet, body: &str) -> Reply {
    match submit(shared, body).map(|handle| handle.wait()) {
        Ok(Ok(run)) => Reply::json(200, run.merged),
        Ok(Err(e)) => run_error(&e),
        Err(reply) => reply,
    }
}

/// `POST /grid/submit` (or `?mode=async`) — accept and return immediately.
fn post_grid_submit(shared: &SharedFleet, body: &str) -> Reply {
    let handle = match submit(shared, body) {
        Ok(h) => h,
        Err(reply) => return reply,
    };
    let shards = handle.progress().counts().total;
    Reply::json(
        202,
        json!({"run_id": (handle.id()), "shards": shards}).to_string(),
    )
}

/// Look up a run by its path segment. `None` for unparseable or unknown
/// ids — both are 404s (the path names a resource that does not exist).
fn lookup_run(shared: &SharedFleet, id: &str) -> Option<Arc<crate::runs::RunHandle>> {
    id.parse::<u64>().ok().and_then(|id| shared.runs.get(id))
}

/// `GET /grid/<id>/status?since=<seq>`.
fn grid_status(shared: &SharedFleet, id: &str, query: &str) -> Reply {
    let since = match query_param(query, "since") {
        Some(raw) => match raw.parse::<u64>() {
            Ok(v) => v,
            Err(_) => return Reply::error(400, "malformed since cursor"),
        },
        None => 0,
    };
    match lookup_run(shared, id) {
        Some(handle) => Reply::json(200, handle.status_body(since)),
        None => Reply::error(404, "no such run"),
    }
}

/// `GET /grid/<id>/result`.
fn grid_result(shared: &SharedFleet, id: &str) -> Reply {
    let Some(handle) = lookup_run(shared, id) else {
        return Reply::error(404, "no such run");
    };
    match handle.result() {
        None => Reply::json(
            202,
            json!({"run_id": (handle.id()), "state": "running"}).to_string(),
        ),
        Some(Ok(run)) => Reply::json(200, run.merged),
        Some(Err(e)) => run_error(&e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::{run_grid_local, FleetConfig};
    use proof_serve::client::{get, post};
    use std::net::TcpStream;
    use std::time::Duration;

    #[test]
    fn coordinator_surface_round_trip() {
        let fleet = Fleet::start(FleetConfig::local(1)).unwrap();
        let server = FleetServer::start(fleet, FleetServerConfig::default()).unwrap();
        let addr = server.addr();

        let (status, body) = get(addr, "/healthz").unwrap();
        assert_eq!(status, 200);
        let v: Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["status"], "ok");
        assert_eq!(v["nodes"].as_u64(), Some(1));
        assert_eq!(v["alive"].as_u64(), Some(1), "alive always present");
        assert_eq!(v["running"], Value::from(false));
        assert_eq!(v["version"], env!("CARGO_PKG_VERSION"));
        assert!(v["uptime_s"].as_u64().is_some());
        assert_eq!(v["cache"]["nodes_reporting"].as_u64(), Some(1));
        assert!(v["cache"]["misses"].as_u64().is_some());

        // before any run there is no merged trace to serve
        let (status, _) = get(addr, "/grid/trace").unwrap();
        assert_eq!(status, 404);

        let spec_json = r#"{"model":"mobilenetv2-0.5","platform":"a100","batches":[1,2],"seed":4}"#;
        let (status, merged) = post(addr, "/grid", spec_json).unwrap();
        assert_eq!(status, 200, "{merged}");
        let spec = GridSpec::from_value(&serde_json::from_str(spec_json).unwrap()).unwrap();
        assert_eq!(
            merged,
            run_grid_local(&spec).unwrap(),
            "served artifact matches the in-process reference byte-for-byte"
        );

        let (status, nodes) = get(addr, "/nodes").unwrap();
        assert_eq!(status, 200);
        let nodes: Value = serde_json::from_str(&nodes).unwrap();
        assert_eq!(nodes.as_array().unwrap().len(), 1);

        let (status, metrics) = get(addr, "/metrics").unwrap();
        assert_eq!(status, 200);
        let m: Value = serde_json::from_str(&metrics).unwrap();
        assert_eq!(m["counters"]["fleet_completed"].as_u64(), Some(2));
        assert_eq!(m["counters"]["fleet_runs_total"].as_u64(), Some(1));

        let (status, prom) = get(addr, "/metrics?format=prometheus").unwrap();
        assert_eq!(status, 200);
        assert!(prom.contains("proof_fleet_fleet_completed"), "{prom}");
        // the federated section carries the node's own series labeled by
        // its address
        assert!(
            prom.contains("proof_serve_jobs_done_total{node=\""),
            "{prom}"
        );
        // the format selector matches in any position, like proof-serve
        // (an earlier build compared the whole query string)
        let (status, prom2) = get(addr, "/metrics?x=1&format=prometheus").unwrap();
        assert_eq!(status, 200);
        assert!(prom2.contains("proof_fleet_fleet_completed"), "{prom2}");

        // the merged cross-node trace is now served, with the synthesized
        // coordinator track and the node's own process track
        let (status, trace) = get(addr, "/grid/trace").unwrap();
        assert_eq!(status, 200);
        let t: Value = serde_json::from_str(&trace).unwrap();
        let events = t["traceEvents"].as_array().unwrap();
        assert!(events.iter().any(|e| e["name"] == "fleet_run"));
        assert!(
            events.iter().any(|e| e["pid"].as_u64() == Some(2)),
            "node track present: {trace}"
        );

        // the flight recorder saw the run start and finish
        let (status, events) = get(addr, "/debug/events").unwrap();
        assert_eq!(status, 200);
        let ev: Value = serde_json::from_str(&events).unwrap();
        let kinds: Vec<&str> = ev["events"]
            .as_array()
            .unwrap()
            .iter()
            .filter_map(|e| e["kind"].as_str())
            .collect();
        assert!(kinds.contains(&"run"), "{events}");
        assert!(kinds.contains(&"dispatch"), "{events}");

        let (status, _) = post(addr, "/grid", "{").unwrap();
        assert_eq!(status, 400);
        let (status, _) = get(addr, "/nope").unwrap();
        assert_eq!(status, 404);

        server.shutdown();
    }

    #[test]
    fn async_submit_status_result_round_trip() {
        let fleet = Fleet::start(FleetConfig::local(1)).unwrap();
        let server = FleetServer::start(fleet, FleetServerConfig::default()).unwrap();
        let addr = server.addr();

        let spec_json = r#"{"model":"mobilenetv2-0.5","platform":"a100","batches":[1,2],"seed":9}"#;
        let (status, body) = post(addr, "/grid/submit", spec_json).unwrap();
        assert_eq!(status, 202, "{body}");
        let v: Value = serde_json::from_str(&body).unwrap();
        let run_id = v["run_id"].as_u64().unwrap();
        assert_eq!(v["shards"].as_u64(), Some(2));

        // poll status until done; the cursor must be monotone
        let mut since = 0u64;
        let final_status = loop {
            let (status, body) =
                get(addr, &format!("/grid/{run_id}/status?since={since}")).unwrap();
            assert_eq!(status, 200, "{body}");
            let s: Value = serde_json::from_str(&body).unwrap();
            let seq = s["seq"].as_u64().unwrap();
            assert!(seq >= since, "cursor never regresses");
            since = seq;
            if s["state"] != "running" {
                break s;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        assert_eq!(final_status["state"], "done");
        assert_eq!(final_status["completed"].as_u64(), Some(2));
        assert_eq!(final_status["pending"].as_u64(), Some(0));

        let (status, merged) = get(addr, &format!("/grid/{run_id}/result")).unwrap();
        assert_eq!(status, 200, "{merged}");
        let spec = GridSpec::from_value(&serde_json::from_str(spec_json).unwrap()).unwrap();
        assert_eq!(merged, run_grid_local(&spec).unwrap());

        // ?mode=async works the same as /grid/submit
        let (status, body) = post(addr, "/grid?mode=async", spec_json).unwrap();
        assert_eq!(status, 202, "{body}");

        // unknown and malformed run ids are 404; malformed cursor is 400
        let (status, _) = get(addr, "/grid/999/status").unwrap();
        assert_eq!(status, 404);
        let (status, _) = get(addr, "/grid/abc/result").unwrap();
        assert_eq!(status, 404);
        let (status, _) = get(addr, &format!("/grid/{run_id}/status?since=x")).unwrap();
        assert_eq!(status, 400);
        // async validation errors surface at submit time
        let (status, _) = post(addr, "/grid/submit", "{").unwrap();
        assert_eq!(status, 400);

        server.shutdown();
    }

    #[test]
    fn shutdown_drains_even_with_a_request_in_flight() {
        use std::io::Write as _;
        let fleet = Fleet::start(FleetConfig::local(1)).unwrap();
        let node_addr = fleet.node_addrs()[0];
        let server = FleetServer::start(fleet, FleetServerConfig::default()).unwrap();
        let addr = server.addr();

        // a slow client: the handler thread blocks mid-read, holding a
        // clone of the shared state across the shutdown
        let mut slow = TcpStream::connect(addr).unwrap();
        slow.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
        std::thread::sleep(Duration::from_millis(50));

        server.shutdown();

        // the embedded daemon was drained: its listener is gone
        assert!(
            TcpStream::connect(node_addr).is_err(),
            "embedded daemon must not leak past shutdown"
        );
        drop(slow);
    }

    #[test]
    fn shutdown_returns_with_a_half_sent_request_open() {
        use std::io::Write as _;
        let fleet = Fleet::start(FleetConfig::local(1)).unwrap();
        let server = FleetServer::start(fleet, FleetServerConfig::default()).unwrap();
        let mut stalled = TcpStream::connect(server.addr()).unwrap();
        stalled.write_all(b"GET /healthz HTTP/1.1\r\n").unwrap();
        std::thread::sleep(Duration::from_millis(50));

        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            server.shutdown();
            tx.send(()).unwrap();
        });
        rx.recv_timeout(Duration::from_secs(2))
            .expect("shutdown blocked behind a stalled client");
        drop(stalled);
    }

    #[test]
    fn shutdown_waits_out_a_synchronous_grid_in_flight() {
        let fleet = Fleet::start(FleetConfig::local(1)).unwrap();
        let server = FleetServer::start(fleet, FleetServerConfig::default()).unwrap();
        let addr = server.addr();
        let spec_json =
            r#"{"model":"mobilenetv2-0.5","platform":"a100","batches":[1,2,4],"seed":31}"#;
        let client = std::thread::spawn(move || post(addr, "/grid", spec_json));
        // let the request land before shutting down underneath it
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.shared.runs.total() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }

        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            server.shutdown();
            tx.send(()).unwrap();
        });
        rx.recv_timeout(Duration::from_secs(60))
            .expect("shutdown deadlocked behind a synchronous POST /grid");
        let (status, merged) = client.join().unwrap().unwrap();
        assert_eq!(status, 200, "{merged}");
        let spec = GridSpec::from_value(&serde_json::from_str(spec_json).unwrap()).unwrap();
        assert_eq!(merged, run_grid_local(&spec).unwrap());
    }
}
