//! `serve-mix`: two client threads in a closed loop against an in-process
//! `proof_serve::Server` with two workers. Each request submits `POST /jobs`,
//! polls `GET /jobs/<id>` back to back, then fetches `/report`. The seed
//! draws ~80 % hot, ~10 % warm and ~10 % cold requests (see `gen.rs`).

use crate::digest::fnv1a64;
use crate::gen::{Class, JobSpec, MixGen, HOT};
use crate::spans::Spans;
use crate::stats::{mean, ratio, should_stop};
use crate::{Args, Outcome, Phase, SETUP_REPS};
use proof_serve::{client, AnalysisJob, ServeConfig, Server};
use serde_json::Value;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

const CLIENTS: u64 = 2;
const WORKERS: usize = 2;
/// Completed reports per block; `grid_s` is the median block wall time.
const BLOCK: usize = 100;
/// `peak_rss_mb` is read when this many requests have completed: the
/// daemon keeps every job record, so memory read later grows with however
/// many requests the run managed rather than with what the program holds
/// per request.
const RSS_AT: usize = 2000;
/// In a traced run, every this many traced requests a client also times a
/// `GET /healthz` round trip.
const RTT_EVERY: u64 = 8;

/// Why a request produced no report.
struct Failure {
    rejected: bool,
    msg: String,
}

fn fail(msg: String) -> Failure {
    Failure {
        rejected: false,
        msg,
    }
}

struct Reply {
    report: String,
    polls: u32,
    /// `queue_wait_us + execute_us` from the final job status.
    server_us: f64,
}

/// Submit, poll until done, fetch the report. Spans are recorded when a
/// recorder is given.
fn roundtrip(
    addr: SocketAddr,
    spec: &JobSpec,
    mut spans: Option<&mut Spans>,
    op: u64,
) -> Result<Reply, Failure> {
    let mut timed = |name, f: &mut dyn FnMut() -> std::io::Result<client::Response>| {
        let t = Instant::now();
        let r = f();
        if let Some(s) = spans.as_deref_mut() {
            s.record(name, "", op, t, t.elapsed().as_nanos() as u64);
        }
        r.map_err(|e| fail(format!("{name}: {e}")))
    };
    let body = spec.body();
    let sub = timed("serve.submit", &mut || {
        client::request_full(addr, "POST", "/jobs", Some(&body))
    })?;
    match sub.status {
        201 => {}
        429 => {
            return Err(Failure {
                rejected: true,
                msg: "submit rejected with 429".into(),
            })
        }
        s => return Err(fail(format!("submit answered {s}: {}", sub.body))),
    }
    let id = serde_json::from_str::<Value>(&sub.body)
        .ok()
        .and_then(|v| v.get("id").and_then(Value::as_u64))
        .ok_or_else(|| fail(format!("submit reply without id: {}", sub.body)))?;
    let status_path = format!("/jobs/{id}");
    let mut polls = 0;
    let status = loop {
        polls += 1;
        let r = timed("serve.poll", &mut || {
            client::request_full(addr, "GET", &status_path, None)
        })?;
        let v: Value = serde_json::from_str(&r.body)
            .map_err(|e| fail(format!("job {id} status is not JSON: {e}")))?;
        match v.get("status").and_then(Value::as_str) {
            Some("done") => break v,
            Some("queued" | "running") => continue,
            other => return Err(fail(format!("job {id} ended {other:?}: {}", r.body))),
        }
    };
    let report_path = format!("/jobs/{id}/report");
    let rep = timed("serve.report_fetch", &mut || {
        client::request_full(addr, "GET", &report_path, None)
    })?;
    if rep.status != 200 {
        return Err(fail(format!("report of job {id} answered {}", rep.status)));
    }
    let field = |k| status.get(k).and_then(Value::as_u64).unwrap_or(0) as f64;
    Ok(Reply {
        report: rep.body,
        polls,
        server_us: field("queue_wait_us") + field("execute_us"),
    })
}

/// The report bytes the library produces for `spec`, in-process.
fn expected_report(spec: &JobSpec) -> Result<String, String> {
    let v: Value = serde_json::from_str(&spec.body()).map_err(|e| e.to_string())?;
    let job = AnalysisJob::from_value(&v)?;
    job.execute()
        .and_then(|r| r.try_to_json())
        .map_err(|e| format!("{}: {e}", spec.body()))
}

/// One finished request, as a client saw it.
struct Record {
    class: Class,
    spec: JobSpec,
    traced: bool,
    /// `None` on failure.
    latency_ms: Option<f64>,
    /// Completion time, seconds since the start.
    finished_s: f64,
    polls: u32,
    server_us: f64,
    /// FNV-1a and length of a warm/cold report, checked after the run.
    pending: Option<(u64, usize)>,
}

#[derive(Default)]
struct ClientLog {
    records: Vec<Record>,
    spans: Spans,
    /// Failed requests: (rejected with 429, message).
    errors: Vec<(bool, String)>,
    mismatches: Vec<String>,
}

/// Shared stop rule: enough time and enough samples for a p99.
struct Stop {
    started: Instant,
    seconds: f64,
    completed: AtomicUsize,
    /// `VmHWM` when the `RSS_AT`-th request completed.
    rss_mb: OnceLock<f64>,
}

impl Stop {
    fn done(&self) -> bool {
        should_stop(
            self.started,
            self.seconds,
            self.completed.load(Ordering::Relaxed),
        )
    }
}

fn client_loop(
    addr: SocketAddr,
    seed: u64,
    thread: u64,
    trace: bool,
    expected_hot: &[String],
    stop: &Stop,
) -> ClientLog {
    let mut gen = MixGen::new(seed, thread);
    let mut log = ClientLog::default();
    let mut i = 0u64;
    while !stop.done() {
        let (class, spec) = gen.next_request();
        i += 1;
        // a traced run alternates traced and plain requests, so the
        // difference between them is the tracing overhead
        let traced = trace && i.is_multiple_of(2);
        let op = (thread << 40) | i;
        if traced && (i / 2).is_multiple_of(RTT_EVERY) {
            let t = Instant::now();
            let ok = matches!(client::get(addr, "/healthz"), Ok((200, _)));
            log.spans
                .record("serve.http_rtt", "", op, t, t.elapsed().as_nanos() as u64);
            if !ok {
                log.errors.push((false, "GET /healthz failed".into()));
            }
        }
        let t = Instant::now();
        let result = roundtrip(addr, &spec, traced.then_some(&mut log.spans), op);
        let dt = t.elapsed();
        let finished_s = stop.started.elapsed().as_secs_f64();
        if stop.completed.fetch_add(1, Ordering::Relaxed) + 1 == RSS_AT {
            stop.rss_mb.get_or_init(crate::peak_rss_mb);
        }
        if traced {
            log.spans
                .record("request", class.name(), op, t, dt.as_nanos() as u64);
        }
        let mut rec = Record {
            class,
            spec,
            traced,
            latency_ms: None,
            finished_s,
            polls: 0,
            server_us: 0.0,
            pending: None,
        };
        match result {
            Ok(reply) => {
                rec.polls = reply.polls;
                rec.server_us = reply.server_us;
                // output check, outside the timed region
                let ok = match class {
                    Class::Hot => {
                        let idx = HOT.iter().position(|h| *h == spec).expect("hot spec");
                        reply.report == expected_hot[idx]
                    }
                    Class::Warm | Class::Cold => {
                        rec.pending = Some((fnv1a64(reply.report.as_bytes()), reply.report.len()));
                        true
                    }
                };
                if ok {
                    rec.latency_ms = Some(dt.as_secs_f64() * 1e3);
                } else {
                    log.mismatches
                        .push(format!("hot report differs: {}", spec.body()));
                }
            }
            Err(f) => log
                .errors
                .push((f.rejected, format!("{}: {}", spec.body(), f.msg))),
        }
        log.records.push(rec);
    }
    log
}

/// Counters from `GET /metrics` that the per-layer metrics difference.
#[derive(Clone, Copy)]
struct ServerCounters {
    lookups: f64,
    memory_hits: f64,
    stage_hits: f64,
    stage_lookups: f64,
    queue_wait_sum_us: f64,
    queue_wait_count: f64,
}

impl ServerCounters {
    fn scrape(addr: SocketAddr) -> Result<ServerCounters, String> {
        let (status, body) = client::get(addr, "/metrics").map_err(|e| format!("/metrics: {e}"))?;
        if status != 200 {
            return Err(format!("/metrics answered {status}"));
        }
        let v: Value = serde_json::from_str(&body).map_err(|e| format!("/metrics: {e}"))?;
        let n = |path: &[&str]| {
            path.iter()
                .try_fold(&v, |v, k| v.get(k))
                .and_then(Value::as_f64)
                .unwrap_or(0.0)
        };
        Ok(ServerCounters {
            lookups: n(&["cache", "hits"]) + n(&["cache", "misses"]),
            memory_hits: n(&["cache", "memory_hits"]),
            stage_hits: n(&["stage_cache", "hits"]),
            stage_lookups: n(&["stage_cache", "hits"]) + n(&["stage_cache", "misses"]),
            // means come from the histogram's exact sum and count, never
            // from its power-of-two quantile bounds
            queue_wait_sum_us: n(&["latency", "queue_wait_us", "sum_us"]),
            queue_wait_count: n(&["latency", "queue_wait_us", "count"]),
        })
    }
}

/// Start a daemon and pre-warm the hot set through HTTP.
fn start_and_warm(phase: &mut Phase) -> Result<Server, String> {
    let server = Server::start(ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("cannot start daemon: {e}"))?;
    for spec in &HOT {
        let r = roundtrip(server.addr(), spec, None, 0);
        phase.note(r.is_ok());
        if let Err(f) = r {
            server.shutdown();
            return Err(format!("pre-warm {}: {}", spec.body(), f.msg));
        }
    }
    Ok(server)
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup = Phase::new("setup");
    let mut setup_s = Vec::new();
    let mut server: Option<Server> = None;
    for _ in 0..SETUP_REPS {
        if let Some(s) = server.take() {
            s.shutdown();
        }
        let t = Instant::now();
        server = Some(start_and_warm(&mut setup)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let server = server.expect("set up at least once");
    let addr = server.addr();
    out.phases.push(setup);

    let expected_hot = HOT
        .iter()
        .map(expected_report)
        .collect::<Result<Vec<_>, _>>()?;
    let before = ServerCounters::scrape(addr)?;
    let stop = Stop {
        started: Instant::now(),
        seconds: args.seconds,
        completed: AtomicUsize::new(0),
        rss_mb: OnceLock::new(),
    };
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let (stop, expected_hot) = (&stop, &expected_hot);
                s.spawn(move || client_loop(addr, args.seed, t, args.trace, expected_hot, stop))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let after = ServerCounters::scrape(addr)?;
    let drained = server.shutdown();

    let mut records = Vec::new();
    let mut phase = Phase::new(if args.trace { "traced" } else { "measure" });
    for log in logs {
        for (rejected, msg) in log.errors {
            if rejected {
                phase.rejected += 1;
            }
            out.errors.push(msg);
        }
        out.mismatches.extend(log.mismatches);
        out.spans.extend(log.spans);
        records.extend(log.records);
    }
    if drained.dropped > 0 {
        out.errors.push(format!(
            "shutdown dropped {} accepted jobs",
            drained.dropped
        ));
    }

    // warm and cold reports against in-process execution, after the run
    let pending: Vec<usize> = (0..records.len())
        .filter(|&i| records[i].pending.is_some())
        .collect();
    let checked: Vec<(usize, bool)> = std::thread::scope(|s| {
        let handles: Vec<_> = pending
            .chunks(pending.len().div_ceil(WORKERS).max(1))
            .map(|chunk| {
                let records = &records;
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|&i| {
                            let (fnv, len) = records[i].pending.expect("pending");
                            let ok = matches!(expected_report(&records[i].spec),
                                Ok(want) if want.len() == len && fnv1a64(want.as_bytes()) == fnv);
                            (i, ok)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("verify thread panicked"))
            .collect()
    });
    let mut verify = Phase::new("verify");
    for (i, ok) in checked {
        verify.note(ok);
        if !ok {
            let r = &mut records[i];
            out.mismatches.push(format!(
                "{} report differs: {}",
                r.class.name(),
                r.spec.body()
            ));
            r.latency_ms = None;
        }
    }
    for r in &records {
        phase.note(r.latency_ms.is_some());
    }
    out.phases.push(verify);
    out.phases.push(phase);

    if !args.trace {
        let latency_ms: Vec<f64> = records
            .iter()
            .map(|r| r.latency_ms.unwrap_or(f64::INFINITY))
            .collect();
        let mut finished: Vec<f64> = records.iter().map(|r| r.finished_s).collect();
        finished.sort_by(f64::total_cmp);
        let blocks: Vec<f64> = finished
            .chunks_exact(BLOCK)
            .scan(0.0, |prev, block| {
                let end = block[BLOCK - 1];
                let d = end - *prev;
                *prev = end;
                Some(d)
            })
            .collect();
        let peak = stop
            .rss_mb
            .get()
            .copied()
            .unwrap_or_else(crate::peak_rss_mb);
        out.end_to_end(&setup_s, &latency_ms, BLOCK, &blocks, peak);
        return Ok(out);
    }

    let traced: Vec<&Record> = records
        .iter()
        .filter(|r| r.traced && r.latency_ms.is_some())
        .collect();
    let plain: Vec<f64> = records
        .iter()
        .filter(|r| !r.traced)
        .filter_map(|r| r.latency_ms)
        .collect();
    let client_us: f64 = traced
        .iter()
        .map(|r| r.latency_ms.unwrap_or(0.0) * 1e3)
        .sum();
    let server_us: f64 = traced.iter().map(|r| r.server_us).sum();
    let polls: f64 = traced.iter().map(|r| f64::from(r.polls)).sum();
    let spans = &out.spans;
    let mut set = vec![
        (
            "serve.http_rtt_us".to_string(),
            spans.mean_us("serve.http_rtt", None),
        ),
        (
            "serve.submit_us".to_string(),
            spans.mean_us("serve.submit", None),
        ),
        (
            "serve.poll_us".to_string(),
            spans.mean_us("serve.poll", None),
        ),
        (
            "serve.polls_per_job".to_string(),
            ratio(polls, traced.len() as f64),
        ),
        (
            "serve.report_fetch_us".to_string(),
            spans.mean_us("serve.report_fetch", None),
        ),
        (
            "serve.queue_wait_us".to_string(),
            ratio(
                after.queue_wait_sum_us - before.queue_wait_sum_us,
                after.queue_wait_count - before.queue_wait_count,
            ),
        ),
        (
            "serve.client_overhead_frac".to_string(),
            1.0 - ratio(server_us, client_us),
        ),
        (
            "store.memory_hit_ratio".to_string(),
            ratio(
                after.memory_hits - before.memory_hits,
                after.lookups - before.lookups,
            ),
        ),
        ("store.lookups".to_string(), after.lookups - before.lookups),
        (
            "serve.stage_cache_hit_ratio".to_string(),
            ratio(
                after.stage_hits - before.stage_hits,
                after.stage_lookups - before.stage_lookups,
            ),
        ),
        (
            "serve.stage_cache_lookups".to_string(),
            after.stage_lookups - before.stage_lookups,
        ),
        (
            "serve.rejected".to_string(),
            out.phases.last().map_or(0, |p| p.rejected) as f64,
        ),
    ];
    for class in Class::ALL {
        let of_class: Vec<f64> = traced
            .iter()
            .filter(|r| r.class == class)
            .map(|r| r.server_us)
            .collect();
        set.push((
            format!("serve.server_total_us.{}", class.name()),
            mean(&of_class),
        ));
    }
    let covered: f64 = ["serve.submit", "serve.poll", "serve.report_fetch"]
        .iter()
        .map(|s| spans.sum_us(s, None))
        .sum();
    set.push(("trace.coverage_frac".to_string(), ratio(covered, client_us)));
    let traced_ms: Vec<f64> = traced.iter().filter_map(|r| r.latency_ms).collect();
    set.push((
        "trace.overhead_pct".to_string(),
        (ratio(mean(&traced_ms), mean(&plain)) - 1.0) * 100.0,
    ));
    for (k, v) in set {
        out.set(k, v);
    }
    Ok(out)
}
