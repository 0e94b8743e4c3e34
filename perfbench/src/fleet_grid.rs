//! `fleet-grid`: a fixed 162-cell grid with a pinned grid seed on
//! `Fleet::start(FleetConfig::local(2))`, one worker per embedded daemon.
//! Every grid runs on a freshly started fleet, so no node cache is warm.
//! The grid and its seed are pinned so the merged artifact's digest is; the
//! workload seed only sets the fleet clients' retry-jitter seed.

use crate::digest::{fnv1a64, Pinned};
use crate::layers::{backend_tag, ReportSpec, REPORT_SPANS};
use crate::stats::{median, ratio, should_stop};
use crate::{Args, Outcome, Phase, SETUP_REPS};
use proof_core::{merge_cells, GridSpec};
use proof_fleet::{plan_shards, run_grid_local, Fleet, FleetConfig, ProgressKind};
use proof_serve::{client, AnalysisJob};
use serde_json::Value;
use std::collections::HashMap;
use std::time::{Duration, Instant};

const GRID: &str = r#"{"models":["resnet-50","vit-tiny","swin-tiny","efficientnetv2-s","mobilenetv2-1.0","sd-unet"],"platforms":["a100","xeon6330","orinnx"],"backends":["trt","ort","ov"],"batches":[1,8,32],"seed":7}"#;
const DIGEST_NAME: &str = "fleet-grid/merged";
const NODES: usize = 2;
const WORKERS_PER_NODE: usize = 1;
/// How often the caller reads the run's progress stream.
const POLL: Duration = Duration::from_millis(1);
/// `plan_shards` calls timed in a traced run; `fleet.plan_us` is the median.
const PLAN_REPS: usize = 101;

fn grid_spec() -> GridSpec {
    let v: Value = serde_json::from_str(GRID).expect("grid spec is JSON");
    GridSpec::from_value(&v).expect("grid spec is valid")
}

/// Print the merged artifact's digest (bootstraps `pinned.txt`).
pub fn emit_digest() -> Result<(), String> {
    let merged = run_grid_local(&grid_spec()).map_err(|e| e.to_string())?;
    println!("{DIGEST_NAME} {:016x}", fnv1a64(merged.as_bytes()));
    Ok(())
}

struct GridRun {
    start_s: f64,
    wall_s: f64,
    merged: Result<String, String>,
    /// Dispatch → completion per completed cell, as the progress stream shows it.
    cell_ms: Vec<f64>,
    counters: Value,
    /// Summed `job_execute_us` of every node.
    node_execute_us: f64,
}

fn start_fleet(client_seed: u64) -> Result<Fleet, String> {
    Fleet::start(FleetConfig {
        local_workers: WORKERS_PER_NODE,
        client_seed,
        ..FleetConfig::local(NODES)
    })
    .map_err(|e| format!("fleet start: {e}"))
}

/// Start a fresh fleet, run the grid once, read its counters, shut it down.
fn one_grid(spec: &GridSpec, client_seed: u64) -> Result<GridRun, String> {
    let t = Instant::now();
    let fleet = start_fleet(client_seed)?;
    let start_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let handle = fleet
        .submit_grid(spec)
        .map_err(|e| format!("submit: {e}"))?;
    let mut dispatched: HashMap<usize, Instant> = HashMap::new();
    let mut cell_ms = Vec::new();
    let mut cursor = 0;
    loop {
        let finished = handle.is_finished();
        let (counts, events) = handle.progress().since(cursor);
        let now = Instant::now();
        for e in events {
            match e.kind {
                ProgressKind::Dispatched => {
                    dispatched.entry(e.shard).or_insert(now);
                }
                ProgressKind::Completed => {
                    let from = dispatched.get(&e.shard).copied().unwrap_or(t);
                    cell_ms.push(now.duration_since(from).as_secs_f64() * 1e3);
                }
                ProgressKind::Rescheduled => {}
            }
        }
        cursor = counts.seq;
        if finished {
            break;
        }
        std::thread::sleep(POLL);
    }
    let merged = handle
        .wait()
        .map(|run| run.merged)
        .map_err(|e| e.to_string());
    let wall_s = t.elapsed().as_secs_f64();

    let counters: Value = serde_json::from_str(&fleet.metrics_json()).map_err(|e| e.to_string())?;
    let mut node_execute_us = 0.0;
    for addr in fleet.node_addrs() {
        let (_, body) = client::get(addr, "/metrics").map_err(|e| format!("node /metrics: {e}"))?;
        let v: Value = serde_json::from_str(&body).map_err(|e| format!("node /metrics: {e}"))?;
        node_execute_us += ["latency", "execute_us", "sum_us"]
            .iter()
            .try_fold(&v, |v, k| v.get(k))
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
    }
    fleet.shutdown();
    Ok(GridRun {
        start_s,
        wall_s,
        merged,
        cell_ms,
        counters,
        node_execute_us,
    })
}

/// Count one grid's cells into `phase` and its latencies into `latency_ms`
/// (`+inf` for every cell of a failed or mismatching grid).
fn account(
    run: &GridRun,
    cells: usize,
    pinned: &Pinned,
    phase: &mut Phase,
    latency_ms: &mut Vec<f64>,
    out: &mut Outcome,
) {
    let mut ok = out.check(pinned, DIGEST_NAME, &run.merged).is_some();
    if ok && run.cell_ms.len() != cells {
        let done = run.cell_ms.len();
        out.errors
            .push(format!("{DIGEST_NAME}: {done} of {cells} cells completed"));
        ok = false;
    }
    if ok {
        latency_ms.extend(&run.cell_ms);
    } else {
        latency_ms.extend(std::iter::repeat_n(f64::INFINITY, cells));
    }
    for _ in 0..cells {
        phase.note(ok);
    }
}

pub fn run(args: &Args, pinned: &Pinned) -> Result<Outcome, String> {
    let spec = grid_spec();
    let cells = spec.cell_count();
    let mut out = Outcome::default();
    if args.trace {
        traced(args, pinned, &spec, &mut out)?;
        return Ok(out);
    }
    let mut phase = Phase::new("measure");
    let (mut setup_s, mut grids_s, mut latency_ms) = (Vec::new(), Vec::new(), Vec::new());
    // Peak memory of one cold grid in a fresh process: later grids start
    // fresh fleets whose freed memory the allocator keeps, and how much it
    // keeps varies from run to run.
    let mut peak_rss_mb = None;
    // set-up: fresh fleets started and stopped before the first grid; each
    // grid below starts one more, and `setup_s` is the median of all starts
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let fleet = start_fleet(args.seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
        fleet.shutdown();
    }
    let started = Instant::now();
    while !should_stop(started, args.seconds, latency_ms.len()) {
        let run = one_grid(&spec, args.seed)?;
        peak_rss_mb.get_or_insert_with(crate::peak_rss_mb);
        setup_s.push(run.start_s);
        grids_s.push(run.wall_s);
        account(&run, cells, pinned, &mut phase, &mut latency_ms, &mut out);
    }
    out.phases.push(phase);
    let peak = peak_rss_mb.unwrap_or_default();
    out.end_to_end(&setup_s, &latency_ms, cells, &grids_s, peak);
    Ok(out)
}

/// The traced run: planner cost, one fleet grid for the dispatch counters
/// and node busy time, then the no-HTTP single-thread reference
/// (`run_grid_local`) untraced and split into spans.
fn traced(args: &Args, pinned: &Pinned, spec: &GridSpec, out: &mut Outcome) -> Result<(), String> {
    let cells = spec.cell_count();
    let mut phase = Phase::new("traced");

    let mut plan_us = Vec::with_capacity(PLAN_REPS);
    for _ in 0..PLAN_REPS {
        let t = Instant::now();
        let plan = plan_shards(spec).map_err(|e| e.to_string())?;
        plan_us.push(t.elapsed().as_secs_f64() * 1e6);
        assert_eq!(plan.cells, cells);
    }
    out.set("fleet.plan_us", median(&plan_us));

    let run = one_grid(spec, args.seed)?;
    account(&run, cells, pinned, &mut phase, &mut Vec::new(), out);
    let counter = |name: &str| {
        run.counters
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    for name in ["dispatched", "rescheduled", "probes", "shard_failures"] {
        out.set(format!("fleet.{name}"), counter(&format!("fleet_{name}")));
    }
    out.set(
        "fleet.node_busy_frac",
        ratio(
            run.node_execute_us / 1e6,
            run.wall_s * (NODES * WORKERS_PER_NODE) as f64,
        ),
    );

    let t = Instant::now();
    let local = run_grid_local(spec).map_err(|e| e.to_string());
    let local_s = t.elapsed().as_secs_f64();
    out.set("fleet.local_grid_s", local_s);
    let ok = out.check(pinned, DIGEST_NAME, &local).is_some();
    phase.note(ok);

    // the same reference, each layer call inside a span
    let t = Instant::now();
    let mut reports = Vec::with_capacity(cells);
    let mut bytes = 0.0;
    for (id, cell) in spec.cells().into_iter().enumerate() {
        let job = AnalysisJob::from_value(&cell.to_job_value())?;
        let report = ReportSpec {
            model: job.model,
            batch: job.batch,
            backend: backend_tag(job.backend),
            flavor: job.backend,
            platform: job.hardware.spec(),
            cfg: job.session_config(),
            mode: job.mode,
        }
        .run_traced(&mut out.spans, id as u64)
        .map_err(|e| format!("cell {id}: {e}"))?;
        bytes += report.len() as f64;
        reports.push((id, report));
    }
    let merged = out
        .spans
        .time("fleet.merge", "", 0, || merge_cells(spec, &reports))
        .map_err(|e| e.to_string());
    let traced_s = t.elapsed().as_secs_f64();
    let ok = out.check(pinned, DIGEST_NAME, &merged).is_some();
    phase.note(ok);
    // decode cost per cell report, as the merger pays it, outside the
    // traced wall time above
    for (id, report) in &reports {
        let parsed = out.spans.time("json.decode", "", *id as u64, || {
            serde_json::from_str::<Value>(report)
        });
        if let Err(e) = parsed {
            out.mismatches
                .push(format!("cell {id} does not decode: {e}"));
        }
    }

    crate::layers::report_metrics(out, cells, bytes);
    out.set("fleet.merge_us", out.spans.sum_us("fleet.merge", None));
    out.set("json.decode_us", out.spans.mean_us("json.decode", None));
    let covered: f64 = REPORT_SPANS
        .iter()
        .chain(&["fleet.merge"])
        .map(|s| out.spans.sum_us(s, None))
        .sum();
    out.set("trace.coverage_frac", ratio(covered, traced_s * 1e6));
    out.set(
        "trace.overhead_pct",
        (ratio(traced_s, local_s) - 1.0) * 100.0,
    );
    out.phases.push(phase);
    Ok(())
}
