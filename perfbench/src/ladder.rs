//! `ladder-cold`: one caller in a closed loop doing what `proof profile
//! --json` does, cold and with no caches, over a model-size ladder × three
//! backends × both metric modes at batch 8. The seed shuffles the cell
//! order of every pass.

use crate::digest::Pinned;
use crate::gen::Rng;
use crate::layers::{ReportSpec, BACKENDS};
use crate::stats::{mean, ratio, should_stop};
use crate::{Args, Outcome, Phase, SETUP_REPS};
use proof_core::MetricMode;
use proof_hw::PlatformId;
use proof_models::ModelId;
use proof_runtime::{BackendFlavor, SessionConfig};
use std::collections::BTreeMap;
use std::time::Instant;

/// The model-size ladder, ~100 to ~1600 nodes at batch 8.
pub const LADDER: [&str; 9] = [
    "mobilenetv2-1.0",
    "resnet-50",
    "efficientnet-b0",
    "distilbert-base",
    "efficientnetv2-s",
    "vit-base",
    "swin-tiny",
    "sd-unet",
    "swin-base",
];
const BATCH: u64 = 8;
/// Backend → platform, as the paper pairs them.
const PLATFORM: [(&str, &str); 3] = [("trt", "a100"), ("ort", "a100"), ("ov", "xeon6330")];
/// Rungs at each end of the ladder used for the map-scaling figures.
const ENDS: usize = 3;

struct Cell {
    /// Pinned-digest name, e.g. `ladder/resnet-50/ov/measured`.
    name: String,
    model: &'static str,
    spec: ReportSpec,
}

fn cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for model in LADDER {
        for (backend, platform) in PLATFORM {
            let platform = PlatformId::parse(platform).expect("known platform").spec();
            for (mode, mode_name) in [
                (MetricMode::Predicted, "predicted"),
                (MetricMode::Measured, "measured"),
            ] {
                cells.push(Cell {
                    name: format!("ladder/{model}/{backend}/{mode_name}"),
                    model,
                    spec: ReportSpec {
                        model: ModelId::parse(model).expect("known model"),
                        batch: BATCH,
                        backend,
                        flavor: BackendFlavor::parse(backend).expect("known backend"),
                        cfg: SessionConfig::new(platform.preferred_dtype()),
                        platform: platform.clone(),
                        mode,
                    },
                });
            }
        }
    }
    cells
}

/// Print `<name> <digest>` for every cell (bootstraps `pinned.txt`).
pub fn emit_digests() -> Result<(), String> {
    for cell in cells() {
        let json = cell.spec.run().map_err(|e| format!("{}: {e}", cell.name))?;
        println!(
            "{} {:016x}",
            cell.name,
            crate::digest::fnv1a64(json.as_bytes())
        );
    }
    Ok(())
}

pub fn run(args: &Args, pinned: &Pinned) -> Result<Outcome, String> {
    let mut out = Outcome::default();

    // Set-up: build every rung once to record its node count (the ladder's
    // size axis). There is nothing else to start: the loop is cold.
    let mut setup_s = Vec::new();
    let mut nodes = BTreeMap::new();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        for model in LADDER {
            let g = ModelId::parse(model).expect("known model").build(BATCH);
            nodes.insert(model, g.node_count());
        }
        setup_s.push(t.elapsed().as_secs_f64());
    }

    let cells = cells();
    let mut order: Vec<usize> = (0..cells.len()).collect();
    let mut rng = Rng::new(args.seed);
    let mut phase = Phase::new(if args.trace { "traced" } else { "measure" });
    let mut latency_ms = Vec::new();
    let (mut plain_passes, mut traced_passes) = (Vec::new(), Vec::new());
    let (mut traced_reports, mut traced_bytes, mut traced_wall_us) = (0usize, 0.0, 0.0);
    let started = Instant::now();
    let mut op = 0u64;
    // traced report id → cell, to attribute spans to ladder rungs
    let mut op_cell = BTreeMap::new();
    for pass in 0.. {
        if should_stop(started, args.seconds, op as usize) {
            break;
        }
        // in a traced run, traced and plain passes alternate so the
        // difference between them is the tracing overhead
        let traced = args.trace && pass % 2 == 1;
        rng.shuffle(&mut order);
        let mut reports = Vec::with_capacity(order.len());
        let pass_start = Instant::now();
        for &i in &order {
            let cell = &cells[i];
            op += 1;
            let t = Instant::now();
            let result = if traced {
                op_cell.insert(op, i);
                cell.spec.run_traced(&mut out.spans, op)
            } else {
                cell.spec.run()
            }
            .map_err(|e| e.to_string());
            let dt = t.elapsed();
            if traced {
                out.spans
                    .record("report", cell.spec.backend, op, t, dt.as_nanos() as u64);
            }
            reports.push((i, result, dt.as_secs_f64() * 1e3));
        }
        let pass_s = pass_start.elapsed().as_secs_f64();
        if traced {
            traced_passes.push(pass_s);
        } else {
            plain_passes.push(pass_s);
        }
        // output checks, outside the timed region
        for (i, result, ms) in reports {
            let bytes = out.check(pinned, &cells[i].name, &result).map(str::len);
            phase.note(bytes.is_some());
            match (bytes, traced) {
                (Some(bytes), true) => {
                    traced_reports += 1;
                    traced_bytes += bytes as f64;
                    traced_wall_us += ms * 1e3;
                }
                (Some(_), false) => latency_ms.push(ms),
                (None, false) => latency_ms.push(f64::INFINITY),
                (None, true) => {}
            }
        }
    }
    out.phases.push(phase);

    if !args.trace {
        let peak = crate::peak_rss_mb();
        let per_pass = cells.len();
        out.end_to_end(&setup_s, &latency_ms, per_pass, &plain_passes, peak);
        return Ok(out);
    }

    crate::layers::report_metrics(&mut out, traced_reports, traced_bytes);
    map_scaling(&mut out, &cells, &op_cell, &nodes);
    let covered: f64 = crate::layers::REPORT_SPANS
        .iter()
        .map(|s| out.spans.sum_us(s, None))
        .sum();
    out.set("trace.coverage_frac", ratio(covered, traced_wall_us));
    out.set(
        "trace.overhead_pct",
        (ratio(mean(&traced_passes), mean(&plain_passes)) - 1.0) * 100.0,
    );
    Ok(out)
}

/// `core.map_ns_per_node.<backend>.{small,large}`: map time per graph node
/// over the traced reports of the three smallest and the three largest
/// rungs, and their ratio `core.map_scaling.<backend>` (1 = linear).
fn map_scaling(
    out: &mut Outcome,
    cells: &[Cell],
    op_cell: &BTreeMap<u64, usize>,
    nodes: &BTreeMap<&str, usize>,
) {
    let mut by_size: Vec<&str> = LADDER.to_vec();
    by_size.sort_by_key(|m| nodes[m]);
    let small = &by_size[..ENDS];
    let large = &by_size[by_size.len() - ENDS..];
    for b in BACKENDS {
        let ns_per_node = |rungs: &[&str]| {
            let (mut ns, mut n) = (0.0, 0.0);
            for span in out.spans.named("core.map").filter(|s| s.tag == b) {
                let model = cells[op_cell[&span.op]].model;
                if rungs.contains(&model) {
                    ns += span.dur_ns as f64;
                    n += nodes[model] as f64;
                }
            }
            ratio(ns, n)
        };
        let (s, l) = (ns_per_node(small), ns_per_node(large));
        out.set(format!("core.map_ns_per_node.{b}.small"), s);
        out.set(format!("core.map_ns_per_node.{b}.large"), l);
        out.set(format!("core.map_scaling.{b}"), ratio(l, s));
    }
}
