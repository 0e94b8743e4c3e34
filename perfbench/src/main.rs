//! The repository benchmark: drives the public APIs of `proof_models`,
//! `proof_core`, `proof_serve` and `proof_fleet` in-process and prints one
//! JSON result line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ladder-cold|serve-mix|fleet-grid --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` is a separate
//! run that reports the per-layer metrics from the benchmark's own spans
//! and writes the spans to `.bench_build/spans-<workload>.jsonl`.
//! See `perfbench/README.md` for the workloads and the metric map.

mod digest;
mod fleet_grid;
mod gen;
mod ladder;
mod layers;
mod serve_mix;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Where a traced run writes its raw spans, one JSON object per line: the
/// benchmark's build directory, which git ignores.
const SPANS_DIR: &str = ".bench_build";

/// End-to-end metrics (`--trace 0`), with units. Every workload reports all.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("reports_per_s", "1/s"),
    ("report_p50_ms", "ms"),
    ("report_p99_ms", "ms"),
    ("grid_s", "s"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units. A workload reports 0 for a
/// layer it does not exercise; README.md maps each metric to its workload.
pub fn per_layer_catalog() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = vec![("models.build_us".into(), "us")];
    for stage in layers::STAGES {
        v.push((format!("core.{stage}_us"), "us"));
        for b in layers::BACKENDS {
            v.push((format!("core.{stage}_us.{b}"), "us"));
        }
    }
    v.push(("json.encode_us".into(), "us"));
    v.push(("json.report_bytes".into(), "bytes"));
    for b in layers::BACKENDS {
        v.push((format!("core.map_ns_per_node.{b}.small"), "ns"));
        v.push((format!("core.map_ns_per_node.{b}.large"), "ns"));
        v.push((format!("core.map_scaling.{b}"), "ratio"));
    }
    for (name, unit) in [
        ("serve.http_rtt_us", "us"),
        ("serve.submit_us", "us"),
        ("serve.poll_us", "us"),
        ("serve.polls_per_job", "count"),
        ("serve.report_fetch_us", "us"),
        ("serve.server_total_us.hot", "us"),
        ("serve.server_total_us.warm", "us"),
        ("serve.server_total_us.cold", "us"),
        ("serve.queue_wait_us", "us"),
        ("serve.client_overhead_frac", "frac"),
        ("store.memory_hit_ratio", "frac"),
        ("store.lookups", "count"),
        ("serve.stage_cache_hit_ratio", "frac"),
        ("serve.stage_cache_lookups", "count"),
        ("serve.rejected", "count"),
        ("fleet.plan_us", "us"),
        ("fleet.local_grid_s", "s"),
        ("fleet.merge_us", "us"),
        ("json.decode_us", "us"),
        ("fleet.dispatched", "count"),
        ("fleet.rescheduled", "count"),
        ("fleet.probes", "count"),
        ("fleet.shard_failures", "count"),
        ("fleet.node_busy_frac", "frac"),
        ("trace.overhead_pct", "%"),
        ("trace.coverage_frac", "frac"),
    ] {
        v.push((name.into(), unit));
    }
    v
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Set-up repetitions per run; `setup_s` is their median. A single set-up
/// takes milliseconds and moves with every scheduling hiccup, so a run
/// takes many.
pub const SETUP_REPS: usize = 21;

/// Attempted/succeeded/failed/rejected operations of one phase of a run.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    pub name: &'static str,
    pub attempted: u64,
    pub succeeded: u64,
    pub failed: u64,
    pub rejected: u64,
}

impl Phase {
    pub fn new(name: &'static str) -> Phase {
        Phase {
            name,
            ..Phase::default()
        }
    }

    /// Count one operation that succeeded or failed.
    pub fn note(&mut self, ok: bool) {
        self.attempted += 1;
        if ok {
            self.succeeded += 1;
        } else {
            self.failed += 1;
        }
    }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Per-phase accounting; the measured phase (the last one) feeds the
    /// result line's `attempted`/`failed`.
    pub phases: Vec<Phase>,
    /// Output-check failures, each naming its cell or request.
    pub mismatches: Vec<String>,
    /// Operations that failed before producing output (errors, 429s).
    pub errors: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
    pub spans: spans::Spans,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Check one output against its pinned digest. A failed operation is
    /// recorded as an error, a wrong output as a mismatch naming `name`;
    /// the output is returned only when it passed.
    pub fn check<'a>(
        &mut self,
        pinned: &digest::Pinned,
        name: &str,
        result: &'a Result<String, String>,
    ) -> Option<&'a str> {
        match result {
            Err(e) => {
                self.errors.push(format!("{name}: {e}"));
                None
            }
            Ok(out) => match pinned.check(name, out.as_bytes()) {
                Ok(()) => Some(out),
                Err(e) => {
                    self.mismatches.push(e);
                    None
                }
            },
        }
    }

    /// Whether every operation succeeded and every output check passed.
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty() && self.errors.is_empty()
    }

    /// The end-to-end metrics shared by every workload. `latency_ms` holds
    /// one entry per attempted operation (`+inf` for a failed one, which
    /// misses any latency limit), `grids_s` the wall time of each full grid
    /// of `per_grid` operations. Throughput is taken at the median grid, so
    /// a burst of CPU stolen by the host during a few grids does not move
    /// it. A percentile the samples cannot support is NaN.
    pub fn end_to_end(
        &mut self,
        setup_s: &[f64],
        latency_ms: &[f64],
        per_grid: usize,
        grids_s: &[f64],
        peak_rss_mb: f64,
    ) {
        let ok = latency_ms.iter().filter(|v| v.is_finite()).count() as f64;
        let ok_frac = stats::ratio(ok, latency_ms.len() as f64);
        let grid_s = stats::median(grids_s);
        let tail = |q| stats::percentile(latency_ms, q).unwrap_or(f64::NAN);
        self.set("setup_s", stats::median(setup_s));
        self.set(
            "reports_per_s",
            stats::ratio(ok_frac * per_grid as f64, grid_s),
        );
        self.set("report_p50_ms", tail(0.5));
        self.set("report_p99_ms", tail(0.99));
        self.set("grid_s", grid_s);
        self.set("ok_frac", ok_frac);
        self.set("peak_rss_mb", peak_rss_mb);
    }
}

/// Peak resident set of this process so far (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn parse_args() -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag}"))?
            .to_string();
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(key, value);
    }
    let get = |k: &str| flags.get(k).ok_or_else(|| format!("missing --{k}"));
    let num = |k: &str| -> Result<f64, String> {
        get(k)?.parse::<f64>().map_err(|e| format!("--{k}: {e}"))
    };
    let args = Args {
        workload: get("workload")?.clone(),
        seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: num("seconds")?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    };
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err(format!("--seconds {} outside (0, 120]", args.seconds));
    }
    Ok(args)
}

/// `(steal, total)` jiffies of the `cpu` line of `/proc/stat`: CPU time the
/// host took from this machine, which slows every timing of a run alike.
fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal ...
    (
        fields.get(7).copied().unwrap_or(0),
        fields.iter().take(8).sum(),
    )
}

/// Provenance: commit (`unknown` outside a git checkout), core count, seed,
/// build profile, and the share of CPU time the host stole during the run.
fn provenance(args: &Args, started: (u64, u64)) -> String {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let (steal, total) = cpu_jiffies();
    let steal_frac = stats::ratio(
        steal.saturating_sub(started.0) as f64,
        total.saturating_sub(started.1) as f64,
    );
    format!(
        r#"{{"workload":"{}","seed":{},"seconds":{},"trace":{},"commit":"{commit}","nproc":{nproc},"profile":"{profile}","host_steal_frac":{steal_frac:.4}}}"#,
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    )
}

fn fmt_num(v: f64) -> String {
    format!("{v:?}")
}

fn run(args: &Args) -> Result<(), String> {
    let started = cpu_jiffies();
    let pinned = digest::Pinned::load();
    let out = match args.workload.as_str() {
        "ladder-cold" => ladder::run(args, &pinned)?,
        "serve-mix" => serve_mix::run(args)?,
        "fleet-grid" => fleet_grid::run(args, &pinned)?,
        other => return Err(format!("unknown workload {other}")),
    };
    for m in &out.mismatches {
        eprintln!("output check failed: {m}");
    }
    for e in &out.errors {
        eprintln!("operation failed: {e}");
    }
    // a traced run leaves its raw spans next to the build output
    let spans_path = format!("{SPANS_DIR}/spans-{}.jsonl", args.workload);
    if args.trace {
        std::fs::create_dir_all(SPANS_DIR)
            .and_then(|()| out.spans.write_jsonl(&spans_path))
            .map_err(|e| format!("writing {spans_path}: {e}"))?;
    }
    let correct = out.correct();

    let names: Vec<(String, &str)> = if args.trace {
        per_layer_catalog()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    let mut metrics = Vec::new();
    for (name, unit) in &names {
        let value = match out.metrics.get(name) {
            Some(&v) => v,
            None if args.trace => 0.0,
            None => return Err(format!("workload did not report {name}")),
        };
        // a run whose operations failed still prints its result line,
        // marked incorrect, with `null` where failures left no value
        let value = match (value.is_finite(), correct) {
            (true, _) => fmt_num(value),
            (false, false) => "null".to_string(),
            (false, true) => return Err(format!("{name} is not finite: {value}")),
        };
        metrics.push(format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#));
    }

    let measured = out.phases.last().cloned().unwrap_or_default();
    let phases: Vec<String> = out
        .phases
        .iter()
        .map(|p| {
            format!(
                r#"{{"phase":"{}","attempted":{},"succeeded":{},"failed":{},"rejected_429":{}}}"#,
                p.name, p.attempted, p.succeeded, p.failed, p.rejected
            )
        })
        .collect();
    let quoted = |v: &[String]| {
        v.iter()
            .map(|m| serde_json::Value::from(m.as_str()).to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    let all: Vec<String> = out
        .metrics
        .iter()
        .filter(|(_, v)| v.is_finite())
        .map(|(k, v)| format!(r#""{k}":{}"#, fmt_num(*v)))
        .collect();
    // detail line (provenance, per-phase accounting, every metric computed)
    println!(
        r#"{{"provenance":{},"spans":{},"phases":[{}],"mismatches":[{}],"errors":[{}],"all_metrics":{{{}}}}}"#,
        provenance(args, started),
        if args.trace {
            format!("\"{spans_path}\"")
        } else {
            "null".to_string()
        },
        phases.join(","),
        quoted(&out.mismatches),
        quoted(&out.errors),
        all.join(",")
    );
    // result line
    println!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        correct,
        measured.attempted,
        measured.failed,
        metrics.join(",")
    );
    Ok(())
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--emit-digests") {
        return match ladder::emit_digests().and_then(|()| fleet_grid::emit_digest()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <ladder-cold|serve-mix|fleet-grid> --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// metrics this binary prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_catalogs() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            v.get(key)
                .and_then(|a| a.as_array())
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(|x| x.as_str()).expect(k).to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer_catalog()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), layers);
    }
}
