//! One profile report, cold, exactly as `proof profile --json` makes it —
//! either through `run_pipeline` or stage by stage inside spans — plus the
//! per-layer metrics those spans aggregate into.

use crate::spans::Spans;
use crate::Outcome;
use proof_core::{
    run_pipeline, stage_assemble, stage_builtin_profile, stage_compile, stage_map, stage_metrics,
    MetricMode, ProofError,
};
use proof_hw::Platform;
use proof_models::ModelId;
use proof_runtime::{BackendFlavor, SessionConfig};

pub const STAGES: [&str; 5] = ["compile", "builtin_profile", "map", "metrics", "assemble"];
pub const BACKENDS: [&str; 3] = ["trt", "ort", "ov"];

/// Span names of the layers a traced report passes through, in order.
pub const REPORT_SPANS: [&str; 7] = [
    "models.build",
    "core.compile",
    "core.builtin_profile",
    "core.map",
    "core.metrics",
    "core.assemble",
    "json.encode",
];

/// Everything one cold report depends on.
#[derive(Clone)]
pub struct ReportSpec {
    pub model: ModelId,
    pub batch: u64,
    /// Short backend name, one of [`BACKENDS`]; tags the spans.
    pub backend: &'static str,
    pub flavor: BackendFlavor,
    pub platform: Platform,
    pub cfg: SessionConfig,
    pub mode: MetricMode,
}

pub fn backend_tag(flavor: BackendFlavor) -> &'static str {
    match flavor {
        BackendFlavor::TrtLike => "trt",
        BackendFlavor::OrtLike => "ort",
        BackendFlavor::OvLike => "ov",
    }
}

impl ReportSpec {
    /// Build the graph, run all five stages, encode the report.
    pub fn run(&self) -> Result<String, ProofError> {
        let g = self.model.build(self.batch);
        run_pipeline(&g, &self.platform, self.flavor, &self.cfg, self.mode)?.try_to_json()
    }

    /// [`ReportSpec::run`] with each layer call inside a span tagged with
    /// the backend; the bytes are the same.
    pub fn run_traced(&self, spans: &mut Spans, op: u64) -> Result<String, ProofError> {
        let tag = self.backend;
        let g = spans.time("models.build", tag, op, || self.model.build(self.batch));
        let c = spans.time("core.compile", tag, op, || {
            stage_compile(&g, &self.platform, self.flavor, &self.cfg)
        })?;
        let p = spans.time("core.builtin_profile", tag, op, || {
            stage_builtin_profile(&c)
        });
        let m = spans.time("core.map", tag, op, || {
            stage_map(&g, &p, self.flavor, &self.cfg)
        });
        let x = spans.time("core.metrics", tag, op, || stage_metrics(&c, &m, self.mode));
        let r = spans.time("core.assemble", tag, op, || stage_assemble(&c, &p, &m, &x));
        spans.time("json.encode", tag, op, || r.try_to_json())
    }
}

/// Per-report means of build, each stage (overall and per backend) and
/// encode, from the spans of `reports` traced reports.
pub fn report_metrics(out: &mut Outcome, reports: usize, report_bytes: f64) {
    let per_report = |s: &Spans, name: &str, tag: Option<&str>| {
        let n = match tag {
            Some(t) => s.count("json.encode", Some(t)),
            None => reports,
        };
        crate::stats::ratio(s.sum_us(name, tag), n as f64)
    };
    let mut set = Vec::new();
    set.push((
        "models.build_us".to_string(),
        per_report(&out.spans, "models.build", None),
    ));
    for stage in STAGES {
        let span = format!("core.{stage}");
        set.push((format!("{span}_us"), per_report(&out.spans, &span, None)));
        for b in BACKENDS {
            set.push((
                format!("{span}_us.{b}"),
                per_report(&out.spans, &span, Some(b)),
            ));
        }
    }
    set.push((
        "json.encode_us".to_string(),
        per_report(&out.spans, "json.encode", None),
    ));
    set.push((
        "json.report_bytes".to_string(),
        crate::stats::ratio(report_bytes, reports as f64),
    ));
    for (k, v) in set {
        out.set(k, v);
    }
}
