//! The daenerys end-to-end benchmark.
//!
//! Three closed-loop workloads — `edit-replay`, `f1-cold` and
//! `daemon-repeat` — each timed from source text (or request bytes) in
//! to verdicts out, every verdict checked against an oracle the
//! verifier does not compute. `--trace 1` runs the same units twice
//! more, once through the product path and once through the public
//! layer entry points with a span around each call, and reports where
//! the time went. See `README.md` beside this crate for the workloads,
//! the metrics and which layer should move which end-to-end number.

pub mod daemon_repeat;
pub mod edit_replay;
pub mod f1_cold;
pub mod pipeline;
pub mod report;
pub mod trace;
pub mod util;

use pipeline::Counts;
use report::Report;
use std::path::PathBuf;
use trace::{Tracer, UNIT};

/// The end-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: &[&str] = &[
    "latency_p50_ms",
    "latency_p90_ms",
    "throughput_per_s",
    "peak_rss_mb",
    "setup_s",
];

/// The per-layer metrics, printed with `--trace 1` (every workload
/// reports every name; a layer a workload never reaches reads 0).
pub const PER_LAYER: &[&str] = &[
    "parser.ms",
    "parser.mb_per_s",
    "parser.scale_ratio",
    "wf.ms",
    "wf.scale_ratio",
    "fingerprint.ms",
    "fingerprint.scale_ratio",
    "depgraph.ms",
    "depgraph.scale_ratio",
    "depgraph.cone_methods",
    "depgraph.cone_precision",
    "store.open_ms",
    "store.lookup_us",
    "store.lookups",
    "store.append_us",
    "store.appends",
    "store.persist_graph_ms",
    "store.hit_ratio",
    "store.dead_records",
    "store.bytes",
    "exec.ms",
    "exec.methods",
    "exec.obligations",
    "smt.queries",
    "smt.cache_hit_ratio",
    "smt.decisions",
    "smt.conflicts",
    "smt.propagations",
    "smt.theory_props",
    "smt.learned_clauses",
    "sym.interned_terms",
    "protocol.encode_us",
    "protocol.decode_us",
    "protocol.request_bytes",
    "protocol.response_bytes",
    "client.connect_us",
    "admission.refused_ratio",
    "admission.max_in_flight",
    "server.sessions_per_request",
    "server.verify_ms",
    "server.wait_ms",
    "unattributed_ms",
    "trace.overhead_ratio",
    "trace.units",
];

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["edit-replay", "f1-cold", "daemon-repeat"];

/// How large a run's inputs are.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's sizes.
    Full,
    /// Small inputs for the benchmark's own tests.
    Tiny,
}

/// One run's options.
#[derive(Clone, Debug)]
pub struct Options {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measuring window of the untraced run, seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Input sizes.
    pub size: Size,
    /// Directory for stores, span files and reports (created; emptied
    /// per run).
    pub work_dir: PathBuf,
}

/// Runs one workload and returns its report.
pub fn run(opts: &Options) -> Report {
    let mut report = match opts.workload.as_str() {
        "edit-replay" => edit_replay::run(opts),
        "f1-cold" => f1_cold::run(opts),
        "daemon-repeat" => daemon_repeat::run(opts),
        other => {
            let mut r = Report::default();
            r.problem(format!("unknown workload {:?}", other));
            return r;
        }
    };
    if opts.trace {
        for name in PER_LAYER {
            if report.get(name).is_none() {
                report.put(name, 0.0, unit_of(name), 0);
            }
        }
    }
    report
}

/// The unit a metric name is declared with.
pub fn unit_of(name: &str) -> &'static str {
    match name {
        "setup_s" => "s",
        "throughput_per_s" => "1/s",
        "peak_rss_mb" => "MiB",
        "parser.mb_per_s" => "MB/s",
        "store.bytes" | "protocol.request_bytes" | "protocol.response_bytes" => "bytes",
        n if n.ends_with("_ms") || n.ends_with(".ms") => "ms",
        n if n.ends_with("_us") => "us",
        n if n.ends_with("_ratio") || n.ends_with("precision") || n.ends_with("per_request") => {
            "ratio"
        }
        _ => "count",
    }
}

/// The end-to-end metrics of a measuring window: latency quantiles
/// over `latencies_ms`, throughput over `busy_s` seconds, and peak
/// memory; `setup_s` is the median of `setups_s`.
pub fn put_end_to_end(r: &mut Report, latencies_ms: &[f64], busy_s: f64, setups_s: &[f64]) {
    let n = latencies_ms.len();
    r.put("latency_p50_ms", util::median(latencies_ms), "ms", n);
    r.put("latency_p90_ms", util::quantile(latencies_ms, 0.9), "ms", n);
    r.put("throughput_per_s", n as f64 / busy_s, "1/s", n);
    r.put(
        "failed_ratio",
        r.failed as f64 / r.attempted.max(1) as f64,
        "ratio",
        r.attempted as usize,
    );
    r.put("peak_rss_mb", util::peak_rss_mb(), "MiB", 1);
    r.put("setup_s", util::median(setups_s), "s", setups_s.len());
}

/// Per-layer metrics from the traced pass's spans and counts.
///
/// Times are per-unit means, so the layer figures and
/// `unattributed_ms` add up to the mean unit wall time; counts are
/// totals over the pass. `truth_cone` is the oracle's total of methods
/// that had to re-verify, the numerator of `depgraph.cone_precision`.
pub fn put_layers(r: &mut Report, tracer: &Tracer, counts: &Counts, truth_cone: u64) {
    if let Err(e) = tracer.validate() {
        r.problem(format!("span tree: {}", e));
    }
    let units = tracer.by_unit();
    let n = units.len().max(1) as f64;
    let mut wall_ns = 0u64;
    let mut layer_ns: std::collections::BTreeMap<&str, u64> = Default::default();
    let mut span_ns: std::collections::BTreeMap<&str, u64> = Default::default();
    for (id, u) in &units {
        if u.reconciled_ns() != u.wall_ns {
            r.problem(format!("unit {}: layers do not add up to wall time", id));
        }
        wall_ns += u.wall_ns;
        for (l, ns) in &u.self_ns {
            *layer_ns.entry(l).or_default() += ns;
        }
        for (s, ns) in &u.span_ns {
            *span_ns.entry(s).or_default() += ns;
        }
    }
    let per_unit_ms = |ns: u64| ns as f64 / 1e6 / n;
    let layer = |l: &str| layer_ns.get(l).copied().unwrap_or(0);
    let span = |s: &str| span_ns.get(s).copied().unwrap_or(0);
    let c = counts;
    let k = units.len();
    r.put("parser.ms", per_unit_ms(layer("parser")), "ms", k);
    let parse_s = layer("parser") as f64 / 1e9;
    r.put(
        "parser.mb_per_s",
        c.parse_bytes as f64 / 1e6 / parse_s.max(1e-12),
        "MB/s",
        k,
    );
    r.put("wf.ms", per_unit_ms(layer("wf")), "ms", k);
    r.put("fingerprint.ms", per_unit_ms(layer("fingerprint")), "ms", k);
    r.put("depgraph.ms", per_unit_ms(layer("depgraph")), "ms", k);
    r.put("depgraph.cone_methods", c.cone as f64, "count", k);
    let precision = if c.cone == 0 {
        if truth_cone == 0 {
            1.0
        } else {
            0.0
        }
    } else {
        truth_cone as f64 / c.cone as f64
    };
    r.put("depgraph.cone_precision", precision, "ratio", k);
    if span("store.open") > 0 {
        r.put("store.open_ms", per_unit_ms(span("store.open")), "ms", k);
    }
    r.put(
        "store.lookup_us",
        span("store.lookup") as f64 / 1e3 / c.lookups.max(1) as f64,
        "us",
        c.lookups as usize,
    );
    r.put("store.lookups", c.lookups as f64, "count", k);
    r.put(
        "store.append_us",
        span("store.append") as f64 / 1e3 / c.appends.max(1) as f64,
        "us",
        c.appends as usize,
    );
    r.put("store.appends", c.appends as f64, "count", k);
    r.put(
        "store.persist_graph_ms",
        per_unit_ms(span("store.persist_graph")),
        "ms",
        k,
    );
    r.put(
        "store.hit_ratio",
        c.hits as f64 / (c.hits + c.misses + c.dirty_transitive).max(1) as f64,
        "ratio",
        c.lookups as usize,
    );
    r.put("store.ms", per_unit_ms(layer("store")), "ms", k);
    r.put("exec.ms", per_unit_ms(layer("exec")), "ms", k);
    r.put("exec.methods", c.cone as f64, "count", k);
    r.put("exec.obligations", c.obligations as f64, "count", k);
    r.put("smt.queries", c.smt_queries as f64, "count", k);
    r.put(
        "smt.cache_hit_ratio",
        c.smt_cache_hits as f64 / (c.smt_cache_hits + c.smt_cache_misses).max(1) as f64,
        "ratio",
        k,
    );
    r.put("smt.decisions", c.smt_decisions as f64, "count", k);
    r.put("smt.conflicts", c.smt_conflicts as f64, "count", k);
    r.put("smt.propagations", c.smt_propagations as f64, "count", k);
    r.put("smt.theory_props", c.smt_theory_props as f64, "count", k);
    r.put("smt.learned_clauses", c.smt_learned as f64, "count", k);
    r.put("sym.interned_terms", c.interned_terms as f64, "count", k);
    r.put("unattributed_ms", per_unit_ms(layer(UNIT)), "ms", k);
    r.put("trace.units", k as f64, "count", k);
    r.put("trace.wall_ms", per_unit_ms(wall_ns), "ms", k);
}

/// Compares the work counts of two passes over the same units and
/// records a problem for every field that differs.
pub fn check_repeat(r: &mut Report, what: &str, a: &Counts, b: &Counts) {
    if a != b {
        r.problem(format!(
            "{}: work counts do not repeat across two runs of one seed: {:?} vs {:?}",
            what, a, b
        ));
    }
}

/// The run context every result carries: code identity, machine and
/// inputs.
pub fn context(opts: &Options, sizes: &str) -> Vec<(String, String)> {
    let commit = util::command_line("git", &["rev-parse", "--short=12", "HEAD"])
        .unwrap_or_else(|| "none (not a git checkout)".to_string());
    let roots: Vec<PathBuf> = ["crates", "e2e_bench"].iter().map(PathBuf::from).collect();
    vec![
        ("workload".into(), opts.workload.clone()),
        ("commit".into(), commit),
        (
            "source_fnv64".into(),
            util::source_hash(&roots).unwrap_or_else(|| "none".into()),
        ),
        (
            "nproc".into(),
            std::thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get)
                .to_string(),
        ),
        (
            "rustc".into(),
            util::command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
        ),
        ("seed".into(), opts.seed.to_string()),
        ("seconds".into(), opts.seconds.to_string()),
        ("trace".into(), u8::from(opts.trace).to_string()),
        ("sizes".into(), sizes.to_string()),
    ]
}
