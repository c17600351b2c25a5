//! The repository benchmark. One command runs one named workload, checks
//! every answer, and prints each metric by name and unit; its last line is
//! one JSON object with the result.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload fig6-adapt|serve-fresh|cluster-repeat \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` is a separate
//! run that records spans around the calls into each layer and reports the
//! per-layer metrics. `BENCHMARK.json` gates `fig6-adapt` and
//! `serve-fresh`; `cluster-repeat` runs by hand, and the traced
//! `serve-fresh` run includes it for the `cluster` layer. See
//! `benchmark/README.md` for the workloads, the metrics and which layer
//! should move which metric.

mod fig6;
mod pipeline;
mod serving;
mod stats;
mod trace;

use nrpm_core::adaptive::AdaptiveOptions;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// End-to-end metrics, printed by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("alt_path_ms", "ms"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`. A layer
/// a workload does not exercise reads 0. `*_ms` values are self time per
/// workload operation (a kernel in fig6-adapt, a request in the serve
/// workloads).
const PER_LAYER: [(&str, &str); 37] = [
    ("core.sanitize_ms", "ms"),
    ("core.noise_ms", "ms"),
    ("core.adapt_ms", "ms"),
    ("synth.corpus_ms", "ms"),
    ("synth.corpus_samples", "count"),
    ("core.encode_ms", "ms"),
    ("nn.train_ms", "ms"),
    ("nn.train_rows", "count"),
    ("nn.train_gflop", "GFLOP"),
    ("linalg.train_gflops", "GFLOP/s"),
    ("nn.forward_ms", "ms"),
    ("nn.forward_rows", "count"),
    ("extrap.candidates_ms", "ms"),
    ("extrap.regression_ms", "ms"),
    ("core.regression_share", "frac"),
    ("core.dnn_win_share", "frac"),
    ("serve.parse_ms", "ms"),
    ("core.fingerprint_ms", "ms"),
    ("registry.cache_insert_ms", "ms"),
    ("registry.cache_get_ms", "ms"),
    ("registry.compactions", "count"),
    ("serve.serialize_ms", "ms"),
    ("serve.rtt_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.accept_ms", "ms"),
    ("cluster.route_ms", "ms"),
    ("cluster.affinity", "frac"),
    ("serve.shed", "count"),
    ("serve.queue_depth_hwm", "count"),
    ("serve.batched_rows", "count"),
    ("serve.worker_restarts", "count"),
    ("cluster.failovers", "count"),
    ("registry.cache_hit_ratio", "frac"),
    ("registry.evictions", "count"),
    ("bench.gen_late_ms_p99", "ms"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.unexplained_pct", "%"),
];

/// Share of the untraced end-to-end time that the per-layer self times
/// (plus measured wire time) may leave unexplained.
pub const RECONCILE_SHARE: f64 = 0.25;

/// Scratch directory, relative to the checkout the benchmark runs in.
const OUT_DIR: &str = ".bench_run";

/// Times the benchmark repeats its set-up; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

/// Pretraining budget of the benchmark's network: the compact
/// architecture, trained on 200 samples per class for 5 epochs, one
/// thread. Results are identical at every thread count; one thread keeps
/// the timings steady on a shared two-core machine.
pub fn modeling_options() -> AdaptiveOptions {
    let mut opts = AdaptiveOptions::default();
    opts.dnn.pretrain_spec.samples_per_class = 200;
    opts.dnn.pretrain_epochs = 5;
    opts.dnn.train_threads = 1;
    opts
}

pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory inside the checkout (caches, trace files).
    pub out_dir: PathBuf,
    pub workload: String,
}

/// What a workload run produced.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Answers that differed from their reference (a subset of `failed`).
    pub wrong: u64,
    pub metrics: BTreeMap<String, f64>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }
}

/// Runs `setup` [`SETUP_REPEATS`] times, tearing down all but the last
/// instance, and returns the median set-up time with the kept instance.
pub fn measure_setup<T>(mut setup: impl FnMut() -> T, mut teardown: impl FnMut(T)) -> (f64, T) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for i in 0..SETUP_REPEATS {
        let started = Instant::now();
        let instance = setup();
        times.push(started.elapsed().as_secs_f64());
        if i + 1 < SETUP_REPEATS {
            teardown(instance);
        } else {
            kept = Some(instance);
        }
    }
    (stats::median(&times), kept.expect("at least one set-up"))
}

/// Self time per span name, normalised per workload operation.
pub struct LayerTotals {
    totals: BTreeMap<&'static str, (u64, usize)>,
    per: f64,
}

impl LayerTotals {
    pub fn from_spans(spans: &[trace::Span], operations: f64) -> LayerTotals {
        LayerTotals {
            totals: trace::self_time_by_name(spans),
            per: operations.max(1.0),
        }
    }

    /// Total self time of spans named `name`, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.totals
            .get(name)
            .map_or(0.0, |(ns, _)| *ns as f64 / 1e6)
    }

    /// Sets `<name>_ms` (self time per operation) for every span name.
    pub fn publish(&self, report: &mut Report) {
        for name in self.totals.keys() {
            report.set(&format!("{name}_ms"), self.total_ms(name) / self.per);
        }
    }
}

pub fn write_trace(cfg: &RunConfig, tracer: &trace::Tracer) {
    let path = cfg.out_dir.join(format!("trace-{}.jsonl", cfg.workload));
    match tracer.write_jsonl(&path) {
        Ok(()) => println!(
            "  {} spans written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => println!("  could not write spans to {}: {e}", path.display()),
    }
}

/// Where the result came from: commit (when the checkout is a git
/// repository), a hash of the sources otherwise, the machine and the build.
fn provenance(cfg: &RunConfig) -> String {
    // Only a repository rooted at the working directory describes these
    // sources; an enclosing repository would name some other commit.
    let cwd = std::env::current_dir()
        .ok()
        .and_then(|d| d.canonicalize().ok());
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--show-toplevel", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            let out = String::from_utf8_lossy(&o.stdout).into_owned();
            let mut lines = out.lines();
            let top = std::path::Path::new(lines.next()?).canonicalize().ok()?;
            (Some(top) == cwd).then(|| lines.next().unwrap_or("").to_string())
        })
        .unwrap_or_else(|| "none".into());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "workload={} seed={} seconds={} trace={} commit={commit} sources={:016x} nproc={cores} \
         isa={:?} tuning={:?} profile={profile}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        source_hash(),
        nrpm_linalg::kernel_isa(),
        nrpm_linalg::kernel_tuning(),
    )
}

/// FNV hash over the Rust sources and manifests the benchmark builds from.
fn source_hash() -> u64 {
    fn walk(dir: &std::path::Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "vendor", "benchmark/src"] {
        walk(std::path::Path::new(root), &mut files);
    }
    files.sort();
    let mut h = nrpm_core::fingerprint::Fnv1a64::new();
    for file in files {
        h.write(file.to_string_lossy().as_bytes());
        h.write(&std::fs::read(&file).unwrap_or_default());
    }
    h.finish()
}

fn usage(message: &str) -> ! {
    eprintln!("nrpm-benchmark: {message}");
    eprintln!(
        "usage: nrpm-benchmark --workload fig6-adapt|serve-fresh|cluster-repeat \
         --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn parse_args() -> RunConfig {
    let mut args = std::env::args().skip(1);
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    while let Some(flag) = args.next() {
        let Some(name) = flag.strip_prefix("--") else {
            usage(&format!("unexpected argument `{flag}`"));
        };
        if !["workload", "seed", "seconds", "trace"].contains(&name) {
            usage(&format!("unknown flag `{flag}`"));
        }
        let Some(value) = args.next() else {
            usage(&format!("`{flag}` needs a value"));
        };
        flags.insert(name.to_string(), value);
    }
    let get = |name: &str| {
        flags
            .get(name)
            .cloned()
            .unwrap_or_else(|| usage(&format!("missing --{name}")))
    };
    let workload = get("workload");
    let seed = get("seed")
        .parse()
        .unwrap_or_else(|_| usage("--seed must be a non-negative integer"));
    let seconds: f64 = get("seconds")
        .parse()
        .ok()
        .filter(|s: &f64| *s > 0.0)
        .unwrap_or_else(|| usage("--seconds must be a positive number"));
    let trace = match get("trace").as_str() {
        "0" => false,
        "1" => true,
        _ => usage("--trace must be 0 or 1"),
    };
    RunConfig {
        seed,
        seconds,
        trace,
        out_dir: PathBuf::from(OUT_DIR),
        workload,
    }
}

fn main() {
    let cfg = parse_args();
    let run: fn(&RunConfig) -> Report = match cfg.workload.as_str() {
        "fig6-adapt" => fig6::run,
        "serve-fresh" => serving::run_serve_fresh,
        "cluster-repeat" => serving::run_cluster_repeat,
        other => usage(&format!("unknown workload `{other}`")),
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.out_dir) {
        usage(&format!("cannot create {}: {e}", cfg.out_dir.display()));
    }
    println!("provenance: {}", provenance(&cfg));
    let report = run(&cfg);

    let list: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(list.len());
    for (name, unit) in list {
        let value = match report.metrics.get(*name) {
            Some(v) => *v,
            None if cfg.trace => 0.0,
            None => panic!("workload {} did not measure {name}", cfg.workload),
        };
        assert!(value.is_finite(), "{name} is not finite: {value}");
        println!("metric {name} = {value} {unit}");
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "failed_frac = {failed_frac} ({} of {} operations; {} wrong answers)",
        report.failed, report.attempted, report.wrong
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.wrong == 0 && report.failed == 0,
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_seq)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc: Value = serde_json::from_str(&text).expect("valid JSON");
        let own = |list: &[(&str, &str)]| {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(listed(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), own(&PER_LAYER));
    }
}
