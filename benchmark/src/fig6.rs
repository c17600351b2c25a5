//! `fig6-adapt`: the paper's Fig. 6, offline and closed loop.
//!
//! Every performance-relevant kernel of the three case studies is modeled
//! by a fresh clone of the pretrained adaptive modeler with domain
//! adaptation on, and by the regression modeler. Passes repeat for the run
//! length; every pass must reproduce the first pass's models exactly.

use crate::pipeline::{self, Counts};
use crate::stats::{median, quantile, Dist};
use crate::trace::Tracer;
use crate::{measure_setup, modeling_options, Report, RunConfig, RECONCILE_SHARE};
use nrpm_apps::{all_case_studies, KernelCampaign};
use nrpm_core::adaptive::AdaptiveModeler;
use nrpm_extrap::RegressionModeler;
use serde::{Serialize, Value};
use std::time::Instant;

/// A kernel counts as accurately modeled when its lead-order exponents
/// are within this distance of the ground truth (the paper's accuracy
/// bucket).
const LEAD_DISTANCE_OK: f64 = 0.25;

/// The regression path's search cost depends on the data: one draw of the
/// case studies costs up to twice another (its Kripke kernels take 0.1 to
/// 0.5 s each). So after each adaptive pass the regression modeler models
/// fresh draws derived from the seed until its total time has caught up
/// with the adaptive path's, and its cost is averaged over all of them;
/// the adaptive path's cost does not depend on the data and stays on the
/// seed's own kernels. Both paths thus get half of the run, interleaved,
/// and host speed drifts reach both alike.
/// The gated tail of the per-kernel adaptive time. A run makes two or
/// three passes, so the highest percentile with ten samples beyond it
/// would be p80 in one run and p87 in the next; p87 also falls at the gap
/// between Kripke's LTimes (about 240 ms) and Scattering (about 300 ms)
/// kernels. p80 has ten samples beyond it after two passes and sits among
/// kernels of similar cost.
const TAIL_QUANTILE: f64 = 0.8;

fn relevant_kernels(seed: u64) -> Vec<KernelCampaign> {
    all_case_studies(seed)
        .into_iter()
        .flat_map(|study| study.relevant_kernels().cloned().collect::<Vec<_>>())
        .collect()
}

pub fn run(cfg: &RunConfig) -> Report {
    let (setup_s, pretrained) =
        measure_setup(|| AdaptiveModeler::pretrained(modeling_options()), drop);
    let kernels = relevant_kernels(cfg.seed);
    println!(
        "fig6-adapt: {} kernels, pretraining median {setup_s:.4} s",
        kernels.len()
    );
    let mut report = Report::default();
    report.set("setup_s", setup_s);
    if cfg.trace {
        traced(cfg, &pretrained, &kernels, &mut report);
    } else {
        untraced(cfg, &pretrained, &kernels, &mut report);
    }
    report
}

/// One adaptive pass: per kernel, its wall time and outcome (as a value,
/// for exact comparison across passes).
fn adaptive_pass(
    pretrained: &AdaptiveModeler,
    kernels: &[KernelCampaign],
    report: &mut Report,
) -> (Vec<f64>, Vec<Option<Value>>) {
    let mut times = Vec::with_capacity(kernels.len());
    let mut outcomes = Vec::with_capacity(kernels.len());
    for kernel in kernels {
        let started = Instant::now();
        // A fresh clone per kernel: adaptation is part of the measured cost
        // and must not leak from one kernel into the next.
        let mut modeler = pretrained.clone();
        let outcome = modeler.model(&kernel.set);
        times.push(started.elapsed().as_secs_f64() * 1e3);
        report.attempted += 1;
        match outcome {
            Ok(o) => outcomes.push(Some(o.to_value())),
            Err(e) => {
                println!("  adaptive modeling of {} failed: {e}", kernel.name);
                report.failed += 1;
                outcomes.push(None);
            }
        }
    }
    (times, outcomes)
}

fn untraced(
    cfg: &RunConfig,
    pretrained: &AdaptiveModeler,
    kernels: &[KernelCampaign],
    report: &mut Report,
) {
    let regression = RegressionModeler::default();
    let started = Instant::now();
    let mut adaptive_ms: Vec<f64> = Vec::new();
    let mut regression_ms = 0.0;
    let mut regression_kernels = 0usize;
    let mut draw = 0u64;
    let mut first: Option<Vec<Option<Value>>> = None;
    let mut passes = 0usize;
    let mut pass_s = 0.0f64;
    // At least two passes, so the identity check across passes runs; after
    // that, only passes that should end within the run length.
    while passes < 2 || started.elapsed().as_secs_f64() + pass_s <= cfg.seconds {
        let pass_started = Instant::now();
        let (times, outcomes) = adaptive_pass(pretrained, kernels, report);
        adaptive_ms.extend(times);
        match &first {
            None => first = Some(outcomes),
            Some(reference) => {
                for ((kernel, a), b) in kernels.iter().zip(reference).zip(&outcomes) {
                    if a.is_some() && a != b {
                        println!("  {}: model differs between passes", kernel.name);
                        report.failed += 1;
                        report.wrong += 1;
                    }
                }
            }
        }

        let adaptive_total: f64 = adaptive_ms.iter().sum();
        while regression_ms < adaptive_total {
            // Draw 0 is the seed's own kernels, so the Fig. 6 comparison
            // covers the same kernels on both paths.
            let draw_kernels = match draw {
                0 => kernels.to_vec(),
                d => relevant_kernels(cfg.seed ^ nrpm_core::fingerprint::mix64(d)),
            };
            draw += 1;
            let draw_started = Instant::now();
            for kernel in &draw_kernels {
                report.attempted += 1;
                if let Err(e) = regression.model(&kernel.set) {
                    println!("  regression modeling of {} failed: {e}", kernel.name);
                    report.failed += 1;
                }
            }
            regression_ms += draw_started.elapsed().as_secs_f64() * 1e3;
            regression_kernels += draw_kernels.len();
        }
        passes += 1;
        pass_s = pass_started.elapsed().as_secs_f64();
    }

    let outcomes = first.expect("at least one pass ran");
    let (accurate, errors) = accuracy(kernels, &outcomes);
    let adaptive_total_s = adaptive_ms.iter().sum::<f64>() / 1e3;
    let kernels_per_pass = kernels.len() as f64;
    let adaptive = Dist::of(&adaptive_ms);
    let regression_per_kernel = regression_ms / regression_kernels as f64;
    println!("  passes: {passes} (adaptive + regression each)");
    println!(
        "  adapt_kernels_per_s: {:.4} 1/s ({} kernels in {adaptive_total_s:.3} s)",
        adaptive_ms.len() as f64 / adaptive_total_s,
        adaptive_ms.len()
    );
    println!(
        "  regression_kernels_per_s: {:.4} 1/s ({regression_kernels} kernels of {draw} draws)",
        1e3 / regression_per_kernel
    );
    let tail = quantile(&adaptive_ms, TAIL_QUANTILE);
    println!("  adaptive per-kernel latency: {}", adaptive.describe("ms"));
    println!(
        "  gated tail: p{:.0} {tail:.4} ms (n={})",
        TAIL_QUANTILE * 100.0,
        adaptive.n
    );
    println!(
        "  adapt_lead_acc: {:.4} frac ({accurate} of {} kernels within {LEAD_DISTANCE_OK} lead distance)",
        accurate as f64 / kernels_per_pass,
        kernels.len()
    );
    println!(
        "  adapt_eval_error_pct: {:.4} % (median over {} kernels at P+)",
        median(&errors),
        errors.len()
    );
    println!(
        "  slowdown adaptive / regression: {:.2}x (mean time per kernel)",
        1e3 * adaptive_total_s / adaptive_ms.len() as f64 / regression_per_kernel
    );
    report.set(
        "throughput_per_s",
        adaptive_ms.len() as f64 / adaptive_total_s,
    );
    report.set("latency_p50_ms", adaptive.p50);
    report.set("latency_tail_ms", tail);
    report.set("alt_path_ms", regression_per_kernel);
}

/// Lead-distance hits and held-out relative errors (percent) of the
/// adaptive models.
fn accuracy(kernels: &[KernelCampaign], outcomes: &[Option<Value>]) -> (usize, Vec<f64>) {
    let mut accurate = 0;
    let mut errors = Vec::new();
    for (kernel, outcome) in kernels.iter().zip(outcomes) {
        let Some(outcome) = outcome else { continue };
        let outcome =
            <nrpm_core::adaptive::AdaptiveOutcome as serde::Deserialize>::from_value(outcome)
                .expect("outcome values round-trip");
        let model = &outcome.result.model;
        if model.lead_distance(&kernel.truth) <= LEAD_DISTANCE_OK {
            accurate += 1;
        }
        let predicted = model.evaluate(&kernel.eval_point);
        errors.push(100.0 * (predicted - kernel.eval_measured).abs() / kernel.eval_measured);
    }
    (accurate, errors)
}

/// The traced run: one untraced pass for reference, then the same kernels
/// through the composed pipeline with a span per layer call, plus a
/// same-size replay of adaptation's corpus / encode / train steps.
fn traced(
    cfg: &RunConfig,
    pretrained: &AdaptiveModeler,
    kernels: &[KernelCampaign],
    report: &mut Report,
) {
    let (untraced_ms, untraced_outcomes) = adaptive_pass(pretrained, kernels, report);
    let untraced_total: f64 = untraced_ms.iter().sum();

    let opts = pretrained.options().clone();
    let mut tr = Tracer::new(true);
    let mut counts = Counts::default();
    let mut composed_ms = 0.0;
    for (k, (kernel, expected)) in kernels.iter().zip(&untraced_outcomes).enumerate() {
        let req = k as u64;
        let started = Instant::now();
        let root = tr.begin("kernel", None, req);
        let mut dnn = pretrained.dnn().clone();
        let outcome = pipeline::prepare(&opts, &kernel.set, &mut tr, root, req).and_then(|p| {
            let range = p.noise_range();
            tr.span("core.adapt", root, req, || {
                dnn.adapt_to_task(p.set(), range)
            })?;
            let dnn_result = pipeline::dnn_model(&dnn, &[p.set()], &mut tr, root, req, &mut counts)
                .pop()
                .expect("one result per set");
            pipeline::finish(&opts, p, dnn_result, &mut tr, root, req, &mut counts)
        });
        tr.end(root);
        composed_ms += started.elapsed().as_secs_f64() * 1e3;
        report.attempted += 1;
        if outcome.as_ref().ok().map(Serialize::to_value).as_ref() != expected.as_ref() {
            println!(
                "  {}: composed pipeline differs from AdaptiveModeler::model",
                kernel.name
            );
            report.failed += 1;
            report.wrong += 1;
        }

        // Same-size replay of adaptation's steps, outside the composed
        // pipeline so it does not count towards its time.
        let parts = tr.begin("adapt.replay", None, req);
        if let Ok(p) = pipeline::prepare(&opts, &kernel.set, &mut Tracer::new(false), None, req) {
            pipeline::replay_adaptation(
                pretrained.dnn(),
                &p,
                cfg.seed ^ req,
                &mut tr,
                parts,
                req,
                &mut counts,
            );
        }
        tr.end(parts);
    }

    let per_kernel = kernels.len() as f64;
    let layers = crate::LayerTotals::from_spans(tr.spans(), per_kernel);
    let explained: f64 = [
        "core.sanitize",
        "core.noise",
        "core.adapt",
        "nn.forward",
        "extrap.candidates",
        "extrap.regression",
    ]
    .iter()
    .map(|name| layers.total_ms(name))
    .sum();
    let unexplained_pct = 100.0 * (untraced_total - explained).abs() / untraced_total;
    let overhead_pct = 100.0 * (composed_ms - untraced_total) / untraced_total;
    println!(
        "  untraced pass {untraced_total:.1} ms, composed pass {composed_ms:.1} ms, \
         layers explain {explained:.1} ms (unexplained {unexplained_pct:.2} %, limit {:.0} %)",
        RECONCILE_SHARE * 100.0
    );
    let train_s = layers.total_ms("nn.train") / 1e3;
    layers.publish(report);
    report.set(
        "synth.corpus_samples",
        counts.corpus_samples as f64 / per_kernel,
    );
    report.set("nn.train_rows", counts.train_rows as f64 / per_kernel);
    report.set("nn.train_gflop", counts.train_gflop / per_kernel);
    report.set(
        "linalg.train_gflops",
        counts.train_gflop / train_s.max(1e-9),
    );
    report.set("nn.forward_rows", counts.forward_rows as f64 / per_kernel);
    report.set(
        "core.regression_share",
        counts.regression_consulted as f64 / per_kernel,
    );
    report.set(
        "core.dnn_win_share",
        counts.dnn_wins as f64 / counts.outcomes.max(1) as f64,
    );
    report.set("bench.trace_overhead_pct", overhead_pct);
    report.set("bench.unexplained_pct", unexplained_pct);
    crate::write_trace(cfg, &tr);
}
