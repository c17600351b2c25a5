//! The adaptive modeling pipeline composed from the layers' public calls,
//! one span per call.
//!
//! `AdaptiveModeler::model` runs sanitize → noise estimate → domain
//! adaptation → DNN modeling (forward pass + candidate fitting) →
//! regression below the noise threshold → cross-validated selection, all
//! inside one call. The traced run makes the same calls one by one so that
//! each layer gets its own span, and checks that the composed outcome
//! equals the real one, so the spans time exactly the work the untraced
//! run does.

use crate::trace::{SpanId, Tracer};
use nrpm_core::adaptive::{AdaptiveOptions, AdaptiveOutcome, ModelerChoice};
use nrpm_core::dnn::{dataset_from_samples_with, DnnModeler};
use nrpm_core::noise::NoiseEstimate;
use nrpm_core::sanitize::{sanitize, DataQualityReport, SanitizePolicy};
use nrpm_core::threshold::default_threshold;
use nrpm_extrap::{
    combine_candidate_pairs, exponent_set, ExponentPair, MeasurementSet, ModelError, ModelingResult,
};
use nrpm_nn::{top_k_classes, Network, TrainerOptions, WatchdogOptions};
use nrpm_synth::{generate_training_samples_seeded, TrainingSpec};

/// Work counted while composing, summed over calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub forward_rows: usize,
    pub corpus_samples: usize,
    pub train_rows: usize,
    pub train_gflop: f64,
    pub regression_consulted: usize,
    pub dnn_wins: usize,
    pub outcomes: usize,
}

/// A sanitized set with its noise estimate and threshold.
pub struct Prepared {
    set: MeasurementSet,
    quality: DataQualityReport,
    noise: NoiseEstimate,
    threshold: f64,
}

/// Sanitize and estimate noise, as `AdaptiveModeler` does before modeling.
pub fn prepare(
    opts: &AdaptiveOptions,
    set: &MeasurementSet,
    tr: &mut Tracer,
    parent: Option<SpanId>,
    req: u64,
) -> Result<Prepared, ModelError> {
    assert!(
        opts.thresholds.is_none(),
        "the benchmark composes the default thresholds only"
    );
    if set.num_params() == 0 {
        return Err(ModelError::NoParameters);
    }
    let (sanitized, quality) = tr.span("core.sanitize", parent, req, || {
        if opts.sanitize.policy == SanitizePolicy::Off {
            (set.clone(), DataQualityReport::untouched(set))
        } else {
            sanitize(set, &opts.sanitize)
        }
    });
    if opts.sanitize.policy == SanitizePolicy::Strict && !quality.is_clean() {
        return Err(ModelError::CorruptData {
            dropped: quality.dropped() + quality.points_dropped,
            clamped: quality.clamped,
        });
    }
    if sanitized.is_empty() {
        return Err(ModelError::NoUsableData);
    }
    let noise = tr.span("core.noise", parent, req, || {
        if quality.is_clean() {
            NoiseEstimate::of(&sanitized)
        } else {
            NoiseEstimate::robust_of(&sanitized)
        }
    });
    let threshold = default_threshold(sanitized.num_params());
    Ok(Prepared {
        set: sanitized,
        quality,
        noise,
        threshold,
    })
}

impl Prepared {
    pub fn noise_range(&self) -> (f64, f64) {
        if self.noise.is_empty() {
            (0.0, 0.0)
        } else {
            self.noise.range()
        }
    }

    pub fn set(&self) -> &MeasurementSet {
        &self.set
    }
}

/// DNN modeling of several prepared sets with one coalesced forward pass
/// (`DnnModeler::model_batch`); a single set is a batch of one, which
/// `DnnModeler::model` matches bit for bit.
pub fn dnn_model(
    dnn: &DnnModeler,
    sets: &[&MeasurementSet],
    tr: &mut Tracer,
    parent: Option<SpanId>,
    req: u64,
    counts: &mut Counts,
) -> Vec<Result<ModelingResult, ModelError>> {
    let opts = dnn.options();
    let mut lines: Vec<Vec<(f64, f64)>> = Vec::new();
    let mut plans = Vec::with_capacity(sets.len());
    for set in sets {
        let start = lines.len();
        let mut plan = Ok(());
        for l in 0..set.num_params() {
            let line = set.line(l, opts.aggregation);
            if line.len() < opts.min_points {
                lines.truncate(start);
                plan = Err(ModelError::TooFewPoints {
                    param: l,
                    found: line.len(),
                    required: opts.min_points,
                });
                break;
            }
            lines.push(line);
        }
        plans.push(plan.map(|()| start..lines.len()));
    }
    let classified = tr.span("nn.forward", parent, req, || {
        dnn.classify_lines_batch(&lines)
    });
    counts.forward_rows += classified.rows;
    let exponents = exponent_set();
    plans
        .into_iter()
        .zip(sets)
        .map(|(plan, set)| {
            let mut per_param = Vec::new();
            for idx in plan? {
                let probs = classified.probabilities[idx]
                    .as_ref()
                    .map_err(Clone::clone)?;
                let mut pairs: Vec<ExponentPair> = top_k_classes(probs, opts.top_k)
                    .into_iter()
                    .map(|class| exponents.pair(class))
                    .collect();
                if !pairs.contains(&ExponentPair::CONSTANT) {
                    pairs.push(ExponentPair::CONSTANT);
                }
                per_param.push(pairs);
            }
            tr.span("extrap.candidates", parent, req, || {
                combine_candidate_pairs(set, &per_param, opts.aggregation, opts.tie_tolerance)
            })
        })
        .collect()
}

/// Consults the regression modeler below the threshold and picks the
/// cross-validated winner, as `AdaptiveModeler` does. The constant-mean
/// fallback is not composed: the benchmark's inputs never need it, and an
/// outcome that did would fail the equality check.
pub fn finish(
    opts: &AdaptiveOptions,
    prepared: Prepared,
    dnn_result: Result<ModelingResult, ModelError>,
    tr: &mut Tracer,
    parent: Option<SpanId>,
    req: u64,
    counts: &mut Counts,
) -> Result<AdaptiveOutcome, ModelError> {
    let Prepared {
        set,
        quality,
        noise,
        threshold,
    } = prepared;
    let below = noise.mean() < threshold;
    let regression = |tr: &mut Tracer, counts: &mut Counts| {
        counts.regression_consulted += 1;
        tr.span("extrap.regression", parent, req, || {
            opts.regression.model(&set)
        })
    };
    let regression_result = if below {
        regression(tr, counts).ok()
    } else {
        None
    };
    let (result, choice, dnn_result, regression_result) = match (dnn_result, regression_result) {
        (Ok(d), Some(r)) => {
            let margin = 1.0 + opts.selection_margin.max(0.0);
            if r.cv_smape <= d.cv_smape * margin {
                (r.clone(), ModelerChoice::Regression, Some(d), Some(r))
            } else {
                (d.clone(), ModelerChoice::Dnn, Some(d), Some(r))
            }
        }
        (Ok(d), None) => (d.clone(), ModelerChoice::Dnn, Some(d), None),
        (Err(_), Some(r)) => (r.clone(), ModelerChoice::Regression, None, Some(r)),
        (Err(e), None) => {
            let r = regression(tr, counts).map_err(|_| e)?;
            (r.clone(), ModelerChoice::Regression, None, Some(r))
        }
    };
    counts.outcomes += 1;
    if choice == ModelerChoice::Dnn {
        counts.dnn_wins += 1;
    }
    Ok(AdaptiveOutcome {
        result,
        noise,
        threshold,
        regression_result,
        dnn_result,
        choice,
        quality,
    })
}

/// Floating-point operations of one training epoch over `rows` samples:
/// forward `2·in·out` plus backward `4·in·out` per dense layer and row.
pub fn train_flops(network: &Network, rows: usize) -> f64 {
    let per_row: usize = network
        .layers()
        .iter()
        .map(|l| 6 * l.in_dim() * l.out_dim())
        .sum();
    per_row as f64 * rows as f64
}

/// Replays domain adaptation's three steps with the sizes
/// `DnnModeler::adapt_to_task` uses for `prepared`: one synthetic corpus
/// per parameter line, one encoding, one guarded training run on a copy of
/// the pretrained network. The corpus seeds differ from the modeler's
/// private stream; the sizes, and so the work, are the same.
pub fn replay_adaptation(
    dnn: &DnnModeler,
    prepared: &Prepared,
    seed: u64,
    tr: &mut Tracer,
    parent: Option<SpanId>,
    req: u64,
    counts: &mut Counts,
) {
    let opts = dnn.options();
    let set = &prepared.set;
    let m = set.num_params();
    let repetitions = set
        .measurements()
        .iter()
        .map(|meas| meas.values.len())
        .max()
        .unwrap_or(1)
        .clamp(1, 5);
    let per_param = (opts.adaptation_samples_per_class / m).max(8);
    let (lo, hi) = prepared.noise_range();
    let mut samples = Vec::new();
    for l in 0..m {
        let xs: Vec<f64> = set
            .line(l, opts.aggregation)
            .iter()
            .map(|(x, _)| *x)
            .collect();
        if xs.len() < 2 {
            continue;
        }
        let spec = TrainingSpec {
            samples_per_class: per_param,
            sequence: Some(xs),
            noise_range: (lo.max(0.0), hi.max(lo.max(0.0))),
            repetitions,
            aggregation: opts.aggregation,
            ..Default::default()
        };
        samples.extend(tr.span("synth.corpus", parent, req, || {
            generate_training_samples_seeded(&spec, seed ^ l as u64, opts.train_threads)
        }));
    }
    counts.corpus_samples += samples.len();
    let data = tr.span("core.encode", parent, req, || {
        dataset_from_samples_with(&samples, opts.encoding)
    });
    let mut network = dnn.network().clone();
    let trainer = TrainerOptions {
        epochs: opts.adaptation_epochs,
        batch_size: opts.batch_size,
        optimizer: opts.optimizer,
        shuffle_seed: opts.seed ^ 0x5A5A,
        threads: opts.train_threads,
        ..Default::default()
    };
    tr.span("nn.train", parent, req, || {
        network
            .train_guarded(&data, &trainer, &WatchdogOptions::default())
            .expect("adaptation corpus matches the network by construction")
    });
    let rows = data.len() * opts.adaptation_epochs;
    counts.train_rows += rows;
    counts.train_gflop += train_flops(&network, rows) / 1e9;
}
