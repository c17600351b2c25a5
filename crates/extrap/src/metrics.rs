//! SMAPE, cross-validation, and repetition aggregation.

use nrpm_linalg::stats;
use serde::{Deserialize, Serialize};

/// How repeated measurements of one point are collapsed into a single value.
///
/// The paper uses the median (Sec. III); mean and minimum are provided for
/// the ablation benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Aggregation {
    /// Median of the repetitions (the paper's default).
    #[default]
    Median,
    /// Arithmetic mean.
    Mean,
    /// Minimum — sometimes used on noisy systems under the assumption that
    /// noise only ever adds time.
    Minimum,
}

impl Aggregation {
    /// Applies the aggregation to a non-empty sample.
    pub fn apply(&self, values: &[f64]) -> f64 {
        match self {
            Aggregation::Median => stats::median(values),
            Aggregation::Mean => stats::mean(values),
            Aggregation::Minimum => stats::min(values),
        }
    }

    /// [`Self::apply`] that may reorder `values`: the median sorts them in
    /// place instead of sorting a copy. Same result, bit for bit.
    pub fn apply_in_place(&self, values: &mut Vec<f64>) -> f64 {
        match self {
            Aggregation::Median => stats::median_in_place(values),
            _ => self.apply(values),
        }
    }
}

/// Symmetric mean absolute percentage error, in percent.
///
/// `SMAPE = 100/n · Σ 2·|pred − actual| / (|pred| + |actual|)`, the model
/// selection criterion of Extra-P. A pair where both values are zero
/// contributes zero error. The result lies in `[0, 200]`.
///
/// # Panics
/// Panics if the slices have different lengths.
pub fn smape(actual: &[f64], predicted: &[f64]) -> f64 {
    assert_eq!(
        actual.len(),
        predicted.len(),
        "smape: length mismatch {} vs {}",
        actual.len(),
        predicted.len()
    );
    if actual.is_empty() {
        return 0.0;
    }
    let sum: f64 = actual
        .iter()
        .zip(predicted.iter())
        .map(|(&a, &p)| {
            let denom = a.abs() + p.abs();
            if denom == 0.0 {
                0.0
            } else {
                2.0 * (p - a).abs() / denom
            }
        })
        .sum();
    100.0 * sum / actual.len() as f64
}

/// Maximum number of held-out folds evaluated by
/// [`cross_validation_smape`]. Leave-one-out is exact up to this size; for
/// larger sets (e.g. a 125-point Kripke grid) evenly spaced holds give an
/// indistinguishable selection signal at a fraction of the cost.
pub const MAX_CV_FOLDS: usize = 40;

/// The indices held out by cross-validation over `n` points, in order:
/// every point up to [`MAX_CV_FOLDS`], beyond that [`MAX_CV_FOLDS`]
/// evenly spaced ones including the first and the last.
pub(crate) fn cv_holds(n: usize) -> impl Iterator<Item = usize> {
    let folds = n.min(MAX_CV_FOLDS);
    (0..folds).map(move |k| {
        if n <= MAX_CV_FOLDS {
            k
        } else {
            k * (n - 1) / (MAX_CV_FOLDS - 1)
        }
    })
}

/// Leave-one-out cross-validation SMAPE of a fit procedure.
///
/// `fit` receives the training subset (all points except the held-out one)
/// and must return a predictor; the predictor is evaluated on the held-out
/// point. Points where fitting fails are skipped; if every fold fails,
/// `None` is returned. Beyond [`MAX_CV_FOLDS`] points, an evenly spaced
/// subset of holds is used ([`cv_holds`]).
///
/// This is the model-selection criterion shared by the regression and DNN
/// modelers ("we identify the model that fits the data best using
/// cross-validation and the SMAPE metric"). Hypothesis fitting runs the
/// same folds on one prebuilt least-squares system instead of calling a
/// fit procedure per fold.
pub fn cross_validation_smape<F>(points: &[(Vec<f64>, f64)], mut fit: F) -> Option<f64>
where
    F: FnMut(&[(Vec<f64>, f64)]) -> Option<Box<dyn Fn(&[f64]) -> f64>>,
{
    if points.len() < 2 {
        return None;
    }
    let n = points.len();
    let mut actual = Vec::new();
    let mut predicted = Vec::new();
    let mut train: Vec<(Vec<f64>, f64)> = Vec::with_capacity(n - 1);
    for hold in cv_holds(n) {
        train.clear();
        train.extend(
            points
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != hold)
                .map(|(_, p)| p.clone()),
        );
        if let Some(predictor) = fit(&train) {
            let p = predictor(&points[hold].0);
            if p.is_finite() {
                actual.push(points[hold].1);
                predicted.push(p);
            }
        }
    }
    if actual.is_empty() {
        None
    } else {
        Some(smape(&actual, &predicted))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smape_of_perfect_prediction_is_zero() {
        assert_eq!(smape(&[1.0, 2.0, 3.0], &[1.0, 2.0, 3.0]), 0.0);
        assert_eq!(smape(&[], &[]), 0.0);
    }

    #[test]
    fn smape_is_symmetric_in_its_arguments() {
        let a = [1.0, 5.0, 10.0];
        let b = [2.0, 4.0, 20.0];
        assert!((smape(&a, &b) - smape(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn smape_is_bounded_by_200() {
        // Opposite signs max out each pair's contribution at 2.
        assert!((smape(&[1.0], &[-1.0]) - 200.0).abs() < 1e-12);
        assert!((smape(&[0.0], &[5.0]) - 200.0).abs() < 1e-12);
    }

    #[test]
    fn smape_zero_zero_pair_contributes_nothing() {
        assert_eq!(smape(&[0.0, 1.0], &[0.0, 1.0]), 0.0);
    }

    #[test]
    fn smape_matches_hand_computation() {
        // single pair: a=100, p=110 -> 2*10/210 = 0.0952..., in percent 9.52
        let v = smape(&[100.0], &[110.0]);
        assert!((v - 100.0 * 20.0 / 210.0).abs() < 1e-9);
    }

    #[test]
    fn aggregation_variants() {
        let vals = [3.0, 1.0, 2.0];
        assert_eq!(Aggregation::Median.apply(&vals), 2.0);
        assert_eq!(Aggregation::Mean.apply(&vals), 2.0);
        assert_eq!(Aggregation::Minimum.apply(&vals), 1.0);
        assert_eq!(Aggregation::default(), Aggregation::Median);
        for agg in [Aggregation::Median, Aggregation::Mean, Aggregation::Minimum] {
            for vals in [vec![3.0, f64::NAN, 1.0, 2.0, -0.0], vec![4.0, 1.5]] {
                let mut buf = vals.clone();
                assert_eq!(
                    agg.apply_in_place(&mut buf).to_bits(),
                    agg.apply(&vals).to_bits(),
                    "{agg:?} {vals:?}"
                );
            }
        }
    }

    #[test]
    fn cv_holds_are_leave_one_out_up_to_the_fold_cap() {
        assert_eq!(cv_holds(5).collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
        assert!(cv_holds(MAX_CV_FOLDS).eq(0..MAX_CV_FOLDS));
        for n in [MAX_CV_FOLDS + 1, 125] {
            let holds: Vec<usize> = cv_holds(n).collect();
            assert_eq!(holds.len(), MAX_CV_FOLDS);
            assert_eq!((holds[0], holds[MAX_CV_FOLDS - 1]), (0, n - 1));
            assert!(holds.windows(2).all(|w| w[0] < w[1]), "n = {n}");
        }
    }

    #[test]
    fn loocv_perfect_linear_fit_scores_zero() {
        // y = 2x fitted by a "mean-slope" estimator: slope = mean(y/x).
        let pts: Vec<(Vec<f64>, f64)> = (1..=5).map(|i| (vec![i as f64], 2.0 * i as f64)).collect();
        let score = cross_validation_smape(&pts, |train| {
            let slope = train.iter().map(|(x, y)| y / x[0]).sum::<f64>() / train.len() as f64;
            Some(Box::new(move |x: &[f64]| slope * x[0]) as Box<dyn Fn(&[f64]) -> f64>)
        })
        .unwrap();
        assert!(score < 1e-9);
    }

    #[test]
    fn loocv_detects_overfitting_prone_predictors() {
        // A predictor that always returns the training mean extrapolates
        // poorly on a growing series -> clearly nonzero CV error.
        let pts: Vec<(Vec<f64>, f64)> = (1..=5).map(|i| (vec![i as f64], (i * i) as f64)).collect();
        let score = cross_validation_smape(&pts, |train| {
            let mean = train.iter().map(|(_, y)| *y).sum::<f64>() / train.len() as f64;
            Some(Box::new(move |_: &[f64]| mean) as Box<dyn Fn(&[f64]) -> f64>)
        })
        .unwrap();
        assert!(score > 30.0, "score = {score}");
    }

    #[test]
    fn loocv_requires_two_points_and_tolerates_failed_folds() {
        let one = vec![(vec![1.0], 1.0)];
        assert!(cross_validation_smape(&one, |_| None::<Box<dyn Fn(&[f64]) -> f64>>).is_none());

        let pts: Vec<(Vec<f64>, f64)> = (1..=4).map(|i| (vec![i as f64], i as f64)).collect();
        // All folds fail -> None.
        assert!(cross_validation_smape(&pts, |_| None::<Box<dyn Fn(&[f64]) -> f64>>).is_none());
        // Only some folds fail -> Some.
        let mut call = 0;
        let score = cross_validation_smape(&pts, |_| {
            call += 1;
            if call == 1 {
                None
            } else {
                Some(Box::new(|x: &[f64]| x[0]) as Box<dyn Fn(&[f64]) -> f64>)
            }
        });
        assert!(score.unwrap() < 1e-9);
    }
}
