//! Coefficient fitting and hypothesis scoring.
//!
//! Given a hypothesis structure, the coefficients `c_0, …, c_h` are found by
//! linear least squares on the design matrix whose columns are the constant
//! `1` and each term's factor product evaluated at the measurement points.

use crate::metrics::{cv_holds, smape};
use crate::search::Hypothesis;
use crate::{Model, ModelError, Term};
use nrpm_linalg::{lstsq, Matrix};

/// Constraints applied after the raw least-squares fit.
///
/// Both reflect the physical prior that the metric being modelled (runtime,
/// energy, …) *grows* with its parameters:
///
/// * a non-constant term with a **negative coefficient** describes a cost
///   that shrinks as the parameter grows — outside the PMNF's intended
///   model class, and a frequent symptom of a structurally wrong
///   hypothesis chasing noise;
/// * a term whose largest contribution over the measured points is
///   **negligible** relative to the function value is numerically present
///   but physically absent — keeping it would fabricate a lead exponent
///   (`540.1 + 0.0000 · x³` is a constant, not a cubic).
#[derive(Debug, Clone, Copy)]
pub struct FitConstraints {
    /// Permit negative coefficients on non-constant terms.
    pub allow_negative_terms: bool,
    /// Terms contributing less than this fraction of the largest function
    /// value over the measured points are pruned (and the reduced
    /// hypothesis refitted). Zero disables pruning.
    pub prune_relative_threshold: f64,
}

impl Default for FitConstraints {
    fn default() -> Self {
        FitConstraints {
            allow_negative_terms: false,
            // Conservative: this only removes terms that are numerically
            // zero (a constant fitted with a superfluous term). Anything
            // larger may legitimately matter along its own parameter's
            // line even when another parameter dominates the global scale.
            prune_relative_threshold: 1e-4,
        }
    }
}

impl FitConstraints {
    /// No constraints: the raw least-squares behaviour.
    pub fn unconstrained() -> Self {
        FitConstraints {
            allow_negative_terms: true,
            prune_relative_threshold: 0.0,
        }
    }
}

/// A hypothesis with fitted coefficients and its selection scores.
#[derive(Debug, Clone)]
pub struct FittedHypothesis {
    /// The fitted model.
    pub model: Model,
    /// In-sample SMAPE (percent).
    pub fit_smape: f64,
    /// Leave-one-out cross-validation SMAPE (percent).
    pub cv_smape: f64,
    /// The structure that produced the model (kept for tie-breaking).
    pub hypothesis: Hypothesis,
}

/// The relative least-squares system of one hypothesis over a point set
/// (see [`fit_coefficients`] for the weighting), built once per
/// hypothesis. Leave-one-out folds copy its rows and the pruning refit
/// selects its columns, so every factor is evaluated once per point. A
/// fold's rows and a pruned fit's columns hold exactly the values a
/// system built from that subset would, so the fits are bitwise the same.
struct WeightedSystem {
    /// Each term's factor product at each point, `n x k`; column 0 is the
    /// constant `1`.
    factors: Matrix,
    /// `factors` with each row scaled by its point's weight.
    design: Matrix,
    /// The weighted values.
    y: Vec<f64>,
}

impl WeightedSystem {
    /// `None` when there are fewer points than coefficients or a factor is
    /// not finite.
    fn new(hypothesis: &Hypothesis, points: &[(Vec<f64>, f64)]) -> Option<Self> {
        let n = points.len();
        let k = hypothesis.num_coefficients();
        if n < k {
            return None;
        }
        let mut factors = Matrix::zeros(n, k);
        let mut design = Matrix::zeros(n, k);
        let mut y = Vec::with_capacity(n);
        for (r, (point, value)) in points.iter().enumerate() {
            let row = factors.row_mut(r);
            row[0] = 1.0;
            for (cell, term) in row[1..].iter_mut().zip(&hypothesis.terms) {
                *cell = term.iter().map(|f| f.evaluate(point)).product();
            }
            let weight = if value.abs() > f64::MIN_POSITIVE {
                1.0 / value.abs()
            } else {
                1.0
            };
            for (cell, &v) in design.row_mut(r).iter_mut().zip(factors.row(r)) {
                *cell = v * weight;
            }
            y.push(value * weight);
        }
        if !design.all_finite() {
            return None;
        }
        Some(WeightedSystem { factors, design, y })
    }

    fn points(&self) -> usize {
        self.y.len()
    }

    /// Least-squares coefficients of the columns `cols` over every row but
    /// `held`, solved in the caller's buffers. `None` when the rows cannot
    /// determine them (fewer rows than columns, or rank deficient).
    fn solve(
        &self,
        cols: &[usize],
        held: Option<usize>,
        a: &mut Matrix,
        b: &mut Vec<f64>,
    ) -> Option<Vec<f64>> {
        a.resize(self.points() - usize::from(held.is_some()), cols.len());
        b.clear();
        let kept = (0..self.points()).filter(|&r| Some(r) != held);
        for (dst, r) in kept.enumerate() {
            let src = self.design.row(r);
            for (cell, &c) in a.row_mut(dst).iter_mut().zip(cols) {
                *cell = src[c];
            }
            b.push(self.y[r]);
        }
        lstsq(a, b).ok()
    }

    /// The fitted model's value at point `row`: `c_0 + Σ c_j · factor_j`,
    /// the operations of [`Model::evaluate`] on the stored factors.
    fn predict(&self, coeffs: &[f64], cols: &[usize], row: usize) -> f64 {
        let factors = self.factors.row(row);
        coeffs[0]
            + coeffs[1..]
                .iter()
                .zip(&cols[1..])
                .map(|(c, &col)| c * factors[col])
                .sum::<f64>()
    }

    /// Leave-one-out cross-validation SMAPE of the columns `cols`, over
    /// the holds of [`cv_holds`]; folds that cannot be fitted or predict a
    /// non-finite value are skipped, and `None` means every fold was.
    fn cross_validation_smape(&self, cols: &[usize], points: &[(Vec<f64>, f64)]) -> Option<f64> {
        let n = self.points();
        if n < 2 {
            return None;
        }
        let (mut a, mut b) = (Matrix::zeros(n - 1, cols.len()), Vec::with_capacity(n - 1));
        let mut actual = Vec::new();
        let mut predicted = Vec::new();
        for hold in cv_holds(n) {
            if let Some(coeffs) = self.solve(cols, Some(hold), &mut a, &mut b) {
                let p = self.predict(&coeffs, cols, hold);
                if p.is_finite() {
                    actual.push(points[hold].1);
                    predicted.push(p);
                }
            }
        }
        (!actual.is_empty()).then(|| smape(&actual, &predicted))
    }
}

/// The model of `hypothesis` restricted to the terms behind `cols` (column
/// `c ≥ 1` is term `c - 1`) with the fitted `coeffs`.
fn model_of(hypothesis: &Hypothesis, cols: &[usize], coeffs: &[f64]) -> Model {
    let terms = cols[1..]
        .iter()
        .zip(&coeffs[1..])
        .map(|(&c, &coef)| Term::new(coef, hypothesis.terms[c - 1].clone()))
        .collect();
    Model::new(hypothesis.num_params, coeffs[0], terms)
}

/// Fits the coefficients of `hypothesis` to `points` by *relative* least
/// squares: each equation is scaled by `1/|y|`, so the solver minimizes
/// relative residuals rather than absolute ones.
///
/// This matters whenever the measured values span several orders of
/// magnitude (a `x2³` term over `x2 ∈ [10, 50]` spans 125×): plain least
/// squares is dominated by the largest points and leaves the constant term
/// unidentified to within the *absolute* noise of the top of the range —
/// producing models with absurd constants (±10¹⁰) whose relative error at
/// the small points, and hence their SMAPE, explodes. Relative weighting
/// aligns the fit criterion with the SMAPE selection criterion. For clean,
/// exactly representable data both criteria give the exact solution.
///
/// Returns `None` when the system is rank deficient or otherwise unsolvable
/// — the caller simply skips the hypothesis, mirroring Extra-P's behaviour
/// of dropping degenerate candidates.
pub fn fit_coefficients(hypothesis: &Hypothesis, points: &[(Vec<f64>, f64)]) -> Option<Model> {
    let system = WeightedSystem::new(hypothesis, points)?;
    let cols: Vec<usize> = (0..hypothesis.num_coefficients()).collect();
    let coeffs = system.solve(&cols, None, &mut Matrix::zeros(0, 0), &mut Vec::new())?;
    Some(model_of(hypothesis, &cols, &coeffs))
}

/// Fits a hypothesis and scores it with in-sample SMAPE and leave-one-out
/// cross-validation SMAPE, applying the default [`FitConstraints`].
pub fn fit_hypothesis(
    hypothesis: &Hypothesis,
    points: &[(Vec<f64>, f64)],
) -> Result<FittedHypothesis, ModelError> {
    fit_hypothesis_constrained(hypothesis, points, FitConstraints::default())
}

/// [`fit_hypothesis`] with explicit constraints.
///
/// The weighted system is built once; the fit, the pruned refit and every
/// cross-validation fold solve rows and columns of it.
pub fn fit_hypothesis_constrained(
    hypothesis: &Hypothesis,
    points: &[(Vec<f64>, f64)],
    constraints: FitConstraints,
) -> Result<FittedHypothesis, ModelError> {
    let system = WeightedSystem::new(hypothesis, points).ok_or(ModelError::NoViableHypothesis)?;
    let (mut a, mut b) = (Matrix::zeros(0, 0), Vec::with_capacity(points.len()));
    let all: Vec<usize> = (0..hypothesis.num_coefficients()).collect();
    let raw = system
        .solve(&all, None, &mut a, &mut b)
        .ok_or(ModelError::NoViableHypothesis)?;
    let rows = 0..points.len();

    // Prune terms whose largest contribution over the measured points is
    // negligible relative to the function values, and refit the reduced
    // structure so the remaining coefficients stay least-squares optimal.
    let mut cols = all.clone();
    let mut coeffs = raw;
    if constraints.prune_relative_threshold > 0.0 && all.len() > 1 {
        let scale = rows
            .clone()
            .map(|r| system.predict(&coeffs, &all, r).abs())
            .fold(0.0_f64, f64::max)
            .max(f64::MIN_POSITIVE);
        cols.retain(|&c| {
            let max_contribution = rows
                .clone()
                .map(|r| (coeffs[c] * system.factors[(r, c)]).abs())
                .fold(0.0_f64, f64::max);
            c == 0 || max_contribution / scale >= constraints.prune_relative_threshold
        });
        if cols.len() < all.len() {
            coeffs = system
                .solve(&cols, None, &mut a, &mut b)
                .ok_or(ModelError::NoViableHypothesis)?;
        }
    }

    // Negativity is checked *after* pruning: an exactly-constant function
    // fits a superfluous term's coefficient to ±1e-15, whose sign is noise
    // — pruning removes it, leaving only meaningful coefficients to judge.
    if !constraints.allow_negative_terms && coeffs[1..].iter().any(|&c| c < 0.0) {
        return Err(ModelError::NoViableHypothesis);
    }

    let actual: Vec<f64> = points.iter().map(|(_, v)| *v).collect();
    let predicted: Vec<f64> = rows.map(|r| system.predict(&coeffs, &cols, r)).collect();
    let fit_smape = smape(&actual, &predicted);

    let cv_smape = system
        .cross_validation_smape(&cols, points)
        .ok_or(ModelError::NoViableHypothesis)?;

    if !fit_smape.is_finite() || !cv_smape.is_finite() {
        return Err(ModelError::NoViableHypothesis);
    }

    let model = model_of(hypothesis, &cols, &coeffs);
    let hypothesis = Hypothesis {
        num_params: hypothesis.num_params,
        terms: cols[1..]
            .iter()
            .map(|&c| hypothesis.terms[c - 1].clone())
            .collect(),
    };
    Ok(FittedHypothesis {
        model,
        fit_smape,
        cv_smape,
        hypothesis,
    })
}

/// Selects the best fitted hypothesis from `candidates` by cross-validation
/// SMAPE, breaking near-ties (within `tie_tolerance` percentage points)
/// toward the structurally simpler hypothesis.
pub fn select_best(
    candidates: Vec<FittedHypothesis>,
    tie_tolerance: f64,
) -> Option<FittedHypothesis> {
    let best_cv = candidates
        .iter()
        .map(|c| c.cv_smape)
        .fold(f64::INFINITY, f64::min);
    if !best_cv.is_finite() {
        return None;
    }
    candidates
        .into_iter()
        .filter(|c| c.cv_smape <= best_cv + tie_tolerance)
        .min_by(|a, b| {
            let ka = a.hypothesis.complexity();
            let kb = b.hypothesis.complexity();
            ka.partial_cmp(&kb)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(
                    a.cv_smape
                        .partial_cmp(&b.cv_smape)
                        .unwrap_or(std::cmp::Ordering::Equal),
                )
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExponentPair, Hypothesis};

    fn points_from(f: impl Fn(f64) -> f64, xs: &[f64]) -> Vec<(Vec<f64>, f64)> {
        xs.iter().map(|&x| (vec![x], f(x))).collect()
    }

    /// The coefficient fit as it was before [`WeightedSystem`]: the design
    /// is rebuilt from the given points on every call.
    fn fit_coefficients_reference(
        hypothesis: &Hypothesis,
        points: &[(Vec<f64>, f64)],
    ) -> Option<Model> {
        let n = points.len();
        let k = hypothesis.num_coefficients();
        if n < k {
            return None;
        }
        let mut design = Matrix::zeros(n, k);
        let mut y = Vec::with_capacity(n);
        for (r, (point, value)) in points.iter().enumerate() {
            let row = design.row_mut(r);
            row[0] = 1.0;
            for (k, factors) in hypothesis.terms.iter().enumerate() {
                row[k + 1] = factors.iter().map(|f| f.evaluate(point)).product();
            }
            let weight = if value.abs() > f64::MIN_POSITIVE {
                1.0 / value.abs()
            } else {
                1.0
            };
            for cell in design.row_mut(r) {
                *cell *= weight;
            }
            y.push(value * weight);
        }
        if !design.all_finite() {
            return None;
        }
        let coeffs = lstsq(&design, &y).ok()?;
        let terms: Vec<Term> = hypothesis
            .terms
            .iter()
            .zip(coeffs.iter().skip(1))
            .map(|(factors, &c)| Term::new(c, factors.clone()))
            .collect();
        Some(Model::new(hypothesis.num_params, coeffs[0], terms))
    }

    /// The scoring as it was before [`WeightedSystem`]: pruning through
    /// [`Model::evaluate`], a reduced refit, and cross-validation through
    /// the closure-based [`crate::cross_validation_smape`] with a fresh
    /// fit per fold.
    fn fit_hypothesis_reference(
        hypothesis: &Hypothesis,
        points: &[(Vec<f64>, f64)],
        constraints: FitConstraints,
    ) -> Option<FittedHypothesis> {
        let raw = fit_coefficients_reference(hypothesis, points)?;
        let (hypothesis, model) =
            if constraints.prune_relative_threshold > 0.0 && !raw.terms.is_empty() {
                let scale = points
                    .iter()
                    .map(|(p, _)| raw.evaluate(p).abs())
                    .fold(0.0_f64, f64::max)
                    .max(f64::MIN_POSITIVE);
                let keep: Vec<bool> = raw
                    .terms
                    .iter()
                    .map(|t| {
                        let max_contribution = points
                            .iter()
                            .map(|(p, _)| t.evaluate(p).abs())
                            .fold(0.0_f64, f64::max);
                        max_contribution / scale >= constraints.prune_relative_threshold
                    })
                    .collect();
                let reduced = Hypothesis {
                    num_params: hypothesis.num_params,
                    terms: hypothesis
                        .terms
                        .iter()
                        .zip(&keep)
                        .filter(|(_, &k)| k)
                        .map(|(t, _)| t.clone())
                        .collect(),
                };
                let model = fit_coefficients_reference(&reduced, points)?;
                (reduced, model)
            } else {
                (hypothesis.clone(), raw)
            };
        if !constraints.allow_negative_terms && model.terms.iter().any(|t| t.coefficient < 0.0) {
            return None;
        }
        let actual: Vec<f64> = points.iter().map(|(_, v)| *v).collect();
        let predicted: Vec<f64> = points.iter().map(|(p, _)| model.evaluate(p)).collect();
        let fit_smape = smape(&actual, &predicted);
        let cv_smape = crate::cross_validation_smape(points, |train| {
            let m = fit_coefficients_reference(&hypothesis, train)?;
            Some(Box::new(move |x: &[f64]| m.evaluate(x)) as Box<dyn Fn(&[f64]) -> f64>)
        })?;
        if !fit_smape.is_finite() || !cv_smape.is_finite() {
            return None;
        }
        Some(FittedHypothesis {
            model,
            fit_smape,
            cv_smape,
            hypothesis,
        })
    }

    fn assert_fits_bitwise_equal(hyp: &Hypothesis, pts: &[(Vec<f64>, f64)], c: FitConstraints) {
        let at = format!("n = {}, hypothesis {:?}", pts.len(), hyp.terms);
        let want = fit_hypothesis_reference(hyp, pts, c);
        let got = fit_hypothesis_constrained(hyp, pts, c).ok();
        let (got, want) = match (got, want) {
            (None, None) => return,
            (Some(g), Some(w)) => (g, w),
            (g, w) => panic!(
                "{at}: got {:?}, want {:?}",
                g.map(|f| f.model),
                w.map(|f| f.model)
            ),
        };
        assert_eq!(got.cv_smape.to_bits(), want.cv_smape.to_bits(), "{at}");
        assert_eq!(got.fit_smape.to_bits(), want.fit_smape.to_bits(), "{at}");
        assert_eq!(got.hypothesis, want.hypothesis, "{at}");
        assert_eq!(
            got.model.constant.to_bits(),
            want.model.constant.to_bits(),
            "{at}"
        );
        assert_eq!(got.model.terms.len(), want.model.terms.len(), "{at}");
        for (g, w) in got.model.terms.iter().zip(&want.model.terms) {
            assert_eq!(g.coefficient.to_bits(), w.coefficient.to_bits(), "{at}");
            assert_eq!(g.factors, w.factors, "{at}");
        }
    }

    #[test]
    fn prebuilt_system_scores_bitwise_like_per_fold_refits() {
        use crate::TermFactor;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(41);
        let pair = |num, den, log| ExponentPair::from_parts(num, den, log);
        let factor = |param, num, den, log| TermFactor::new(param, pair(num, den, log));
        let grid = [2.0, 4.0, 8.0, 16.0, 32.0];
        let mut cases = 0;
        for params in 1..=3usize {
            let hypotheses = vec![
                Hypothesis::constant(params),
                Hypothesis {
                    num_params: params,
                    terms: (0..params).map(|l| vec![factor(l, 1, 1, 0)]).collect(),
                },
                Hypothesis {
                    num_params: params,
                    terms: vec![(0..params).map(|l| factor(l, 1, 2, 1)).collect()],
                },
                // The cubic term is negligible on the data below and pruned.
                Hypothesis {
                    num_params: params,
                    terms: vec![vec![factor(0, 1, 1, 1)], vec![factor(params - 1, 3, 1, 0)]],
                },
            ];
            for n in [5usize, 25, 40, 41, 125] {
                let pts: Vec<(Vec<f64>, f64)> = (0..n)
                    .map(|i| {
                        let x: Vec<f64> = (0..params)
                            .map(|l| grid[(i / 5usize.pow(l as u32) + l) % grid.len()])
                            .collect();
                        let truth = 3.0 + x.iter().map(|v| v * v.log2()).sum::<f64>();
                        (x, truth * (1.0 + rng.gen_range(-0.05..0.05)))
                    })
                    .collect();
                for hyp in &hypotheses {
                    for c in [FitConstraints::default(), FitConstraints::unconstrained()] {
                        assert_fits_bitwise_equal(hyp, &pts, c);
                        cases += 1;
                    }
                }
            }
        }
        assert_eq!(cases, 3 * 4 * 5 * 2);

        // A pruned term: a constant function under a cubic hypothesis.
        let pts = points_from(|_| 541.2, &[6.0, 13.0, 20.0, 27.0, 34.0, 41.0]);
        let hyp = Hypothesis {
            num_params: 1,
            terms: vec![vec![factor(0, 3, 1, 1)], vec![factor(0, 1, 2, 0)]],
        };
        assert!(fit_hypothesis(&hyp, &pts).unwrap().hypothesis.terms.len() < 2);
        assert_fits_bitwise_equal(&hyp, &pts, FitConstraints::default());

        // A rank-deficient fold: without the one point at x = 2, the
        // log2(x) column is all zero.
        let pts = points_from(|x| 1.0 + x, &[1.0, 1.0, 1.0, 1.0, 2.0]);
        let hyp = Hypothesis::single(pair(0, 1, 1));
        assert!(fit_coefficients_reference(&hyp, &pts[..4]).is_none());
        assert!(fit_hypothesis(&hyp, &pts).is_ok());
        assert_fits_bitwise_equal(&hyp, &pts, FitConstraints::default());
        assert_fits_bitwise_equal(&hyp, &pts, FitConstraints::unconstrained());

        // As many points as coefficients: every fold has too few rows.
        let pts = points_from(|x| 1.0 + x + x * x, &[2.0, 4.0, 8.0]);
        let hyp = Hypothesis {
            num_params: 1,
            terms: vec![vec![factor(0, 1, 1, 0)], vec![factor(0, 2, 1, 0)]],
        };
        assert!(fit_coefficients(&hyp, &pts).is_some());
        assert!(fit_hypothesis(&hyp, &pts).is_err());
        assert_fits_bitwise_equal(&hyp, &pts, FitConstraints::unconstrained());
    }

    #[test]
    fn fits_exact_linear_term() {
        let pts = points_from(|x| 5.0 + 3.0 * x, &[2.0, 4.0, 8.0, 16.0, 32.0]);
        let hyp = Hypothesis::single(ExponentPair::from_parts(1, 1, 0));
        let fitted = fit_hypothesis(&hyp, &pts).unwrap();
        assert!((fitted.model.constant - 5.0).abs() < 1e-8);
        assert!((fitted.model.terms[0].coefficient - 3.0).abs() < 1e-9);
        assert!(fitted.fit_smape < 1e-9);
        assert!(fitted.cv_smape < 1e-9);
    }

    #[test]
    fn fits_log_squared_term() {
        let f = |x: f64| 1.0 + 0.5 * x * x.log2().powi(2);
        let pts = points_from(f, &[4.0, 8.0, 16.0, 32.0, 64.0]);
        let hyp = Hypothesis::single(ExponentPair::from_parts(1, 1, 2));
        let fitted = fit_hypothesis(&hyp, &pts).unwrap();
        assert!(fitted.cv_smape < 1e-6, "cv = {}", fitted.cv_smape);
    }

    #[test]
    fn constant_hypothesis_fits_mean_like_value() {
        let pts = points_from(|_| 7.0, &[1.0, 2.0, 4.0, 8.0, 16.0]);
        let fitted = fit_hypothesis(&Hypothesis::constant(1), &pts).unwrap();
        assert!((fitted.model.constant - 7.0).abs() < 1e-9);
        assert!(fitted.model.is_constant());
    }

    #[test]
    fn too_few_points_is_rejected() {
        let pts = points_from(|x| x, &[2.0]);
        let hyp = Hypothesis::single(ExponentPair::from_parts(1, 1, 0));
        assert!(fit_coefficients(&hyp, &pts).is_none());
    }

    #[test]
    fn degenerate_design_is_skipped() {
        // All x identical -> the x column is a multiple of the constant
        // column -> rank deficient.
        let pts = points_from(|x| x, &[4.0, 4.0, 4.0, 4.0]);
        let hyp = Hypothesis::single(ExponentPair::from_parts(1, 1, 0));
        assert!(fit_coefficients(&hyp, &pts).is_none());
    }

    #[test]
    fn wrong_structure_scores_worse_than_right_one() {
        let f = |x: f64| 2.0 + 0.1 * x * x; // quadratic
        let xs = [2.0, 4.0, 8.0, 16.0, 32.0];
        let pts = points_from(f, &xs);
        let right =
            fit_hypothesis(&Hypothesis::single(ExponentPair::from_parts(2, 1, 0)), &pts).unwrap();
        let wrong =
            fit_hypothesis(&Hypothesis::single(ExponentPair::from_parts(1, 2, 0)), &pts).unwrap();
        assert!(right.cv_smape < wrong.cv_smape);
    }

    #[test]
    fn select_best_prefers_lowest_cv() {
        let f = |x: f64| 1.0 + 2.0 * x;
        let pts = points_from(f, &[2.0, 4.0, 8.0, 16.0, 32.0]);
        let candidates: Vec<FittedHypothesis> = [
            ExponentPair::from_parts(1, 1, 0),
            ExponentPair::from_parts(2, 1, 0),
            ExponentPair::from_parts(1, 2, 0),
        ]
        .iter()
        .filter_map(|&p| fit_hypothesis(&Hypothesis::single(p), &pts).ok())
        .collect();
        let best = select_best(candidates, 1e-6).unwrap();
        assert_eq!(
            best.model.lead_exponent(0).unwrap(),
            ExponentPair::from_parts(1, 1, 0)
        );
    }

    #[test]
    fn select_best_breaks_ties_toward_simplicity() {
        // Constant data: the constant hypothesis and x^{1/4} (with c1 ~ 0)
        // both reach ~0 CV error; the constant must win.
        let pts = points_from(|_| 10.0, &[2.0, 4.0, 8.0, 16.0, 32.0]);
        let candidates: Vec<FittedHypothesis> = vec![
            fit_hypothesis(&Hypothesis::single(ExponentPair::from_parts(1, 4, 0)), &pts).unwrap(),
            fit_hypothesis(&Hypothesis::constant(1), &pts).unwrap(),
        ];
        let best = select_best(candidates, 0.01).unwrap();
        assert!(best.model.is_constant());
    }

    #[test]
    fn select_best_of_empty_is_none() {
        assert!(select_best(Vec::new(), 0.0).is_none());
    }

    #[test]
    fn negligible_terms_are_pruned_to_a_constant() {
        // A constant function fitted with a cubic hypothesis: the cubic
        // coefficient comes out ~0 and the term must disappear, so the
        // model's lead exponent is constant, not x^3.
        let pts = points_from(|_| 541.2, &[6.0, 13.0, 20.0, 27.0, 34.0]);
        let hyp = Hypothesis::single(ExponentPair::from_parts(3, 1, 1));
        let fitted = fit_hypothesis(&hyp, &pts).unwrap();
        assert!(fitted.model.is_constant(), "model = {}", fitted.model);
        assert!((fitted.model.constant - 541.2).abs() < 1e-6);
    }

    #[test]
    fn pruning_keeps_significant_terms() {
        let pts = points_from(|x| 1.0 + 2.0 * x, &[2.0, 4.0, 8.0, 16.0, 32.0]);
        let hyp = Hypothesis::single(ExponentPair::from_parts(1, 1, 0));
        let fitted = fit_hypothesis(&hyp, &pts).unwrap();
        assert_eq!(fitted.model.terms.len(), 1);
    }

    #[test]
    fn negative_term_coefficients_are_rejected_by_default() {
        // Decreasing data: any growing term needs a negative coefficient.
        let pts = points_from(|x| 100.0 - 2.0 * x, &[2.0, 4.0, 8.0, 16.0, 32.0]);
        let hyp = Hypothesis::single(ExponentPair::from_parts(1, 1, 0));
        assert!(matches!(
            fit_hypothesis(&hyp, &pts),
            Err(ModelError::NoViableHypothesis)
        ));
        // ... but allowed when explicitly unconstrained.
        let fitted =
            fit_hypothesis_constrained(&hyp, &pts, FitConstraints::unconstrained()).unwrap();
        assert!(fitted.model.terms[0].coefficient < 0.0);
    }

    #[test]
    fn negative_constants_remain_allowed() {
        // The paper's RELeARN model has a negative constant; only negative
        // *term* coefficients are unphysical.
        let pts = points_from(
            |x| -50.0 + 30.0 * x.log2(),
            &[4.0, 16.0, 64.0, 256.0, 1024.0],
        );
        let hyp = Hypothesis::single(ExponentPair::from_parts(0, 1, 1));
        let fitted = fit_hypothesis(&hyp, &pts).unwrap();
        assert!(fitted.model.constant < 0.0);
        assert!(fitted.model.terms[0].coefficient > 0.0);
        assert!(fitted.cv_smape < 1e-6);
    }

    #[test]
    fn unconstrained_fit_keeps_tiny_terms() {
        let pts = points_from(|_| 10.0, &[2.0, 4.0, 8.0, 16.0, 32.0]);
        let hyp = Hypothesis::single(ExponentPair::from_parts(2, 1, 0));
        let fitted =
            fit_hypothesis_constrained(&hyp, &pts, FitConstraints::unconstrained()).unwrap();
        assert_eq!(fitted.model.terms.len(), 1);
    }
}
