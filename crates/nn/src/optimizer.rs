//! First-order optimizers: SGD (with momentum), Adam, and AdaMax.
//!
//! The paper trains its network with **AdaMax** (Kingma & Ba, 2015, Sec. 7):
//! the infinity-norm variant of Adam, whose update
//! `θ ← θ − (α / (1 − β₁ᵗ)) · m / u` with `u = max(β₂·u, |g|)` is less
//! sensitive to gradient-scale outliers — a good match for loss surfaces
//! induced by noisy synthetic training data.

use nrpm_linalg::{kernel_isa, KernelIsa};
use serde::{Deserialize, Serialize};

/// Which optimizer to use, with its hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum OptimizerKind {
    /// Plain stochastic gradient descent with optional momentum.
    Sgd {
        /// Learning rate.
        learning_rate: f64,
        /// Momentum coefficient (0 disables momentum).
        momentum: f64,
    },
    /// Adam (Kingma & Ba, 2015).
    Adam {
        /// Learning rate α.
        learning_rate: f64,
        /// First-moment decay β₁.
        beta1: f64,
        /// Second-moment decay β₂.
        beta2: f64,
        /// Numerical-stability constant ε.
        epsilon: f64,
    },
    /// AdaMax — the paper's optimizer.
    AdaMax {
        /// Learning rate α (Kingma & Ba's default: 0.002).
        learning_rate: f64,
        /// First-moment decay β₁.
        beta1: f64,
        /// Infinity-norm decay β₂.
        beta2: f64,
    },
}

impl OptimizerKind {
    /// AdaMax with the defaults from the original paper (α = 0.002,
    /// β₁ = 0.9, β₂ = 0.999).
    pub fn adamax_default() -> Self {
        OptimizerKind::AdaMax {
            learning_rate: 0.002,
            beta1: 0.9,
            beta2: 0.999,
        }
    }

    /// Adam with the canonical defaults.
    pub fn adam_default() -> Self {
        OptimizerKind::Adam {
            learning_rate: 0.001,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
        }
    }

    /// SGD with a given learning rate, no momentum.
    pub fn sgd(learning_rate: f64) -> Self {
        OptimizerKind::Sgd {
            learning_rate,
            momentum: 0.0,
        }
    }
}

impl Default for OptimizerKind {
    fn default() -> Self {
        OptimizerKind::adamax_default()
    }
}

/// Per-tensor optimizer state.
#[derive(Debug, Clone, Default)]
struct TensorState {
    /// First moment (or momentum buffer for SGD).
    m: Vec<f64>,
    /// Second moment (Adam) or infinity norm (AdaMax).
    v: Vec<f64>,
}

/// Stateful optimizer driving updates for a fixed set of parameter tensors.
///
/// Tensors are identified by their registration order: call
/// [`Optimizer::step`] with the same `tensor_id` for the same tensor on
/// every iteration.
#[derive(Debug, Clone)]
pub struct Optimizer {
    kind: OptimizerKind,
    states: Vec<TensorState>,
    /// Global step count `t`, shared by all tensors (incremented by
    /// [`Optimizer::next_step`]).
    t: u64,
}

impl Optimizer {
    /// Creates an optimizer managing `num_tensors` parameter tensors.
    pub fn new(kind: OptimizerKind, num_tensors: usize) -> Self {
        Optimizer {
            kind,
            states: vec![TensorState::default(); num_tensors],
            t: 0,
        }
    }

    /// The configured kind.
    pub fn kind(&self) -> OptimizerKind {
        self.kind
    }

    /// Advances the global step counter. Call once per mini-batch, before
    /// the per-tensor [`step`](Self::step) calls.
    pub fn next_step(&mut self) {
        self.t += 1;
    }

    /// Current step count.
    pub fn step_count(&self) -> u64 {
        self.t
    }

    /// Applies one update to `params` given `grads`.
    ///
    /// # Panics
    /// Panics if `params` and `grads` differ in length or `tensor_id` is out
    /// of range.
    pub fn step(&mut self, tensor_id: usize, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), grads.len(), "params/grads length mismatch");
        let state = &mut self.states[tensor_id];
        if state.m.len() != params.len() {
            state.m = vec![0.0; params.len()];
            state.v = vec![0.0; params.len()];
        }
        let t = self.t.max(1);

        match self.kind {
            OptimizerKind::Sgd {
                learning_rate,
                momentum,
            } => {
                if momentum == 0.0 {
                    for (p, &g) in params.iter_mut().zip(grads) {
                        *p -= learning_rate * g;
                    }
                } else {
                    for ((p, &g), m) in params.iter_mut().zip(grads).zip(state.m.iter_mut()) {
                        *m = momentum * *m + g;
                        *p -= learning_rate * *m;
                    }
                }
            }
            OptimizerKind::Adam {
                learning_rate,
                beta1,
                beta2,
                epsilon,
            } => {
                let bc1 = 1.0 - beta1.powi(t as i32);
                let bc2 = 1.0 - beta2.powi(t as i32);
                for (((p, &g), m), v) in params
                    .iter_mut()
                    .zip(grads)
                    .zip(state.m.iter_mut())
                    .zip(state.v.iter_mut())
                {
                    *m = beta1 * *m + (1.0 - beta1) * g;
                    *v = beta2 * *v + (1.0 - beta2) * g * g;
                    let m_hat = *m / bc1;
                    let v_hat = *v / bc2;
                    *p -= learning_rate * m_hat / (v_hat.sqrt() + epsilon);
                }
            }
            OptimizerKind::AdaMax {
                learning_rate,
                beta1,
                beta2,
            } => {
                let bc1 = 1.0 - beta1.powi(t as i32);
                let update = AdaMaxStep {
                    step: learning_rate / bc1,
                    beta1,
                    beta2,
                };
                update.apply_on(kernel_isa(), params, grads, &mut state.m, &mut state.v);
            }
        }
    }

    /// Clears all moment buffers and the step count (used when a pretrained
    /// network enters a fresh retraining phase).
    pub fn reset(&mut self) {
        for s in &mut self.states {
            s.m.clear();
            s.v.clear();
        }
        self.t = 0;
    }
}

/// One AdaMax update with its per-step constants: for every element,
/// `m ← β₁·m + (1 − β₁)·g`, `u ← max(β₂·u, |g|)`, and `θ ← θ − step·m / u`
/// where `u > 0` (θ is kept where `u` is zero or NaN).
///
/// Every variant runs the same IEEE operations in the same order — plain
/// multiplies and adds, no FMA — and computes the update everywhere, then
/// selects it where `u > 0`, so the AVX-512, AVX2 and scalar variants give
/// the same bits. `max` follows [`f64::max`]: a NaN operand yields the
/// other one.
#[derive(Debug, Clone, Copy)]
struct AdaMaxStep {
    /// `α / (1 − β₁ᵗ)`.
    step: f64,
    beta1: f64,
    beta2: f64,
}

impl AdaMaxStep {
    /// Updates `params`, `m` and `u` in place on the kernel `isa`, which
    /// must be supported by the CPU (tests run every variant).
    fn apply_on(
        self,
        isa: KernelIsa,
        params: &mut [f64],
        grads: &[f64],
        m: &mut [f64],
        u: &mut [f64],
    ) {
        let n = params.len();
        assert!(grads.len() == n && m.len() == n && u.len() == n);
        let done = match isa {
            // SAFETY: `kernel_isa` reports Avx512/Avx2 only when the CPU has
            // AVX-512F (resp. AVX2); the slices have length `n`.
            #[cfg(target_arch = "x86_64")]
            KernelIsa::Avx512 => unsafe { x86::adamax_avx512(self, params, grads, m, u) },
            #[cfg(target_arch = "x86_64")]
            KernelIsa::Avx2 => unsafe { x86::adamax_avx2(self, params, grads, m, u) },
            _ => 0,
        };
        for i in done..n {
            self.scalar(&mut params[i], grads[i], &mut m[i], &mut u[i]);
        }
    }

    /// The scalar update, operation for operation the vector kernels'.
    #[inline]
    fn scalar(self, p: &mut f64, g: f64, m: &mut f64, u: &mut f64) {
        *m = self.beta1 * *m + (1.0 - self.beta1) * g;
        *u = (self.beta2 * *u).max(g.abs());
        let stepped = *p - self.step * *m / *u;
        *p = if *u > 0.0 { stepped } else { *p };
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::AdaMaxStep;
    use std::arch::x86_64::*;

    /// Updates whole 8-lane blocks and returns how many elements it did.
    ///
    /// # Safety
    /// The CPU must support AVX-512F, and `grads`, `m` and `u` must be at
    /// least as long as `params`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn adamax_avx512(
        k: AdaMaxStep,
        params: &mut [f64],
        grads: &[f64],
        m: &mut [f64],
        u: &mut [f64],
    ) -> usize {
        let n = params.len() / 8 * 8;
        let beta1 = _mm512_set1_pd(k.beta1);
        let one_minus_beta1 = _mm512_set1_pd(1.0 - k.beta1);
        let beta2 = _mm512_set1_pd(k.beta2);
        let step = _mm512_set1_pd(k.step);
        let sign = _mm512_set1_epi64(i64::MIN);
        for i in (0..n).step_by(8) {
            let g = _mm512_loadu_pd(grads.as_ptr().add(i));
            let mi = _mm512_loadu_pd(m.as_ptr().add(i));
            let mi = _mm512_add_pd(_mm512_mul_pd(beta1, mi), _mm512_mul_pd(one_minus_beta1, g));
            let abs_g = _mm512_castsi512_pd(_mm512_andnot_si512(sign, _mm512_castpd_si512(g)));
            let decayed = _mm512_mul_pd(beta2, _mm512_loadu_pd(u.as_ptr().add(i)));
            // MAXPD returns its second operand when either is NaN: that is
            // `decayed` for a NaN |g|; a NaN `decayed` yields |g|.
            let ui = _mm512_max_pd(abs_g, decayed);
            let ui = _mm512_mask_mov_pd(
                ui,
                _mm512_cmp_pd_mask::<_CMP_UNORD_Q>(decayed, decayed),
                abs_g,
            );
            let p = _mm512_loadu_pd(params.as_ptr().add(i));
            let stepped = _mm512_sub_pd(p, _mm512_div_pd(_mm512_mul_pd(step, mi), ui));
            let positive = _mm512_cmp_pd_mask::<_CMP_GT_OQ>(ui, _mm512_setzero_pd());
            _mm512_storeu_pd(
                params.as_mut_ptr().add(i),
                _mm512_mask_mov_pd(p, positive, stepped),
            );
            _mm512_storeu_pd(m.as_mut_ptr().add(i), mi);
            _mm512_storeu_pd(u.as_mut_ptr().add(i), ui);
        }
        n
    }

    /// Updates whole 4-lane blocks and returns how many elements it did.
    ///
    /// # Safety
    /// The CPU must support AVX2, and `grads`, `m` and `u` must be at least
    /// as long as `params`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn adamax_avx2(
        k: AdaMaxStep,
        params: &mut [f64],
        grads: &[f64],
        m: &mut [f64],
        u: &mut [f64],
    ) -> usize {
        let n = params.len() / 4 * 4;
        let beta1 = _mm256_set1_pd(k.beta1);
        let one_minus_beta1 = _mm256_set1_pd(1.0 - k.beta1);
        let beta2 = _mm256_set1_pd(k.beta2);
        let step = _mm256_set1_pd(k.step);
        let sign = _mm256_set1_pd(-0.0);
        for i in (0..n).step_by(4) {
            let g = _mm256_loadu_pd(grads.as_ptr().add(i));
            let mi = _mm256_loadu_pd(m.as_ptr().add(i));
            let mi = _mm256_add_pd(_mm256_mul_pd(beta1, mi), _mm256_mul_pd(one_minus_beta1, g));
            let abs_g = _mm256_andnot_pd(sign, g);
            let decayed = _mm256_mul_pd(beta2, _mm256_loadu_pd(u.as_ptr().add(i)));
            // As in the AVX-512 kernel: MAXPD, then |g| where `decayed` is NaN.
            let ui = _mm256_max_pd(abs_g, decayed);
            let ui = _mm256_blendv_pd(ui, abs_g, _mm256_cmp_pd::<_CMP_UNORD_Q>(decayed, decayed));
            let p = _mm256_loadu_pd(params.as_ptr().add(i));
            let stepped = _mm256_sub_pd(p, _mm256_div_pd(_mm256_mul_pd(step, mi), ui));
            let positive = _mm256_cmp_pd::<_CMP_GT_OQ>(ui, _mm256_setzero_pd());
            _mm256_storeu_pd(
                params.as_mut_ptr().add(i),
                _mm256_blendv_pd(p, stepped, positive),
            );
            _mm256_storeu_pd(m.as_mut_ptr().add(i), mi);
            _mm256_storeu_pd(u.as_mut_ptr().add(i), ui);
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizes f(x) = (x - target)² with gradient 2(x - target).
    fn minimize(kind: OptimizerKind, start: f64, target: f64, iters: usize) -> f64 {
        let mut opt = Optimizer::new(kind, 1);
        let mut x = [start];
        for _ in 0..iters {
            opt.next_step();
            let g = [2.0 * (x[0] - target)];
            opt.step(0, &mut x, &g);
        }
        x[0]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let x = minimize(OptimizerKind::sgd(0.1), 10.0, 3.0, 200);
        assert!((x - 3.0).abs() < 1e-6, "x = {x}");
    }

    #[test]
    fn sgd_momentum_converges() {
        let x = minimize(
            OptimizerKind::Sgd {
                learning_rate: 0.05,
                momentum: 0.9,
            },
            10.0,
            -2.0,
            500,
        );
        assert!((x + 2.0).abs() < 1e-4, "x = {x}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let kind = OptimizerKind::Adam {
            learning_rate: 0.05,
            beta1: 0.9,
            beta2: 0.999,
            epsilon: 1e-8,
        };
        let x = minimize(kind, 10.0, 3.0, 2000);
        assert!((x - 3.0).abs() < 1e-3, "x = {x}");
    }

    #[test]
    fn adamax_converges_on_quadratic() {
        let x = minimize(OptimizerKind::adamax_default(), 10.0, 3.0, 5000);
        assert!((x - 3.0).abs() < 1e-3, "x = {x}");
    }

    #[test]
    fn adamax_first_step_moves_by_learning_rate_magnitude() {
        // With bias correction, the very first AdaMax step is exactly
        // lr * sign(g) when m/u = (1-β1)g / |g| / (1-β1).
        let mut opt = Optimizer::new(
            OptimizerKind::AdaMax {
                learning_rate: 0.002,
                beta1: 0.9,
                beta2: 0.999,
            },
            1,
        );
        opt.next_step();
        let mut x = [1.0];
        opt.step(0, &mut x, &[5.0]);
        assert!((x[0] - (1.0 - 0.002)).abs() < 1e-12, "x = {}", x[0]);
    }

    #[test]
    fn adamax_is_scale_invariant_on_first_step() {
        // The infinity-norm normalization makes the first step independent
        // of the gradient's magnitude.
        for g in [1e-6, 1.0, 1e6] {
            let mut opt = Optimizer::new(OptimizerKind::adamax_default(), 1);
            opt.next_step();
            let mut x = [0.0];
            opt.step(0, &mut x, &[g]);
            assert!((x[0] + 0.002).abs() < 1e-12, "g = {g}, x = {}", x[0]);
        }
    }

    #[test]
    fn zero_gradient_is_a_fixed_point() {
        for kind in [
            OptimizerKind::sgd(0.1),
            OptimizerKind::adam_default(),
            OptimizerKind::adamax_default(),
        ] {
            let mut opt = Optimizer::new(kind, 1);
            opt.next_step();
            let mut x = [7.0];
            opt.step(0, &mut x, &[0.0]);
            assert_eq!(x[0], 7.0, "{kind:?}");
        }
    }

    #[test]
    fn reset_clears_state() {
        let mut opt = Optimizer::new(OptimizerKind::adamax_default(), 1);
        opt.next_step();
        let mut x = [0.0];
        opt.step(0, &mut x, &[1.0]);
        assert_eq!(opt.step_count(), 1);
        opt.reset();
        assert_eq!(opt.step_count(), 0);
    }

    #[test]
    fn separate_tensors_have_separate_state() {
        let mut opt = Optimizer::new(OptimizerKind::adamax_default(), 2);
        opt.next_step();
        let mut a = [0.0];
        let mut b = [0.0];
        opt.step(0, &mut a, &[1.0]);
        opt.step(1, &mut b, &[-1.0]);
        assert!(a[0] < 0.0 && b[0] > 0.0);
    }

    /// The AdaMax loop before the vector kernels, branch and all.
    fn adamax_reference(
        k: AdaMaxStep,
        params: &mut [f64],
        grads: &[f64],
        m: &mut [f64],
        u: &mut [f64],
    ) {
        for (((p, &g), m), u) in params
            .iter_mut()
            .zip(grads)
            .zip(m.iter_mut())
            .zip(u.iter_mut())
        {
            *m = k.beta1 * *m + (1.0 - k.beta1) * g;
            *u = (k.beta2 * *u).max(g.abs());
            if *u > 0.0 {
                *p -= k.step * *m / *u;
            }
        }
    }

    /// Every AdaMax variant this CPU can run.
    fn adamax_variants() -> Vec<KernelIsa> {
        let mut isas = vec![KernelIsa::Scalar];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                isas.push(KernelIsa::Avx2);
            }
            if is_x86_feature_detected!("avx512f") {
                isas.push(KernelIsa::Avx512);
            }
        }
        isas
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Runs the reference loop and every variant on the same inputs and
    /// hands each variant's `(params, m, u)` to `check` with the
    /// reference's.
    fn compare_adamax(
        k: AdaMaxStep,
        state: (&[f64], &[f64], &[f64]),
        grads: &[f64],
        check: impl Fn(KernelIsa, &[f64], &[f64]),
    ) {
        let (params, m, u) = state;
        let mut want = (params.to_vec(), m.to_vec(), u.to_vec());
        adamax_reference(k, &mut want.0, grads, &mut want.1, &mut want.2);
        for isa in adamax_variants() {
            let mut got = (params.to_vec(), m.to_vec(), u.to_vec());
            k.apply_on(isa, &mut got.0, grads, &mut got.1, &mut got.2);
            check(isa, &got.0, &want.0);
            check(isa, &got.1, &want.1);
            check(isa, &got.2, &want.2);
        }
    }

    const ADAMAX_TEST_STEP: AdaMaxStep = AdaMaxStep {
        step: 0.01 / (1.0 - 0.9 * 0.9 * 0.9),
        beta1: 0.9,
        beta2: 0.999,
    };

    /// `count` draws: mostly ordinary magnitudes, one in five from
    /// `specials`.
    fn draws(rng: &mut rand::rngs::StdRng, count: usize, specials: &[f64]) -> Vec<f64> {
        use rand::Rng;
        (0..count)
            .map(|_| {
                if rng.gen_bool(0.2) {
                    specials[rng.gen_range(0..specials.len())]
                } else {
                    rng.gen_range(-2.0..2.0) * 10f64.powi(rng.gen_range(-8..3))
                }
            })
            .collect()
    }

    const FINITE_SPECIALS: [f64; 7] =
        [0.0, -0.0, 5e-324, -1e-310, f64::MIN_POSITIVE, 1e300, -1e300];

    #[test]
    fn adamax_variants_equal_the_reference_loop_bitwise() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let mut grad_specials = FINITE_SPECIALS.to_vec();
        grad_specials.extend([f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -f64::NAN]);
        let mut moment_specials = FINITE_SPECIALS.to_vec();
        moment_specials.extend([f64::INFINITY, f64::NEG_INFINITY]);
        // 37 elements: whole 8- and 4-lane blocks plus a scalar tail.
        let n = 37;
        for round in 0..300 {
            let params = draws(&mut rng, n, &FINITE_SPECIALS);
            let m = draws(&mut rng, n, &moment_specials);
            // u = max(β₂·u, |g|) is never negative.
            let u: Vec<f64> = draws(&mut rng, n, &moment_specials)
                .iter()
                .map(|v| v.abs())
                .collect();
            let grads = draws(&mut rng, n, &grad_specials);
            compare_adamax(
                ADAMAX_TEST_STEP,
                (&params, &m, &u),
                &grads,
                |isa, got, want| {
                    assert_eq!(bits(got), bits(want), "{isa:?}, round {round}");
                },
            );
        }
    }

    #[test]
    fn adamax_variants_agree_on_nan_states() {
        // Once a NaN has reached the state, two different NaNs can meet in
        // one operation; IEEE 754 leaves the payload of the result to the
        // implementation, and even the reference loop's result depends on
        // the operand order its compiler picked. Every other value must
        // still match bitwise, and every NaN must stay a NaN.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        let mut specials = FINITE_SPECIALS.to_vec();
        specials.extend([f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -f64::NAN]);
        let n = 37;
        let class = |v: &[f64]| {
            v.iter()
                .map(|x| if x.is_nan() { u64::MAX } else { x.to_bits() })
                .collect::<Vec<_>>()
        };
        for round in 0..300 {
            let params = draws(&mut rng, n, &specials);
            let m = draws(&mut rng, n, &specials);
            let u = draws(&mut rng, n, &specials);
            let grads = draws(&mut rng, n, &specials);
            compare_adamax(
                ADAMAX_TEST_STEP,
                (&params, &m, &u),
                &grads,
                |isa, got, want| {
                    assert_eq!(class(got), class(want), "{isa:?}, round {round}");
                },
            );
        }
    }

    #[test]
    fn adamax_zero_gradient_from_the_first_step_keeps_params_bitwise() {
        // u stays 0, so the update (0/0 = NaN) must be discarded on every
        // variant, exactly as the reference loop's branch skipped it.
        let k = AdaMaxStep {
            step: 0.002 / (1.0 - 0.9),
            beta1: 0.9,
            beta2: 0.999,
        };
        let params: Vec<f64> = (0..19).map(|i| i as f64 - 9.5).collect();
        let grads = vec![0.0; 19];
        for isa in adamax_variants() {
            let (mut p, mut m, mut u) = (params.clone(), vec![0.0; 19], vec![0.0; 19]);
            for _ in 0..3 {
                k.apply_on(isa, &mut p, &grads, &mut m, &mut u);
            }
            assert_eq!(bits(&p), bits(&params), "{isa:?}");
            assert!(u.iter().all(|&v| v.to_bits() == 0), "{isa:?}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_grads_panic() {
        let mut opt = Optimizer::new(OptimizerKind::sgd(0.1), 1);
        let mut x = [0.0, 0.0];
        opt.step(0, &mut x, &[1.0]);
    }
}
