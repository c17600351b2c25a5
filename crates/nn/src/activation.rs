//! Activation functions and their derivatives, and the f64 tanh kernel.

use nrpm_linalg::{kernel_isa, KernelIsa};
use serde::{Deserialize, Serialize};

/// Element-wise activation functions for hidden layers.
///
/// The paper's architecture uses the hyperbolic tangent throughout its
/// hidden layers; ReLU and sigmoid are provided for ablations. The output
/// layer uses [`softmax_rows`] instead, fused with the cross-entropy loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Activation {
    /// Hyperbolic tangent (the paper's choice).
    #[default]
    Tanh,
    /// Rectified linear unit.
    ReLU,
    /// Logistic sigmoid.
    Sigmoid,
    /// Identity (used by the logits layer).
    Identity,
}

impl Activation {
    /// Applies the activation to a single pre-activation value.
    #[inline]
    pub fn apply(&self, z: f64) -> f64 {
        match self {
            Activation::Tanh => tanh_scalar(z),
            Activation::ReLU => z.max(0.0),
            Activation::Sigmoid => 1.0 / (1.0 + (-z).exp()),
            Activation::Identity => z,
        }
    }

    /// Derivative expressed in terms of the *activated* value `a = f(z)`.
    ///
    /// All four supported activations admit this form (`tanh' = 1 - a²`,
    /// `relu' = [a > 0]`, `sigmoid' = a(1-a)`, `id' = 1`), which lets the
    /// backward pass reuse the stored activations instead of the
    /// pre-activations.
    #[inline]
    pub fn derivative_from_output(&self, a: f64) -> f64 {
        match self {
            Activation::Tanh => 1.0 - a * a,
            Activation::ReLU => {
                if a > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => a * (1.0 - a),
            Activation::Identity => 1.0,
        }
    }
}

/// Adds `biases` to every row of the row-major `values` and applies the
/// activation, in one pass: `v ← act(v + b)`, a dense layer's forward
/// epilogue. Tanh runs the vectorized kernel; the result is bitwise
/// identical to adding the bias and then applying [`Activation::apply`]
/// element by element.
pub(crate) fn bias_activate_rows(act: Activation, values: &mut [f64], biases: &[f64]) {
    assert_eq!(values.len() % biases.len(), 0, "values are whole rows");
    let rows = values.chunks_exact_mut(biases.len());
    match act {
        Activation::Tanh => {
            let isa = kernel_isa();
            rows.for_each(|row| tanh_biased_on(isa, row, biases));
        }
        Activation::Identity => rows.for_each(|row| {
            row.iter_mut().zip(biases).for_each(|(v, b)| *v += b);
        }),
        _ => rows.for_each(|row| {
            row.iter_mut()
                .zip(biases)
                .for_each(|(v, b)| *v = act.apply(*v + b));
        }),
    }
}

// The f64 tanh.
//
// tanh |x| = u / (u + 2) with u = expm1(2|x|) ≥ 0, so nothing cancels.
// expm1(y) = 2^k (expm1(r) + 1) - 1 with y = k ln 2 + r, |r| ≤ ln 2 / 2,
// where expm1(r) is its Taylor series to r^13 (truncation below 0.1 ulp)
// plus the first-order effect of r's rounding error, and the last step
// is one FMA. The division folds back the rounding errors of `u + 2` and
// of the quotient. The sign is copied back from x.
//
// Every step is an IEEE add, multiply, FMA, divide or bit operation, so
// the AVX-512, AVX2+FMA and scalar `mul_add` variants below give the same
// bits, on any thread count and independent of the libm version. Error
// against the exact tanh stays below 1.5 ulp on a sampled check; the tests
// pin ≤ 4 ulp against libm (itself up to about 2 ulp off).

/// |x| is clamped here: tanh(22) already rounds to 1. The comparison
/// `CLAMP < |x|` is false for NaN, which therefore passes through.
const TANH_CLAMP: f64 = 22.0;
const LOG2E: f64 = std::f64::consts::LOG2_E;
/// ln 2 split so that `k * LN2_HI` is exact for the k reached here.
const LN2_HI: f64 = 0.693_147_180_369_123_8;
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
/// 1.5 · 2^52: adding it rounds to an integer that sits in the low
/// mantissa bits.
const SHIFTER: f64 = 6_755_399_441_055_744.0;
const SIGN: u64 = 1 << 63;
/// 1/13!, 1/12!, …, 1/2! (Horner order).
const EXPM1_TAYLOR: [f64; 12] = [
    1.0 / 6_227_020_800.0,
    1.0 / 479_001_600.0,
    1.0 / 39_916_800.0,
    1.0 / 3_628_800.0,
    1.0 / 362_880.0,
    1.0 / 40_320.0,
    1.0 / 5_040.0,
    1.0 / 720.0,
    1.0 / 120.0,
    1.0 / 24.0,
    1.0 / 6.0,
    1.0 / 2.0,
];

/// The scalar tanh, operation for operation the vector kernels' sequence.
fn tanh_scalar(x: f64) -> f64 {
    let ax = x.abs();
    let c = if TANH_CLAMP < ax { TANH_CLAMP } else { ax };
    let y = c + c;
    let t = y.mul_add(LOG2E, SHIFTER);
    let kf = t - SHIFTER;
    // r = y - k ln 2 rounds once; `rc` is what that rounding dropped.
    let r_hi = kf.mul_add(-LN2_HI, y);
    let r = kf.mul_add(-LN2_LO, r_hi);
    let rc = kf.mul_add(-LN2_LO, r_hi - r);
    let mut p = EXPM1_TAYLOR[0];
    for &coef in &EXPM1_TAYLOR[1..] {
        p = p.mul_add(r, coef);
    }
    // expm1(r + rc) ≈ r + r²·p + rc·(1 + r).
    let em = r + (r * r).mul_add(p, rc.mul_add(r, rc));
    // 2^k from the integer in t's low mantissa bits.
    let s = f64::from_bits(t.to_bits().wrapping_add(1023) << 52);
    let u = s.mul_add(em, s - 1.0);
    // u / (u + 2) with the denominator's rounding error `e` (2Sum) and
    // the quotient's residual folded back in: one division, and the
    // quotient is off by little more than its final rounding.
    let d = u + 2.0;
    let dv = d - u;
    let e = (u - (d - dv)) + (2.0 - dv);
    let rd = 1.0 / d;
    let q = u * rd;
    let rem = (-q).mul_add(d, u);
    let corr = (-q).mul_add(e, rem);
    let th = corr.mul_add(rd, q);
    f64::from_bits(th.to_bits() | (x.to_bits() & SIGN))
}

/// `values[i] ← tanh(values[i] + bias[i])` on the kernel `isa`, which
/// must be supported by the CPU (tests run every variant). Bitwise
/// identical to [`Activation::apply`] on every sum.
fn tanh_biased_on(isa: KernelIsa, values: &mut [f64], bias: &[f64]) {
    assert_eq!(values.len(), bias.len(), "one bias per value");
    match isa {
        // SAFETY: `kernel_isa` reports Avx512/Avx2 only when the CPU has
        // AVX-512F (resp. AVX2 and FMA); the slices have equal lengths.
        #[cfg(target_arch = "x86_64")]
        KernelIsa::Avx512 => unsafe { x86::tanh_avx512(values, bias) },
        #[cfg(target_arch = "x86_64")]
        KernelIsa::Avx2 => unsafe { x86::tanh_avx2(values, bias) },
        _ => {
            for (v, b) in values.iter_mut().zip(bias) {
                *v = tanh_scalar(*v + b);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{EXPM1_TAYLOR, LN2_HI, LN2_LO, LOG2E, SHIFTER, SIGN, TANH_CLAMP};
    use std::arch::x86_64::*;

    /// `values[i] ← tanh(values[i] + bias[i])`.
    ///
    /// # Safety
    /// The CPU must support AVX-512F, and `bias` must be as long as
    /// `values`.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn tanh_avx512(values: &mut [f64], bias: &[f64]) {
        let mut chunks = values.chunks_exact_mut(8);
        let mut bias_chunks = bias.chunks_exact(8);
        for (chunk, b) in (&mut chunks).zip(&mut bias_chunks) {
            let v = _mm512_add_pd(_mm512_loadu_pd(chunk.as_ptr()), _mm512_loadu_pd(b.as_ptr()));
            _mm512_storeu_pd(chunk.as_mut_ptr(), tanh8(v));
        }
        let rest = chunks.into_remainder();
        if !rest.is_empty() {
            let mask = (1u8 << rest.len()) - 1;
            let v = _mm512_add_pd(
                _mm512_maskz_loadu_pd(mask, rest.as_ptr()),
                _mm512_maskz_loadu_pd(mask, bias_chunks.remainder().as_ptr()),
            );
            _mm512_mask_storeu_pd(rest.as_mut_ptr(), mask, tanh8(v));
        }
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn tanh8(x: __m512d) -> __m512d {
        let sign = _mm512_set1_epi64(SIGN as i64);
        let xi = _mm512_castpd_si512(x);
        let ax = _mm512_castsi512_pd(_mm512_andnot_si512(sign, xi));
        // MINPD returns its second operand when either is NaN.
        let c = _mm512_min_pd(_mm512_set1_pd(TANH_CLAMP), ax);
        let y = _mm512_add_pd(c, c);
        let shifter = _mm512_set1_pd(SHIFTER);
        let t = _mm512_fmadd_pd(y, _mm512_set1_pd(LOG2E), shifter);
        let kf = _mm512_sub_pd(t, shifter);
        let ln2_lo = _mm512_set1_pd(-LN2_LO);
        let r_hi = _mm512_fmadd_pd(kf, _mm512_set1_pd(-LN2_HI), y);
        let r = _mm512_fmadd_pd(kf, ln2_lo, r_hi);
        let rc = _mm512_fmadd_pd(kf, ln2_lo, _mm512_sub_pd(r_hi, r));
        let mut p = _mm512_set1_pd(EXPM1_TAYLOR[0]);
        for &coef in &EXPM1_TAYLOR[1..] {
            p = _mm512_fmadd_pd(p, r, _mm512_set1_pd(coef));
        }
        let tail = _mm512_fmadd_pd(_mm512_mul_pd(r, r), p, _mm512_fmadd_pd(rc, r, rc));
        let em = _mm512_add_pd(r, tail);
        let bias = _mm512_add_epi64(_mm512_castpd_si512(t), _mm512_set1_epi64(1023));
        let s = _mm512_castsi512_pd(_mm512_slli_epi64::<52>(bias));
        let u = _mm512_fmadd_pd(s, em, _mm512_sub_pd(s, _mm512_set1_pd(1.0)));
        let two = _mm512_set1_pd(2.0);
        let d = _mm512_add_pd(u, two);
        let dv = _mm512_sub_pd(d, u);
        let e = _mm512_add_pd(
            _mm512_sub_pd(u, _mm512_sub_pd(d, dv)),
            _mm512_sub_pd(two, dv),
        );
        let rd = _mm512_div_pd(_mm512_set1_pd(1.0), d);
        let q = _mm512_mul_pd(u, rd);
        let rem = _mm512_fnmadd_pd(q, d, u);
        let corr = _mm512_fnmadd_pd(q, e, rem);
        let th = _mm512_fmadd_pd(corr, rd, q);
        let signed = _mm512_or_si512(_mm512_castpd_si512(th), _mm512_and_si512(xi, sign));
        _mm512_castsi512_pd(signed)
    }

    /// `values[i] ← tanh(values[i] + bias[i])`.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA, and `bias` must be as long as
    /// `values`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn tanh_avx2(values: &mut [f64], bias: &[f64]) {
        let mut chunks = values.chunks_exact_mut(4);
        let mut bias_chunks = bias.chunks_exact(4);
        for (chunk, b) in (&mut chunks).zip(&mut bias_chunks) {
            let v = _mm256_add_pd(_mm256_loadu_pd(chunk.as_ptr()), _mm256_loadu_pd(b.as_ptr()));
            _mm256_storeu_pd(chunk.as_mut_ptr(), tanh4(v));
        }
        let rest = chunks.into_remainder();
        if !rest.is_empty() {
            let mut buf = [0.0f64; 4];
            let mut bias_buf = [0.0f64; 4];
            buf[..rest.len()].copy_from_slice(rest);
            bias_buf[..rest.len()].copy_from_slice(bias_chunks.remainder());
            let v = _mm256_add_pd(
                _mm256_loadu_pd(buf.as_ptr()),
                _mm256_loadu_pd(bias_buf.as_ptr()),
            );
            _mm256_storeu_pd(buf.as_mut_ptr(), tanh4(v));
            rest.copy_from_slice(&buf[..rest.len()]);
        }
    }

    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn tanh4(x: __m256d) -> __m256d {
        let sign = _mm256_castsi256_pd(_mm256_set1_epi64x(SIGN as i64));
        let ax = _mm256_andnot_pd(sign, x);
        // MINPD returns its second operand when either is NaN.
        let c = _mm256_min_pd(_mm256_set1_pd(TANH_CLAMP), ax);
        let y = _mm256_add_pd(c, c);
        let shifter = _mm256_set1_pd(SHIFTER);
        let t = _mm256_fmadd_pd(y, _mm256_set1_pd(LOG2E), shifter);
        let kf = _mm256_sub_pd(t, shifter);
        let ln2_lo = _mm256_set1_pd(-LN2_LO);
        let r_hi = _mm256_fmadd_pd(kf, _mm256_set1_pd(-LN2_HI), y);
        let r = _mm256_fmadd_pd(kf, ln2_lo, r_hi);
        let rc = _mm256_fmadd_pd(kf, ln2_lo, _mm256_sub_pd(r_hi, r));
        let mut p = _mm256_set1_pd(EXPM1_TAYLOR[0]);
        for &coef in &EXPM1_TAYLOR[1..] {
            p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(coef));
        }
        let tail = _mm256_fmadd_pd(_mm256_mul_pd(r, r), p, _mm256_fmadd_pd(rc, r, rc));
        let em = _mm256_add_pd(r, tail);
        let bias = _mm256_add_epi64(_mm256_castpd_si256(t), _mm256_set1_epi64x(1023));
        let s = _mm256_castsi256_pd(_mm256_slli_epi64::<52>(bias));
        let u = _mm256_fmadd_pd(s, em, _mm256_sub_pd(s, _mm256_set1_pd(1.0)));
        let two = _mm256_set1_pd(2.0);
        let d = _mm256_add_pd(u, two);
        let dv = _mm256_sub_pd(d, u);
        let e = _mm256_add_pd(
            _mm256_sub_pd(u, _mm256_sub_pd(d, dv)),
            _mm256_sub_pd(two, dv),
        );
        let rd = _mm256_div_pd(_mm256_set1_pd(1.0), d);
        let q = _mm256_mul_pd(u, rd);
        let rem = _mm256_fnmadd_pd(q, d, u);
        let corr = _mm256_fnmadd_pd(q, e, rem);
        let th = _mm256_fmadd_pd(corr, rd, q);
        _mm256_or_pd(th, _mm256_and_pd(x, sign))
    }
}

/// In-place, numerically stable softmax over each row of a row-major
/// `rows x cols` buffer.
pub fn softmax_rows(data: &mut [f64], cols: usize) {
    assert!(cols > 0, "softmax needs at least one column");
    assert_eq!(data.len() % cols, 0, "buffer is not a whole number of rows");
    for row in data.chunks_mut(cols) {
        let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tanh_values_and_derivative() {
        let a = Activation::Tanh;
        assert_eq!(a.apply(0.0), 0.0);
        assert!((a.apply(1.0) - 1.0f64.tanh()).abs() < 1e-15);
        let out = a.apply(0.5);
        assert!((a.derivative_from_output(out) - (1.0 - out * out)).abs() < 1e-15);
    }

    /// Plain tanh on the kernel `isa`: the biased kernel with a `-0.0`
    /// bias, the additive identity for every value (`-0.0` included).
    fn tanh_in_place_on(isa: KernelIsa, values: &mut [f64]) {
        tanh_biased_on(isa, values, &vec![-0.0; values.len()]);
    }

    /// Every tanh variant this CPU can run.
    fn tanh_variants() -> Vec<KernelIsa> {
        let mut isas = vec![KernelIsa::Scalar];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                isas.push(KernelIsa::Avx2);
            }
            if is_x86_feature_detected!("avx512f") {
                isas.push(KernelIsa::Avx512);
            }
        }
        isas
    }

    /// A dense sweep of [-30, 30], the points where the reduction switches
    /// `k`, the clamp, and subnormal to tiny magnitudes of both signs.
    fn tanh_sweep() -> Vec<f64> {
        let mut xs: Vec<f64> = (0..=600_000).map(|i| -30.0 + i as f64 * 1e-4).collect();
        for k in 1..70 {
            let edge = (k as f64 - 0.5) * std::f64::consts::LN_2 / 2.0;
            for x in [edge, edge.next_down(), edge.next_up()] {
                xs.extend([x, -x]);
            }
        }
        for x in [
            TANH_CLAMP,
            19.0,
            19.1,
            1e-300,
            f64::MIN_POSITIVE,
            5e-324,
            1e-310,
        ] {
            xs.extend([x, -x]);
        }
        let mut tiny = 1e-320;
        while tiny < 1.0 {
            xs.extend([tiny, -tiny]);
            tiny *= 1.7;
        }
        xs
    }

    fn ulps(a: f64, b: f64) -> u64 {
        if a.is_sign_negative() != b.is_sign_negative() {
            return if a == b { 0 } else { u64::MAX };
        }
        a.to_bits().abs_diff(b.to_bits())
    }

    #[test]
    fn tanh_is_within_four_ulp_of_libm() {
        let mut worst = (0u64, 0.0);
        for x in tanh_sweep() {
            let d = ulps(Activation::Tanh.apply(x), x.tanh());
            if d > worst.0 {
                worst = (d, x);
            }
        }
        assert!(worst.0 <= 4, "{} ulp at x = {:e}", worst.0, worst.1);
    }

    #[test]
    fn tanh_special_values() {
        let apply = |x: f64| Activation::Tanh.apply(x);
        assert!(apply(f64::NAN).is_nan());
        assert!(apply(-f64::NAN).is_nan());
        assert_eq!(apply(f64::INFINITY), 1.0);
        assert_eq!(apply(f64::NEG_INFINITY), -1.0);
        assert_eq!(apply(0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(apply(-0.0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(apply(1e3), 1.0);
        assert_eq!(apply(-1e300), -1.0);
        for isa in tanh_variants() {
            let mut v = [
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                0.0,
                -0.0,
                5e-324,
            ];
            tanh_in_place_on(isa, &mut v);
            assert!(v[0].is_nan(), "{isa:?}: NaN must stay NaN");
            assert_eq!(&v[1..3], &[1.0, -1.0], "{isa:?}");
            assert_eq!(v[3].to_bits(), 0.0f64.to_bits(), "{isa:?}");
            assert_eq!(v[4].to_bits(), (-0.0f64).to_bits(), "{isa:?}");
            assert_eq!(v[5], 5e-324, "{isa:?}");
        }
    }

    #[test]
    fn tanh_variants_and_apply_agree_bitwise() {
        let sweep = tanh_sweep();
        let want: Vec<u64> = sweep
            .iter()
            .map(|&x| Activation::Tanh.apply(x).to_bits())
            .collect();
        for isa in tanh_variants() {
            // Every slice length mod the vector width exercises the tails.
            for skip in 0..8 {
                let mut got = sweep[skip..].to_vec();
                tanh_in_place_on(isa, &mut got);
                let got: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
                assert!(got == want[skip..], "{isa:?} differs (offset {skip})");
            }
        }
        let mut slice = sweep.clone();
        bias_activate_rows(Activation::Tanh, &mut slice, &[-0.0]);
        assert!(slice.iter().map(|v| v.to_bits()).eq(want.iter().copied()));
    }

    #[test]
    fn fused_bias_equals_add_then_apply_bitwise() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        // Widths with and without a vector tail; 9 rows each.
        for width in [1usize, 3, 8, 11, 43, 64] {
            let values: Vec<f64> = (0..9 * width).map(|_| rng.gen_range(-4.0..4.0)).collect();
            let biases: Vec<f64> = (0..width).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let added: Vec<f64> = values
                .chunks(width)
                .flat_map(|row| row.iter().zip(&biases).map(|(v, b)| v + b))
                .collect();
            for act in [
                Activation::Tanh,
                Activation::ReLU,
                Activation::Sigmoid,
                Activation::Identity,
            ] {
                let want: Vec<u64> = added.iter().map(|&z| act.apply(z).to_bits()).collect();
                let mut got = values.clone();
                bias_activate_rows(act, &mut got, &biases);
                let got: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "{act:?}, width {width}");
            }
            for isa in tanh_variants() {
                let want: Vec<u64> = added.iter().map(|&z| tanh_scalar(z).to_bits()).collect();
                let mut got = values.clone();
                for row in got.chunks_mut(width) {
                    tanh_biased_on(isa, row, &biases);
                }
                let got: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "{isa:?}, width {width}");
            }
        }
    }

    #[test]
    fn relu_clamps_negatives() {
        let a = Activation::ReLU;
        assert_eq!(a.apply(-3.0), 0.0);
        assert_eq!(a.apply(2.0), 2.0);
        assert_eq!(a.derivative_from_output(0.0), 0.0);
        assert_eq!(a.derivative_from_output(5.0), 1.0);
    }

    #[test]
    fn sigmoid_is_centered_at_half() {
        let a = Activation::Sigmoid;
        assert!((a.apply(0.0) - 0.5).abs() < 1e-15);
        assert!((a.derivative_from_output(0.5) - 0.25).abs() < 1e-15);
        assert!(a.apply(100.0) <= 1.0);
        assert!(a.apply(-100.0) >= 0.0);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let h = 1e-6;
        for act in [Activation::Tanh, Activation::Sigmoid, Activation::Identity] {
            for z in [-2.0, -0.5, 0.1, 1.5] {
                let numeric = (act.apply(z + h) - act.apply(z - h)) / (2.0 * h);
                let analytic = act.derivative_from_output(act.apply(z));
                assert!(
                    (numeric - analytic).abs() < 1e-6,
                    "{act:?} at z={z}: {numeric} vs {analytic}"
                );
            }
        }
    }

    #[test]
    fn softmax_rows_sum_to_one_and_preserve_order() {
        let mut data = vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0];
        softmax_rows(&mut data, 3);
        for row in data.chunks(3) {
            let sum: f64 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
            assert!(row[0] < row[1] && row[1] < row[2]);
        }
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let mut data = vec![1000.0, 1001.0];
        softmax_rows(&mut data, 2);
        assert!(data.iter().all(|v| v.is_finite()));
        assert!((data[0] + data[1] - 1.0).abs() < 1e-12);
        assert!(data[1] > data[0]);
    }

    #[test]
    #[should_panic(expected = "whole number of rows")]
    fn softmax_rejects_ragged_buffers() {
        let mut data = vec![1.0, 2.0, 3.0];
        softmax_rows(&mut data, 2);
    }
}
