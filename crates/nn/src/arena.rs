//! Preallocated training buffers and the layer-major gradient pass.
//!
//! The mini-batch gradient is the hottest loop in the workspace. It runs
//! layer by layer over the whole batch: the forward pass and
//! `dX = dZ · Wᵀ` are one batch-high GEMM per layer, and `dW = Xᵀ · dZ` is
//! one segmented GEMM ([`matmul_at_segmented_into`]). Every buffer is
//! allocated once per training run and reused for every batch, and
//! transposed weight panels are cached in [`TrainScratch`] and refreshed
//! once per optimizer step instead of re-materialized in every backward
//! pass.
//!
//! # Summation order
//!
//! Sums over the batch — `dW`, the bias gradients and the loss — run in
//! fixed [`SEGMENT_ROWS`]-row segments: each segment's sum starts at zero,
//! and the segment sums are added in ascending order, then scaled by
//! `1 / batch` once. Everything else is row-independent. Neither the
//! segment boundaries nor that order depend on the thread count, and the
//! GEMM's row-stripe partition is bitwise-invariant, so training with one
//! thread and with eight produces the same weights for the same seed: the
//! thread count is a pure deployment knob.

use crate::activation::{softmax_rows, Activation};
use crate::layer::LayerGradients;
use crate::network::Network;
use nrpm_linalg::{matmul_at_segmented_into, matmul_into, MatmulOptions, Matrix};

/// Rows per summation segment. Fixed — never derived from the thread
/// count — so every floating-point summation order is identical no matter
/// how many threads run.
pub(crate) const SEGMENT_ROWS: usize = 16;

/// Work floor per thread for the trainer's GEMMs: about a millisecond of
/// kernel time. A spawned stripe starts with cold caches and must refill
/// its share of the operands; on a 2-vCPU AVX-512 VM the compact network's
/// largest per-batch product (8.4 MFLOP) ran slower on two threads than
/// on one. Wide networks (the paper's 1500-unit layers) still fan out.
const TRAIN_MIN_FLOPS_PER_THREAD: usize = 32_000_000;

/// All reusable state of one training run: per-layer activations and
/// gradients sized for the batch, the batch gradient, cached transposed
/// weights, and the gather/one-hot batch buffers.
pub(crate) struct TrainScratch {
    /// Options of every GEMM in the pass (thread count and work floor).
    opts: MatmulOptions,
    /// `activations[l]` holds layer `l`'s activated output for the batch.
    activations: Vec<Matrix>,
    /// Current gradient (`dZ` of the layer being processed); doubles as
    /// the softmax-probability buffer.
    grad: Matrix,
    /// Ping-pong partner of [`Self::grad`] receiving `dX` for the layer
    /// below.
    grad_prev: Matrix,
    /// One segment's bias-gradient sums.
    bias_segment: Vec<f64>,
    /// The batch-mean gradient.
    pub(crate) total: Vec<LayerGradients>,
    /// Cached `Wᵀ` of layers 1.. (`weights_t[l - 1]` for layer `l`) for
    /// the backward pass's `dX`; layer 0 has no `dX`, so no panel. Refresh
    /// via [`TrainScratch::refresh_weights_t`] whenever the weights change.
    weights_t: Vec<Matrix>,
    /// Reusable gather/one-hot buffers for the current batch.
    pub(crate) x: Matrix,
    pub(crate) y: Matrix,
}

impl TrainScratch {
    /// Allocates scratch whose GEMMs run on up to `threads` threads
    /// (already resolved; at least 1). Buffers grow to the batch on first
    /// use; [`TRAIN_MIN_FLOPS_PER_THREAD`] keeps small products on one
    /// thread.
    pub(crate) fn new(net: &Network, threads: usize) -> Self {
        Self::with_matmul_options(
            net,
            MatmulOptions {
                threads,
                min_flops_per_thread: TRAIN_MIN_FLOPS_PER_THREAD,
                ..Default::default()
            },
        )
    }

    /// Like [`TrainScratch::new`] with explicit GEMM options; tests use it
    /// to force the parallel stripes on deliberately tiny models.
    pub(crate) fn with_matmul_options(net: &Network, opts: MatmulOptions) -> Self {
        let layers = net.layers();
        TrainScratch {
            opts,
            activations: layers
                .iter()
                .map(|l| Matrix::zeros(0, l.out_dim()))
                .collect(),
            grad: Matrix::zeros(0, 0),
            grad_prev: Matrix::zeros(0, 0),
            bias_segment: Vec::new(),
            total: layers
                .iter()
                .map(|l| LayerGradients {
                    weights: Matrix::zeros(l.in_dim(), l.out_dim()),
                    biases: vec![0.0; l.out_dim()],
                })
                .collect(),
            weights_t: layers[1..].iter().map(|l| l.weights.transpose()).collect(),
            x: Matrix::zeros(0, net.input_dim()),
            y: Matrix::zeros(0, net.num_classes()),
        }
    }

    /// Refreshes the cached transposed weight panels from the network's
    /// current weights. Call after every weight mutation (optimizer step,
    /// weight decay, watchdog rollback).
    pub(crate) fn refresh_weights_t(&mut self, net: &Network) {
        for (wt, layer) in self.weights_t.iter_mut().zip(&net.layers()[1..]) {
            layer
                .weights
                .transpose_into(wt)
                .expect("weight shapes are fixed for a run");
        }
    }

    /// Multiplies the accumulated batch gradient in place: the `1 / batch`
    /// mean and the watchdog's norm clip.
    pub(crate) fn scale_total(&mut self, factor: f64) {
        for g in &mut self.total {
            g.weights.scale_inplace(factor);
            for b in &mut g.biases {
                *b *= factor;
            }
        }
    }

    /// [`Self::scale_total`] that also returns the L2 norm of the scaled
    /// gradient, from the same pass. The squares are summed serially,
    /// layer by layer, weights before biases.
    fn scale_total_with_norm(&mut self, factor: f64) -> f64 {
        let mut sq = 0.0;
        for g in &mut self.total {
            for v in g.weights.as_mut_slice().iter_mut().chain(&mut g.biases) {
                *v *= factor;
                sq += *v * *v;
            }
        }
        sq.sqrt()
    }
}

/// Turns `grad` (row-major, one row per sample, `biases.len()` wide) from
/// `dA` into `dZ = dA ⊙ act'(A)` given the activated outputs, and writes
/// the column sums of `dZ` to `biases`, summed per [`SEGMENT_ROWS`]-row
/// segment in the module's order. The activation is matched once, not per
/// element.
fn dz_and_bias_sums(
    act: Activation,
    grad: &mut [f64],
    outputs: &[f64],
    biases: &mut [f64],
    segment: &mut Vec<f64>,
) {
    fn pass(
        grad: &mut [f64],
        outputs: &[f64],
        biases: &mut [f64],
        segment: &mut Vec<f64>,
        dz: impl Fn(f64, f64) -> f64,
    ) {
        let width = biases.len();
        biases.fill(0.0);
        segment.resize(width, 0.0);
        let rows = grad.chunks_mut(SEGMENT_ROWS * width);
        for (rows, outs) in rows.zip(outputs.chunks(SEGMENT_ROWS * width)) {
            segment.fill(0.0);
            for (row, out) in rows.chunks_mut(width).zip(outs.chunks(width)) {
                for ((g, &a), s) in row.iter_mut().zip(out).zip(segment.iter_mut()) {
                    *g = dz(*g, a);
                    *s += *g;
                }
            }
            for (b, s) in biases.iter_mut().zip(&segment[..]) {
                *b += s;
            }
        }
    }
    // One closure per arm, so each `pass` is compiled for one activation.
    match act {
        Activation::Tanh => pass(grad, outputs, biases, segment, |g, a| {
            g * Activation::Tanh.derivative_from_output(a)
        }),
        Activation::ReLU => pass(grad, outputs, biases, segment, |g, a| {
            g * Activation::ReLU.derivative_from_output(a)
        }),
        Activation::Sigmoid => pass(grad, outputs, biases, segment, |g, a| {
            g * Activation::Sigmoid.derivative_from_output(a)
        }),
        Activation::Identity => pass(grad, outputs, biases, segment, |g, _| g),
    }
}

impl Network {
    /// Computes the mean cross-entropy and mean parameter gradients of the
    /// batch held in `scratch.x` / `scratch.y`, leaving the gradients in
    /// `scratch.total`. Returns the loss.
    ///
    /// Runs layer-major over the whole batch; sums over rows follow the
    /// segment order in the module docs, so the result is bitwise
    /// identical at any thread count.
    pub(crate) fn accumulate_gradients(&self, scratch: &mut TrainScratch) -> f64 {
        let (loss_sum, inv) = self.accumulate_gradient_sums(scratch);
        scratch.scale_total(inv);
        loss_sum * inv
    }

    /// [`Self::accumulate_gradients`] that also returns the mean
    /// gradient's L2 norm, computed in the pass that takes the mean.
    /// Returns `(loss, norm)`.
    pub(crate) fn accumulate_gradients_with_norm(&self, scratch: &mut TrainScratch) -> (f64, f64) {
        let (loss_sum, inv) = self.accumulate_gradient_sums(scratch);
        let norm = scratch.scale_total_with_norm(inv);
        (loss_sum * inv, norm)
    }

    /// The batch sums behind [`Self::accumulate_gradients`]: leaves the
    /// summed gradients in `scratch.total` and returns the summed loss
    /// and `1 / batch`.
    fn accumulate_gradient_sums(&self, scratch: &mut TrainScratch) -> (f64, f64) {
        let n = scratch.x.rows();
        assert!(n > 0, "gradient of an empty batch");
        let TrainScratch {
            opts,
            activations,
            grad,
            grad_prev,
            bias_segment,
            total,
            weights_t,
            x,
            y,
        } = scratch;
        let opts = *opts;
        let layers = self.layers();

        for (l, layer) in layers.iter().enumerate() {
            let (done, rest) = activations.split_at_mut(l);
            let input = done.last().unwrap_or(x);
            layer.forward_into(input, &mut rest[0], opts);
        }

        // Fused softmax + cross-entropy on the logits, reusing the gradient
        // buffer as the probability buffer.
        let classes = y.cols();
        let logits = activations.last().expect("networks have a layer");
        grad.resize(n, classes);
        grad.as_mut_slice().copy_from_slice(logits.as_slice());
        softmax_rows(grad.as_mut_slice(), classes);
        let mut loss = 0.0;
        let segment = SEGMENT_ROWS * classes;
        for (probs, targets) in grad
            .as_slice()
            .chunks(segment)
            .zip(y.as_slice().chunks(segment))
        {
            let mut segment_loss = 0.0;
            for (p, t) in probs.iter().zip(targets) {
                if *t > 0.0 {
                    segment_loss -= t * p.max(1e-300).ln();
                }
            }
            loss += segment_loss;
        }
        // dL/dZ_logits summed over the batch: P - Y (unscaled; the sums
        // are divided by n exactly once at the end).
        grad.sub_assign(y).expect("shapes agree");

        for l in (0..layers.len()).rev() {
            let layer = &layers[l];
            // dZ = dA ⊙ act'(A) in place (identity for the logits layer),
            // and db = column sums of dZ, in one pass.
            dz_and_bias_sums(
                layer.activation,
                grad.as_mut_slice(),
                activations[l].as_slice(),
                &mut total[l].biases,
                bias_segment,
            );
            let input = if l == 0 { &*x } else { &activations[l - 1] };
            // dW = Xᵀ · dZ, summed segment by segment.
            matmul_at_segmented_into(input, grad, &mut total[l].weights, SEGMENT_ROWS, opts)
                .expect("gradient shapes agree");
            // dX = dZ · Wᵀ via the cached transposed panel.
            if l > 0 {
                grad_prev.resize(n, layer.in_dim());
                matmul_into(grad, &weights_t[l - 1], grad_prev, opts)
                    .expect("gradient shapes agree");
                std::mem::swap(grad, grad_prev);
            }
        }

        (loss, 1.0 / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkConfig;
    use nrpm_linalg::matmul_at_into;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn toy_batch(n: usize, features: usize, classes: usize, seed: u64) -> (Matrix, Matrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Matrix::from_fn(n, features, |_, _| rng.gen_range(-1.0..1.0));
        let mut y = Matrix::zeros(n, classes);
        for r in 0..n {
            let label = rng.gen_range(0..classes);
            y[(r, label)] = 1.0;
        }
        (x, y)
    }

    fn gradients(net: &Network, scratch: &mut TrainScratch, x: &Matrix, y: &Matrix) -> f64 {
        scratch.x = x.clone();
        scratch.y = y.clone();
        scratch.refresh_weights_t(net);
        net.accumulate_gradients(scratch)
    }

    /// The chunked pass the layer-major one replaced: forward and backward
    /// over each [`SEGMENT_ROWS`]-row chunk on its own, per-chunk
    /// sum-gradients, then a reduction in chunk order and one scale.
    fn chunk_then_reduce(net: &Network, x: &Matrix, y: &Matrix) -> (f64, Vec<LayerGradients>) {
        let n = x.rows();
        let mut total: Vec<LayerGradients> = net
            .layers()
            .iter()
            .map(|l| LayerGradients {
                weights: Matrix::zeros(l.in_dim(), l.out_dim()),
                biases: vec![0.0; l.out_dim()],
            })
            .collect();
        let mut loss_sum = 0.0;
        for row0 in (0..n).step_by(SEGMENT_ROWS) {
            let rows = SEGMENT_ROWS.min(n - row0);
            let xc = x.block(row0, 0, rows, x.cols());
            let yc = y.block(row0, 0, rows, y.cols());
            let acts = net.forward_all(&xc);
            let mut grad = acts.last().unwrap().clone();
            softmax_rows(grad.as_mut_slice(), yc.cols());
            let mut loss = 0.0;
            for (p, t) in grad.as_slice().iter().zip(yc.as_slice()) {
                if *t > 0.0 {
                    loss -= t * p.max(1e-300).ln();
                }
            }
            loss_sum += loss;
            grad.sub_assign(&yc).unwrap();
            for l in (0..net.layers().len()).rev() {
                let layer = &net.layers()[l];
                if layer.activation != Activation::Identity {
                    for (g, &a) in grad.as_mut_slice().iter_mut().zip(acts[l + 1].as_slice()) {
                        *g *= layer.activation.derivative_from_output(a);
                    }
                }
                let mut dw = Matrix::zeros(layer.in_dim(), layer.out_dim());
                matmul_at_into(&acts[l], &grad, &mut dw, MatmulOptions::default()).unwrap();
                let mut db = vec![0.0; layer.out_dim()];
                for row in grad.as_slice().chunks(layer.out_dim()) {
                    for (b, v) in db.iter_mut().zip(row) {
                        *b += v;
                    }
                }
                total[l].weights.add_assign(&dw).unwrap();
                for (t, b) in total[l].biases.iter_mut().zip(&db) {
                    *t += b;
                }
                grad = nrpm_linalg::matmul(&grad, &layer.weights.transpose()).unwrap();
            }
        }
        let inv = 1.0 / n as f64;
        for t in &mut total {
            t.weights.scale_inplace(inv);
            for b in &mut t.biases {
                *b *= inv;
            }
        }
        (loss_sum * inv, total)
    }

    #[test]
    fn pooled_gradients_match_the_reference_implementation() {
        let net = Network::new(&NetworkConfig::new(&[4, 12, 7, 3]), 31);
        // 50 rows: several full segments plus a ragged tail.
        let (x, y) = toy_batch(50, 4, 3, 5);
        let (ref_loss, ref_grads) = net.compute_gradients(&x, &y);

        let mut scratch = TrainScratch::new(&net, 3);
        let loss = gradients(&net, &mut scratch, &x, &y);

        assert!((loss - ref_loss).abs() < 1e-12, "{loss} vs {ref_loss}");
        for (t, r) in scratch.total.iter().zip(ref_grads.iter()) {
            for (tv, rv) in t.weights.as_slice().iter().zip(r.weights.as_slice()) {
                assert!((tv - rv).abs() < 1e-12, "{tv} vs {rv}");
            }
            for (tb, rb) in t.biases.iter().zip(r.biases.iter()) {
                assert!((tb - rb).abs() < 1e-12, "{tb} vs {rb}");
            }
        }
    }

    #[test]
    fn layer_major_pass_equals_chunk_then_reduce_bitwise() {
        let net = Network::new(&NetworkConfig::new(&[5, 24, 9, 4]), 77);
        for n in [1usize, 7, 50, 128, 130] {
            let (x, y) = toy_batch(n, 5, 4, n as u64);
            let (ref_loss, ref_grads) = chunk_then_reduce(&net, &x, &y);
            for threads in 1..=8 {
                // Force the parallel GEMM stripes even on this tiny model.
                let mut scratch = TrainScratch::with_matmul_options(
                    &net,
                    MatmulOptions {
                        threads,
                        parallel_threshold: 1,
                        min_flops_per_thread: 1,
                        ..Default::default()
                    },
                );
                let loss = gradients(&net, &mut scratch, &x, &y);
                let at = format!("n = {n}, threads = {threads}");
                assert_eq!(loss.to_bits(), ref_loss.to_bits(), "{at}");
                let bits = |v: &[f64]| v.iter().map(|b| b.to_bits()).collect::<Vec<_>>();
                for (t, r) in scratch.total.iter().zip(&ref_grads) {
                    assert_eq!(
                        bits(t.weights.as_slice()),
                        bits(r.weights.as_slice()),
                        "{at}"
                    );
                    assert_eq!(bits(&t.biases), bits(&r.biases), "{at}");
                }
            }
        }
    }

    #[test]
    fn fused_norm_equals_the_serial_norm_of_the_mean_gradient() {
        let net = Network::new(&NetworkConfig::new(&[5, 24, 9, 4]), 77);
        let (x, y) = toy_batch(50, 5, 4, 3);
        let mut plain = TrainScratch::new(&net, 1);
        let want_loss = gradients(&net, &mut plain, &x, &y);
        // The norm as the watchdog summed it before the fusion: a second
        // serial pass over the mean gradient.
        let mut sq = 0.0;
        for g in &plain.total {
            for v in g.weights.as_slice() {
                sq += v * v;
            }
            for b in &g.biases {
                sq += b * b;
            }
        }
        let mut fused = TrainScratch::new(&net, 1);
        fused.x = x;
        fused.y = y;
        fused.refresh_weights_t(&net);
        let (loss, norm) = net.accumulate_gradients_with_norm(&mut fused);
        assert_eq!(loss.to_bits(), want_loss.to_bits());
        assert_eq!(norm.to_bits(), sq.sqrt().to_bits());
        for (f, p) in fused.total.iter().zip(&plain.total) {
            assert_eq!(f.weights, p.weights);
            assert_eq!(f.biases, p.biases);
        }
    }

    #[test]
    fn pooled_gradients_are_bitwise_worker_count_invariant() {
        let net = Network::new(&NetworkConfig::new(&[5, 16, 4]), 77);
        let (x, y) = toy_batch(70, 5, 4, 11);

        let mut reference: Option<(f64, Vec<LayerGradients>)> = None;
        for threads in [1usize, 2, 3, 4, 8] {
            let mut scratch = TrainScratch::new(&net, threads);
            let loss = gradients(&net, &mut scratch, &x, &y);
            match &reference {
                None => reference = Some((loss, scratch.total.clone())),
                Some((ref_loss, ref_grads)) => {
                    assert_eq!(loss.to_bits(), ref_loss.to_bits(), "threads = {threads}");
                    for (t, r) in scratch.total.iter().zip(ref_grads.iter()) {
                        assert_eq!(t.weights, r.weights, "threads = {threads}");
                        assert_eq!(t.biases, r.biases, "threads = {threads}");
                    }
                }
            }
        }
    }

    #[test]
    fn scratch_buffers_survive_changing_batch_sizes() {
        let net = Network::new(&NetworkConfig::new(&[3, 8, 2]), 9);
        let mut scratch = TrainScratch::new(&net, 2);
        // The last batch of an epoch is usually smaller, and the buffers
        // grow on demand, so every size must work with one scratch.
        for n in [32, 7, 48, 1] {
            let (x, y) = toy_batch(n, 3, 2, n as u64);
            let (ref_loss, _) = net.compute_gradients(&x, &y);
            let loss = gradients(&net, &mut scratch, &x, &y);
            assert!((loss - ref_loss).abs() < 1e-12, "n = {n}");
        }
    }

    #[test]
    fn refresh_tracks_weight_changes() {
        let mut net = Network::new(&NetworkConfig::new(&[2, 6, 5, 2]), 3);
        let mut scratch = TrainScratch::new(&net, 1);
        // Mutate the weights, refresh, and verify the cache matches. Only
        // layers 1.. have a panel: the input layer has no `dX`.
        for layer in net.layers_mut() {
            layer.weights.scale_inplace(0.5);
        }
        scratch.refresh_weights_t(&net);
        assert_eq!(scratch.weights_t.len(), net.layers().len() - 1);
        for (wt, layer) in scratch.weights_t.iter().zip(&net.layers()[1..]) {
            assert_eq!(*wt, layer.weights.transpose());
        }
    }
}
