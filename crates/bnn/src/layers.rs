//! Bayesian and auxiliary layers.
//!
//! Every layer implements [`Layer`]. Bayesian layers ([`BayesLinear`], [`BayesConv2d`]) sample
//! their weights from `(μ, σ)` with ε drawn from an [`EpsilonSource`] during the forward stage,
//! and *reconstruct* the same weights during the backward stage by asking the source for the same
//! ε block again — exactly the paper's process ② — rather than caching the sampled weights.
//! Auxiliary layers (ReLU, max-pooling, flatten) carry no parameters.
//!
//! Layers move tensors **by value** and draw every temporary from the per-worker
//! [`Scratch`] arena: activations flow down the stack without cloning, consumed inputs are
//! cached for the backward stage (replacing — and recycling — whatever the previous iteration
//! left), and gradients travel back the same way. After a warmup iteration has grown the
//! arena, a steady-state forward+backward pass performs **zero heap allocations** (asserted by
//! the allocation-counting test in `crates/bench`).

use crate::epsilon::EpsilonSource;
use crate::snapshot::LayerSnapshot;
use crate::variational::{BayesConfig, VariationalParams};
use bnn_tensor::activation::{relu_backward_into, relu_into};
use bnn_tensor::conv::ConvGeometry;
use bnn_tensor::kernels::{
    conv2d_backward_input_into, conv2d_backward_weights_packed, conv2d_forward_packed,
    linear_matvec, pack_im2col, pack_im2row,
};
use bnn_tensor::pool::{max_pool2d_backward_into, max_pool2d_into};
use bnn_tensor::{Scratch, Tensor, TensorError};
use rand::Rng;

/// A network layer processing one sampled model at a time.
///
/// The trainer drives layers through three phases per iteration:
///
/// 1. [`begin_iteration`](Layer::begin_iteration) with the number of Monte-Carlo samples `S`;
/// 2. for each sample `s`: [`forward`](Layer::forward) through all layers, then
///    [`backward`](Layer::backward) through all layers in reverse (the first layer through
///    [`backward_params`](Layer::backward_params));
/// 3. [`apply_update`](Layer::apply_update) once.
///
/// Inputs and upstream gradients are consumed by value; every intermediate buffer comes from
/// (and returns to) the caller's [`Scratch`] arena.
///
/// Layers are `Send`, so a whole [`Network`](crate::network::Network) can move between
/// threads: a serving engine keeps its warm replicas across runs and hands each to whichever
/// pool worker the next run starts.
pub trait Layer: Send {
    /// Forward pass for sample `s`, consuming the input activation.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if the input shape does not match the layer.
    fn forward(
        &mut self,
        sample: usize,
        input: Tensor,
        eps: &mut dyn EpsilonSource,
        scratch: &mut Scratch,
    ) -> Result<Tensor, TensorError>;

    /// Backward pass for sample `s`, consuming the gradient w.r.t. this layer's output and
    /// returning the gradient w.r.t. its input.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if the gradient shape does not match the layer.
    fn backward(
        &mut self,
        sample: usize,
        grad_output: Tensor,
        eps: &mut dyn EpsilonSource,
        scratch: &mut Scratch,
    ) -> Result<Tensor, TensorError>;

    /// [`backward`](Layer::backward) for a layer whose input gradient nobody reads — the
    /// first layer of a network: accumulates the parameter gradients exactly as `backward`
    /// does and returns no input gradient. The default runs `backward` and recycles the
    /// result; layers whose input gradient costs real work override it to skip that work.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if the gradient shape does not match the layer.
    fn backward_params(
        &mut self,
        sample: usize,
        grad_output: Tensor,
        eps: &mut dyn EpsilonSource,
        scratch: &mut Scratch,
    ) -> Result<(), TensorError> {
        let grad_input = self.backward(sample, grad_output, eps, scratch)?;
        scratch.put_tensor(grad_input);
        Ok(())
    }

    /// Forward pass of **all** `samples` sampled models over a sample-stacked activation
    /// (the fused-sampling path). `stacked` holds the per-sample activations sample-major:
    /// rank-2 `[S, F]` for vectors, rank-3 `[S·C, H, W]` for feature maps, so a flatten is a
    /// pure reshape and per-channel ops act per-sample for free.
    ///
    /// The contract is bit-exactness with the per-sample [`Layer::forward`] walk: one
    /// `forward_all` call must produce exactly the stacked concatenation of `samples`
    /// individual `forward` calls — same ε draws from `sources[s]`, same per-scalar
    /// accumulation orders — and, when `train` is true, leave identical per-sample caches
    /// and complexity sums behind. When `train` is false a layer may skip backward-only work
    /// (input caches, complexity accumulation), which makes fused serving *faster*, never
    /// *different* (pinned by `bnn-serve`'s fused-identity tests).
    ///
    /// The default implementation splits, forwards per sample, and restacks — correct for
    /// any layer; layers with a faster fused evaluation override it.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if the stacked shape does not match the layer.
    fn forward_all(
        &mut self,
        stacked: Tensor,
        samples: usize,
        sources: &mut [Box<dyn EpsilonSource>],
        train: bool,
        scratch: &mut Scratch,
    ) -> Result<Tensor, TensorError> {
        let _ = train;
        forward_all_split(self, stacked, samples, sources, scratch)
    }

    /// Prepares per-sample caches for an iteration of `samples` Monte-Carlo samples,
    /// recycling whatever the previous iteration left cached (so forward-only iterations
    /// return their activations to the arena, and a backward pass without a matching forward
    /// still fails loudly instead of consuming stale state).
    fn begin_iteration(&mut self, samples: usize, scratch: &mut Scratch);

    /// Applies the accumulated parameter updates (averaged over the iteration's samples).
    fn apply_update(&mut self, learning_rate: f32);

    /// Number of ε values this layer draws per sample (0 for non-Bayesian layers).
    fn epsilon_count(&self) -> usize {
        0
    }

    /// Number of trainable scalar parameters (counting μ and ρ separately).
    fn parameter_count(&self) -> usize {
        0
    }

    /// Complexity loss `Σ[log q − log P]` accumulated across the samples of the current
    /// iteration (0 for non-Bayesian layers).
    fn complexity_loss(&self) -> f32 {
        0.0
    }

    /// A short human-readable layer name for reports.
    fn name(&self) -> &'static str;

    /// Captures the layer's complete trainable state as a [`LayerSnapshot`] — parameters,
    /// gradient accumulators and geometry, but **not** the per-sample activation caches
    /// (snapshots are taken at iteration boundaries, where those are empty). The snapshot
    /// rebuilds an identical layer via [`LayerSnapshot::build`].
    fn snapshot(&self) -> LayerSnapshot;
}

/// Empties a per-sample tensor cache, returning every cached buffer to the arena (what
/// `begin_iteration` does with the previous iteration's leftovers).
fn recycle_tensor_cache(slots: &mut [Option<Tensor>], scratch: &mut Scratch) {
    for slot in slots {
        if let Some(stale) = slot.take() {
            scratch.put_tensor(stale);
        }
    }
}

/// Caches `value` for `sample`, recycling whatever a previous iteration left in the slot.
fn cache_tensor(slots: &mut [Option<Tensor>], sample: usize, value: Tensor, scratch: &mut Scratch) {
    if let Some(old) = slots[sample].replace(value) {
        scratch.put_tensor(old);
    }
}

/// Grows a per-sample cache without reallocating in the steady state (never shrinks, so an
/// oscillating sample count cannot thrash the `Vec`; callers empty the slots — recycling
/// their buffers — before resizing).
fn resize_cache<T>(slots: &mut Vec<Option<T>>, samples: usize) {
    if slots.len() < samples {
        slots.resize_with(samples, || None);
    }
}

/// Takes a stacked tensor for `samples` copies of a per-sample `shape`: rank-3 feature maps
/// stack along channels (`[S·C, H, W]`), everything else stacks as rows (`[S, len]`).
fn take_stacked(scratch: &mut Scratch, per_sample: &[usize], samples: usize) -> Tensor {
    match per_sample {
        [c, h, w] => scratch.take_tensor(&[samples * c, *h, *w]),
        shape => scratch.take_tensor(&[samples, shape.iter().product()]),
    }
}

/// The generic (and trivially bit-exact) fused walk: split the stacked activation per
/// sample, run the layer's own per-sample [`Layer::forward`], restack the outputs. Every
/// `forward_all` override must match this byte for byte; layers without a faster fused
/// evaluation — and every layer when `train` needs the full per-sample cache shape — defer
/// to it.
fn forward_all_split<L: Layer + ?Sized>(
    layer: &mut L,
    stacked: Tensor,
    samples: usize,
    sources: &mut [Box<dyn EpsilonSource>],
    scratch: &mut Scratch,
) -> Result<Tensor, TensorError> {
    assert!(
        samples >= 1 && sources.len() >= samples,
        "fused forward needs one ε source per sample"
    );
    let per_len = stacked.len() / samples;
    let mut out: Option<Tensor> = None;
    for (s, source) in sources.iter_mut().take(samples).enumerate() {
        let mut input = match stacked.shape() {
            &[c, h, w] => scratch.take_tensor(&[c / samples, h, w]),
            _ => scratch.take_tensor(&[per_len]),
        };
        input.data_mut().copy_from_slice(&stacked.data()[s * per_len..(s + 1) * per_len]);
        let out_s = layer.forward(s, input, source.as_mut(), scratch)?;
        let dst = match &mut out {
            Some(t) => t,
            None => out.insert(take_stacked(scratch, out_s.shape(), samples)),
        };
        let n = out_s.len();
        dst.data_mut()[s * n..(s + 1) * n].copy_from_slice(out_s.data());
        scratch.put_tensor(out_s);
    }
    scratch.put_tensor(stacked);
    Ok(out.expect("at least one sample"))
}

/// A Bayesian fully-connected layer: `output = W·input + b` with `W` sampled per Monte-Carlo
/// sample.
#[derive(Debug)]
pub struct BayesLinear {
    in_features: usize,
    out_features: usize,
    weights: VariationalParams,
    bias: Tensor,
    grad_bias: Tensor,
    config: BayesConfig,
    samples: usize,
    cached_inputs: Vec<Option<Tensor>>,
    accumulated_complexity: f32,
}

impl BayesLinear {
    /// Creates a Bayesian linear layer with Xavier-initialized means.
    pub fn new(
        in_features: usize,
        out_features: usize,
        config: BayesConfig,
        rng: &mut impl Rng,
    ) -> Self {
        let weights = VariationalParams::init(&[out_features, in_features], &config, rng);
        Self {
            in_features,
            out_features,
            weights,
            bias: Tensor::zeros(&[out_features]),
            grad_bias: Tensor::zeros(&[out_features]),
            config,
            samples: 1,
            cached_inputs: Vec::new(),
            accumulated_complexity: 0.0,
        }
    }

    /// Reassembles a layer from captured parameters (the checkpoint-restore constructor,
    /// bit-exact — nothing is re-initialized or recomputed).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the weight shape is not
    /// `[out_features, in_features]` or the bias shapes are not `[out_features]`.
    pub fn from_parts(
        in_features: usize,
        out_features: usize,
        weights: VariationalParams,
        bias: Tensor,
        grad_bias: Tensor,
        config: BayesConfig,
    ) -> Result<Self, TensorError> {
        if weights.shape() != [out_features, in_features] {
            return Err(TensorError::ShapeMismatch {
                left: weights.shape().to_vec(),
                right: vec![out_features, in_features],
            });
        }
        if bias.shape() != [out_features] || grad_bias.shape() != [out_features] {
            return Err(TensorError::ShapeMismatch {
                left: bias.shape().to_vec(),
                right: vec![out_features],
            });
        }
        Ok(Self {
            in_features,
            out_features,
            weights,
            bias,
            grad_bias,
            config,
            samples: 1,
            cached_inputs: Vec::new(),
            accumulated_complexity: 0.0,
        })
    }

    /// The layer's variational parameters (exposed for inspection and tests).
    pub fn weights(&self) -> &VariationalParams {
        &self.weights
    }

    /// The layer's bias vector.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Draws one sample's ε block into `epsilon` and samples the weights into `w`; when
    /// `train`, scores the sample's complexity term in the same pass and adds it.
    fn draw(
        &mut self,
        eps: &mut dyn EpsilonSource,
        epsilon: &mut [f32],
        w: &mut Tensor,
        train: bool,
    ) {
        eps.generate_block_into(epsilon);
        let (precision, prior_sigma) = (self.config.precision, self.config.prior_sigma);
        if train {
            self.accumulated_complexity += self.config.kl_weight
                * self.weights.sample_and_score_into(epsilon, precision, w, prior_sigma);
        } else {
            self.weights.sample_into(epsilon, precision, w);
        }
    }

    /// Writes `quantize(w·x + b)` into a zeroed `out` with [`linear_matvec`], whose outputs
    /// add their terms in ascending input order.
    fn answer(&self, w: &Tensor, x: &[f32], out: &mut [f32]) {
        linear_matvec(out, w.data(), x);
        for (o, &b) in out.iter_mut().zip(self.bias.data()) {
            *o = self.config.precision.quantize(*o + b);
        }
    }

    /// The backward stage behind both [`Layer::backward`] and [`Layer::backward_params`]:
    /// reconstructs the sampled weights from the retrieved ε (process ② of the paper), weight
    /// by weight inside [`VariationalParams::linear_backward`], accumulates the parameter
    /// gradients and, when `input_grad` is set, returns the gradient w.r.t. the input.
    fn backward_stage(
        &mut self,
        sample: usize,
        grad_output: Tensor,
        eps: &mut dyn EpsilonSource,
        scratch: &mut Scratch,
        input_grad: bool,
    ) -> Result<Option<Tensor>, TensorError> {
        if grad_output.len() != self.out_features {
            return Err(TensorError::InvalidReshape {
                len: grad_output.len(),
                shape: vec![self.out_features],
            });
        }
        let input = self.cached_inputs[sample]
            .take()
            .expect("backward called for a sample without a cached forward");
        let mut epsilon = scratch.take_f32(self.weights.len());
        eps.retrieve_block_into(&mut epsilon);
        let mut grad_input = input_grad.then(|| scratch.take_tensor(&[self.in_features]));
        self.weights.linear_backward(
            &epsilon,
            grad_output.data(),
            input.data(),
            grad_input.as_mut().map(Tensor::data_mut),
            &self.config,
        );
        for (gb, &g) in self.grad_bias.data_mut().iter_mut().zip(grad_output.data()) {
            *gb += g;
        }

        scratch.put_f32(epsilon);
        scratch.put_tensor(input);
        scratch.put_tensor(grad_output);
        Ok(grad_input)
    }
}

impl Layer for BayesLinear {
    fn forward(
        &mut self,
        sample: usize,
        input: Tensor,
        eps: &mut dyn EpsilonSource,
        scratch: &mut Scratch,
    ) -> Result<Tensor, TensorError> {
        if input.len() != self.in_features {
            return Err(TensorError::InvalidReshape {
                len: input.len(),
                shape: vec![self.in_features],
            });
        }
        let mut epsilon = scratch.take_f32(self.weights.len());
        let mut w = scratch.take_tensor(self.weights.shape());
        self.draw(eps, &mut epsilon, &mut w, true);
        let mut out = scratch.take_tensor(&[self.out_features]);
        self.answer(&w, input.data(), out.data_mut());
        scratch.put_tensor(w);
        scratch.put_f32(epsilon);
        cache_tensor(&mut self.cached_inputs, sample, input, scratch);
        Ok(out)
    }

    /// Each sample runs [`BayesLinear::forward`]'s steps straight into its row of the
    /// stacked output, reusing one ε buffer and one sampled-weight buffer. When `train` is
    /// false the complexity-loss sum and the input cache are skipped.
    fn forward_all(
        &mut self,
        stacked: Tensor,
        samples: usize,
        sources: &mut [Box<dyn EpsilonSource>],
        train: bool,
        scratch: &mut Scratch,
    ) -> Result<Tensor, TensorError> {
        let (inf, outf) = (self.in_features, self.out_features);
        if stacked.len() != samples * inf {
            return Err(TensorError::InvalidReshape {
                len: stacked.len(),
                shape: vec![samples, inf],
            });
        }
        assert!(sources.len() >= samples, "fused forward needs one ε source per sample");
        let mut epsilon = scratch.take_f32(self.weights.len());
        let mut w = scratch.take_tensor(self.weights.shape());
        let mut out = scratch.take_tensor(&[samples, outf]);
        let rows = stacked.data().chunks_exact(inf).zip(out.data_mut().chunks_exact_mut(outf));
        for (s, ((x, row), source)) in rows.zip(sources.iter_mut()).enumerate() {
            self.draw(source.as_mut(), &mut epsilon, &mut w, train);
            self.answer(&w, x, row);
            if train {
                let mut input = scratch.take_tensor(&[inf]);
                input.data_mut().copy_from_slice(x);
                cache_tensor(&mut self.cached_inputs, s, input, scratch);
            }
        }
        scratch.put_tensor(w);
        scratch.put_f32(epsilon);
        scratch.put_tensor(stacked);
        Ok(out)
    }

    /// Retrieves the sample's ε and runs [`VariationalParams::linear_backward`]: one pass
    /// that samples each weight, back-propagates through it and accumulates its ∂μ and ∂ρ.
    fn backward(
        &mut self,
        sample: usize,
        grad_output: Tensor,
        eps: &mut dyn EpsilonSource,
        scratch: &mut Scratch,
    ) -> Result<Tensor, TensorError> {
        let grad_input = self.backward_stage(sample, grad_output, eps, scratch, true)?;
        Ok(grad_input.expect("the input gradient was requested"))
    }

    /// Runs the same pass without the `w·g` input-gradient adds; ∂μ, ∂ρ and the bias
    /// gradient are the ones [`Layer::backward`] accumulates, bit for bit.
    fn backward_params(
        &mut self,
        sample: usize,
        grad_output: Tensor,
        eps: &mut dyn EpsilonSource,
        scratch: &mut Scratch,
    ) -> Result<(), TensorError> {
        self.backward_stage(sample, grad_output, eps, scratch, false).map(|_| ())
    }

    fn begin_iteration(&mut self, samples: usize, scratch: &mut Scratch) {
        self.samples = samples.max(1);
        recycle_tensor_cache(&mut self.cached_inputs, scratch);
        resize_cache(&mut self.cached_inputs, self.samples);
        self.accumulated_complexity = 0.0;
    }

    fn apply_update(&mut self, learning_rate: f32) {
        self.weights.sgd_step(learning_rate, self.samples);
        let scale = -learning_rate / self.samples as f32;
        self.bias.axpy(scale, &self.grad_bias).expect("bias gradient matches bias shape");
        self.grad_bias.map_inplace(|_| 0.0);
    }

    fn epsilon_count(&self) -> usize {
        self.weights.len()
    }

    fn parameter_count(&self) -> usize {
        2 * self.weights.len() + self.bias.len()
    }

    fn complexity_loss(&self) -> f32 {
        self.accumulated_complexity
    }

    fn name(&self) -> &'static str {
        "bayes_linear"
    }

    fn snapshot(&self) -> LayerSnapshot {
        LayerSnapshot::Linear {
            in_features: self.in_features,
            out_features: self.out_features,
            weights: self.weights.clone(),
            bias: self.bias.clone(),
            grad_bias: self.grad_bias.clone(),
        }
    }
}

/// A Bayesian 2-D convolution layer with per-sample weight sampling, running on the packed
/// im2col+GEMM kernels of [`bnn_tensor::kernels`].
///
/// All `S` samples feed the first layer the same example, so the layer keeps its forward
/// im2col panel and its weight-gradient im2row panel in buffers it owns and repacks one only
/// when its input is not bitwise (shape and data) the input the panel was packed from. Each
/// panel records the sample whose cached input it holds, so the test compares against an
/// input the layer already caches and nothing is copied into a key.
#[derive(Debug)]
pub struct BayesConv2d {
    geometry: ConvGeometry,
    weights: VariationalParams,
    bias: Tensor,
    grad_bias: Tensor,
    config: BayesConfig,
    samples: usize,
    cached_inputs: Vec<Option<Tensor>>,
    accumulated_complexity: f32,
    /// The forward GEMM's im2col panel.
    col_panel: Vec<f32>,
    /// The sample whose forward input `col_panel` was packed from (or proven identical to).
    col_sample: Option<usize>,
    /// The weight-gradient GEMM's im2row panel.
    row_panel: Vec<f32>,
    /// The sample whose *cached* input `row_panel` holds, claimed by the previous sample's
    /// backward. Every change to that cache slot voids the claim: `backward` taking it,
    /// `forward` replacing it, `begin_iteration` emptying it.
    row_sample: Option<usize>,
}

/// Whether two float slices hold the same bits (`-0.0` and `0.0` differ): the test under
/// which a panel packed from one is the panel of the other. Stops at the first difference.
fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

impl BayesConv2d {
    /// Creates a Bayesian convolution layer with Xavier-initialized means.
    pub fn new(geometry: ConvGeometry, config: BayesConfig, rng: &mut impl Rng) -> Self {
        let shape = [geometry.out_channels, geometry.in_channels, geometry.kernel, geometry.kernel];
        let weights = VariationalParams::init(&shape, &config, rng);
        let bias = Tensor::zeros(&[geometry.out_channels]);
        Self::from_parts(geometry, weights, bias.clone(), bias, config)
            .expect("initialized parameters match the geometry")
    }

    /// Reassembles a layer from captured parameters (the checkpoint-restore constructor,
    /// bit-exact — nothing is re-initialized or recomputed).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the weight shape does not match the
    /// geometry or the bias shapes are not `[out_channels]`.
    pub fn from_parts(
        geometry: ConvGeometry,
        weights: VariationalParams,
        bias: Tensor,
        grad_bias: Tensor,
        config: BayesConfig,
    ) -> Result<Self, TensorError> {
        let expect =
            [geometry.out_channels, geometry.in_channels, geometry.kernel, geometry.kernel];
        if weights.shape() != expect {
            return Err(TensorError::ShapeMismatch {
                left: weights.shape().to_vec(),
                right: expect.to_vec(),
            });
        }
        if bias.shape() != [geometry.out_channels] || grad_bias.shape() != [geometry.out_channels] {
            return Err(TensorError::ShapeMismatch {
                left: bias.shape().to_vec(),
                right: vec![geometry.out_channels],
            });
        }
        Ok(Self {
            geometry,
            weights,
            bias,
            grad_bias,
            config,
            samples: 1,
            cached_inputs: Vec::new(),
            accumulated_complexity: 0.0,
            col_panel: Vec::new(),
            col_sample: None,
            row_panel: Vec::new(),
            row_sample: None,
        })
    }

    /// The convolution geometry.
    pub fn geometry(&self) -> &ConvGeometry {
        &self.geometry
    }

    /// The layer's variational parameters.
    pub fn weights(&self) -> &VariationalParams {
        &self.weights
    }

    /// The layer's bias vector.
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    fn sample_weights(&mut self, epsilon: &[f32], scratch: &mut Scratch) -> Tensor {
        let mut w = scratch.take_tensor(self.weights.shape());
        self.weights.sample_into(epsilon, self.config.precision, &mut w);
        w
    }

    /// Whether `sample`'s cached input is bitwise `input`: the same shape and the same bits.
    fn caches(&self, sample: usize, input: &Tensor) -> bool {
        self.cached_inputs.get(sample).and_then(Option::as_ref).is_some_and(|cached| {
            cached.shape() == input.shape() && same_bits(cached.data(), input.data())
        })
    }

    /// The backward stage behind both [`Layer::backward`] and [`Layer::backward_params`]: it
    /// checks `grad_output` before touching any state, retrieves ε, reconstructs the
    /// weights, accumulates the parameter gradients and, when `input_grad` is set, returns
    /// the gradient w.r.t. the input.
    fn backward_stage(
        &mut self,
        sample: usize,
        grad_output: Tensor,
        eps: &mut dyn EpsilonSource,
        scratch: &mut Scratch,
        input_grad: bool,
    ) -> Result<Option<Tensor>, TensorError> {
        let cached = self.cached_inputs[sample]
            .as_ref()
            .expect("backward called for a sample without a cached forward");
        let (h, wd) = (cached.shape()[1], cached.shape()[2]);
        let (oh, ow) = self.geometry.output_size(h, wd);
        let expect = [self.geometry.out_channels, oh, ow];
        if grad_output.shape() != expect {
            return Err(TensorError::ShapeMismatch {
                left: grad_output.shape().to_vec(),
                right: expect.to_vec(),
            });
        }
        let input = self.cached_inputs[sample].take().expect("checked above");
        let mut epsilon = scratch.take_f32(self.weights.len());
        eps.retrieve_block_into(&mut epsilon);
        let w = self.sample_weights(&epsilon, scratch);

        let grad_input = if input_grad {
            let mut grad_input = scratch.take_tensor(&[self.geometry.in_channels, h, wd]);
            conv2d_backward_input_into(
                &self.geometry,
                &grad_output,
                &w,
                h,
                wd,
                &mut grad_input,
                scratch,
            )?;
            Some(grad_input)
        } else {
            None
        };

        if self.row_sample != Some(sample) {
            self.row_panel.resize(self.geometry.panel_len(h, wd), 0.0);
            pack_im2row(&self.geometry, input.data(), h, wd, &mut self.row_panel);
        }
        // Claim the panel for the next sample when its cached input is bitwise this one.
        let next = sample + 1;
        self.row_sample = self.caches(next, &input).then_some(next);

        let mut grad_w = scratch.take_tensor(self.weights.shape());
        let mut grad_b = scratch.take_tensor(&[self.geometry.out_channels]);
        conv2d_backward_weights_packed(
            &self.geometry,
            &self.row_panel,
            &grad_output,
            &mut grad_w,
            &mut grad_b,
            scratch,
        );
        self.weights.accumulate_gradients(&grad_w, &w, &epsilon, &self.config);
        for (gb, &g) in self.grad_bias.data_mut().iter_mut().zip(grad_b.data()) {
            *gb += g;
        }

        scratch.put_tensor(grad_b);
        scratch.put_tensor(grad_w);
        scratch.put_tensor(w);
        scratch.put_f32(epsilon);
        scratch.put_tensor(input);
        scratch.put_tensor(grad_output);
        Ok(grad_input)
    }
}

impl Layer for BayesConv2d {
    fn forward(
        &mut self,
        sample: usize,
        input: Tensor,
        eps: &mut dyn EpsilonSource,
        scratch: &mut Scratch,
    ) -> Result<Tensor, TensorError> {
        let (h, wd) = self.geometry.input_hw(input.shape())?;
        let (oh, ow) = self.geometry.output_size(h, wd);

        let mut epsilon = scratch.take_f32(self.weights.len());
        eps.generate_block_into(&mut epsilon);
        let mut w = scratch.take_tensor(self.weights.shape());
        let (precision, prior_sigma) = (self.config.precision, self.config.prior_sigma);
        self.accumulated_complexity += self.config.kl_weight
            * self.weights.sample_and_score_into(&epsilon, precision, &mut w, prior_sigma);

        // When this input is bitwise the previous sample's, the panel already holds its
        // im2col — the first layer's case, where every sample reads the same example.
        let packed = sample
            .checked_sub(1)
            .is_some_and(|prev| self.col_sample == Some(prev) && self.caches(prev, &input));
        if !packed {
            self.col_panel.resize(self.geometry.panel_len(h, wd), 0.0);
            pack_im2col(&self.geometry, input.data(), h, wd, &mut self.col_panel);
        }
        self.col_sample = Some(sample);
        if self.row_sample == Some(sample) {
            self.row_sample = None; // the claim was on the cached input this one replaces
        }
        cache_tensor(&mut self.cached_inputs, sample, input, scratch);

        let mut out = scratch.take_tensor(&[self.geometry.out_channels, oh, ow]);
        let (col, bias) = (&self.col_panel, &self.bias);
        conv2d_forward_packed(&self.geometry, col, &w, bias, out.data_mut(), scratch)?;
        self.config.precision.quantize_tensor_inplace(&mut out);

        scratch.put_tensor(w);
        scratch.put_f32(epsilon);
        Ok(out)
    }

    /// Fused evaluation: the convolution itself stays per-sample (each sample runs a full
    /// GEMM with its own sampled kernel), but the im2col panel is packed only when a
    /// sample's slice of `stacked` differs from the previous one, and inference-only calls
    /// skip the complexity-loss sum and the input cache. Training calls defer to the split
    /// walk, which leaves byte-identical caches for the per-sample backward stage.
    fn forward_all(
        &mut self,
        stacked: Tensor,
        samples: usize,
        sources: &mut [Box<dyn EpsilonSource>],
        train: bool,
        scratch: &mut Scratch,
    ) -> Result<Tensor, TensorError> {
        if train {
            return forward_all_split(self, stacked, samples, sources, scratch);
        }
        let sh = stacked.shape();
        let cin = self.geometry.in_channels;
        let cout = self.geometry.out_channels;
        if sh.len() != 3 || sh[0] != samples * cin {
            return Err(TensorError::ShapeMismatch {
                left: sh.to_vec(),
                right: vec![samples * cin, 0, 0],
            });
        }
        let (h, w_dim) = (sh[1], sh[2]);
        let (oh, ow) = self.geometry.output_size(h, w_dim);
        let (per_in, per_out) = (cin * h * w_dim, cout * oh * ow);

        let mut epsilon = scratch.take_f32(self.weights.len());
        let mut w = scratch.take_tensor(self.weights.shape());
        let mut out = scratch.take_tensor(&[samples * cout, oh, ow]);
        // The panel will hold slices of `stacked`, which no cache slot keeps.
        self.col_sample = None;
        self.col_panel.resize(self.geometry.panel_len(h, w_dim), 0.0);
        let x = stacked.data();
        for (s, source) in sources.iter_mut().take(samples).enumerate() {
            source.generate_block_into(&mut epsilon);
            self.weights.sample_into(&epsilon, self.config.precision, &mut w);
            let input_s = &x[s * per_in..(s + 1) * per_in];
            if s == 0 || !same_bits(input_s, &x[(s - 1) * per_in..s * per_in]) {
                pack_im2col(&self.geometry, input_s, h, w_dim, &mut self.col_panel);
            }
            // `conv2d_forward_packed` seeds every output scalar with its bias, so the
            // sample's slice of `out` needs no clearing.
            let out_s = &mut out.data_mut()[s * per_out..(s + 1) * per_out];
            let (col, bias) = (&self.col_panel, &self.bias);
            conv2d_forward_packed(&self.geometry, col, &w, bias, out_s, scratch)?;
            self.config.precision.quantize_inplace(out_s);
        }

        scratch.put_tensor(w);
        scratch.put_f32(epsilon);
        scratch.put_tensor(stacked);
        Ok(out)
    }

    fn backward(
        &mut self,
        sample: usize,
        grad_output: Tensor,
        eps: &mut dyn EpsilonSource,
        scratch: &mut Scratch,
    ) -> Result<Tensor, TensorError> {
        let grad_input = self.backward_stage(sample, grad_output, eps, scratch, true)?;
        Ok(grad_input.expect("the input gradient was requested"))
    }

    /// Skips the input-gradient convolution entirely; the parameter gradients are the ones
    /// [`Layer::backward`] accumulates, bit for bit.
    fn backward_params(
        &mut self,
        sample: usize,
        grad_output: Tensor,
        eps: &mut dyn EpsilonSource,
        scratch: &mut Scratch,
    ) -> Result<(), TensorError> {
        self.backward_stage(sample, grad_output, eps, scratch, false).map(|_| ())
    }

    fn begin_iteration(&mut self, samples: usize, scratch: &mut Scratch) {
        self.samples = samples.max(1);
        recycle_tensor_cache(&mut self.cached_inputs, scratch);
        resize_cache(&mut self.cached_inputs, self.samples);
        self.col_sample = None;
        self.row_sample = None;
        self.accumulated_complexity = 0.0;
    }

    fn apply_update(&mut self, learning_rate: f32) {
        self.weights.sgd_step(learning_rate, self.samples);
        let scale = -learning_rate / self.samples as f32;
        self.bias.axpy(scale, &self.grad_bias).expect("bias gradient matches bias shape");
        self.grad_bias.map_inplace(|_| 0.0);
    }

    fn epsilon_count(&self) -> usize {
        self.weights.len()
    }

    fn parameter_count(&self) -> usize {
        2 * self.weights.len() + self.bias.len()
    }

    fn complexity_loss(&self) -> f32 {
        self.accumulated_complexity
    }

    fn name(&self) -> &'static str {
        "bayes_conv2d"
    }

    fn snapshot(&self) -> LayerSnapshot {
        LayerSnapshot::Conv {
            geometry: self.geometry,
            weights: self.weights.clone(),
            bias: self.bias.clone(),
            grad_bias: self.grad_bias.clone(),
        }
    }
}

/// ReLU activation layer.
#[derive(Debug, Default)]
pub struct ReluLayer {
    cached_inputs: Vec<Option<Tensor>>,
}

impl ReluLayer {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for ReluLayer {
    fn forward(
        &mut self,
        sample: usize,
        input: Tensor,
        _eps: &mut dyn EpsilonSource,
        scratch: &mut Scratch,
    ) -> Result<Tensor, TensorError> {
        let mut out = scratch.take_tensor(input.shape());
        relu_into(&input, &mut out);
        cache_tensor(&mut self.cached_inputs, sample, input, scratch);
        Ok(out)
    }

    /// Fused evaluation: ReLU is elementwise, so inference-only calls rectify the whole
    /// stacked activation in place (`v.max(0.0)`, as [`relu_into`] computes it) and skip the
    /// per-sample input cache. Training calls defer to the split walk (the backward stage
    /// needs per-sample caches).
    fn forward_all(
        &mut self,
        mut stacked: Tensor,
        samples: usize,
        sources: &mut [Box<dyn EpsilonSource>],
        train: bool,
        scratch: &mut Scratch,
    ) -> Result<Tensor, TensorError> {
        if train {
            return forward_all_split(self, stacked, samples, sources, scratch);
        }
        stacked.map_inplace(|v| v.max(0.0));
        Ok(stacked)
    }

    fn backward(
        &mut self,
        sample: usize,
        grad_output: Tensor,
        _eps: &mut dyn EpsilonSource,
        scratch: &mut Scratch,
    ) -> Result<Tensor, TensorError> {
        let input = self.cached_inputs[sample]
            .take()
            .expect("backward called for a sample without a cached forward");
        let mut grad_input = scratch.take_tensor(input.shape());
        relu_backward_into(&input, &grad_output, &mut grad_input);
        scratch.put_tensor(input);
        scratch.put_tensor(grad_output);
        Ok(grad_input)
    }

    fn begin_iteration(&mut self, samples: usize, scratch: &mut Scratch) {
        recycle_tensor_cache(&mut self.cached_inputs, scratch);
        resize_cache(&mut self.cached_inputs, samples.max(1));
    }

    fn apply_update(&mut self, _learning_rate: f32) {}

    fn name(&self) -> &'static str {
        "relu"
    }

    fn snapshot(&self) -> LayerSnapshot {
        LayerSnapshot::Relu
    }
}

/// Non-overlapping max-pooling layer.
#[derive(Debug)]
pub struct MaxPoolLayer {
    window: usize,
    /// Per-sample `(input shape, argmax record)`, both in recycled scratch buffers.
    cached: Vec<Option<(Vec<usize>, Vec<usize>)>>,
}

impl MaxPoolLayer {
    /// Creates a max-pooling layer with the given window (and equal stride).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "pooling window must be positive");
        Self { window, cached: Vec::new() }
    }
}

impl Layer for MaxPoolLayer {
    fn forward(
        &mut self,
        sample: usize,
        input: Tensor,
        _eps: &mut dyn EpsilonSource,
        scratch: &mut Scratch,
    ) -> Result<Tensor, TensorError> {
        let shape = input.shape();
        if shape.len() != 3
            || !shape[1].is_multiple_of(self.window)
            || !shape[2].is_multiple_of(self.window)
        {
            return Err(TensorError::ShapeMismatch {
                left: shape.to_vec(),
                right: vec![shape.first().copied().unwrap_or(0), self.window, self.window],
            });
        }
        let (c, oh, ow) = (shape[0], shape[1] / self.window, shape[2] / self.window);
        let mut out = scratch.take_tensor(&[c, oh, ow]);
        let mut argmax = scratch.take_usize(c * oh * ow);
        max_pool2d_into(&input, self.window, &mut out, Some(&mut argmax))?;
        let mut cached_shape = scratch.take_usize(3);
        cached_shape.copy_from_slice(input.shape());
        if let Some((old_shape, old_argmax)) = self.cached[sample].replace((cached_shape, argmax)) {
            scratch.put_usize(old_shape);
            scratch.put_usize(old_argmax);
        }
        scratch.put_tensor(input);
        Ok(out)
    }

    /// Fused evaluation: pooling acts per channel, and the stacked layout `[S·C, H, W]`
    /// keeps every sample's channels contiguous — one pooling pass over the stacked map *is*
    /// `S` per-sample passes. Inference-only calls write no argmax record at all; training
    /// calls defer to the split walk.
    fn forward_all(
        &mut self,
        stacked: Tensor,
        samples: usize,
        sources: &mut [Box<dyn EpsilonSource>],
        train: bool,
        scratch: &mut Scratch,
    ) -> Result<Tensor, TensorError> {
        if train {
            return forward_all_split(self, stacked, samples, sources, scratch);
        }
        let shape = stacked.shape();
        if shape.len() != 3
            || !shape[1].is_multiple_of(self.window)
            || !shape[2].is_multiple_of(self.window)
        {
            return Err(TensorError::ShapeMismatch {
                left: shape.to_vec(),
                right: vec![shape.first().copied().unwrap_or(0), self.window, self.window],
            });
        }
        let (c, oh, ow) = (shape[0], shape[1] / self.window, shape[2] / self.window);
        let mut out = scratch.take_tensor(&[c, oh, ow]);
        max_pool2d_into(&stacked, self.window, &mut out, None)?;
        scratch.put_tensor(stacked);
        Ok(out)
    }

    fn backward(
        &mut self,
        sample: usize,
        grad_output: Tensor,
        _eps: &mut dyn EpsilonSource,
        scratch: &mut Scratch,
    ) -> Result<Tensor, TensorError> {
        let (shape, argmax) = self.cached[sample]
            .take()
            .expect("backward called for a sample without a cached forward");
        let mut grad_input = scratch.take_tensor(&shape);
        max_pool2d_backward_into(&grad_output, &argmax, &mut grad_input);
        scratch.put_usize(shape);
        scratch.put_usize(argmax);
        scratch.put_tensor(grad_output);
        Ok(grad_input)
    }

    fn begin_iteration(&mut self, samples: usize, scratch: &mut Scratch) {
        for slot in &mut self.cached {
            if let Some((shape, argmax)) = slot.take() {
                scratch.put_usize(shape);
                scratch.put_usize(argmax);
            }
        }
        resize_cache(&mut self.cached, samples.max(1));
    }

    fn apply_update(&mut self, _learning_rate: f32) {}

    fn name(&self) -> &'static str {
        "max_pool"
    }

    fn snapshot(&self) -> LayerSnapshot {
        LayerSnapshot::MaxPool { window: self.window }
    }
}

/// Flattens a `[C, H, W]` feature map into a `[C·H·W]` vector (and restores the shape on the way
/// back) — a pure reshape of the owned tensor, no data movement at all.
#[derive(Debug, Default)]
pub struct FlattenLayer {
    cached_shapes: Vec<Option<Vec<usize>>>,
}

impl FlattenLayer {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for FlattenLayer {
    fn forward(
        &mut self,
        sample: usize,
        mut input: Tensor,
        _eps: &mut dyn EpsilonSource,
        scratch: &mut Scratch,
    ) -> Result<Tensor, TensorError> {
        let mut cached_shape = scratch.take_usize(input.shape().len());
        cached_shape.copy_from_slice(input.shape());
        if let Some(old) = self.cached_shapes[sample].replace(cached_shape) {
            scratch.put_usize(old);
        }
        input.reshape_in_place(&[input.len()])?;
        Ok(input)
    }

    /// Fused evaluation: the stacked layout is sample-major, so flattening `[S·C, H, W]` to
    /// `[S, C·H·W]` is a pure in-place reshape. Inference-only calls skip the shape cache;
    /// training calls defer to the split walk.
    fn forward_all(
        &mut self,
        mut stacked: Tensor,
        samples: usize,
        sources: &mut [Box<dyn EpsilonSource>],
        train: bool,
        scratch: &mut Scratch,
    ) -> Result<Tensor, TensorError> {
        if train {
            return forward_all_split(self, stacked, samples, sources, scratch);
        }
        let per_len = stacked.len() / samples;
        stacked.reshape_in_place(&[samples, per_len])?;
        Ok(stacked)
    }

    fn backward(
        &mut self,
        sample: usize,
        mut grad_output: Tensor,
        _eps: &mut dyn EpsilonSource,
        scratch: &mut Scratch,
    ) -> Result<Tensor, TensorError> {
        let shape = self.cached_shapes[sample]
            .take()
            .expect("backward called for a sample without a cached forward");
        grad_output.reshape_in_place(&shape)?;
        scratch.put_usize(shape);
        Ok(grad_output)
    }

    fn begin_iteration(&mut self, samples: usize, scratch: &mut Scratch) {
        for slot in &mut self.cached_shapes {
            if let Some(stale) = slot.take() {
                scratch.put_usize(stale);
            }
        }
        resize_cache(&mut self.cached_shapes, samples.max(1));
    }

    fn apply_update(&mut self, _learning_rate: f32) {}

    fn name(&self) -> &'static str {
        "flatten"
    }

    fn snapshot(&self) -> LayerSnapshot {
        LayerSnapshot::Flatten
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epsilon::LfsrRetrieve;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn eps_source() -> LfsrRetrieve {
        LfsrRetrieve::new(99).unwrap()
    }

    #[test]
    fn linear_forward_backward_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = BayesLinear::new(6, 4, BayesConfig::default(), &mut rng);
        let mut eps = eps_source();
        let mut scratch = Scratch::new();
        layer.begin_iteration(1, &mut scratch);
        let input = Tensor::filled(&[6], 0.5);
        let out = layer.forward(0, input, &mut eps, &mut scratch).unwrap();
        assert_eq!(out.shape(), &[4]);
        let grad = Tensor::filled(&[4], 1.0);
        let grad_in = layer.backward(0, grad, &mut eps, &mut scratch).unwrap();
        assert_eq!(grad_in.shape(), &[6]);
        assert_eq!(layer.epsilon_count(), 24);
        assert_eq!(layer.parameter_count(), 2 * 24 + 4);
        layer.apply_update(0.01);
    }

    #[test]
    fn conv_forward_backward_shapes() {
        let mut rng = StdRng::seed_from_u64(2);
        let geom =
            ConvGeometry { in_channels: 1, out_channels: 2, kernel: 3, stride: 1, padding: 1 };
        let mut layer = BayesConv2d::new(geom, BayesConfig::default(), &mut rng);
        let mut eps = eps_source();
        let mut scratch = Scratch::new();
        layer.begin_iteration(2, &mut scratch);
        let input = Tensor::filled(&[1, 6, 6], 1.0);
        let out = layer.forward(0, input, &mut eps, &mut scratch).unwrap();
        assert_eq!(out.shape(), &[2, 6, 6]);
        let grad_in =
            layer.backward(0, Tensor::filled(&[2, 6, 6], 0.1), &mut eps, &mut scratch).unwrap();
        assert_eq!(grad_in.shape(), &[1, 6, 6]);
        assert_eq!(layer.epsilon_count(), 2 * 9);
    }

    /// The bits of a conv layer's accumulated μ, ρ and bias gradients.
    fn gradient_bits(layer: &BayesConv2d) -> Vec<u32> {
        let w = layer.weights();
        let grads = w.grad_mu().data().iter().chain(w.grad_rho().data());
        grads.chain(layer.grad_bias.data()).map(|v| v.to_bits()).collect()
    }

    fn bits(t: &Tensor) -> (Vec<usize>, Vec<u32>) {
        (t.shape().to_vec(), t.data().iter().map(|v| v.to_bits()).collect())
    }

    /// The B-LeNet proxy's first convolution (3→6 channels, 3×3, padding 1).
    fn proxy_conv(seed: u64) -> BayesConv2d {
        let geom =
            ConvGeometry { in_channels: 3, out_channels: 6, kernel: 3, stride: 1, padding: 1 };
        BayesConv2d::new(geom, BayesConfig::default(), &mut StdRng::seed_from_u64(seed))
    }

    #[test]
    fn conv_panel_reuse_is_bit_identical_to_fresh_passes() {
        // A, A, B, A, then A's data as [3, 8, 18]: same length and the same 144 output pixels
        // as [3, 12, 12], so only the shape tells the two inputs apart.
        let fill = bnn_tensor::init::splitmix_tensor;
        let a = fill(1, &[3, 12, 12]);
        let mut a_wide = a.clone();
        a_wide.reshape_in_place(&[3, 8, 18]).unwrap();
        let inputs = [a.clone(), a.clone(), fill(2, &[3, 12, 12]), a, a_wide];
        let source = |s: usize| LfsrRetrieve::new(50 + s as u64).unwrap();
        let grad = |s: usize, out: &Tensor| fill(10 + s as u64, out.shape());
        let mut scratch = Scratch::new();

        // Fresh passes: each sample runs as sample 0 of its own iteration, so no panel is
        // ever reused, and the gradients still accumulate in sample order.
        let mut fresh = proxy_conv(6);
        let mut want = Vec::new();
        for (s, input) in inputs.iter().enumerate() {
            fresh.begin_iteration(inputs.len(), &mut scratch);
            let mut eps = source(s);
            let out = fresh.forward(0, input.clone(), &mut eps, &mut scratch).unwrap();
            let grad_in = fresh.backward(0, grad(s, &out), &mut eps, &mut scratch).unwrap();
            want.push((bits(&out), bits(&grad_in)));
        }

        for params_only in [false, true] {
            let mut layer = proxy_conv(6);
            let mut sources: Vec<LfsrRetrieve> = (0..inputs.len()).map(source).collect();
            layer.begin_iteration(inputs.len(), &mut scratch);
            let mut outs = Vec::new();
            for (s, (input, eps)) in inputs.iter().zip(&mut sources).enumerate() {
                outs.push(layer.forward(s, input.clone(), eps, &mut scratch).unwrap());
            }
            for (s, (out, eps)) in outs.iter().zip(&mut sources).enumerate() {
                assert_eq!(bits(out), want[s].0, "sample {s} output");
                if params_only {
                    layer.backward_params(s, grad(s, out), eps, &mut scratch).unwrap();
                } else {
                    let grad_in = layer.backward(s, grad(s, out), eps, &mut scratch).unwrap();
                    assert_eq!(bits(&grad_in), want[s].1, "sample {s} input gradient");
                }
            }
            assert_eq!(gradient_bits(&layer), gradient_bits(&fresh), "params_only {params_only}");
        }

        // The inference-only fused walk compares neighbouring slices of its stacked input.
        let mut layer = proxy_conv(6);
        let mut stacked = scratch.take_tensor(&[4 * 3, 12, 12]);
        for (s, input) in inputs[..4].iter().enumerate() {
            stacked.data_mut()[s * input.len()..(s + 1) * input.len()]
                .copy_from_slice(input.data());
        }
        let mut sources: Vec<Box<dyn EpsilonSource>> =
            (0..4).map(|s| Box::new(source(s)) as Box<dyn EpsilonSource>).collect();
        layer.begin_iteration(4, &mut scratch);
        let out = layer.forward_all(stacked, 4, &mut sources, false, &mut scratch).unwrap();
        let per = out.len() / 4;
        for (s, (_, want_bits)) in want[..4].iter().map(|w| &w.0).enumerate() {
            let got: Vec<u32> =
                out.data()[s * per..(s + 1) * per].iter().map(|v| v.to_bits()).collect();
            assert_eq!(&got, want_bits, "fused sample {s}");
        }
    }

    #[test]
    fn conv_panel_claims_end_with_the_cache_slot_they_name() {
        let fill = bnn_tensor::init::splitmix_tensor;
        let (a, b) = (fill(1, &[3, 12, 12]), fill(2, &[3, 12, 12]));
        let mut layer = proxy_conv(7);
        let mut sources = [LfsrRetrieve::new(60).unwrap(), LfsrRetrieve::new(61).unwrap()];
        let mut scratch = Scratch::new();
        layer.begin_iteration(2, &mut scratch);
        let out = layer.forward(0, a.clone(), &mut sources[0], &mut scratch).unwrap();
        layer.forward(1, a, &mut sources[1], &mut scratch).unwrap();
        layer.backward(0, out, &mut sources[0], &mut scratch).unwrap();
        assert_eq!((layer.col_sample, layer.row_sample), (Some(1), Some(1)));
        // A new iteration empties every cache slot, so no claim survives it.
        layer.begin_iteration(2, &mut scratch);
        assert_eq!((layer.col_sample, layer.row_sample), (None, None));
        // Within an iteration, a forward that replaces the claimed input voids the claim.
        let out = layer.forward(0, b.clone(), &mut sources[0], &mut scratch).unwrap();
        layer.forward(1, b, &mut sources[1], &mut scratch).unwrap();
        layer.backward(0, out, &mut sources[0], &mut scratch).unwrap();
        assert_eq!(layer.row_sample, Some(1));
        layer.forward(1, fill(3, &[3, 12, 12]), &mut sources[1], &mut scratch).unwrap();
        assert_eq!(layer.row_sample, None);
    }

    #[test]
    fn conv_backward_checks_the_gradient_before_touching_state() {
        // A rejected gradient must leave the cached input and the ε source untouched, so the
        // corrected retry matches a layer that never saw the bad call.
        let geom =
            ConvGeometry { in_channels: 1, out_channels: 2, kernel: 3, stride: 1, padding: 1 };
        let input = bnn_tensor::init::splitmix_tensor(3, &[1, 6, 6]);
        let grad = bnn_tensor::init::splitmix_tensor(4, &[2, 6, 6]);
        for params_only in [false, true] {
            let run = |bad_first: bool| {
                let mut rng = StdRng::seed_from_u64(2);
                let mut layer = BayesConv2d::new(geom, BayesConfig::default(), &mut rng);
                let mut eps = eps_source();
                let mut scratch = Scratch::new();
                layer.begin_iteration(1, &mut scratch);
                layer.forward(0, input.clone(), &mut eps, &mut scratch).unwrap();
                let mut call = |g: Tensor| {
                    if params_only {
                        layer.backward_params(0, g, &mut eps, &mut scratch).map(|()| None)
                    } else {
                        layer.backward(0, g, &mut eps, &mut scratch).map(|gi| Some(bits(&gi)))
                    }
                };
                if bad_first {
                    let err = call(Tensor::filled(&[2, 5, 5], 0.1));
                    assert!(matches!(err, Err(TensorError::ShapeMismatch { .. })), "{err:?}");
                }
                let grad_in = call(grad.clone()).unwrap();
                (grad_in, gradient_bits(&layer))
            };
            assert_eq!(run(true), run(false), "params_only {params_only}");
        }
    }

    #[test]
    fn backward_reconstructs_the_same_weights_it_sampled() {
        // The complexity loss uses the forward weights, the gradients use the reconstructed
        // ones; with the same source both must coincide, so one SGD step from two layers driven
        // by identically seeded sources stays identical.
        let mut rng_a = StdRng::seed_from_u64(3);
        let mut rng_b = StdRng::seed_from_u64(3);
        let cfg = BayesConfig::default();
        let mut layer_a = BayesLinear::new(5, 3, cfg, &mut rng_a);
        let mut layer_b = BayesLinear::new(5, 3, cfg, &mut rng_b);
        let mut eps_a = LfsrRetrieve::new(7).unwrap();
        let mut eps_b = crate::epsilon::StoreReplay::new(7).unwrap();
        let input = Tensor::from_vec(vec![5], vec![0.1, -0.2, 0.3, 0.4, -0.5]).unwrap();
        let grad = Tensor::from_vec(vec![3], vec![1.0, -1.0, 0.5]).unwrap();
        let mut scratch = Scratch::new();
        for (layer, eps) in [
            (&mut layer_a, &mut eps_a as &mut dyn EpsilonSource),
            (&mut layer_b, &mut eps_b as &mut dyn EpsilonSource),
        ] {
            layer.begin_iteration(1, &mut scratch);
            layer.forward(0, input.clone(), eps, &mut scratch).unwrap();
            layer.backward(0, grad.clone(), eps, &mut scratch).unwrap();
            layer.apply_update(0.05);
        }
        assert_eq!(layer_a.weights().mu(), layer_b.weights().mu());
        assert_eq!(layer_a.weights().rho(), layer_b.weights().rho());
    }

    /// An ε source that hands out one fixed block in both directions.
    struct FixedEps(Vec<f32>);

    impl EpsilonSource for FixedEps {
        fn generate_block_into(&mut self, out: &mut [f32]) {
            out.copy_from_slice(&self.0);
        }

        fn retrieve_block_into(&mut self, out: &mut [f32]) {
            out.copy_from_slice(&self.0);
        }

        fn reseed(&mut self, _seed: u64) {}

        fn state(&self) -> crate::epsilon::SourceState {
            unreachable!("fixed test blocks are never captured")
        }

        fn restore(
            &mut self,
            _state: &crate::epsilon::SourceState,
        ) -> Result<(), bnn_lfsr::LfsrError> {
            unreachable!("fixed test blocks are never restored")
        }

        fn stores_offchip(&self) -> bool {
            false
        }

        fn stored_values(&self) -> u64 {
            0
        }

        fn reset_iteration(&mut self) {}
    }

    /// Bits, with every NaN mapped to one pattern (Rust leaves NaN payloads unspecified).
    fn canonical_bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| if v.is_nan() { f32::NAN.to_bits() } else { v.to_bits() }).collect()
    }

    /// Writes `values` cyclically into every `every`-th slot of `v` from `offset` on.
    fn plant(v: &mut [f32], every: usize, offset: usize, values: &[f32]) {
        for (j, slot) in v.iter_mut().skip(offset).step_by(every).enumerate() {
            *slot = values[j % values.len()];
        }
    }

    #[test]
    fn linear_backward_equals_the_stored_sample_composition() {
        use bnn_tensor::init::splitmix_tensor;
        use bnn_tensor::kernels::gemm_at_accumulate;
        use bnn_tensor::Precision;
        const TINY: [f32; 4] = [0.0, -0.0, 1e-40, -1e-40];
        const NON_FINITE: [f32; 3] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
        let all_special: Vec<f32> = TINY.iter().chain(&NON_FINITE).copied().collect();
        let fill = |seed: u64, len: usize, scale: f32| {
            splitmix_tensor(seed, &[len]).data().iter().map(|v| v * scale).collect::<Vec<f32>>()
        };
        // Every proxy linear shape (in → out), then the paper B-MLP's first layer.
        for (inf, outf) in [(144, 64), (64, 3), (64, 48), (48, 32), (32, 4), (784, 400)] {
            let len = inf * outf;
            for precision in [Precision::Fp32, Precision::PAPER_16BIT, Precision::PAPER_8BIT] {
                let config = BayesConfig { precision, kl_weight: 0.1, ..BayesConfig::default() };
                let shape = [outf, inf];
                let tensor = |v: Vec<f32>| Tensor::from_vec(shape.to_vec(), v).unwrap();
                // μ reaches past the 8-bit grid's range; ρ spans σ from 0.0025 to 1.3.
                let mu = tensor(fill(len as u64, len, 6.0));
                let rho = tensor((0..len).map(|k| (k % 29) as f32 * 0.25 - 6.0).collect());
                let zeros = Tensor::zeros(&shape);
                let params = VariationalParams::from_raw(mu, rho, zeros.clone(), zeros).unwrap();
                let mut oracle = params.clone();
                let bias = Tensor::zeros(&[outf]);
                let mut layer =
                    BayesLinear::from_parts(inf, outf, params, bias.clone(), bias, config).unwrap();
                let mut want_bias = vec![0.0f32; outf];
                let mut scratch = Scratch::new();
                layer.begin_iteration(3, &mut scratch);
                for s in 0..3u64 {
                    let case = format!("{inf}→{outf}, {precision:?}, sample {s}");
                    // x: negatives throughout; ±0.0, subnormals, ±∞ and NaN in samples 0
                    // and 2, where g has exact-zero rows too.
                    let mut x = fill(100 + s, inf, 1.0);
                    plant(&mut x, 13, 2, if s == 1 { &TINY } else { &all_special });
                    // g: exact zeros of both signs in every third row, subnormals, and in
                    // sample 1 also ±∞ and NaN.
                    let mut g = fill(200 + s, outf, 1.0);
                    plant(&mut g, 3, 1, &[0.0, -0.0]);
                    plant(&mut g, 7, 0, &TINY[2..]);
                    if s == 1 {
                        plant(&mut g, 17, 5, &NON_FINITE);
                    }
                    // ε: ±0.0 and subnormals throughout, and in sample 1 also ±∞ and NaN.
                    let mut eps = fill(300 + s, len, 2.5);
                    plant(&mut eps, 5, 3, &TINY);
                    if s == 1 {
                        plant(&mut eps, 97, 11, &NON_FINITE);
                    }

                    let mut source = FixedEps(eps.clone());
                    let input = Tensor::from_vec(vec![inf], x.clone()).unwrap();
                    let out = layer.forward(s as usize, input, &mut source, &mut scratch).unwrap();
                    scratch.put_tensor(out);
                    let grad_output = Tensor::from_vec(vec![outf], g.clone()).unwrap();
                    let grad_input =
                        layer.backward(s as usize, grad_output, &mut source, &mut scratch).unwrap();

                    // The old composition: a stored sample, Wᵀ·g, the sparse outer product,
                    // then the per-weight gradients.
                    let mut w = Tensor::zeros(&shape);
                    oracle.sample_into(&eps, precision, &mut w);
                    let mut want_input = vec![0.0f32; inf];
                    gemm_at_accumulate(&mut want_input, w.data(), &g, inf, outf, 1);
                    let mut grad_w = Tensor::zeros(&shape);
                    for (o, &gv) in g.iter().enumerate() {
                        if gv != 0.0 {
                            for (i, &xv) in x.iter().enumerate() {
                                grad_w.data_mut()[o * inf + i] = gv * xv;
                            }
                        }
                    }
                    oracle.accumulate_gradients(&grad_w, &w, &eps, &config);
                    for (b, &gv) in want_bias.iter_mut().zip(&g) {
                        *b += gv;
                    }
                    let got = layer.weights();
                    let grads = [
                        ("input gradient", grad_input.data(), &want_input[..]),
                        ("∂μ", got.grad_mu().data(), oracle.grad_mu().data()),
                        ("∂ρ", got.grad_rho().data(), oracle.grad_rho().data()),
                        ("bias gradient", layer.grad_bias.data(), &want_bias[..]),
                    ];
                    for (what, got, want) in grads {
                        assert_eq!(canonical_bits(got), canonical_bits(want), "{case}: {what}");
                    }
                    scratch.put_tensor(grad_input);
                }
            }
        }
    }

    #[test]
    fn linear_backward_params_accumulates_what_backward_does() {
        use bnn_tensor::init::splitmix_tensor;
        use bnn_tensor::Precision;
        // The proxies' first linear layers (B-MLP 64→48, B-LeNet 144→64), then the paper
        // B-MLP's 784→400.
        for (inf, outf) in [(64, 48), (144, 64), (784, 400)] {
            for precision in [Precision::Fp32, Precision::PAPER_16BIT, Precision::PAPER_8BIT] {
                let config = BayesConfig { precision, kl_weight: 0.1, ..BayesConfig::default() };
                let build =
                    || BayesLinear::new(inf, outf, config, &mut StdRng::seed_from_u64(inf as u64));
                let (mut full, mut params_only) = (build(), build());
                let mut scratch = Scratch::new();
                full.begin_iteration(3, &mut scratch);
                params_only.begin_iteration(3, &mut scratch);
                for s in 0..3u64 {
                    let x = splitmix_tensor(10 + s, &[inf]);
                    let mut g = splitmix_tensor(20 + s, &[outf]);
                    plant(g.data_mut(), 5, s as usize, &[0.0, -0.0]);
                    let eps = splitmix_tensor(30 + s, &[inf * outf]).data().to_vec();
                    for (layer, only) in [(&mut full, false), (&mut params_only, true)] {
                        let mut source = FixedEps(eps.clone());
                        let out = layer.forward(s as usize, x.clone(), &mut source, &mut scratch);
                        scratch.put_tensor(out.unwrap());
                        let (s, g) = (s as usize, g.clone());
                        if only {
                            layer.backward_params(s, g, &mut source, &mut scratch).unwrap();
                        } else {
                            let grad_input = layer.backward(s, g, &mut source, &mut scratch);
                            scratch.put_tensor(grad_input.unwrap());
                        }
                    }
                    let case = format!("{inf}→{outf}, {precision:?}, sample {s}");
                    let grads = |l: &BayesLinear| {
                        let w = l.weights();
                        [w.grad_mu().data(), w.grad_rho().data(), l.grad_bias.data()]
                            .map(canonical_bits)
                    };
                    assert_eq!(grads(&params_only), grads(&full), "{case}");
                }
            }
        }
    }

    #[test]
    fn relu_and_flatten_round_trip_shapes() {
        let mut relu_layer = ReluLayer::new();
        let mut flatten = FlattenLayer::new();
        let mut eps = eps_source();
        let mut scratch = Scratch::new();
        relu_layer.begin_iteration(1, &mut scratch);
        flatten.begin_iteration(1, &mut scratch);
        let input =
            Tensor::from_vec(vec![2, 2, 2], vec![-1., 2., -3., 4., 5., -6., 7., -8.]).unwrap();
        let activated = relu_layer.forward(0, input, &mut eps, &mut scratch).unwrap();
        let flat = flatten.forward(0, activated, &mut eps, &mut scratch).unwrap();
        assert_eq!(flat.shape(), &[8]);
        let back = flatten.backward(0, Tensor::filled(&[8], 1.0), &mut eps, &mut scratch).unwrap();
        assert_eq!(back.shape(), &[2, 2, 2]);
        let grad_in = relu_layer.backward(0, back, &mut eps, &mut scratch).unwrap();
        // Gradient passes only where the input was positive.
        assert_eq!(grad_in.data(), &[0., 1., 0., 1., 1., 0., 1., 0.]);
    }

    #[test]
    fn max_pool_layer_reduces_and_restores() {
        let mut pool = MaxPoolLayer::new(2);
        let mut eps = eps_source();
        let mut scratch = Scratch::new();
        pool.begin_iteration(1, &mut scratch);
        let input = Tensor::from_vec(vec![1, 2, 2], vec![1., 5., 2., 3.]).unwrap();
        let out = pool.forward(0, input, &mut eps, &mut scratch).unwrap();
        assert_eq!(out.data(), &[5.0]);
        let grad_in =
            pool.backward(0, Tensor::filled(&[1, 1, 1], 2.0), &mut eps, &mut scratch).unwrap();
        assert_eq!(grad_in.data(), &[0.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn complexity_loss_accumulates_only_on_bayes_layers() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut layer = BayesLinear::new(4, 2, BayesConfig::default(), &mut rng);
        let mut eps = eps_source();
        let mut scratch = Scratch::new();
        layer.begin_iteration(1, &mut scratch);
        layer.forward(0, Tensor::filled(&[4], 1.0), &mut eps, &mut scratch).unwrap();
        assert_ne!(layer.complexity_loss(), 0.0);
        let relu_layer = ReluLayer::new();
        assert_eq!(relu_layer.complexity_loss(), 0.0);
    }

    #[test]
    fn steady_state_layer_round_trips_do_not_grow_the_arena() {
        let mut rng = StdRng::seed_from_u64(5);
        let geom =
            ConvGeometry { in_channels: 2, out_channels: 3, kernel: 3, stride: 1, padding: 1 };
        let mut layer = BayesConv2d::new(geom, BayesConfig::default(), &mut rng);
        let mut eps = eps_source();
        let mut scratch = Scratch::new();
        let mut pooled_after_warmup = 0;
        for iter in 0..4 {
            layer.begin_iteration(1, &mut scratch);
            // Inputs come from the arena, as `Network::forward_sample` provides them.
            let mut input = scratch.take_tensor(&[2, 8, 8]);
            input.data_mut().fill(0.3);
            let out = layer.forward(0, input, &mut eps, &mut scratch).unwrap();
            let grad_in = layer.backward(0, out, &mut eps, &mut scratch).unwrap();
            scratch.put_tensor(grad_in);
            eps.reset_iteration();
            layer.apply_update(0.01);
            if iter == 1 {
                pooled_after_warmup = scratch.pooled_buffers();
            } else if iter > 1 {
                assert_eq!(scratch.pooled_buffers(), pooled_after_warmup, "arena grew");
            }
        }
    }
}
