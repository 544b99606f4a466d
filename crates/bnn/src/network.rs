//! Sequential Bayesian network container and model builders.

use crate::epsilon::EpsilonSource;
use crate::layers::{BayesConv2d, BayesLinear, FlattenLayer, Layer, MaxPoolLayer, ReluLayer};
use crate::variational::BayesConfig;
use bnn_tensor::conv::ConvGeometry;
use bnn_tensor::loss::softmax_inplace;
use bnn_tensor::{KernelConfig, Scratch, Tensor, TensorError};
use rand::Rng;

/// The Monte-Carlo predictive summary of one input under a frozen posterior: what a serving
/// engine returns per inference request.
#[derive(Debug, Clone, PartialEq)]
pub struct Predictive {
    /// Predictive class probabilities, averaged over the sampled models.
    pub mean: Tensor,
    /// Per-class variance across the sampled models' probabilities (epistemic spread).
    pub variance: Tensor,
    /// Predictive entropy of the mean, in nats.
    pub entropy: f32,
    /// Number of Monte-Carlo samples aggregated.
    pub samples: usize,
}

/// Reshapes a reusable output tensor only when its shape actually changed, so steady-state
/// calls that keep producing the same geometry never reallocate.
pub(crate) fn reuse_buffer(t: &mut Tensor, shape: &[usize]) {
    if t.shape() != shape {
        *t = Tensor::zeros(shape);
    }
}

/// A sequential stack of [`Layer`]s trained with Bayes-by-Backprop.
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
    config: BayesConfig,
    /// The per-replica scratch arena threaded through every layer call; owning it here keeps
    /// one arena per worker replica without widening the public API.
    scratch: Scratch,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.layers.iter().map(|l| l.name()).collect();
        f.debug_struct("Network").field("layers", &names).field("config", &self.config).finish()
    }
}

impl Network {
    /// Creates an empty network with the given Bayesian hyper-parameters.
    pub fn new(config: BayesConfig) -> Self {
        Self { layers: Vec::new(), config, scratch: Scratch::new() }
    }

    /// The network's Bayesian hyper-parameters.
    pub fn config(&self) -> &BayesConfig {
        &self.config
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: Box<dyn Layer>) -> &mut Self {
        self.layers.push(layer);
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` if the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Immutable access to the layer stack.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Captures the network's complete trainable state as a
    /// [`NetworkSnapshot`](crate::snapshot::NetworkSnapshot) — the frozen-posterior artifact
    /// the checkpoint store persists. Activation caches are not captured (snapshots are taken
    /// at iteration boundaries, where they are empty).
    pub fn snapshot(&self) -> crate::snapshot::NetworkSnapshot {
        crate::snapshot::NetworkSnapshot {
            config: self.config,
            layers: self.layers.iter().map(|l| l.snapshot()).collect(),
        }
    }

    /// Number of ε values drawn per Monte-Carlo sample (one per Bayesian weight).
    pub fn epsilon_count(&self) -> usize {
        self.layers.iter().map(|l| l.epsilon_count()).sum()
    }

    /// Number of trainable scalar parameters.
    pub fn parameter_count(&self) -> usize {
        self.layers.iter().map(|l| l.parameter_count()).sum()
    }

    /// Complexity loss accumulated by all Bayesian layers during the current iteration.
    pub fn complexity_loss(&self) -> f32 {
        self.layers.iter().map(|l| l.complexity_loss()).sum()
    }

    /// Prepares every layer for an iteration over `samples` Monte-Carlo samples, recycling
    /// any state a previous iteration left cached.
    pub fn begin_iteration(&mut self, samples: usize) {
        for layer in &mut self.layers {
            layer.begin_iteration(samples, &mut self.scratch);
        }
    }

    /// Forward pass of one sampled model.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the layers.
    pub fn forward_sample(
        &mut self,
        sample: usize,
        input: &Tensor,
        eps: &mut dyn EpsilonSource,
    ) -> Result<Tensor, TensorError> {
        let mut x = self.scratch.take_tensor_copy(input);
        for layer in &mut self.layers {
            x = layer.forward(sample, x, eps, &mut self.scratch)?;
        }
        Ok(x)
    }

    /// Backward pass of one sampled model (layers traversed in reverse order, retrieving ε),
    /// accumulating every layer's parameter gradients. Nothing reads the gradient w.r.t.
    /// the network input, so the first layer runs [`Layer::backward_params`], which does not
    /// compute it.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the layers.
    pub fn backward_sample(
        &mut self,
        sample: usize,
        grad_output: &Tensor,
        eps: &mut dyn EpsilonSource,
    ) -> Result<(), TensorError> {
        let mut g = self.scratch.take_tensor_copy(grad_output);
        let Some((first, rest)) = self.layers.split_first_mut() else {
            self.scratch.put_tensor(g);
            return Ok(());
        };
        for layer in rest.iter_mut().rev() {
            g = layer.backward(sample, g, eps, &mut self.scratch)?;
        }
        first.backward_params(sample, g, eps, &mut self.scratch)
    }

    /// Returns a tensor that escaped the network (a forward output, a final gradient) to the
    /// internal scratch arena for reuse — how the trainer closes the zero-allocation loop.
    pub fn recycle(&mut self, tensor: Tensor) {
        self.scratch.put_tensor(tensor);
    }

    /// Takes a zero-filled tensor from the network's internal arena — the counterpart of
    /// [`Network::recycle`] for drivers (like the trainer's fused forward stage) that need a
    /// short-lived buffer without allocating.
    pub fn take_buffer(&mut self, shape: &[usize]) -> Tensor {
        self.scratch.take_tensor(shape)
    }

    /// The kernel configuration (tier + GEMM worker budget) this network's layer stack
    /// dispatches on.
    pub fn kernel(&self) -> KernelConfig {
        self.scratch.kernel()
    }

    /// Replaces the kernel configuration the layer stack dispatches on. Bit-exact tiers
    /// ([`bnn_tensor::KernelTier::BIT_EXACT`]) and any `gemm_workers` count leave every
    /// output bit-identical; `FastMath` does not and is never a default.
    pub fn set_kernel(&mut self, kernel: KernelConfig) {
        self.scratch.set_kernel(kernel);
    }

    /// Forward pass of **all** sampled models at once over a sample-stacked copy of `input`
    /// (the fused-sampling path): returns the stacked `[S, classes]` outputs. One
    /// [`Layer::forward_all`] call per layer replaces `S` per-layer visits, so ReLU and
    /// pooling run once over all samples and the first layer packs its shared input once.
    ///
    /// Bit-identical to `sources.len()` individual [`Network::forward_sample`] calls; with
    /// `train = true` it also leaves identical per-sample caches and complexity sums behind,
    /// so the per-sample backward stage runs unchanged on top of a fused forward stage.
    /// Callers drive [`Network::begin_iteration`] first, exactly as with `forward_sample`.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the layers.
    ///
    /// # Panics
    ///
    /// Panics when `sources` is empty.
    pub fn forward_all_samples(
        &mut self,
        input: &Tensor,
        sources: &mut [Box<dyn EpsilonSource>],
        train: bool,
    ) -> Result<Tensor, TensorError> {
        let samples = sources.len();
        assert!(samples >= 1, "fused forward needs at least one ε source");
        let mut x = match input.shape() {
            &[c, h, w] => self.scratch.take_tensor(&[samples * c, h, w]),
            shape => self.scratch.take_tensor(&[samples, shape.iter().product()]),
        };
        let n = input.len();
        for s in 0..samples {
            x.data_mut()[s * n..(s + 1) * n].copy_from_slice(input.data());
        }
        for layer in &mut self.layers {
            x = layer.forward_all(x, samples, sources, train, &mut self.scratch)?;
        }
        Ok(x)
    }

    /// Applies accumulated updates on every layer.
    pub fn apply_update(&mut self, learning_rate: f32) {
        for layer in &mut self.layers {
            layer.apply_update(learning_rate);
        }
    }

    /// Predictive class probabilities for `input`, averaged over one forward pass per provided
    /// ε source (Monte-Carlo model averaging).
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the layers.
    pub fn predict(
        &mut self,
        input: &Tensor,
        sources: &mut [Box<dyn EpsilonSource>],
    ) -> Result<Tensor, TensorError> {
        assert!(!sources.is_empty(), "prediction needs at least one ε source");
        self.begin_iteration(sources.len());
        let mut mean: Option<Tensor> = None;
        for (s, src) in sources.iter_mut().enumerate() {
            let mut probs = self.forward_sample(s, input, src.as_mut())?;
            softmax_inplace(&mut probs);
            mean = Some(match mean {
                None => probs,
                Some(mut acc) => {
                    for (a, &p) in acc.data_mut().iter_mut().zip(probs.data()) {
                        *a += p;
                    }
                    self.scratch.put_tensor(probs);
                    acc
                }
            });
        }
        let inv_s = 1.0 / sources.len() as f32;
        let mut mean = mean.expect("at least one source");
        for v in mean.data_mut() {
            *v *= inv_s;
        }
        Ok(mean)
    }

    /// Predictive entropy (in nats) of a probability vector — the paper's motivating
    /// uncertainty measure.
    pub fn predictive_entropy(probabilities: &Tensor) -> f32 {
        -probabilities.data().iter().filter(|&&p| p > 0.0).map(|&p| p * p.ln()).sum::<f32>()
    }

    /// Monte-Carlo predictive summary for `input`: one forward pass per provided ε source,
    /// aggregated into predictive mean, per-class variance and predictive entropy.
    ///
    /// This is the inference-only path the serving engine (`bnn-serve`) drives: no backward
    /// pass runs, no ε is retrieved (forward-only sources like
    /// [`LfsrForward`](crate::epsilon::LfsrForward) suffice), and the result is a pure
    /// function of the frozen `(μ, ρ)` posterior, the input and the sources' seeds — which is
    /// what lets any worker replica produce bit-identical responses.
    ///
    /// The variance is the population variance over the `S` sampled probability vectors
    /// (`E[p²] − E[p]²`, clamped at zero against rounding), accumulated in the sources' order.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the layers.
    ///
    /// # Panics
    ///
    /// Panics when `sources` is empty.
    pub fn predictive(
        &mut self,
        input: &Tensor,
        sources: &mut [Box<dyn EpsilonSource>],
    ) -> Result<Predictive, TensorError> {
        let mut out = Predictive {
            mean: Tensor::zeros(&[0]),
            variance: Tensor::zeros(&[0]),
            entropy: 0.0,
            samples: 0,
        };
        self.predictive_into(input, sources, &mut out)?;
        Ok(out)
    }

    /// [`Network::predictive`] into a caller-provided summary, reusing its buffers: the
    /// zero-allocation form the serving engine drives per request (bit-identical results).
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the layers.
    ///
    /// # Panics
    ///
    /// Panics when `sources` is empty.
    pub fn predictive_into(
        &mut self,
        input: &Tensor,
        sources: &mut [Box<dyn EpsilonSource>],
        out: &mut Predictive,
    ) -> Result<(), TensorError> {
        assert!(!sources.is_empty(), "predictive inference needs at least one ε source");
        self.begin_iteration(sources.len());
        let mut sum: Option<Tensor> = None;
        let mut sum_sq: Option<Tensor> = None;
        for (s, src) in sources.iter_mut().enumerate() {
            let mut probs = self.forward_sample(s, input, src.as_mut())?;
            softmax_inplace(&mut probs);
            // Zero-initialized accumulators added to in source order reproduce the old
            // fold exactly: probabilities are never −0.0, so `0.0 + p` has `p`'s bits.
            let (sum, sum_sq) = match (&mut sum, &mut sum_sq) {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    sum = Some(self.scratch.take_tensor(probs.shape()));
                    sum_sq = Some(self.scratch.take_tensor(probs.shape()));
                    (sum.as_mut().unwrap(), sum_sq.as_mut().unwrap())
                }
            };
            for ((a, b), &p) in sum.data_mut().iter_mut().zip(sum_sq.data_mut()).zip(probs.data()) {
                *a += p;
                *b += p * p;
            }
            self.scratch.put_tensor(probs);
        }
        let sum = sum.expect("at least one source");
        let sum_sq = sum_sq.expect("at least one source");
        let inv_s = 1.0 / sources.len() as f32;
        reuse_buffer(&mut out.mean, sum.shape());
        reuse_buffer(&mut out.variance, sum.shape());
        for (m, &s) in out.mean.data_mut().iter_mut().zip(sum.data()) {
            *m = s * inv_s;
        }
        for ((v, &sq), &m) in
            out.variance.data_mut().iter_mut().zip(sum_sq.data()).zip(out.mean.data())
        {
            *v = (sq * inv_s - m * m).max(0.0);
        }
        out.entropy = Self::predictive_entropy(&out.mean);
        out.samples = sources.len();
        self.scratch.put_tensor(sum);
        self.scratch.put_tensor(sum_sq);
        Ok(())
    }

    /// [`Network::predictive_into`] on the fused-sampling path: the `S` forward passes run
    /// stacked through [`Network::forward_all_samples`] (inference-only, so Bayesian layers
    /// skip complexity-loss and cache work), then each stacked row is softmaxed and
    /// aggregated in sample order exactly as the per-sample path does.
    ///
    /// **Bit-identical** to `predictive_into` for the same `(posterior, input, sources)` —
    /// pinned by `bnn-serve`'s fused-identity tests and every committed response digest —
    /// and still zero-allocation per request once warmed up.
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the layers.
    ///
    /// # Panics
    ///
    /// Panics when `sources` is empty.
    pub fn predictive_fused_into(
        &mut self,
        input: &Tensor,
        sources: &mut [Box<dyn EpsilonSource>],
        out: &mut Predictive,
    ) -> Result<(), TensorError> {
        assert!(!sources.is_empty(), "predictive inference needs at least one ε source");
        let samples = sources.len();
        self.begin_iteration(samples);
        let stacked = self.forward_all_samples(input, sources, false)?;
        let classes = stacked.len() / samples;
        let mut probs = self.scratch.take_tensor(&[classes]);
        let mut sum = self.scratch.take_tensor(&[classes]);
        let mut sum_sq = self.scratch.take_tensor(&[classes]);
        for s in 0..samples {
            probs.data_mut().copy_from_slice(&stacked.data()[s * classes..(s + 1) * classes]);
            softmax_inplace(&mut probs);
            // Same zero-seeded, sample-ordered accumulation as `predictive_into`.
            for ((a, b), &p) in sum.data_mut().iter_mut().zip(sum_sq.data_mut()).zip(probs.data()) {
                *a += p;
                *b += p * p;
            }
        }
        let inv_s = 1.0 / samples as f32;
        reuse_buffer(&mut out.mean, sum.shape());
        reuse_buffer(&mut out.variance, sum.shape());
        for (m, &s) in out.mean.data_mut().iter_mut().zip(sum.data()) {
            *m = s * inv_s;
        }
        for ((v, &sq), &m) in
            out.variance.data_mut().iter_mut().zip(sum_sq.data()).zip(out.mean.data())
        {
            *v = (sq * inv_s - m * m).max(0.0);
        }
        out.entropy = Self::predictive_entropy(&out.mean);
        out.samples = samples;
        self.scratch.put_tensor(probs);
        self.scratch.put_tensor(sum);
        self.scratch.put_tensor(sum_sq);
        self.scratch.put_tensor(stacked);
        Ok(())
    }

    /// [`Network::predictive_fused_into`] into a fresh summary (the allocating convenience
    /// form, mirroring [`Network::predictive`]).
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the layers.
    ///
    /// # Panics
    ///
    /// Panics when `sources` is empty.
    pub fn predictive_fused(
        &mut self,
        input: &Tensor,
        sources: &mut [Box<dyn EpsilonSource>],
    ) -> Result<Predictive, TensorError> {
        let mut out = Predictive {
            mean: Tensor::zeros(&[0]),
            variance: Tensor::zeros(&[0]),
            entropy: 0.0,
            samples: 0,
        };
        self.predictive_fused_into(input, sources, &mut out)?;
        Ok(out)
    }

    /// Builds a Bayesian multi-layer perceptron: `input_dim → hidden… → classes` with ReLU
    /// between layers (the B-MLP family).
    pub fn bayes_mlp(
        input_dim: usize,
        hidden: &[usize],
        classes: usize,
        config: BayesConfig,
        rng: &mut impl Rng,
    ) -> Self {
        let mut net = Network::new(config);
        let mut prev = input_dim;
        for &h in hidden {
            net.push(Box::new(BayesLinear::new(prev, h, config, rng)));
            net.push(Box::new(ReluLayer::new()));
            prev = h;
        }
        net.push(Box::new(BayesLinear::new(prev, classes, config, rng)));
        net
    }

    /// Builds a small Bayesian convolutional network in the LeNet style used by the paper's
    /// B-LeNet experiments: two conv+pool blocks followed by two fully-connected layers.
    ///
    /// `input_shape` is `[channels, height, width]`; height and width must be divisible by 4.
    ///
    /// # Panics
    ///
    /// Panics if the spatial size is not divisible by 4.
    pub fn bayes_lenet(
        input_shape: &[usize; 3],
        classes: usize,
        config: BayesConfig,
        rng: &mut impl Rng,
    ) -> Self {
        let [c, h, w] = *input_shape;
        assert!(h % 4 == 0 && w % 4 == 0, "LeNet-style builder needs spatial size divisible by 4");
        let conv1 =
            ConvGeometry { in_channels: c, out_channels: 6, kernel: 3, stride: 1, padding: 1 };
        let conv2 =
            ConvGeometry { in_channels: 6, out_channels: 16, kernel: 3, stride: 1, padding: 1 };
        let flat = 16 * (h / 4) * (w / 4);
        let mut net = Network::new(config);
        net.push(Box::new(BayesConv2d::new(conv1, config, rng)));
        net.push(Box::new(ReluLayer::new()));
        net.push(Box::new(MaxPoolLayer::new(2)));
        net.push(Box::new(BayesConv2d::new(conv2, config, rng)));
        net.push(Box::new(ReluLayer::new()));
        net.push(Box::new(MaxPoolLayer::new(2)));
        net.push(Box::new(FlattenLayer::new()));
        net.push(Box::new(BayesLinear::new(flat, 64, config, rng)));
        net.push(Box::new(ReluLayer::new()));
        net.push(Box::new(BayesLinear::new(64, classes, config, rng)));
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epsilon::LfsrRetrieve;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn network_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Network>();
    }

    #[test]
    fn mlp_builder_wires_expected_layers_and_counts() {
        let mut rng = StdRng::seed_from_u64(1);
        let net = Network::bayes_mlp(10, &[8, 6], 3, BayesConfig::default(), &mut rng);
        // 3 linear + 2 relu layers.
        assert_eq!(net.len(), 5);
        assert_eq!(net.epsilon_count(), 10 * 8 + 8 * 6 + 6 * 3);
        assert!(net.parameter_count() > 2 * net.epsilon_count());
        assert!(!net.is_empty());
    }

    #[test]
    fn lenet_builder_produces_class_logits() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = Network::bayes_lenet(&[1, 8, 8], 4, BayesConfig::default(), &mut rng);
        let mut eps = LfsrRetrieve::new(3).unwrap();
        net.begin_iteration(1);
        let out = net.forward_sample(0, &Tensor::filled(&[1, 8, 8], 0.5), &mut eps).unwrap();
        assert_eq!(out.shape(), &[4]);
    }

    #[test]
    fn forward_backward_round_trip_consumes_all_epsilons() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut net = Network::bayes_mlp(6, &[5], 2, BayesConfig::default(), &mut rng);
        let mut eps = LfsrRetrieve::new(11).unwrap();
        net.begin_iteration(1);
        let out = net.forward_sample(0, &Tensor::filled(&[6], 1.0), &mut eps).unwrap();
        let grad = Tensor::filled(out.shape(), 1.0);
        net.backward_sample(0, &grad, &mut eps).unwrap();
        // All generated blocks were retrieved in reverse order; reset must not panic.
        use crate::epsilon::EpsilonSource;
        eps.reset_iteration();
        net.apply_update(0.01);
    }

    #[test]
    fn predict_returns_normalized_probabilities() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut net = Network::bayes_mlp(4, &[6], 3, BayesConfig::default(), &mut rng);
        let mut sources: Vec<Box<dyn EpsilonSource>> = (0..4)
            .map(|i| Box::new(LfsrRetrieve::new(100 + i).unwrap()) as Box<dyn EpsilonSource>)
            .collect();
        let probs = net.predict(&Tensor::filled(&[4], 0.2), &mut sources).unwrap();
        assert_eq!(probs.shape(), &[3]);
        assert!((probs.sum() - 1.0).abs() < 1e-5);
        let entropy = Network::predictive_entropy(&probs);
        assert!(entropy >= 0.0 && entropy <= (3.0f32).ln() + 1e-5);
    }

    #[test]
    fn predictive_summary_is_consistent_with_predict() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut net = Network::bayes_mlp(4, &[6], 3, BayesConfig::default(), &mut rng);
        let make_sources = || -> Vec<Box<dyn EpsilonSource>> {
            (0..5)
                .map(|i| {
                    Box::new(crate::epsilon::LfsrForward::new(200 + i).unwrap())
                        as Box<dyn EpsilonSource>
                })
                .collect()
        };
        let input = Tensor::filled(&[4], 0.3);
        let mut sources = make_sources();
        let summary = net.predictive(&input, &mut sources).unwrap();
        assert_eq!(summary.samples, 5);
        assert_eq!(summary.mean.shape(), &[3]);
        assert_eq!(summary.variance.shape(), &[3]);
        assert!((summary.mean.sum() - 1.0).abs() < 1e-5);
        assert!(summary.variance.data().iter().all(|&v| v >= 0.0));
        assert!(summary.entropy >= 0.0);
        // The mean must agree with `predict` given identically seeded sources.
        let mut sources = make_sources();
        let probs = net.predict(&input, &mut sources).unwrap();
        assert_eq!(summary.mean, probs);
        assert_eq!(summary.entropy, Network::predictive_entropy(&probs));
        // And the whole summary is reproducible from the seeds alone.
        let mut sources = make_sources();
        assert_eq!(net.predictive(&input, &mut sources).unwrap(), summary);
    }

    #[test]
    fn single_sample_predictive_has_zero_variance() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut net = Network::bayes_mlp(3, &[4], 2, BayesConfig::default(), &mut rng);
        let mut sources: Vec<Box<dyn EpsilonSource>> =
            vec![Box::new(crate::epsilon::LfsrForward::new(9).unwrap())];
        let summary = net.predictive(&Tensor::filled(&[3], 1.0), &mut sources).unwrap();
        assert!(summary.variance.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "without a cached forward")]
    fn backward_without_forward_panics_even_after_an_inference_pass() {
        // begin_iteration recycles forward-only caches, so a stray backward cannot silently
        // consume a previous iteration's activations.
        let mut rng = StdRng::seed_from_u64(8);
        let mut net = Network::bayes_mlp(3, &[4], 2, BayesConfig::default(), &mut rng);
        let mut sources: Vec<Box<dyn EpsilonSource>> =
            vec![Box::new(crate::epsilon::LfsrForward::new(5).unwrap())];
        net.predictive(&Tensor::filled(&[3], 0.5), &mut sources).unwrap();
        net.begin_iteration(1);
        let mut eps = LfsrRetrieve::new(6).unwrap();
        let _ = net.backward_sample(0, &Tensor::filled(&[2], 1.0), &mut eps);
    }

    #[test]
    fn debug_lists_layer_names() {
        let mut rng = StdRng::seed_from_u64(5);
        let net = Network::bayes_mlp(2, &[2], 2, BayesConfig::default(), &mut rng);
        let dbg = format!("{net:?}");
        assert!(dbg.contains("bayes_linear"));
        assert!(dbg.contains("relu"));
    }
}
