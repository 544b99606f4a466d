//! Variational weight parameters (μ, ρ) shared by all Bayesian layers.
//!
//! Each weight is a Gaussian `N(μ, σ²)` with `σ = softplus(ρ)`; a sampled weight is
//! `w = μ + ε ∘ σ` (the paper's process ①/②). Gradients follow Bayes-by-Backprop (Blundell et
//! al., 2015), which is the training algorithm the paper builds on:
//!
//! * `Δμ = ∂NLL/∂w + λ·w/σ_c²` — the posterior's direct and pathwise μ terms cancel, leaving the
//!   likelihood gradient plus the Gaussian-prior pull (the paper's `Δw_p ≈ w/σ_c²`, implemented
//!   in the DPU as a 2-bit shift when `σ_c = 0.5`);
//! * `Δσ = ε·(∂NLL/∂w + λ·w/σ_c²) − λ/σ`, then `Δρ = Δσ·sigmoid(ρ)` through the softplus
//!   reparameterization. The ε factor is why the backward stage needs every forward ε again —
//!   the data-movement problem Shift-BNN eliminates.
//!
//! Only ε differs between the `S` samples of an iteration: σ, ln σ and sigmoid(ρ) are
//! functions of ρ alone, which changes only at [`VariationalParams::sgd_step`]. They are
//! therefore cached per weight and computed once per update instead of once per sample.

use bnn_tensor::activation::softplus_inverse;
use bnn_tensor::init::{fan_in_out, xavier_uniform};
#[cfg(target_arch = "x86_64")]
use bnn_tensor::kernels::avx2_available;
use bnn_tensor::{transcendental, Precision, Tensor, TensorError};
use rand::Rng;

/// Weights per chunk of [`VariationalParams::sample_and_score_into`]'s term pass (256 B of
/// f64 on the stack). A short chunk lets the core compute one chunk's terms while the
/// previous chunk's adds still run down the f64 chain.
const SCORE_CHUNK: usize = 32;

/// Hyper-parameters shared by every Bayesian layer of a network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BayesConfig {
    /// Arithmetic precision emulated during training (the paper's Table 1 sweeps this).
    pub precision: Precision,
    /// Standard deviation `σ_c` of the zero-mean Gaussian prior; the paper fixes 0.5.
    pub prior_sigma: f32,
    /// Weight `λ` of the complexity (posterior − prior) term relative to the likelihood,
    /// typically `1 / number_of_training_examples`.
    pub kl_weight: f32,
    /// Initial value of ρ; `softplus(init_rho)` is the initial posterior standard deviation.
    pub init_rho: f32,
}

impl Default for BayesConfig {
    fn default() -> Self {
        Self { precision: Precision::Fp32, prior_sigma: 0.5, kl_weight: 1e-3, init_rho: -4.0 }
    }
}

impl BayesConfig {
    /// Returns a copy of the configuration with a different precision (convenience for the
    /// Table 1 precision sweep).
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }
}

/// Per-weight functions of ρ that the samplers and gradient readers share, valid for the ρ
/// they were filled from. Each tier fills lazily on first use and is refilled in place (no
/// allocation) after ρ changes: a serving replica only ever fills σ, and construction never
/// pays for either tier.
///
/// Both tiers start from one exponential per weight, `e = exp(−|ρ|)`: for ρ < 0 it is the
/// `exp(ρ)` that `softplus` and `sigmoid` both begin with, for ρ ≥ 0 it is sigmoid's
/// `exp(−ρ)`. The σ tier is [`transcendental::sigma_pass`] and the training tier adds
/// [`transcendental::ln_pass`]; both run bit-exact vector ports of libm on AVX2+FMA CPUs.
#[derive(Debug, Clone, Default)]
struct SigmaCache {
    /// `σ = softplus(ρ)`, current while `sigma_fresh`.
    sigma: Vec<f32>,
    /// `ln σ` in f64, as the complexity loss accumulates it, current while `training_fresh`.
    ln_sigma: Vec<f64>,
    /// `sigmoid(ρ)`, the softplus derivative, current while `training_fresh`. While only the σ
    /// tier is fresh it holds `e = exp(−|ρ|)`, which the training tier converts in place.
    sigmoid: Vec<f32>,
    sigma_fresh: bool,
    training_fresh: bool,
}

impl SigmaCache {
    /// σ for `rho`, filling it if ρ changed since the last fill: the σ pass writes `e` into
    /// the sigmoid buffer and σ.
    fn sigma(&mut self, rho: &Tensor) -> &[f32] {
        if !self.sigma_fresh {
            self.sigmoid.resize(rho.len(), 0.0);
            self.sigma.resize(rho.len(), 0.0);
            transcendental::sigma_pass(rho.data(), &mut self.sigmoid, &mut self.sigma);
            self.sigma_fresh = true;
            self.training_fresh = false;
        }
        &self.sigma
    }

    /// Every cached term for `rho`, filling whichever tier is stale: the ln pass over σ, then
    /// `e` becomes `sigmoid(ρ)` in place.
    fn training(&mut self, rho: &Tensor) -> &Self {
        self.sigma(rho);
        if !self.training_fresh {
            self.ln_sigma.resize(self.sigma.len(), 0.0);
            transcendental::ln_pass(&self.sigma, &mut self.ln_sigma);
            for (e, &r) in self.sigmoid.iter_mut().zip(rho.data()) {
                // sigmoid's two branches: 1 / (1 + exp(−ρ)) and exp(ρ) / (1 + exp(ρ)).
                let numerator = if r >= 0.0 { 1.0 } else { *e };
                *e = numerator / (1.0 + *e);
            }
            self.training_fresh = true;
        }
        self
    }

    /// Marks every term stale (ρ changed); the buffers are kept for the refill.
    fn invalidate(&mut self) {
        self.sigma_fresh = false;
        self.training_fresh = false;
    }
}

/// The (μ, ρ) parameter pair of one Bayesian weight tensor, with gradient accumulators.
///
/// σ, ln σ and sigmoid(ρ) are cached per weight. The cache is derived state: it holds the
/// values of the current ρ whenever a reader uses it, fills on first use after construction
/// or [`VariationalParams::sgd_step`] (never at construction), and is ignored by `PartialEq`
/// and by the checkpoint format, which capture μ, ρ and the two gradients only.
#[derive(Debug, Clone)]
pub struct VariationalParams {
    mu: Tensor,
    rho: Tensor,
    grad_mu: Tensor,
    grad_rho: Tensor,
    cache: SigmaCache,
}

impl PartialEq for VariationalParams {
    fn eq(&self, other: &Self) -> bool {
        self.mu == other.mu
            && self.rho == other.rho
            && self.grad_mu == other.grad_mu
            && self.grad_rho == other.grad_rho
    }
}

impl VariationalParams {
    fn assemble(mu: Tensor, rho: Tensor, grad_mu: Tensor, grad_rho: Tensor) -> Self {
        Self { mu, rho, grad_mu, grad_rho, cache: SigmaCache::default() }
    }

    /// Initializes μ with Xavier-uniform values and ρ with `config.init_rho`.
    pub fn init(shape: &[usize], config: &BayesConfig, rng: &mut impl Rng) -> Self {
        let (fan_in, fan_out) = fan_in_out(shape);
        let mu = xavier_uniform(shape, fan_in, fan_out, rng);
        let rho = Tensor::filled(shape, config.init_rho);
        Self::assemble(mu, rho, Tensor::zeros(shape), Tensor::zeros(shape))
    }

    /// Creates parameters from explicit μ and σ tensors (σ is converted to ρ).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ or σ contains non-positive values.
    pub fn from_mu_sigma(mu: Tensor, sigma: &Tensor) -> Self {
        assert_eq!(mu.shape(), sigma.shape(), "mu and sigma must share a shape");
        let rho = sigma.map(softplus_inverse);
        let shape = mu.shape().to_vec();
        Self::assemble(mu, rho, Tensor::zeros(&shape), Tensor::zeros(&shape))
    }

    /// Reassembles parameters from captured tensors, bit-exactly — the checkpoint-restore
    /// constructor: unlike [`VariationalParams::from_mu_sigma`] nothing is recomputed through
    /// `softplus`, so a snapshot/restore round trip reproduces every ρ and every accumulated
    /// gradient down to the bit.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the four tensors do not share one shape.
    pub fn from_raw(
        mu: Tensor,
        rho: Tensor,
        grad_mu: Tensor,
        grad_rho: Tensor,
    ) -> Result<Self, TensorError> {
        for other in [&rho, &grad_mu, &grad_rho] {
            if other.shape() != mu.shape() {
                return Err(TensorError::ShapeMismatch {
                    left: mu.shape().to_vec(),
                    right: other.shape().to_vec(),
                });
            }
        }
        Ok(Self::assemble(mu, rho, grad_mu, grad_rho))
    }

    /// The mean tensor μ.
    pub fn mu(&self) -> &Tensor {
        &self.mu
    }

    /// The pre-softplus spread parameter ρ.
    pub fn rho(&self) -> &Tensor {
        &self.rho
    }

    /// The posterior standard deviation `σ = softplus(ρ)`, from the σ pass that fills the
    /// sampling cache, so both hold the same bits.
    pub fn sigma(&self) -> Tensor {
        let mut sigma = Tensor::zeros(self.shape());
        let mut e = vec![0.0; self.len()];
        transcendental::sigma_pass(self.rho.data(), &mut e, sigma.data_mut());
        sigma
    }

    /// Number of weights.
    pub fn len(&self) -> usize {
        self.mu.len()
    }

    /// Returns `true` if the parameter tensor is empty.
    pub fn is_empty(&self) -> bool {
        self.mu.is_empty()
    }

    /// Shape of the weight tensor.
    pub fn shape(&self) -> &[usize] {
        self.mu.shape()
    }

    /// Samples a weight tensor `w = μ + ε∘σ` into a caller-provided tensor, quantizing to the
    /// configured precision — the zero-allocation sampling primitive of the hot path (σ comes
    /// from the per-update cache; `softplus` is deterministic, so the values are bit-identical
    /// to computing it per sample).
    ///
    /// The precision is matched once, outside the loop: `Fp32` quantization is the identity,
    /// so that arm is the bare `μ + ε·σ` loop, which vectorizes; the fixed-point arms round
    /// every weight through [`Precision::quantize`] exactly as before.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon.len()` or `out.len()` differs from the parameter count.
    pub fn sample_into(&mut self, epsilon: &[f32], precision: Precision, out: &mut Tensor) {
        assert_eq!(epsilon.len(), self.len(), "epsilon block size must match weight count");
        assert_eq!(out.len(), self.len(), "output tensor must match weight count");
        let sigma = self.cache.sigma(&self.rho);
        let terms = out.data_mut().iter_mut().zip(self.mu.data()).zip(epsilon).zip(sigma);
        match precision {
            Precision::Fp32 => {
                for (((wv, &m), &e), &s) in terms {
                    *wv = m + e * s;
                }
            }
            _ => {
                for (((wv, &m), &e), &s) in terms {
                    *wv = precision.quantize(m + e * s);
                }
            }
        }
    }

    /// Samples a weight tensor `w = μ + ε∘σ`, quantizing the result to the configured precision
    /// (allocating wrapper over [`VariationalParams::sample_into`]).
    ///
    /// # Panics
    ///
    /// Panics if `epsilon.len()` differs from the parameter count.
    pub fn sample(&mut self, epsilon: &[f32], precision: Precision) -> Tensor {
        let mut w = Tensor::zeros(self.shape());
        self.sample_into(epsilon, precision, &mut w);
        w
    }

    /// Samples `w = μ + ε∘σ` into `out` exactly as [`VariationalParams::sample_into`] does and
    /// returns the sample's complexity contribution `Σ_i [log q(w_i|θ) − log P(w_i)]`, in one
    /// pass over the weights — the training forward's sampler.
    ///
    /// The pass works 32 weights at a time: it writes their samples, evaluates their f64
    /// `log q − log p` terms into a stack array, off the summation chain, and then adds them
    /// to one f64 total in ascending `i`, so the sum is the one-loop sum bit for bit. On CPUs
    /// with AVX2 the same body runs compiled for AVX2 (no FMA).
    ///
    /// # Panics
    ///
    /// Panics if `epsilon.len()` or `out.len()` differs from the parameter count.
    pub fn sample_and_score_into(
        &mut self,
        epsilon: &[f32],
        precision: Precision,
        out: &mut Tensor,
        prior_sigma: f32,
    ) -> f32 {
        assert_eq!(epsilon.len(), self.len(), "epsilon block size must match weight count");
        assert_eq!(out.len(), self.len(), "output tensor must match weight count");
        let terms = self.cache.training(&self.rho);
        let (mu, out) = (self.mu.data(), out.data_mut());
        #[cfg(target_arch = "x86_64")]
        if avx2_available() {
            // SAFETY: guarded by runtime AVX2 detection.
            let total =
                unsafe { sample_and_score_avx2(mu, epsilon, terms, precision, prior_sigma, out) };
            return total as f32;
        }
        sample_and_score(mu, epsilon, terms, precision, prior_sigma, out) as f32
    }

    /// Accumulates gradients for one sample given the likelihood gradient `∂NLL/∂w`, the sampled
    /// weights, and the ε used to sample them.
    ///
    /// # Panics
    ///
    /// Panics if the operand sizes disagree.
    pub fn accumulate_gradients(
        &mut self,
        grad_w_likelihood: &Tensor,
        weights: &Tensor,
        epsilon: &[f32],
        config: &BayesConfig,
    ) {
        assert_eq!(grad_w_likelihood.len(), self.len());
        assert_eq!(weights.len(), self.len());
        assert_eq!(epsilon.len(), self.len());
        let grad = WeightGradient::new(config);
        let terms = self.cache.training(&self.rho);
        let gm = self.grad_mu.data_mut();
        let gr = self.grad_rho.data_mut();
        let (gws, ws) = (grad_w_likelihood.data(), weights.data());
        for i in 0..gm.len() {
            let (d_mu, d_rho) =
                grad.of(gws[i], ws[i], epsilon[i], terms.sigma[i], terms.sigmoid[i]);
            gm[i] += d_mu;
            gr[i] += d_rho;
        }
    }

    /// One sample's backward pass of a linear layer whose `[out, in]` weights these are, in
    /// one row-wise pass: for each output `o` and input `i` it samples
    /// `w = quantize(μ + ε·σ)` as [`VariationalParams::sample_into`] does, adds `w·g[o]` to
    /// `grad_input[i]` when an input gradient is asked for, and accumulates ∂μ and ∂ρ from
    /// the likelihood gradient `g[o]·x[i]` as [`VariationalParams::accumulate_gradients`]
    /// does. Neither the sampled matrix nor the likelihood gradient is stored.
    ///
    /// Every bit equals that composition. Each `grad_input[i]` adds its terms in ascending
    /// `o`, the order of `kernels::gemm_at_accumulate`. A row whose `g[o]` is zero takes the
    /// likelihood gradient `+0.0`, as the sparse outer product left it, whatever `x` holds.
    /// The zero test and the precision are decided once per row, outside the loop over `i`.
    /// ∂μ and ∂ρ never read `grad_input`, so `None` (the first layer's case) leaves them
    /// bit for bit as they are with it.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` does not hold one value per weight, the weights are not
    /// `grad_output.len() × input.len()`, or `grad_input` is not as long as `input`.
    pub fn linear_backward(
        &mut self,
        epsilon: &[f32],
        grad_output: &[f32],
        input: &[f32],
        grad_input: Option<&mut [f32]>,
        config: &BayesConfig,
    ) {
        match grad_input {
            Some(grad_input) => {
                assert_eq!(grad_input.len(), input.len(), "input gradient must match the input");
                self.backward_rows::<true>(epsilon, grad_output, input, grad_input, config);
            }
            None => self.backward_rows::<false>(epsilon, grad_output, input, &mut [], config),
        }
    }

    /// [`VariationalParams::linear_backward`]'s row loop; `INPUT_GRAD` says whether
    /// `grad_input` is written.
    fn backward_rows<const INPUT_GRAD: bool>(
        &mut self,
        epsilon: &[f32],
        grad_output: &[f32],
        input: &[f32],
        grad_input: &mut [f32],
        config: &BayesConfig,
    ) {
        let cols = input.len();
        assert_eq!(epsilon.len(), self.len(), "epsilon block size must match weight count");
        assert_eq!(grad_output.len() * cols, self.len(), "weights must be out × in");
        if cols == 0 {
            return;
        }
        let (x, precision, grad) = (input, config.precision, WeightGradient::new(config));
        let terms = self.cache.training(&self.rho);
        let grads = self
            .grad_mu
            .data_mut()
            .chunks_exact_mut(cols)
            .zip(self.grad_rho.data_mut().chunks_exact_mut(cols));
        let rows = self
            .mu
            .data()
            .chunks_exact(cols)
            .zip(epsilon.chunks_exact(cols))
            .zip(terms.sigma.chunks_exact(cols).zip(terms.sigmoid.chunks_exact(cols)))
            .zip(grads);
        for ((((mu, epsilon), (sigma, sigmoid)), (grad_mu, grad_rho)), &g) in rows.zip(grad_output)
        {
            let row = BackwardRow { mu, epsilon, sigma, sigmoid, grad_mu, grad_rho };
            let gi = &mut *grad_input;
            match (precision, g == 0.0) {
                (Precision::Fp32, false) => row.run::<false, INPUT_GRAD>(g, x, gi, grad, |w| w),
                (Precision::Fp32, true) => row.run::<true, INPUT_GRAD>(g, x, gi, grad, |w| w),
                (_, false) => {
                    row.run::<false, INPUT_GRAD>(g, x, gi, grad, |w| precision.quantize(w))
                }
                (_, true) => row.run::<true, INPUT_GRAD>(g, x, gi, grad, |w| precision.quantize(w)),
            }
        }
    }

    /// Zeroes the gradient accumulators.
    pub fn zero_grad(&mut self) {
        self.grad_mu.map_inplace(|_| 0.0);
        self.grad_rho.map_inplace(|_| 0.0);
    }

    /// Applies one SGD step with the accumulated gradients averaged over `samples`, then clears
    /// the accumulators.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is zero.
    pub fn sgd_step(&mut self, learning_rate: f32, samples: usize) {
        assert!(samples > 0, "cannot average gradients over zero samples");
        let scale = -learning_rate / samples as f32;
        self.mu.axpy(scale, &self.grad_mu).expect("gradient shape matches parameters");
        self.rho.axpy(scale, &self.grad_rho).expect("gradient shape matches parameters");
        self.cache.invalidate();
        self.zero_grad();
    }

    /// Read access to the accumulated μ gradient (used in tests).
    pub fn grad_mu(&self) -> &Tensor {
        &self.grad_mu
    }

    /// Read access to the accumulated ρ gradient (used in tests).
    pub fn grad_rho(&self) -> &Tensor {
        &self.grad_rho
    }
}

/// The sample-and-score pass behind [`VariationalParams::sample_and_score_into`], returning
/// the f64 total. `#[inline(always)]` so that the AVX2 copy recompiles the whole pass under
/// its wider target features.
#[inline(always)]
fn sample_and_score(
    mu: &[f32],
    epsilon: &[f32],
    terms: &SigmaCache,
    precision: Precision,
    prior_sigma: f32,
    out: &mut [f32],
) -> f64 {
    match precision {
        Precision::Fp32 => score_chunks(mu, epsilon, terms, prior_sigma, out, |w| w),
        _ => score_chunks(mu, epsilon, terms, prior_sigma, out, |w| precision.quantize(w)),
    }
}

/// [`sample_and_score`] compiled with AVX2 enabled: four f64 lanes per instruction in the
/// term pass instead of two. Lane-wise IEEE arithmetic rounds exactly as the scalar
/// operations do, and the chunk's terms still join the total one at a time in ascending
/// order, so every bit is the portable pass's. (No FMA: contraction would change rounding.)
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn sample_and_score_avx2(
    mu: &[f32],
    epsilon: &[f32],
    terms: &SigmaCache,
    precision: Precision,
    prior_sigma: f32,
    out: &mut [f32],
) -> f64 {
    sample_and_score(mu, epsilon, terms, precision, prior_sigma, out)
}

/// The chunked pass of [`sample_and_score`] for one precision's `quantize`.
#[inline(always)]
fn score_chunks(
    mu: &[f32],
    epsilon: &[f32],
    terms: &SigmaCache,
    prior_sigma: f32,
    out: &mut [f32],
    quantize: impl Fn(f32) -> f32,
) -> f64 {
    let ln_prior_sigma = (prior_sigma as f64).ln();
    let prior_var = (prior_sigma as f64).powi(2);
    let mut chunk_terms = [0.0f64; SCORE_CHUNK];
    let mut total = 0.0f64;
    let chunks = out
        .chunks_mut(SCORE_CHUNK)
        .zip(mu.chunks(SCORE_CHUNK).zip(epsilon.chunks(SCORE_CHUNK)))
        .zip(terms.sigma.chunks(SCORE_CHUNK).zip(terms.ln_sigma.chunks(SCORE_CHUNK)));
    for ((ws, (ms, es)), (ss, ln_ss)) in chunks {
        let n = ws.len();
        let (ms, es, ss, ln_ss, ts) =
            (&ms[..n], &es[..n], &ss[..n], &ln_ss[..n], &mut chunk_terms[..n]);
        for i in 0..n {
            let (e, w) = (es[i], quantize(ms[i] + es[i] * ss[i]));
            ws[i] = w;
            let log_q = -ln_ss[i] - 0.5 * (e as f64) * (e as f64);
            let log_p = -ln_prior_sigma - 0.5 * (w as f64) * (w as f64) / prior_var;
            ts[i] = log_q - log_p;
        }
        for &t in ts.iter() {
            total += t;
        }
    }
    total
}

/// The per-weight gradient of one sample, shared by
/// [`VariationalParams::accumulate_gradients`] and [`VariationalParams::linear_backward`].
#[derive(Debug, Clone, Copy)]
struct WeightGradient {
    /// λ, the complexity term's weight.
    kl_weight: f32,
    /// `1/σ_c²`.
    inv_prior_var: f32,
}

impl WeightGradient {
    fn new(config: &BayesConfig) -> Self {
        let inv_prior_var = 1.0 / (config.prior_sigma * config.prior_sigma);
        Self { kl_weight: config.kl_weight, inv_prior_var }
    }

    /// The (∂μ, ∂ρ) contributions of one weight `w = μ + ε·σ` whose likelihood gradient is
    /// `grad_w`: `total = grad_w + λ·w/σ_c²` and `(ε·total − λ/σ)·sigmoid(ρ)`.
    #[inline(always)]
    fn of(self, grad_w: f32, w: f32, epsilon: f32, sigma: f32, sigmoid: f32) -> (f32, f32) {
        let total = grad_w + self.kl_weight * w * self.inv_prior_var;
        let dsigma = epsilon * total - self.kl_weight / sigma;
        (total, dsigma * sigmoid)
    }
}

/// One weight row of [`VariationalParams::linear_backward`]: the μ, ε, σ and sigmoid(ρ) it
/// reads and the ∂μ and ∂ρ it accumulates into.
struct BackwardRow<'a> {
    mu: &'a [f32],
    epsilon: &'a [f32],
    sigma: &'a [f32],
    sigmoid: &'a [f32],
    grad_mu: &'a mut [f32],
    grad_rho: &'a mut [f32],
}

impl BackwardRow<'_> {
    /// Runs the row for output gradient `g`; `ZERO_ROW` (`g == 0`) takes the likelihood
    /// gradient `+0.0` instead of `g·x[i]`, and `INPUT_GRAD` adds `w·g` into `grad_input`
    /// (which is otherwise not read).
    #[inline(always)]
    fn run<const ZERO_ROW: bool, const INPUT_GRAD: bool>(
        self,
        g: f32,
        x: &[f32],
        grad_input: &mut [f32],
        grad: WeightGradient,
        quantize: impl Fn(f32) -> f32,
    ) {
        let n = self.mu.len();
        let (epsilon, sigma, sigmoid) = (&self.epsilon[..n], &self.sigma[..n], &self.sigmoid[..n]);
        let (grad_mu, grad_rho) = (&mut self.grad_mu[..n], &mut self.grad_rho[..n]);
        let (x, grad_input) = (&x[..n], &mut grad_input[..if INPUT_GRAD { n } else { 0 }]);
        for i in 0..n {
            let w = quantize(self.mu[i] + epsilon[i] * sigma[i]);
            if INPUT_GRAD {
                grad_input[i] += w * g;
            }
            let grad_w = if ZERO_ROW { 0.0 } else { g * x[i] };
            let (d_mu, d_rho) = grad.of(grad_w, w, epsilon[i], sigma[i], sigmoid[i]);
            grad_mu[i] += d_mu;
            grad_rho[i] += d_rho;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnn_tensor::activation::{sigmoid, softplus};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params() -> VariationalParams {
        let mut rng = StdRng::seed_from_u64(1);
        VariationalParams::init(&[4, 3], &BayesConfig::default(), &mut rng)
    }

    #[test]
    fn init_sets_rho_and_xavier_mu() {
        let p = params();
        assert_eq!(p.shape(), &[4, 3]);
        assert!(p.rho().data().iter().all(|&r| r == -4.0));
        assert!(p.mu().data().iter().any(|&m| m != 0.0));
        assert!(!p.is_empty());
    }

    #[test]
    fn sigma_is_softplus_of_rho() {
        let p = params();
        let expected = softplus(-4.0);
        assert!(p.sigma().data().iter().all(|&s| (s - expected).abs() < 1e-6));
    }

    #[test]
    fn sampling_with_zero_epsilon_returns_mu() {
        let mut p = params();
        let eps = vec![0.0f32; p.len()];
        let w = p.sample(&eps, Precision::Fp32);
        assert_eq!(w, *p.mu());
    }

    #[test]
    fn sampling_shifts_by_epsilon_times_sigma() {
        let mut p = params();
        let eps = vec![2.0f32; p.len()];
        let w = p.sample(&eps, Precision::Fp32);
        let sigma = softplus(-4.0);
        for (wv, m) in w.data().iter().zip(p.mu().data()) {
            assert!((wv - (m + 2.0 * sigma)).abs() < 1e-6);
        }
    }

    #[test]
    fn from_mu_sigma_round_trips_sigma() {
        let mu = Tensor::zeros(&[2, 2]);
        let sigma = Tensor::filled(&[2, 2], 0.25);
        let p = VariationalParams::from_mu_sigma(mu, &sigma);
        assert!(p.sigma().data().iter().all(|&s| (s - 0.25).abs() < 1e-3));
    }

    #[test]
    fn complexity_loss_is_zero_when_posterior_equals_prior_and_sample_is_typical() {
        // With sigma == prior_sigma and w == 0 and eps == 0, log q - log p reduces to 0.
        let mu = Tensor::zeros(&[3]);
        let sigma = Tensor::filled(&[3], 0.5);
        let mut p = VariationalParams::from_mu_sigma(mu, &sigma);
        let mut w = Tensor::filled(&[3], 1.0);
        let loss = p.sample_and_score_into(&[0.0, 0.0, 0.0], Precision::Fp32, &mut w, 0.5);
        assert_eq!(w, Tensor::zeros(&[3]), "ε = 0 samples w = μ");
        assert!(loss.abs() < 1e-4, "loss {loss}");
    }

    #[test]
    fn complexity_loss_penalizes_narrow_posterior_far_from_prior() {
        let mu = Tensor::filled(&[1], 3.0);
        let sigma = Tensor::filled(&[1], 0.05);
        let mut p = VariationalParams::from_mu_sigma(mu, &sigma);
        let mut w = Tensor::zeros(&[1]);
        let loss = p.sample_and_score_into(&[0.0], Precision::Fp32, &mut w, 0.5);
        assert_eq!(w.data(), &[3.0]);
        assert!(loss > 1.0, "narrow posterior far from the prior should cost, got {loss}");
    }

    #[test]
    fn gradient_accumulation_and_sgd_step_move_parameters() {
        let mut p = params();
        let eps = vec![0.5f32; p.len()];
        let w = p.sample(&eps, Precision::Fp32);
        let grad = Tensor::filled(p.shape(), 1.0);
        let cfg = BayesConfig::default();
        p.accumulate_gradients(&grad, &w, &eps, &cfg);
        assert!(p.grad_mu().data().iter().all(|&g| g != 0.0));
        let mu_before = p.mu().clone();
        p.sgd_step(0.1, 1);
        assert_ne!(*p.mu(), mu_before);
        assert!(p.grad_mu().data().iter().all(|&g| g == 0.0), "gradients cleared after step");
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    fn from_mu_rho(mu: Vec<f32>, rho: Vec<f32>) -> VariationalParams {
        let shape = vec![mu.len()];
        let zeros = Tensor::zeros(&shape);
        let mu = Tensor::from_vec(shape.clone(), mu).unwrap();
        let rho = Tensor::from_vec(shape, rho).unwrap();
        VariationalParams::from_raw(mu, rho, zeros.clone(), zeros).unwrap()
    }

    #[test]
    fn cached_sigma_terms_follow_rho_through_sgd_steps() {
        let cfg = BayesConfig { kl_weight: 0.1, ..BayesConfig::default() };
        // Lengths around the complexity term pass's chunk, and the B-LeNet proxy's largest
        // block.
        let chunk = SCORE_CHUNK;
        for len in [12, 0, 1, chunk - 1, chunk, chunk + 1, 9216] {
            // ρ on both sides of 0, so both derivations of σ and sigmoid(ρ) are read.
            let mu = (0..len).map(|i| (i % 17) as f32 * 0.11 - 0.9).collect();
            let rho = (0..len).map(|i| (i % 23) as f32 * 0.4 - 6.0).collect();
            let mut p = from_mu_rho(mu, rho);
            let eps: Vec<f32> = (0..len).map(|i| (i % 29) as f32 * 0.37 - 2.0).collect();
            let grad = Tensor::filled(p.shape(), 0.5);
            for step in 0..3 {
                // The readers below fill the cache from the current ρ; the update must make
                // them see the new ρ, exactly as if σ, ln σ and sigmoid(ρ) were recomputed per
                // call.
                let rho = p.rho().data().to_vec();
                let sigma: Vec<f32> = rho.iter().map(|&r| softplus(r)).collect();
                let want_w: Vec<f32> = p
                    .mu()
                    .data()
                    .iter()
                    .zip(&eps)
                    .zip(&sigma)
                    .map(|((&m, &e), &s)| m + e * s)
                    .collect();
                let w = p.sample(&eps, Precision::Fp32);
                assert_eq!(
                    bits(w.data()),
                    bits(&want_w),
                    "len {len}, step {step}: sampled weights"
                );

                // The one-loop f64 sum the chunked term pass must reproduce bit for bit.
                let mut want_loss = 0.0f64;
                for ((&wv, &e), &s) in w.data().iter().zip(&eps).zip(&sigma) {
                    let log_q = -(s as f64).ln() - 0.5 * (e as f64) * (e as f64);
                    let log_p = -(0.5f64).ln() - 0.5 * (wv as f64) * (wv as f64) / (0.5f64).powi(2);
                    want_loss += log_q - log_p;
                }
                let mut scored = Tensor::zeros(p.shape());
                let loss =
                    p.sample_and_score_into(&eps, Precision::Fp32, &mut scored, cfg.prior_sigma);
                assert_eq!(bits(scored.data()), bits(&want_w), "len {len}, step {step}: scored w");
                assert_eq!(
                    loss.to_bits(),
                    (want_loss as f32).to_bits(),
                    "len {len}, step {step}: complexity"
                );

                let want_grad_rho: Vec<f32> = (0..len)
                    .map(|i| {
                        let total = 0.5 + cfg.kl_weight * w.data()[i] * 4.0;
                        (eps[i] * total - cfg.kl_weight / sigma[i]) * sigmoid(rho[i])
                    })
                    .collect();
                p.accumulate_gradients(&grad, &w, &eps, &cfg);
                assert_eq!(
                    bits(p.grad_rho().data()),
                    bits(&want_grad_rho),
                    "len {len}, step {step}: Δρ"
                );

                p.sgd_step(0.5, 1);
                assert!(
                    len == 0 || p.rho().data() != &rho[..],
                    "step {step}: the update must move ρ"
                );
            }
        }
    }

    #[test]
    fn refilled_terms_equal_softplus_ln_and_sigmoid_on_every_branch() {
        // ρ < −20, the ±20 cutoffs and one ulp past them, [−20, 0), ±0.0, subnormals, (0, 20],
        // > 20 and ±∞, then a sweep across both cutoffs.
        let mut rho = vec![
            f32::NEG_INFINITY,
            f32::MIN,
            -1e30,
            -40.0,
            -20.000002,
            -20.0,
            -19.99,
            -4.0,
            -1e-3,
            -f32::MIN_POSITIVE,
            -1e-40,
            -0.0,
            0.0,
            1e-40,
            f32::MIN_POSITIVE,
            1e-3,
            4.0,
            19.99,
            20.0,
            20.000002,
            40.0,
            1e30,
            f32::MAX,
            f32::INFINITY,
        ];
        rho.extend((0..2_000).map(|i| i as f32 * 0.0271 - 27.1));
        assert_refill_is_softplus_ln_and_sigmoid(&rho, "branches");

        // Every tail length past the 8-weight chunks of the vector passes, around the B-LeNet
        // proxy's largest block, with every ρ inside the ports' domains.
        let in_domain = |i: usize| -4.0 + (i % 13) as f32 * 0.23 - 1.4;
        for len in (0..=17).chain(9215..=9217) {
            let rho: Vec<f32> = (0..len).map(in_domain).collect();
            assert_refill_is_softplus_ln_and_sigmoid(&rho, &format!("len {len}"));
        }

        // One lane outside the ports' domains at each position of a chunk: e past log1pf's
        // k = 0 branch (−0.88), one ulp below −20, ±0, ρ > 0, NaN, −∞, and a σ inside
        // `log`'s near-1 window (softplus(0.55) ≈ 1.005).
        for outside in [-0.88, -20.000002, -0.0, 0.0, 3.0, f32::NAN, f32::NEG_INFINITY, 0.55] {
            for lane in 0..8 {
                let mut rho: Vec<f32> = (0..24).map(in_domain).collect();
                rho[8 + lane] = outside;
                assert_refill_is_softplus_ln_and_sigmoid(&rho, &format!("ρ = {outside} at {lane}"));
            }
        }
    }

    /// Checks both cache tiers, filled from `rho`, and [`VariationalParams::sigma`] against
    /// `softplus`, `(σ as f64).ln()` and `sigmoid` bit for bit.
    fn assert_refill_is_softplus_ln_and_sigmoid(rho: &[f32], case: &str) {
        let mut p = from_mu_rho(vec![0.0; rho.len()], rho.to_vec());
        let want_sigma: Vec<f32> = rho.iter().map(|&r| softplus(r)).collect();
        assert_eq!(bits(p.sigma().data()), bits(&want_sigma), "{case}: sigma()");
        assert_eq!(bits(p.cache.sigma(&p.rho)), bits(&want_sigma), "{case}: σ tier");
        let terms = p.cache.training(&p.rho);
        assert_eq!(bits(&terms.sigma), bits(&want_sigma), "{case}: σ after the training tier");
        let ln_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let want_ln: Vec<f64> = want_sigma.iter().map(|&s| (s as f64).ln()).collect();
        assert_eq!(ln_bits(&terms.ln_sigma), ln_bits(&want_ln), "{case}: ln σ");
        let want_sigmoid: Vec<f32> = rho.iter().map(|&r| sigmoid(r)).collect();
        assert_eq!(bits(&terms.sigmoid), bits(&want_sigmoid), "{case}: sigmoid(ρ)");
    }

    #[test]
    #[should_panic(expected = "epsilon block size must match weight count")]
    fn complexity_loss_rejects_a_short_epsilon_block() {
        let mut p = params();
        let mut w = Tensor::zeros(p.shape());
        let eps = vec![0.0f32; p.len() - 1];
        p.sample_and_score_into(&eps, Precision::Fp32, &mut w, 0.5);
    }

    /// The one-loop f64 complexity sum of a sampled `w`.
    fn one_loop_score(w: &[f32], eps: &[f32], sigma: &[f32], prior_sigma: f32) -> f32 {
        let (ln_prior, prior_var) = ((prior_sigma as f64).ln(), (prior_sigma as f64).powi(2));
        let mut total = 0.0f64;
        for ((&wv, &e), &s) in w.iter().zip(eps).zip(sigma) {
            let log_q = -(s as f64).ln() - 0.5 * (e as f64) * (e as f64);
            let log_p = -ln_prior - 0.5 * (wv as f64) * (wv as f64) / prior_var;
            total += log_q - log_p;
        }
        total as f32
    }

    #[test]
    fn sample_and_score_equals_sample_into_and_the_one_loop_sum() {
        // Lengths around the 32-weight chunk and the old 256-weight one, and the B-LeNet
        // proxy's largest block; μ and ε reach past both fixed-point grids' ranges and hit
        // ±0.0, so the quantized arms saturate and round ties.
        for len in [0, 1, 31, 32, 33, 255, 256, 257, 9216] {
            let mu: Vec<f32> = (0..len).map(|i| (i % 19) as f32 * 0.23 - 2.07).collect();
            let rho = (0..len).map(|i| (i % 23) as f32 * 0.4 - 6.0).collect();
            let mut p = from_mu_rho(mu, rho);
            let mut eps: Vec<f32> = (0..len).map(|i| (i % 31) as f32 * 2.9 - 43.5).collect();
            eps.iter_mut().step_by(7).for_each(|e| *e = -0.0);
            let sigma: Vec<f32> = p.rho().data().iter().map(|&r| softplus(r)).collect();
            for precision in [Precision::Fp32, Precision::PAPER_16BIT, Precision::PAPER_8BIT] {
                let mut want = Tensor::zeros(p.shape());
                p.sample_into(&eps, precision, &mut want);
                let want_score = one_loop_score(want.data(), &eps, &sigma, 0.5);
                let case = format!("len {len}, {precision:?}");

                let mut got = Tensor::filled(p.shape(), 7.0);
                let score = p.sample_and_score_into(&eps, precision, &mut got, 0.5);
                assert_eq!(bits(got.data()), bits(want.data()), "{case}: dispatched w");
                assert_eq!(score.to_bits(), want_score.to_bits(), "{case}: dispatched score");

                // Both compiled bodies, whichever one the host dispatches to.
                let terms = p.cache.training(&p.rho);
                let mu = p.mu.data();
                let mut out = vec![7.0f32; len];
                let total = sample_and_score(mu, &eps, terms, precision, 0.5, &mut out);
                assert_eq!(bits(&out), bits(want.data()), "{case}: portable w");
                assert_eq!((total as f32).to_bits(), want_score.to_bits(), "{case}: portable");
                #[cfg(target_arch = "x86_64")]
                if avx2_available() {
                    out.fill(7.0);
                    // SAFETY: guarded by runtime AVX2 detection.
                    let total =
                        unsafe { sample_and_score_avx2(mu, &eps, terms, precision, 0.5, &mut out) };
                    assert_eq!(bits(&out), bits(want.data()), "{case}: AVX2 w");
                    assert_eq!((total as f32).to_bits(), want_score.to_bits(), "{case}: AVX2");
                }
            }
        }
    }

    #[test]
    fn sample_into_equals_the_quantized_formula_at_every_precision() {
        // (μ, ε) pairs hitting ±0.0, round-half ties on the 16- and 8-bit grids (ε = 0 leaves
        // w = μ exactly), saturation at both ends of both grids, and ordinary values; the
        // generated tail makes the slice long enough for a vector body and a remainder.
        let mut cases: Vec<(f32, f32)> = vec![
            (0.0, 0.0),
            (-0.0, 0.0),
            (-0.0, -0.0),
            (0.0, -0.0),
            (2.5 / 1024.0, 0.0),
            (-2.5 / 1024.0, 0.0),
            (2.5 / 16.0, 0.0),
            (-2.5 / 16.0, 0.0),
            (1.0e3, 1.0),
            (-1.0e3, -1.0),
            (31.99, 50.0),
            (-7.9, -40.0),
        ];
        cases.extend((0..29).map(|i| ((i as f32 - 14.0) * 0.37, (i * 7 % 11) as f32 - 5.0)));
        let (mu, eps): (Vec<f32>, Vec<f32>) = cases.into_iter().unzip();
        let rho: Vec<f32> = (0..mu.len()).map(|i| i as f32 * 0.3 - 6.0).collect();
        let shape = [mu.len()];
        let tensor = |v: &[f32]| Tensor::from_vec(shape.to_vec(), v.to_vec()).unwrap();
        let zeros = Tensor::zeros(&shape);
        let mut p =
            VariationalParams::from_raw(tensor(&mu), tensor(&rho), zeros.clone(), zeros).unwrap();
        for precision in [Precision::Fp32, Precision::PAPER_16BIT, Precision::PAPER_8BIT] {
            let mut out = Tensor::zeros(&shape);
            p.sample_into(&eps, precision, &mut out);
            let want: Vec<f32> = (0..mu.len())
                .map(|i| precision.quantize(mu[i] + eps[i] * softplus(rho[i])))
                .collect();
            assert_eq!(bits(out.data()), bits(&want), "{precision:?}");
            let (max, step) = (precision.max_value(), precision.resolution());
            if max.is_finite() {
                let saturated = [max, -(max + step)];
                assert!(saturated.iter().all(|v| out.data().contains(v)), "{precision:?}");
            }
        }
        let w = p.sample(&eps, Precision::Fp32);
        assert_eq!(w.data()[2].to_bits(), (-0.0f32).to_bits(), "-0.0 + -0.0·σ stays -0.0");
        let w = p.sample(&eps, Precision::PAPER_16BIT);
        assert_eq!(w.data()[4], 3.0 / 1024.0, "ties round away from zero");
    }

    #[test]
    fn equality_and_restore_ignore_the_cache() {
        let mut warmed = params();
        let eps = vec![1.0f32; warmed.len()];
        let mut w = Tensor::zeros(warmed.shape());
        warmed.sample_and_score_into(&eps, Precision::Fp32, &mut w, 0.5);
        let mut clone = warmed.clone();
        let (mu, rho) = (clone.mu().clone(), clone.rho().clone());
        let (grad_mu, grad_rho) = (clone.grad_mu().clone(), clone.grad_rho().clone());
        let mut fresh = VariationalParams::from_raw(mu, rho, grad_mu, grad_rho).unwrap();
        assert_eq!(fresh, clone, "a cold restore equals a warmed clone");
        let (a, b) = (fresh.sample(&eps, Precision::Fp32), clone.sample(&eps, Precision::Fp32));
        assert_eq!(bits(a.data()), bits(b.data()));
    }

    #[test]
    fn mu_gradient_matches_finite_difference_of_full_objective() {
        // Scalar "network": NLL(w) = 0.5 * w^2 so dNLL/dw = w; plus the complexity term.
        let cfg = BayesConfig { kl_weight: 0.1, ..BayesConfig::default() };
        let mu0 = 0.7f32;
        let sigma0 = 0.3f32;
        let eps = 0.9f32;

        let objective = |mu: f32| -> f32 {
            let w = mu + eps * sigma0;
            let nll = 0.5 * w * w;
            let log_q = -(sigma0).ln() - 0.5 * eps * eps;
            let log_p = -(0.5f32).ln() - w * w / (2.0 * 0.25);
            nll + cfg.kl_weight * (log_q - log_p)
        };
        let h = 1e-3;
        let numerical = (objective(mu0 + h) - objective(mu0 - h)) / (2.0 * h);

        let mu = Tensor::filled(&[1], mu0);
        let sigma = Tensor::filled(&[1], sigma0);
        let mut p = VariationalParams::from_mu_sigma(mu, &sigma);
        let w = p.sample(&[eps], Precision::Fp32);
        let grad_nll = Tensor::filled(&[1], w.data()[0]);
        p.accumulate_gradients(&grad_nll, &w, &[eps], &cfg);
        let analytic = p.grad_mu().data()[0];
        assert!(
            (numerical - analytic).abs() < 1e-2,
            "numerical {numerical} vs analytic {analytic}"
        );
    }

    #[test]
    fn rho_gradient_matches_finite_difference_of_full_objective() {
        let cfg = BayesConfig { kl_weight: 0.1, ..BayesConfig::default() };
        let mu0 = 0.2f32;
        let rho0 = -1.0f32;
        let eps = -0.6f32;

        let objective = |rho: f32| -> f32 {
            let sigma = softplus(rho);
            let w = mu0 + eps * sigma;
            let nll = 0.5 * w * w;
            let log_q = -sigma.ln() - 0.5 * eps * eps;
            let log_p = -(0.5f32).ln() - w * w / (2.0 * 0.25);
            nll + cfg.kl_weight * (log_q - log_p)
        };
        let h = 1e-3;
        let numerical = (objective(rho0 + h) - objective(rho0 - h)) / (2.0 * h);

        let mu = Tensor::filled(&[1], mu0);
        let sigma = Tensor::filled(&[1], softplus(rho0));
        let mut p = VariationalParams::from_mu_sigma(mu, &sigma);
        let w = p.sample(&[eps], Precision::Fp32);
        let grad_nll = Tensor::filled(&[1], w.data()[0]);
        p.accumulate_gradients(&grad_nll, &w, &[eps], &cfg);
        let analytic = p.grad_rho().data()[0];
        assert!(
            (numerical - analytic).abs() < 1e-2,
            "numerical {numerical} vs analytic {analytic}"
        );
    }
}
