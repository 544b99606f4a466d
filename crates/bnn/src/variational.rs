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

use bnn_tensor::activation::{sigmoid, softplus, softplus_inverse};
use bnn_tensor::init::{fan_in_out, xavier_uniform};
use bnn_tensor::{Precision, Tensor, TensorError};
use rand::Rng;

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
#[derive(Debug, Clone, Default)]
struct SigmaCache {
    /// `σ = softplus(ρ)`, current while `sigma_fresh`.
    sigma: Vec<f32>,
    /// `ln σ` in f64, as the complexity loss accumulates it, current while `training_fresh`.
    ln_sigma: Vec<f64>,
    /// `sigmoid(ρ)`, the softplus derivative, current while `training_fresh`.
    sigmoid: Vec<f32>,
    sigma_fresh: bool,
    training_fresh: bool,
}

impl SigmaCache {
    /// σ for `rho`, filling it if ρ changed since the last fill.
    fn sigma(&mut self, rho: &Tensor) -> &[f32] {
        if !self.sigma_fresh {
            self.sigma.clear();
            self.sigma.extend(rho.data().iter().map(|&r| softplus(r)));
            self.sigma_fresh = true;
        }
        &self.sigma
    }

    /// Every cached term for `rho`, filling whichever tier is stale.
    fn training(&mut self, rho: &Tensor) -> &Self {
        self.sigma(rho);
        if !self.training_fresh {
            self.ln_sigma.clear();
            self.ln_sigma.extend(self.sigma.iter().map(|&s| (s as f64).ln()));
            self.sigmoid.clear();
            self.sigmoid.extend(rho.data().iter().map(|&r| sigmoid(r)));
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

    /// The posterior standard deviation `σ = softplus(ρ)`.
    pub fn sigma(&self) -> Tensor {
        self.rho.map(softplus)
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
    /// # Panics
    ///
    /// Panics if `epsilon.len()` or `out.len()` differs from the parameter count.
    pub fn sample_into(&mut self, epsilon: &[f32], precision: Precision, out: &mut Tensor) {
        assert_eq!(epsilon.len(), self.len(), "epsilon block size must match weight count");
        assert_eq!(out.len(), self.len(), "output tensor must match weight count");
        let sigma = self.cache.sigma(&self.rho);
        for (((wv, &m), &e), &s) in
            out.data_mut().iter_mut().zip(self.mu.data()).zip(epsilon).zip(sigma)
        {
            *wv = precision.quantize(m + e * s);
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

    /// Complexity contribution `Σ_i [log q(w_i|θ) − log P(w_i)]` for a sampled weight tensor.
    pub fn complexity_loss(&mut self, weights: &Tensor, epsilon: &[f32], prior_sigma: f32) -> f32 {
        let ln_sigma = &self.cache.training(&self.rho).ln_sigma;
        let ln_prior_sigma = (prior_sigma as f64).ln();
        let prior_var = (prior_sigma as f64).powi(2);
        let mut total = 0.0f64;
        for ((&w, &e), &ln_s) in weights.data().iter().zip(epsilon).zip(ln_sigma) {
            let log_q = -ln_s - 0.5 * (e as f64) * (e as f64);
            let log_p = -ln_prior_sigma - 0.5 * (w as f64) * (w as f64) / prior_var;
            total += log_q - log_p;
        }
        total as f32
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
        let inv_prior_var = 1.0 / (config.prior_sigma * config.prior_sigma);
        let terms = self.cache.training(&self.rho);
        let gm = self.grad_mu.data_mut();
        let gr = self.grad_rho.data_mut();
        let (gws, ws) = (grad_w_likelihood.data(), weights.data());
        for i in 0..gm.len() {
            let total_w_grad = gws[i] + config.kl_weight * ws[i] * inv_prior_var;
            gm[i] += total_w_grad;
            let dsigma = epsilon[i] * total_w_grad - config.kl_weight / terms.sigma[i];
            gr[i] += dsigma * terms.sigmoid[i];
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

#[cfg(test)]
mod tests {
    use super::*;
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
        let w = Tensor::zeros(&[3]);
        let loss = p.complexity_loss(&w, &[0.0, 0.0, 0.0], 0.5);
        assert!(loss.abs() < 1e-4, "loss {loss}");
    }

    #[test]
    fn complexity_loss_penalizes_narrow_posterior_far_from_prior() {
        let mu = Tensor::filled(&[1], 3.0);
        let sigma = Tensor::filled(&[1], 0.05);
        let mut p = VariationalParams::from_mu_sigma(mu, &sigma);
        let w = Tensor::filled(&[1], 3.0);
        let loss = p.complexity_loss(&w, &[0.0], 0.5);
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

    #[test]
    fn cached_sigma_terms_follow_rho_through_sgd_steps() {
        let cfg = BayesConfig { kl_weight: 0.1, ..BayesConfig::default() };
        let mut p = params();
        let eps: Vec<f32> = (0..p.len()).map(|i| i as f32 * 0.37 - 2.0).collect();
        let grad = Tensor::filled(p.shape(), 0.5);
        for step in 0..3 {
            // The readers below fill the cache from the current ρ; the update must make them
            // see the new ρ, exactly as if σ, ln σ and sigmoid(ρ) were recomputed per call.
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
            assert_eq!(bits(w.data()), bits(&want_w), "step {step}: sampled weights");

            let mut want_loss = 0.0f64;
            for ((&wv, &e), &s) in w.data().iter().zip(&eps).zip(&sigma) {
                let log_q = -(s as f64).ln() - 0.5 * (e as f64) * (e as f64);
                let log_p = -(0.5f64).ln() - 0.5 * (wv as f64) * (wv as f64) / (0.5f64).powi(2);
                want_loss += log_q - log_p;
            }
            let loss = p.complexity_loss(&w, &eps, cfg.prior_sigma);
            assert_eq!(loss.to_bits(), (want_loss as f32).to_bits(), "step {step}: complexity");

            let want_grad_rho: Vec<f32> = (0..p.len())
                .map(|i| {
                    let total = 0.5 + cfg.kl_weight * w.data()[i] * 4.0;
                    (eps[i] * total - cfg.kl_weight / sigma[i]) * sigmoid(rho[i])
                })
                .collect();
            p.accumulate_gradients(&grad, &w, &eps, &cfg);
            assert_eq!(bits(p.grad_rho().data()), bits(&want_grad_rho), "step {step}: Δρ");

            p.sgd_step(0.5, 1);
            assert_ne!(p.rho().data(), &rho[..], "step {step}: the update must move ρ");
        }
    }

    #[test]
    fn equality_and_restore_ignore_the_cache() {
        let mut warmed = params();
        let eps = vec![1.0f32; warmed.len()];
        let w = warmed.sample(&eps, Precision::Fp32);
        warmed.complexity_loss(&w, &eps, 0.5);
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
