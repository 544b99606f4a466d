//! Activation functions and their derivatives.

use crate::tensor::Tensor;

/// Rectified linear unit applied elementwise.
///
/// # Examples
///
/// ```
/// use bnn_tensor::{activation, Tensor};
/// let x = Tensor::from_vec(vec![3], vec![-1.0, 0.0, 2.0]).unwrap();
/// assert_eq!(activation::relu(&x).data(), &[0.0, 0.0, 2.0]);
/// ```
pub fn relu(x: &Tensor) -> Tensor {
    x.map(|v| v.max(0.0))
}

/// ReLU into a caller-provided output tensor (the zero-allocation variant of [`relu`];
/// bit-identical, since both apply `v.max(0.0)` elementwise).
///
/// # Panics
///
/// Panics if the shapes differ (an internal wiring error).
pub fn relu_into(x: &Tensor, out: &mut Tensor) {
    assert_eq!(x.shape(), out.shape(), "relu_into requires matching shapes");
    for (o, &v) in out.data_mut().iter_mut().zip(x.data()) {
        *o = v.max(0.0);
    }
}

/// Gradient of ReLU with respect to its input: passes `upstream` where the forward input was
/// positive, zero elsewhere.
///
/// # Panics
///
/// Panics if the shapes differ (this is an internal wiring error, not a data error).
pub fn relu_backward(input: &Tensor, upstream: &Tensor) -> Tensor {
    input
        .zip_map(upstream, |x, g| if x > 0.0 { g } else { 0.0 })
        .expect("relu_backward requires matching shapes")
}

/// ReLU gradient into a caller-provided output tensor (zero-allocation variant of
/// [`relu_backward`], bit-identical).
///
/// # Panics
///
/// Panics if the shapes differ (an internal wiring error).
pub fn relu_backward_into(input: &Tensor, upstream: &Tensor, out: &mut Tensor) {
    assert_eq!(input.shape(), upstream.shape(), "relu_backward_into requires matching shapes");
    assert_eq!(input.shape(), out.shape(), "relu_backward_into requires matching shapes");
    for ((o, &x), &g) in out.data_mut().iter_mut().zip(input.data()).zip(upstream.data()) {
        *o = if x > 0.0 { g } else { 0.0 };
    }
}

/// Numerically stable softplus `ln(1 + e^x)`, used to keep the standard deviation positive via
/// `σ = softplus(ρ)`.
pub fn softplus(x: f32) -> f32 {
    if x > 20.0 {
        x
    } else if x < -20.0 {
        x.exp()
    } else {
        x.exp().ln_1p()
    }
}

/// Derivative of softplus, the logistic sigmoid.
pub fn softplus_derivative(x: f32) -> f32 {
    sigmoid(x)
}

/// Logistic sigmoid.
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Inverse of softplus: returns `ρ` such that `softplus(ρ) = σ`, as `ln(exp_m1(σ))`, so a
/// small σ keeps its digits (`exp(σ) − 1` rounds to 0 for σ below about 6e-8).
///
/// # Panics
///
/// Panics if `sigma` is not strictly positive.
pub fn softplus_inverse(sigma: f32) -> f32 {
    assert!(sigma > 0.0, "softplus inverse requires a positive argument");
    if sigma > 20.0 {
        sigma
    } else {
        sigma.exp_m1().ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let x = Tensor::from_vec(vec![4], vec![-2.0, -0.5, 0.5, 3.0]).unwrap();
        assert_eq!(relu(&x).data(), &[0.0, 0.0, 0.5, 3.0]);
    }

    #[test]
    fn relu_backward_masks_gradient() {
        let x = Tensor::from_vec(vec![3], vec![-1.0, 2.0, 0.0]).unwrap();
        let g = Tensor::filled(&[3], 1.0);
        assert_eq!(relu_backward(&x, &g).data(), &[0.0, 1.0, 0.0]);
    }

    #[test]
    fn softplus_is_positive_and_smooth() {
        assert!(softplus(-30.0) > 0.0);
        assert!((softplus(0.0) - std::f32::consts::LN_2).abs() < 1e-6);
        assert!((softplus(25.0) - 25.0).abs() < 1e-3);
    }

    #[test]
    fn softplus_inverse_round_trips() {
        for &s in &[1e-30f32, 1e-8, 1e-6, 1e-4, 0.01, 0.1, 0.5, 1.0, 5.0, 30.0] {
            let rho = softplus_inverse(s);
            assert!((softplus(rho) - s).abs() / s < 1e-3, "sigma {s}");
        }
    }

    #[test]
    fn sigmoid_is_symmetric_and_bounded() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!((sigmoid(5.0) + sigmoid(-5.0) - 1.0).abs() < 1e-6);
        assert!(sigmoid(100.0) <= 1.0);
        assert!(sigmoid(-100.0) >= 0.0);
    }

    #[test]
    fn softplus_derivative_matches_finite_difference() {
        for &x in &[-2.0f32, -0.3, 0.0, 0.7, 3.0] {
            let h = 1e-3;
            let fd = (softplus(x + h) - softplus(x - h)) / (2.0 * h);
            assert!((softplus_derivative(x) - fd).abs() < 1e-3, "x = {x}");
        }
    }
}
