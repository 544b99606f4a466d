//! 2-D convolution: forward pass, input gradient (the 180°-rotated-kernel convolution that the
//! backward stage performs) and weight gradient.
//!
//! Layouts follow the paper's Fig. 1(b) loop nest: feature maps are `[channels, height, width]`
//! and weights are `[out_channels (M), in_channels (N), K, K]`. Batching and the sample
//! dimension S are handled by the caller (`bnn-train`), since different samples execute
//! independently.

use crate::tensor::{Tensor, TensorError};

/// Geometry of a convolutional layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvGeometry {
    /// Number of input channels (N).
    pub in_channels: usize,
    /// Number of output channels (M).
    pub out_channels: usize,
    /// Kernel height/width (K); kernels are square as in all five paper models.
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding on every border.
    pub padding: usize,
}

impl ConvGeometry {
    /// Output spatial size for an input of `h × w`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration produces a non-positive output size.
    pub fn output_size(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = (h + 2 * self.padding).checked_sub(self.kernel).map(|v| v / self.stride + 1);
        let ow = (w + 2 * self.padding).checked_sub(self.kernel).map(|v| v / self.stride + 1);
        match (oh, ow) {
            (Some(oh), Some(ow)) if oh > 0 && ow > 0 => (oh, ow),
            _ => panic!("convolution geometry {self:?} produces empty output for {h}x{w} input"),
        }
    }

    /// Number of weights in the kernel tensor `[M, N, K, K]`.
    pub fn weight_count(&self) -> usize {
        self.out_channels * self.in_channels * self.kernel * self.kernel
    }

    /// The spatial size `(H, W)` of an input of shape `[N, H, W]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] unless `shape` is rank 3 with `N` channels.
    pub fn input_hw(&self, shape: &[usize]) -> Result<(usize, usize), TensorError> {
        match *shape {
            [n, h, w] if n == self.in_channels => Ok((h, w)),
            _ => Err(TensorError::ShapeMismatch {
                left: shape.to_vec(),
                right: vec![self.in_channels, 0, 0],
            }),
        }
    }

    /// Length of the im2col (or im2row) panel of an `h × w` input: `N·K·K · OH·OW`.
    pub fn panel_len(&self, h: usize, w: usize) -> usize {
        let (oh, ow) = self.output_size(h, w);
        self.in_channels * self.kernel * self.kernel * oh * ow
    }
}

pub(crate) fn expect_shape(t: &Tensor, shape: &[usize]) -> Result<(), TensorError> {
    if t.shape() != shape {
        return Err(TensorError::ShapeMismatch { left: t.shape().to_vec(), right: shape.to_vec() });
    }
    Ok(())
}

/// The retained straightforward loop-nest kernels, kept as the bit-exactness oracle for the
/// packed [`crate::kernels`] implementations (and as the baseline `hot_bench` measures
/// speedups against). These are the paper's Fig. 1(b) loop nests, unchanged.
pub mod reference {
    use super::{expect_shape, ConvGeometry};
    use crate::tensor::{Tensor, TensorError};

    /// Forward convolution.
    ///
    /// * `input` — `[N, H, W]`
    /// * `weights` — `[M, N, K, K]`
    /// * `bias` — `[M]`
    ///
    /// Returns `[M, OH, OW]`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if any operand's shape is inconsistent with `geom`.
    pub fn conv2d_forward(
        geom: &ConvGeometry,
        input: &Tensor,
        weights: &Tensor,
        bias: &Tensor,
    ) -> Result<Tensor, TensorError> {
        let (n, m, k) = (geom.in_channels, geom.out_channels, geom.kernel);
        let in_shape = input.shape().to_vec();
        if in_shape.len() != 3 || in_shape[0] != n {
            return Err(TensorError::ShapeMismatch { left: in_shape, right: vec![n, 0, 0] });
        }
        let (h, w) = (in_shape[1], in_shape[2]);
        expect_shape(weights, &[m, n, k, k])?;
        expect_shape(bias, &[m])?;
        let (oh, ow) = geom.output_size(h, w);
        let pad = geom.padding as isize;
        let stride = geom.stride as isize;

        let mut out = Tensor::zeros(&[m, oh, ow]);
        let in_d = input.data();
        let w_d = weights.data();
        let out_d = out.data_mut();
        for om in 0..m {
            let b = bias.data()[om];
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = b;
                    for ic in 0..n {
                        for ky in 0..k {
                            let iy = oy as isize * stride + ky as isize - pad;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = ox as isize * stride + kx as isize - pad;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                let iv = in_d[(ic * h + iy as usize) * w + ix as usize];
                                let wv = w_d[((om * n + ic) * k + ky) * k + kx];
                                acc += iv * wv;
                            }
                        }
                    }
                    out_d[(om * oh + oy) * ow + ox] = acc;
                }
            }
        }
        Ok(out)
    }

    /// Gradient of the loss with respect to the convolution *input*.
    ///
    /// This is the backward-stage computation the paper describes: the kernels are rotated 180° and
    /// convolved with the output errors (a "full" convolution when `padding = k - 1 - padding`).
    ///
    /// * `grad_output` — `[M, OH, OW]`
    /// * `weights` — `[M, N, K, K]`
    ///
    /// Returns `[N, H, W]` where `h`/`w` are the forward input sizes.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if operand shapes are inconsistent with `geom`.
    pub fn conv2d_backward_input(
        geom: &ConvGeometry,
        grad_output: &Tensor,
        weights: &Tensor,
        input_h: usize,
        input_w: usize,
    ) -> Result<Tensor, TensorError> {
        let (n, m, k) = (geom.in_channels, geom.out_channels, geom.kernel);
        let (oh, ow) = geom.output_size(input_h, input_w);
        expect_shape(grad_output, &[m, oh, ow])?;
        expect_shape(weights, &[m, n, k, k])?;
        let pad = geom.padding as isize;
        let stride = geom.stride as isize;

        let mut grad_in = Tensor::zeros(&[n, input_h, input_w]);
        let go = grad_output.data();
        let w_d = weights.data();
        let gi = grad_in.data_mut();
        // Scatter formulation: every output error contributes back to the input positions its
        // receptive field covered, weighted by the (unrotated) kernel entry — equivalent to the
        // rotated-kernel convolution but exact for any stride/padding.
        for om in 0..m {
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = go[(om * oh + oy) * ow + ox];
                    if g == 0.0 {
                        continue;
                    }
                    for ic in 0..n {
                        for ky in 0..k {
                            let iy = oy as isize * stride + ky as isize - pad;
                            if iy < 0 || iy >= input_h as isize {
                                continue;
                            }
                            for kx in 0..k {
                                let ix = ox as isize * stride + kx as isize - pad;
                                if ix < 0 || ix >= input_w as isize {
                                    continue;
                                }
                                let wv = w_d[((om * n + ic) * k + ky) * k + kx];
                                gi[(ic * input_h + iy as usize) * input_w + ix as usize] += g * wv;
                            }
                        }
                    }
                }
            }
        }
        Ok(grad_in)
    }

    /// Gradient of the loss with respect to the convolution *weights* (the likelihood part of the
    /// gradient-calculation stage: feature maps convolved with errors).
    ///
    /// * `input` — `[N, H, W]` (the forward activations)
    /// * `grad_output` — `[M, OH, OW]`
    ///
    /// Returns `([M, N, K, K], [M])`: weight gradient and bias gradient.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if operand shapes are inconsistent with `geom`.
    pub fn conv2d_backward_weights(
        geom: &ConvGeometry,
        input: &Tensor,
        grad_output: &Tensor,
    ) -> Result<(Tensor, Tensor), TensorError> {
        let (n, m, k) = (geom.in_channels, geom.out_channels, geom.kernel);
        let in_shape = input.shape().to_vec();
        if in_shape.len() != 3 || in_shape[0] != n {
            return Err(TensorError::ShapeMismatch { left: in_shape, right: vec![n, 0, 0] });
        }
        let (h, w) = (in_shape[1], in_shape[2]);
        let (oh, ow) = geom.output_size(h, w);
        expect_shape(grad_output, &[m, oh, ow])?;
        let pad = geom.padding as isize;
        let stride = geom.stride as isize;

        let mut grad_w = Tensor::zeros(&[m, n, k, k]);
        let mut grad_b = Tensor::zeros(&[m]);
        let in_d = input.data();
        let go = grad_output.data();
        {
            let gw = grad_w.data_mut();
            let gb = grad_b.data_mut();
            for om in 0..m {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = go[(om * oh + oy) * ow + ox];
                        if g == 0.0 {
                            continue;
                        }
                        gb[om] += g;
                        for ic in 0..n {
                            for ky in 0..k {
                                let iy = oy as isize * stride + ky as isize - pad;
                                if iy < 0 || iy >= h as isize {
                                    continue;
                                }
                                for kx in 0..k {
                                    let ix = ox as isize * stride + kx as isize - pad;
                                    if ix < 0 || ix >= w as isize {
                                        continue;
                                    }
                                    let iv = in_d[(ic * h + iy as usize) * w + ix as usize];
                                    gw[((om * n + ic) * k + ky) * k + kx] += g * iv;
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok((grad_w, grad_b))
    }
}

/// Forward convolution via im2col packing and the cache-blocked GEMM of [`crate::kernels`] —
/// bit-identical to [`reference::conv2d_forward`] (pinned by `tests/kernel_equivalence.rs`).
///
/// * `input` — `[N, H, W]`
/// * `weights` — `[M, N, K, K]`
/// * `bias` — `[M]`
///
/// Returns `[M, OH, OW]`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if any operand's shape is inconsistent with `geom`.
pub fn conv2d_forward(
    geom: &ConvGeometry,
    input: &Tensor,
    weights: &Tensor,
    bias: &Tensor,
) -> Result<Tensor, TensorError> {
    let (n, m, k) = (geom.in_channels, geom.out_channels, geom.kernel);
    let in_shape = input.shape();
    if in_shape.len() != 3 || in_shape[0] != n {
        return Err(TensorError::ShapeMismatch { left: in_shape.to_vec(), right: vec![n, 0, 0] });
    }
    expect_shape(weights, &[m, n, k, k])?;
    expect_shape(bias, &[m])?;
    let (oh, ow) = geom.output_size(in_shape[1], in_shape[2]);
    let mut out = Tensor::zeros(&[m, oh, ow]);
    let mut scratch = crate::scratch::Scratch::new();
    crate::kernels::conv2d_forward_into(geom, input, weights, bias, &mut out, &mut scratch)?;
    Ok(out)
}

/// Gradient of the loss with respect to the convolution *input*, computed by the packed
/// kernels of [`crate::kernels`] — bit-identical to [`reference::conv2d_backward_input`].
///
/// * `grad_output` — `[M, OH, OW]`
/// * `weights` — `[M, N, K, K]`
///
/// Returns `[N, H, W]` where `h`/`w` are the forward input sizes.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if operand shapes are inconsistent with `geom`.
pub fn conv2d_backward_input(
    geom: &ConvGeometry,
    grad_output: &Tensor,
    weights: &Tensor,
    input_h: usize,
    input_w: usize,
) -> Result<Tensor, TensorError> {
    let mut grad_in = Tensor::zeros(&[geom.in_channels, input_h, input_w]);
    let mut scratch = crate::scratch::Scratch::new();
    crate::kernels::conv2d_backward_input_into(
        geom,
        grad_output,
        weights,
        input_h,
        input_w,
        &mut grad_in,
        &mut scratch,
    )?;
    Ok(grad_in)
}

/// Gradient of the loss with respect to the convolution *weights* (plus the bias gradient),
/// computed by the packed kernels of [`crate::kernels`] — bit-identical to
/// [`reference::conv2d_backward_weights`].
///
/// * `input` — `[N, H, W]` (the forward activations)
/// * `grad_output` — `[M, OH, OW]`
///
/// Returns `([M, N, K, K], [M])`: weight gradient and bias gradient.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if operand shapes are inconsistent with `geom`.
pub fn conv2d_backward_weights(
    geom: &ConvGeometry,
    input: &Tensor,
    grad_output: &Tensor,
) -> Result<(Tensor, Tensor), TensorError> {
    let (n, m, k) = (geom.in_channels, geom.out_channels, geom.kernel);
    let mut grad_w = Tensor::zeros(&[m, n, k, k]);
    let mut grad_b = Tensor::zeros(&[m]);
    let mut scratch = crate::scratch::Scratch::new();
    crate::kernels::conv2d_backward_weights_into(
        geom,
        input,
        grad_output,
        &mut grad_w,
        &mut grad_b,
        &mut scratch,
    )?;
    Ok((grad_w, grad_b))
}

/// Rotates every `K × K` kernel of a `[M, N, K, K]` weight tensor by 180°, the reorganization
/// shown in the paper's Fig. 5(a). Exposed primarily so tests can confirm that the reversed
/// sampling order equals the rotated kernel order.
///
/// # Panics
///
/// Panics if the tensor is not 4-D with square kernels.
pub fn rotate_kernels_180(weights: &Tensor) -> Tensor {
    let s = weights.shape();
    assert_eq!(s.len(), 4, "expected [M, N, K, K] weights");
    assert_eq!(s[2], s[3], "kernels must be square");
    let (m, n, k) = (s[0], s[1], s[2]);
    let mut out = Tensor::zeros(s);
    for om in 0..m {
        for ic in 0..n {
            for ky in 0..k {
                for kx in 0..k {
                    let v = weights.at(&[om, ic, ky, kx]);
                    out.set(&[om, ic, k - 1 - ky, k - 1 - kx], v);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom(n: usize, m: usize, k: usize, stride: usize, padding: usize) -> ConvGeometry {
        ConvGeometry { in_channels: n, out_channels: m, kernel: k, stride, padding }
    }

    #[test]
    fn output_size_matches_standard_formula() {
        let g = geom(3, 8, 3, 1, 1);
        assert_eq!(g.output_size(32, 32), (32, 32));
        let g = geom(3, 8, 5, 1, 0);
        assert_eq!(g.output_size(32, 32), (28, 28));
        let g = geom(3, 8, 3, 2, 1);
        assert_eq!(g.output_size(32, 32), (16, 16));
    }

    #[test]
    fn weight_count_is_mnkk() {
        assert_eq!(geom(3, 8, 3, 1, 1).weight_count(), 3 * 8 * 9);
    }

    #[test]
    fn forward_identity_kernel_copies_input() {
        // 1x1 kernel with weight 1 and zero bias reproduces the input per output channel.
        let g = geom(1, 1, 1, 1, 0);
        let input = Tensor::from_vec(vec![1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let weights = Tensor::filled(&[1, 1, 1, 1], 1.0);
        let bias = Tensor::zeros(&[1]);
        let out = conv2d_forward(&g, &input, &weights, &bias).unwrap();
        assert_eq!(out.data(), input.data());
    }

    #[test]
    fn forward_matches_hand_computed_3x3() {
        let g = geom(1, 1, 2, 1, 0);
        let input =
            Tensor::from_vec(vec![1, 3, 3], vec![1., 2., 3., 4., 5., 6., 7., 8., 9.]).unwrap();
        let weights = Tensor::from_vec(vec![1, 1, 2, 2], vec![1., 0., 0., 1.]).unwrap();
        let bias = Tensor::from_vec(vec![1], vec![0.5]).unwrap();
        let out = conv2d_forward(&g, &input, &weights, &bias).unwrap();
        // Each output = input[y][x] + input[y+1][x+1] + 0.5.
        assert_eq!(out.shape(), &[1, 2, 2]);
        assert_eq!(out.data(), &[6.5, 8.5, 12.5, 14.5]);
    }

    #[test]
    fn forward_rejects_bad_shapes() {
        let g = geom(2, 1, 3, 1, 1);
        let input = Tensor::zeros(&[1, 4, 4]);
        let weights = Tensor::zeros(&[1, 2, 3, 3]);
        let bias = Tensor::zeros(&[1]);
        assert!(conv2d_forward(&g, &input, &weights, &bias).is_err());
    }

    #[test]
    fn backward_input_matches_numerical_gradient() {
        let g = geom(2, 3, 3, 1, 1);
        let (h, w) = (5, 5);
        let input = Tensor::from_vec(
            vec![2, h, w],
            (0..2 * h * w).map(|i| (i as f32 * 0.37).sin()).collect(),
        )
        .unwrap();
        let weights = Tensor::from_vec(
            vec![3, 2, 3, 3],
            (0..3 * 2 * 9).map(|i| ((i as f32) * 0.11).cos() * 0.3).collect(),
        )
        .unwrap();
        let bias = Tensor::zeros(&[3]);
        // Scalar loss = sum of outputs, so dL/doutput = 1 everywhere.
        let out = conv2d_forward(&g, &input, &weights, &bias).unwrap();
        let grad_out = Tensor::filled(out.shape(), 1.0);
        let grad_in = conv2d_backward_input(&g, &grad_out, &weights, h, w).unwrap();

        let eps = 1e-2f32;
        for &probe in &[0usize, 7, 13, 24, 49] {
            let mut plus = input.clone();
            plus.data_mut()[probe] += eps;
            let mut minus = input.clone();
            minus.data_mut()[probe] -= eps;
            let f_plus = conv2d_forward(&g, &plus, &weights, &bias).unwrap().sum();
            let f_minus = conv2d_forward(&g, &minus, &weights, &bias).unwrap().sum();
            let numerical = (f_plus - f_minus) / (2.0 * eps);
            let analytic = grad_in.data()[probe];
            assert!(
                (numerical - analytic).abs() < 1e-2,
                "probe {probe}: numerical {numerical} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn backward_weights_matches_numerical_gradient() {
        let g = geom(2, 2, 3, 1, 1);
        let (h, w) = (4, 4);
        let input = Tensor::from_vec(
            vec![2, h, w],
            (0..2 * h * w).map(|i| ((i as f32) * 0.21).sin()).collect(),
        )
        .unwrap();
        let weights = Tensor::from_vec(
            vec![2, 2, 3, 3],
            (0..2 * 2 * 9).map(|i| ((i as f32) * 0.17).cos() * 0.2).collect(),
        )
        .unwrap();
        let bias = Tensor::zeros(&[2]);
        let out = conv2d_forward(&g, &input, &weights, &bias).unwrap();
        let grad_out = Tensor::filled(out.shape(), 1.0);
        let (grad_w, grad_b) = conv2d_backward_weights(&g, &input, &grad_out).unwrap();

        let eps = 1e-2f32;
        for &probe in &[0usize, 5, 17, 35] {
            let mut plus = weights.clone();
            plus.data_mut()[probe] += eps;
            let mut minus = weights.clone();
            minus.data_mut()[probe] -= eps;
            let f_plus = conv2d_forward(&g, &input, &plus, &bias).unwrap().sum();
            let f_minus = conv2d_forward(&g, &input, &minus, &bias).unwrap().sum();
            let numerical = (f_plus - f_minus) / (2.0 * eps);
            assert!((numerical - grad_w.data()[probe]).abs() < 1e-2, "weight probe {probe}");
        }
        // Bias gradient is the number of output pixels per channel for an all-ones upstream.
        let (oh, ow) = g.output_size(h, w);
        assert!((grad_b.data()[0] - (oh * ow) as f32).abs() < 1e-4);
    }

    #[test]
    fn rotate_kernels_180_flips_both_spatial_axes() {
        let w =
            Tensor::from_vec(vec![1, 1, 3, 3], vec![1., 2., 3., 4., 5., 6., 7., 8., 9.]).unwrap();
        let r = rotate_kernels_180(&w);
        assert_eq!(r.data(), &[9., 8., 7., 6., 5., 4., 3., 2., 1.]);
        // Rotating twice restores the original (Fig. 5(a) reversibility).
        assert_eq!(rotate_kernels_180(&r), w);
    }

    #[test]
    #[should_panic(expected = "empty output")]
    fn degenerate_geometry_panics() {
        let g = geom(1, 1, 5, 1, 0);
        g.output_size(3, 3);
    }
}
