//! Max pooling with argmax bookkeeping for the backward pass.

use crate::tensor::{Tensor, TensorError};

/// Result of a max-pooling forward pass: the pooled output plus the flat input index that won
/// each pooling window (needed to route gradients back).
#[derive(Debug, Clone, PartialEq)]
pub struct PoolOutput {
    /// Pooled feature map `[C, OH, OW]`.
    pub output: Tensor,
    /// For every output element, the flat index into the input tensor of the maximum element.
    pub argmax: Vec<usize>,
}

/// 2-D max pooling over non-overlapping `window × window` regions with stride equal to the
/// window size (the configuration used by LeNet/AlexNet/VGG style networks).
///
/// * `input` — `[C, H, W]`; `H` and `W` must be divisible by `window`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the input is not 3-D or not divisible by the
/// window.
pub fn max_pool2d(input: &Tensor, window: usize) -> Result<PoolOutput, TensorError> {
    let shape = input.shape();
    if shape.len() != 3
        || window == 0
        || !shape[1].is_multiple_of(window)
        || !shape[2].is_multiple_of(window)
    {
        return Err(TensorError::ShapeMismatch {
            left: shape.to_vec(),
            right: vec![shape.first().copied().unwrap_or(0), window, window],
        });
    }
    let (c, h, w) = (shape[0], shape[1], shape[2]);
    let (oh, ow) = (h / window, w / window);
    let mut output = Tensor::zeros(&[c, oh, ow]);
    let mut argmax = vec![0usize; c * oh * ow];
    max_pool2d_into(input, window, &mut output, Some(&mut argmax))?;
    Ok(PoolOutput { output, argmax })
}

/// Max pooling into a caller-provided output and, when `argmax` is given, the argmax
/// record — the zero-allocation variant of [`max_pool2d`], bit-identical (same scan order,
/// same strict-`>` tie-breaking). Only the backward stage and the moment backend's variance
/// gather read the record, so inference passes none. Window 2, the window of every pool the
/// B-LeNet proxy builds, runs the pooling loop compiled for that window.
///
/// `out` must be `[C, H/window, W/window]` and `argmax`, if any, as long as `out`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] under the same conditions as [`max_pool2d`].
///
/// # Panics
///
/// Panics if `out` / `argmax` do not match the pooled geometry (an internal wiring error).
pub fn max_pool2d_into(
    input: &Tensor,
    window: usize,
    out: &mut Tensor,
    argmax: Option<&mut [usize]>,
) -> Result<(), TensorError> {
    let shape = input.shape();
    if shape.len() != 3
        || window == 0
        || !shape[1].is_multiple_of(window)
        || !shape[2].is_multiple_of(window)
    {
        return Err(TensorError::ShapeMismatch {
            left: shape.to_vec(),
            right: vec![shape.first().copied().unwrap_or(0), window, window],
        });
    }
    let (c, h, w) = (shape[0], shape[1], shape[2]);
    assert_eq!(out.shape(), &[c, h / window, w / window], "pooled output shape mismatch");
    let (in_d, out_d) = (input.data(), out.data_mut());
    if let Some(argmax) = &argmax {
        assert_eq!(argmax.len(), out_d.len(), "argmax record size mismatch");
    }
    if out_d.is_empty() {
        return Ok(());
    }
    match (window, argmax) {
        (2, None) => pool_rows::<2, false>(in_d, w, 2, out_d, &mut []),
        (2, Some(argmax)) => pool_rows::<2, true>(in_d, w, 2, out_d, argmax),
        (_, None) => pool_rows::<0, false>(in_d, w, window, out_d, &mut []),
        (_, Some(argmax)) => pool_rows::<0, true>(in_d, w, window, out_d, argmax),
    }
    Ok(())
}

/// The one pooling loop. The `[C, H, W]` input is read as `C·OH` bands of `window` rows
/// (channel `ch`'s band `oy` starts at input row `ch·H + oy·window`), band `r` filling output
/// row `r`. Each window compares its taps in raster order `(dy, dx)` with strict `>` from
/// −∞, so the first maximum wins and a window where nothing beats −∞ (all NaN or −∞) pools
/// to −∞ and records flat index 0. `WINDOW` fixes the window at compile time (0: `window`
/// at run time) and `RECORD` whether `argmax` is written; neither changes a comparison.
#[inline(always)]
fn pool_rows<const WINDOW: usize, const RECORD: bool>(
    input: &[f32],
    w: usize,
    window: usize,
    out: &mut [f32],
    argmax: &mut [usize],
) {
    let window = if WINDOW == 0 { window } else { WINDOW };
    let (ow, band) = (w / window, window * w);
    for (r, (out_row, rows)) in out.chunks_exact_mut(ow).zip(input.chunks_exact(band)).enumerate() {
        for (ox, o) in out_row.iter_mut().enumerate() {
            let mut best = f32::NEG_INFINITY;
            let mut best_idx = 0usize;
            for dy in 0..window {
                let first = dy * w + ox * window;
                for (dx, &v) in rows[first..first + window].iter().enumerate() {
                    if v > best {
                        best = v;
                        if RECORD {
                            best_idx = r * band + first + dx;
                        }
                    }
                }
            }
            *o = best;
            if RECORD {
                argmax[r * ow + ox] = best_idx;
            }
        }
    }
}

/// Max-pooling gradient into a caller-provided tensor (zero-allocation variant of
/// [`max_pool2d_backward`], bit-identical). `grad_in` is fully overwritten.
///
/// # Panics
///
/// Panics if `grad_output` and `argmax` disagree in length (an internal wiring error).
pub fn max_pool2d_backward_into(grad_output: &Tensor, argmax: &[usize], grad_in: &mut Tensor) {
    assert_eq!(grad_output.len(), argmax.len(), "argmax record does not match gradient size");
    let gi = grad_in.data_mut();
    gi.fill(0.0);
    for (g, &idx) in grad_output.data().iter().zip(argmax) {
        gi[idx] += g;
    }
}

/// Routes the upstream gradient back through a max-pooling layer using the recorded argmax.
///
/// # Panics
///
/// Panics if `grad_output` and `argmax` disagree in length (an internal wiring error).
pub fn max_pool2d_backward(
    grad_output: &Tensor,
    argmax: &[usize],
    input_shape: &[usize],
) -> Tensor {
    assert_eq!(grad_output.len(), argmax.len(), "argmax record does not match gradient size");
    let mut grad_in = Tensor::zeros(input_shape);
    let gi = grad_in.data_mut();
    for (g, &idx) in grad_output.data().iter().zip(argmax) {
        gi[idx] += g;
    }
    grad_in
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pooling_picks_window_maxima() {
        let input = Tensor::from_vec(
            vec![1, 4, 4],
            vec![
                1., 2., 5., 6., //
                3., 4., 7., 8., //
                9., 10., 13., 14., //
                11., 12., 15., 16.,
            ],
        )
        .unwrap();
        let pooled = max_pool2d(&input, 2).unwrap();
        assert_eq!(pooled.output.shape(), &[1, 2, 2]);
        assert_eq!(pooled.output.data(), &[4., 8., 12., 16.]);
    }

    #[test]
    fn pooling_backward_routes_gradient_to_maxima_only() {
        let input = Tensor::from_vec(vec![1, 2, 2], vec![1.0, 9.0, 3.0, 2.0]).unwrap();
        let pooled = max_pool2d(&input, 2).unwrap();
        let grad_out = Tensor::filled(&[1, 1, 1], 5.0);
        let grad_in = max_pool2d_backward(&grad_out, &pooled.argmax, input.shape());
        assert_eq!(grad_in.data(), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn pooling_rejects_indivisible_inputs() {
        let input = Tensor::zeros(&[1, 5, 4]);
        assert!(max_pool2d(&input, 2).is_err());
        let input = Tensor::zeros(&[1, 4]);
        assert!(max_pool2d(&input, 2).is_err());
    }

    /// The `(ch, oy, ox, dy, dx)` loop nest pooling started from: per window, strict `>`
    /// from −∞ in raster order, flat index 0 when no tap beats −∞.
    fn nested_loop_pool(input: &Tensor, window: usize) -> (Vec<u32>, Vec<usize>) {
        let &[c, h, w] = input.shape() else { panic!("rank 3") };
        let (mut values, mut argmax) = (Vec::new(), Vec::new());
        for ch in 0..c {
            for oy in 0..h / window {
                for ox in 0..w / window {
                    let (mut best, mut best_idx) = (f32::NEG_INFINITY, 0);
                    for dy in 0..window {
                        for dx in 0..window {
                            let idx = (ch * h + oy * window + dy) * w + ox * window + dx;
                            if input.data()[idx] > best {
                                (best, best_idx) = (input.data()[idx], idx);
                            }
                        }
                    }
                    values.push(best.to_bits());
                    argmax.push(best_idx);
                }
            }
        }
        (values, argmax)
    }

    #[test]
    fn window_two_body_matches_the_generic_loop_on_special_values() {
        // Every 4-tap sequence over NaN, ±0.0, ±∞ and a tied pair: one window per channel,
        // then the same values as 16 channels of 16×64, where windows span two rows.
        const SPECIAL: [f32; 8] =
            [f32::NAN, 0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, 1.5, -1.5, 1.5];
        let taps: Vec<f32> =
            (0..4096usize).flat_map(|i| (0..4).map(move |t| SPECIAL[(i >> (3 * t)) % 8])).collect();
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for shape in [[4096, 2, 2], [16, 16, 64], [4, 6, 2]] {
            let len = shape.iter().product();
            let input = Tensor::from_vec(shape.to_vec(), taps[..len].to_vec()).unwrap();
            let pooled = [shape[0], shape[1] / 2, shape[2] / 2];
            let (want_values, want_argmax) = nested_loop_pool(&input, 2);

            let mut generic = Tensor::zeros(&pooled);
            let mut generic_argmax = vec![usize::MAX; generic.len()];
            pool_rows::<0, true>(
                input.data(),
                shape[2],
                2,
                generic.data_mut(),
                &mut generic_argmax,
            );
            assert_eq!((bits(&generic), &generic_argmax), (want_values.clone(), &want_argmax));

            let mut out = Tensor::zeros(&pooled);
            let mut argmax = vec![usize::MAX; out.len()];
            max_pool2d_into(&input, 2, &mut out, Some(&mut argmax)).unwrap();
            assert_eq!((bits(&out), &argmax), (want_values.clone(), &want_argmax), "{shape:?}");
            let mut values_only = Tensor::filled(&pooled, 7.0);
            max_pool2d_into(&input, 2, &mut values_only, None).unwrap();
            assert_eq!(bits(&values_only), want_values, "{shape:?} values only");
        }
        // A window where nothing beats −∞ records flat index 0, wherever it sits.
        let input = Tensor::from_vec(
            vec![1, 2, 4],
            vec![1.0, 2.0, f32::NAN, f32::NEG_INFINITY, 3.0, 4.0, f32::NEG_INFINITY, f32::NAN],
        )
        .unwrap();
        let pooled = max_pool2d(&input, 2).unwrap();
        assert_eq!(pooled.argmax, [5, 0]);
        assert_eq!(pooled.output.data(), &[4.0, f32::NEG_INFINITY]);
    }

    #[test]
    fn other_windows_keep_the_generic_loop() {
        let input = crate::init::splitmix_tensor(9, &[3, 6, 12]);
        for window in [1, 3, 6] {
            let (values, argmax) = nested_loop_pool(&input, window);
            let pooled = max_pool2d(&input, window).unwrap();
            let got: Vec<u32> = pooled.output.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!((got, pooled.argmax), (values, argmax), "window {window}");
        }
    }

    #[test]
    fn multi_channel_pooling_is_independent_per_channel() {
        let input =
            Tensor::from_vec(vec![2, 2, 2], vec![1., 2., 3., 4., 40., 30., 20., 10.]).unwrap();
        let pooled = max_pool2d(&input, 2).unwrap();
        assert_eq!(pooled.output.data(), &[4.0, 40.0]);
    }
}
