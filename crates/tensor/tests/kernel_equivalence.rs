//! Bit-exactness of the packed im2col+GEMM kernels against the retained reference
//! convolution loops, across randomized geometries (channels, kernel size, stride, padding,
//! spatial extent) and randomized finite data.
//!
//! Equality is asserted on `to_bits()` — not approximate closeness — because the kernel
//! rewrite's whole contract is that every output scalar accumulates the same terms in the
//! same order as the reference loop nest (see `kernels` module docs for the argument).

use bnn_tensor::conv::{reference, ConvGeometry};
use bnn_tensor::init::splitmix_tensor as fill;
use bnn_tensor::kernels::{
    conv2d_backward_input_into, conv2d_backward_weights_into, conv2d_forward_into,
};
use bnn_tensor::{KernelConfig, KernelTier, Scratch, Tensor};
use proptest::prelude::*;

/// A scratch pinned to a bit-exact tier: the bitwise contract below holds for every tier in
/// [`KernelTier::BIT_EXACT`] but not under a `SHIFT_BNN_KERNEL_TIER=fastmath` process
/// default, which the CI tier matrix forces (FastMath's own ULP bound is pinned by
/// `kernel_tiers.rs`).
fn bit_exact_scratch() -> Scratch {
    let mut scratch = Scratch::new();
    scratch.set_kernel(KernelConfig { tier: KernelTier::Simd, gemm_workers: 1 });
    scratch
}

fn assert_bits_eq(got: &Tensor, want: &Tensor, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.shape(), want.shape(), "{} shape", what);
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        prop_assert_eq!(g.to_bits(), w.to_bits(), "{}[{}]: {} vs {}", what, i, g, w);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Forward, input-gradient and weight-gradient kernels are bit-identical to the
    /// reference for arbitrary geometry.
    #[test]
    fn packed_kernels_match_reference_bitwise(
        n in 1usize..4,
        m in 1usize..5,
        kernel in 1usize..5,
        stride in 1usize..4,
        pad_raw in 0usize..4,
        seed in 0u64..u64::MAX,
    ) {
        // Padding below the kernel size (every real model) exercises the packed path. The
        // extents start at the smallest input with one output pixel, which is narrower than
        // the kernel when padding supplies most taps: outputs one pixel wide (`ow = 1`) and,
        // at stride ≥ 2, kernel taps whose valid output range is empty.
        let padding = pad_raw.min(kernel - 1);
        let min_extent = kernel.saturating_sub(2 * padding).max(1);
        let h = min_extent + (seed % 10) as usize;
        let w = min_extent + ((seed >> 8) % 10) as usize;
        let geom = ConvGeometry { in_channels: n, out_channels: m, kernel, stride, padding };
        let (oh, ow) = geom.output_size(h, w);

        let input = fill(seed, &[n, h, w]);
        let weights = fill(seed ^ 0xAAAA, &[m, n, kernel, kernel]);
        let bias = fill(seed ^ 0x5555, &[m]);
        let grad_out = fill(seed ^ 0x3333, &[m, oh, ow]);

        let mut scratch = bit_exact_scratch();

        // Forward.
        let want = reference::conv2d_forward(&geom, &input, &weights, &bias).unwrap();
        let mut got = scratch.take_tensor(&[m, oh, ow]);
        conv2d_forward_into(&geom, &input, &weights, &bias, &mut got, &mut scratch).unwrap();
        assert_bits_eq(&got, &want, "forward")?;

        // Input gradient.
        let want = reference::conv2d_backward_input(&geom, &grad_out, &weights, h, w).unwrap();
        let mut got = scratch.take_tensor(&[n, h, w]);
        conv2d_backward_input_into(&geom, &grad_out, &weights, h, w, &mut got, &mut scratch)
            .unwrap();
        assert_bits_eq(&got, &want, "grad_input")?;

        // Weight + bias gradients.
        let (want_gw, want_gb) =
            reference::conv2d_backward_weights(&geom, &input, &grad_out).unwrap();
        let mut got_gw = scratch.take_tensor(&[m, n, kernel, kernel]);
        let mut got_gb = scratch.take_tensor(&[m]);
        conv2d_backward_weights_into(
            &geom, &input, &grad_out, &mut got_gw, &mut got_gb, &mut scratch,
        )
        .unwrap();
        assert_bits_eq(&got_gw, &want_gw, "grad_weights")?;
        assert_bits_eq(&got_gb, &want_gb, "grad_bias")?;
    }

    /// Stride-1 convolutions whose output is as wide as their input (`K = 2·pad + 1`, every
    /// conv of the B-LeNet proxy) pack shifted rows, and their input gradient packs the
    /// output gradient at padding `K − 1 − pad` with no dilated copy. Planes run from one
    /// pixel up, so they are often narrower or shorter than the kernel.
    #[test]
    fn same_width_stride_one_convs_match_reference_bitwise(
        n in 1usize..5,
        m in 1usize..5,
        kernel in prop::sample::select(vec![1usize, 3, 5]),
        h in 1usize..15,
        w in 1usize..15,
        seed in 0u64..u64::MAX,
    ) {
        let geom =
            ConvGeometry { in_channels: n, out_channels: m, kernel, stride: 1, padding: kernel / 2 };
        prop_assert_eq!(geom.output_size(h, w), (h, w));
        let input = fill(seed, &[n, h, w]);
        let weights = fill(seed ^ 0xAAAA, &[m, n, kernel, kernel]);
        let bias = fill(seed ^ 0x5555, &[m]);
        let grad_out = fill(seed ^ 0x3333, &[m, h, w]);
        let mut scratch = bit_exact_scratch();

        let want = reference::conv2d_forward(&geom, &input, &weights, &bias).unwrap();
        let mut got = scratch.take_tensor(&[m, h, w]);
        conv2d_forward_into(&geom, &input, &weights, &bias, &mut got, &mut scratch).unwrap();
        assert_bits_eq(&got, &want, "forward")?;

        let want = reference::conv2d_backward_input(&geom, &grad_out, &weights, h, w).unwrap();
        let mut got = scratch.take_tensor(&[n, h, w]);
        conv2d_backward_input_into(&geom, &grad_out, &weights, h, w, &mut got, &mut scratch)
            .unwrap();
        assert_bits_eq(&got, &want, "grad_input")?;

        let (want_gw, want_gb) =
            reference::conv2d_backward_weights(&geom, &input, &grad_out).unwrap();
        let mut got_gw = scratch.take_tensor(&[m, n, kernel, kernel]);
        let mut got_gb = scratch.take_tensor(&[m]);
        conv2d_backward_weights_into(
            &geom, &input, &grad_out, &mut got_gw, &mut got_gb, &mut scratch,
        )
        .unwrap();
        assert_bits_eq(&got_gw, &want_gw, "grad_weights")?;
        assert_bits_eq(&got_gb, &want_gb, "grad_bias")?;
    }

    /// Sparse upstream gradients (exact zeros) exercise the reference's `g == 0` skip
    /// shortcuts against the packed kernels' branch-free accumulation.
    #[test]
    fn zero_riddled_gradients_still_match_bitwise(
        seed in 0u64..u64::MAX,
        zero_mask in 0u64..u64::MAX,
    ) {
        let geom =
            ConvGeometry { in_channels: 2, out_channels: 3, kernel: 3, stride: 1, padding: 1 };
        let (h, w) = (6, 6);
        let (oh, ow) = geom.output_size(h, w);
        let input = fill(seed, &[2, h, w]);
        let weights = fill(seed ^ 0x77, &[3, 2, 3, 3]);
        let mut grad_out = fill(seed ^ 0x99, &[3, oh, ow]);
        for (i, g) in grad_out.data_mut().iter_mut().enumerate() {
            if (zero_mask >> (i % 64)) & 1 == 1 {
                *g = 0.0;
            }
        }

        let mut scratch = bit_exact_scratch();
        let want = reference::conv2d_backward_input(&geom, &grad_out, &weights, h, w).unwrap();
        let mut got = scratch.take_tensor(&[2, h, w]);
        conv2d_backward_input_into(&geom, &grad_out, &weights, h, w, &mut got, &mut scratch)
            .unwrap();
        assert_bits_eq(&got, &want, "sparse grad_input")?;

        let (want_gw, want_gb) =
            reference::conv2d_backward_weights(&geom, &input, &grad_out).unwrap();
        let mut got_gw = scratch.take_tensor(&[3, 2, 3, 3]);
        let mut got_gb = scratch.take_tensor(&[3]);
        conv2d_backward_weights_into(
            &geom, &input, &grad_out, &mut got_gw, &mut got_gb, &mut scratch,
        )
        .unwrap();
        assert_bits_eq(&got_gw, &want_gw, "sparse grad_weights")?;
        assert_bits_eq(&got_gb, &want_gb, "sparse grad_bias")?;
    }

    /// The transposed-operand GEMM variants match transpose-then-matmul bitwise. `m` runs
    /// past 8 and 16 lanes so the `n = 1` axpy form runs both its vector body and its
    /// remainder.
    #[test]
    fn transposed_matmul_variants_match_bitwise(
        m in 1usize..160,
        k in 1usize..80,
        n in 1usize..8,
        seed in 0u64..u64::MAX,
    ) {
        check_transposed_variants(m, k, n, seed)?;
    }
}

/// Checks `matmul_at` / `matmul_bt` against transpose-then-matmul for one shape.
fn check_transposed_variants(m: usize, k: usize, n: usize, seed: u64) -> Result<(), TestCaseError> {
    let a_t = fill(seed, &[k, m]);
    let b = fill(seed ^ 0x1234, &[k, n]);
    assert_bits_eq(
        &a_t.matmul_at(&b).unwrap(),
        &a_t.transpose2().matmul(&b).unwrap(),
        "matmul_at",
    )?;
    let a = fill(seed ^ 0x4321, &[m, k]);
    let b_t = fill(seed ^ 0x9876, &[n, k]);
    assert_bits_eq(&a.matmul_bt(&b_t).unwrap(), &a.matmul(&b_t.transpose2()).unwrap(), "matmul_bt")
}

/// Every proxy linear layer's `Wᵀ·g` shape (`m` inputs, `k` outputs, `n = 1`) — including the
/// B-LeNet proxy's 144→64 layer — matches transpose-then-matmul bitwise.
#[test]
fn linear_layer_backward_shapes_match_bitwise() {
    for (m, k) in [(144, 64), (64, 3), (64, 48), (48, 32), (32, 4)] {
        for seed in [1u64, 0xDEAD_BEEF] {
            check_transposed_variants(m, k, 1, seed).unwrap();
        }
    }
}
