//! Tier contracts of the GEMM kernel subsystem (PR 8):
//!
//! * `Blocked` and `Simd` are `to_bits()`-identical to `Reference` across randomized GEMM
//!   and convolution geometries — not approximately close, bit-identical;
//! * the M-split parallel path is byte-identical across worker counts (1 vs N) for **every**
//!   tier, FastMath included — the row partition may not leak into the numbers;
//! * `FastMath` is only ULP-close: its even/odd k-split reassociates each scalar's sum, and
//!   the documented bound is the standard forward-error bound for two different summation
//!   orders of the same dot product, `|fast − ref| ≤ 2·γ_k·Σ_p|a_p·b_p|` with
//!   `γ_k = k·ε/(1−k·ε)` (Higham, *Accuracy and Stability of Numerical Algorithms*, §3.1);
//! * the linear kernel, on its AVX2 path and on its portable per-row loop, matches a naive
//!   per-row dot loop bit for bit.

use bnn_tensor::conv::{reference, ConvGeometry};
use bnn_tensor::init::splitmix_tensor as fill;
use bnn_tensor::kernels::{
    conv2d_forward_into, gemm_accumulate_tiered, linear_matvec, linear_matvec_portable,
    KernelConfig, KernelTier, TAIL_KC,
};
use bnn_tensor::{Scratch, Tensor};
use proptest::prelude::*;

/// Runs the tiered GEMM on a fresh copy of `c_init` and returns the result.
fn run_gemm(
    cfg: KernelConfig,
    c_init: &[f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) -> Vec<f32> {
    let mut c = c_init.to_vec();
    gemm_accumulate_tiered(cfg, &mut c, a, b, m, k, n);
    c
}

fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len(), "{} length", what);
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        prop_assert_eq!(g.to_bits(), w.to_bits(), "{}[{}]: {} vs {}", what, i, g, w);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `Blocked` and `Simd` accumulate every output scalar's k-terms in the reference order,
    /// so they are bit-identical to `Reference` for arbitrary shapes — including C seeded
    /// with non-zero values (the bias-prefill pattern of the conv driver), column remainders
    /// narrower than the SIMD tile, row remainders shorter than the register tile, and
    /// depths that cross the column-tail panel's k-chunks.
    #[test]
    fn bit_exact_tiers_match_reference_bitwise(
        m in 1usize..14,
        k in 1usize..(2 * TAIL_KC + 8),
        n in 1usize..300,
        seed in 0u64..u64::MAX,
    ) {
        let a = fill(seed, &[m, k]);
        let b = fill(seed ^ 0xA5A5, &[k, n]);
        let c0 = fill(seed ^ 0x3C3C, &[m, n]);
        let want = run_gemm(
            KernelConfig::with_tier(KernelTier::Reference), c0.data(), a.data(), b.data(), m, k, n,
        );
        for tier in [KernelTier::Blocked, KernelTier::Simd] {
            let got =
                run_gemm(KernelConfig::with_tier(tier), c0.data(), a.data(), b.data(), m, k, n);
            assert_bits_eq(&got, &want, tier.label())?;
        }
    }

    /// The M-split parallel partition is byte-identical across worker counts for every tier.
    /// Shapes are sized above the inline threshold so the split actually runs; each output
    /// row is computed by the same serial kernel regardless of which chunk it lands in.
    #[test]
    fn m_split_is_byte_identical_across_worker_counts(
        m in 32usize..64,
        k in 64usize..128,
        n in 64usize..160,
        seed in 0u64..u64::MAX,
    ) {
        let a = fill(seed, &[m, k]);
        let b = fill(seed ^ 0x1111, &[k, n]);
        let c0 = fill(seed ^ 0x2222, &[m, n]);
        for tier in KernelTier::ALL {
            let serial = run_gemm(
                KernelConfig { tier, gemm_workers: 1 }, c0.data(), a.data(), b.data(), m, k, n,
            );
            for workers in [2usize, 3, 5, 8] {
                let parallel = run_gemm(
                    KernelConfig { tier, gemm_workers: workers },
                    c0.data(), a.data(), b.data(), m, k, n,
                );
                assert_bits_eq(&parallel, &serial, tier.label())?;
            }
        }
    }

    /// The convolution drivers stay bit-identical to the reference loops under every
    /// bit-exact tier and under the parallel M-split.
    #[test]
    fn conv_forward_matches_reference_under_every_bit_exact_tier(
        cin in 1usize..4,
        cout in 1usize..6,
        kernel in 1usize..4,
        extra in 0usize..5,
        seed in 0u64..u64::MAX,
    ) {
        let geom = ConvGeometry {
            in_channels: cin,
            out_channels: cout,
            kernel,
            stride: 1 + (seed % 2) as usize,
            padding: (seed % kernel as u64) as usize,
        };
        let (h, w) = (kernel + extra, kernel + extra + 1);
        let (oh, ow) = geom.output_size(h, w);
        let input = fill(seed, &[cin, h, w]);
        let weights = fill(seed ^ 0xBEEF, &[cout, cin, kernel, kernel]);
        let bias = fill(seed ^ 0xF00D, &[cout]);
        let want = reference::conv2d_forward(&geom, &input, &weights, &bias).unwrap();

        for tier in KernelTier::BIT_EXACT {
            for workers in [1usize, 4] {
                let mut scratch = Scratch::new();
                scratch.set_kernel(KernelConfig { tier, gemm_workers: workers });
                let mut got = scratch.take_tensor(&[cout, oh, ow]);
                conv2d_forward_into(&geom, &input, &weights, &bias, &mut got, &mut scratch)
                    .unwrap();
                assert_bits_eq(got.data(), want.data(), tier.label())?;
            }
        }
    }

    /// FastMath reassociates each scalar's sum; the divergence from the reference order is
    /// bounded by the documented forward-error bound `2·γ_k·Σ|a_p·b_p|` per scalar (both
    /// summation orders satisfy the `γ_k` bound around the exact dot product, so their
    /// difference satisfies twice it).
    #[test]
    fn fastmath_stays_within_the_documented_forward_error_bound(
        m in 1usize..12,
        k in 1usize..160,
        n in 1usize..80,
        seed in 0u64..u64::MAX,
    ) {
        let a = fill(seed, &[m, k]);
        let b = fill(seed ^ 0x7777, &[k, n]);
        let c0 = fill(seed ^ 0x8888, &[m, n]);
        let want = run_gemm(
            KernelConfig::with_tier(KernelTier::Reference), c0.data(), a.data(), b.data(), m, k, n,
        );
        let got = run_gemm(
            KernelConfig::with_tier(KernelTier::FastMath), c0.data(), a.data(), b.data(), m, k, n,
        );
        let eps = f32::EPSILON as f64;
        let gamma = (k + 1) as f64 * eps / (1.0 - (k + 1) as f64 * eps);
        for i in 0..m {
            for j in 0..n {
                // Magnitude budget of scalar (i, j): |c0| plus every |a·b| term.
                let mut budget = c0.data()[i * n + j].abs() as f64;
                for p in 0..k {
                    budget += (a.data()[i * k + p] as f64 * b.data()[p * n + j] as f64).abs();
                }
                let diff = (got[i * n + j] as f64 - want[i * n + j] as f64).abs();
                let bound = 2.0 * gamma * budget + f64::MIN_POSITIVE;
                prop_assert!(
                    diff <= bound,
                    "({}, {}): |{} - {}| = {} exceeds 2·γ_k·Σ|terms| = {}",
                    i, j, got[i * n + j], want[i * n + j], diff, bound,
                );
            }
        }
    }

    /// The linear kernel, dispatched and portable, against the naive per-row loop over
    /// random shapes (past several 8×8 blocks in both directions, with both tails) and C
    /// pre-seeded.
    #[test]
    fn linear_matvec_matches_the_dot_loop_on_random_shapes(
        rows in 1usize..80,
        cols in 1usize..100,
        seed in 0u64..u64::MAX,
    ) {
        let x = fill(seed, &[cols]);
        let w = fill(seed ^ 0xD1CE, &[rows, cols]);
        let c0 = fill(seed ^ 0x5EED, &[rows]);
        let want = naive_linear(c0.data(), w.data(), x.data());
        for (path, got) in linear_paths(c0.data(), w.data(), x.data()) {
            assert_bits_eq(&got, &want, path)?;
        }
    }
}

/// `c0[o] + Σ_i w[o, i]·x[i]`, one ascending chain per row: the linear kernel's oracle.
fn naive_linear(c0: &[f32], w: &[f32], x: &[f32]) -> Vec<f32> {
    let cols = x.len();
    let mut c = c0.to_vec();
    for (o, acc) in c.iter_mut().enumerate() {
        for i in 0..cols {
            *acc += w[o * cols + i] * x[i];
        }
    }
    c
}

/// The dispatched linear kernel (AVX2 where the CPU has it) and the portable per-row loop,
/// each on a fresh copy of `c0`.
fn linear_paths(c0: &[f32], w: &[f32], x: &[f32]) -> [(&'static str, Vec<f32>); 2] {
    let mut dispatched = c0.to_vec();
    linear_matvec(&mut dispatched, w, x);
    let mut portable = c0.to_vec();
    linear_matvec_portable(&mut portable, w, x);
    [("dispatched", dispatched), ("portable", portable)]
}

/// Asserts `got` equals `want` bit for bit, except that a NaN output only has to be NaN:
/// Rust leaves the payload of a NaN result unspecified, so the compiler may pick either
/// operand's when two NaNs meet.
fn assert_linear_bits(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (o, (g, w)) in got.iter().zip(want).enumerate() {
        let same = g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan());
        assert!(
            same,
            "{what}: output {o}: {g} ({:#010x}) vs {w} ({:#010x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// Every shape up to 33 rows × 40 columns (four full 8-row blocks plus every row tail, five
/// full 8-column blocks plus every column tail), then the proxies' linear shapes (B-LeNet
/// 64×144 and 3×64, B-MLP 48×64, 32×48 and 4×32) and the paper B-MLP's 400×784, with C
/// pre-seeded.
#[test]
fn linear_matvec_matches_the_dot_loop_on_small_and_model_shapes() {
    let small = (1..=33usize).flat_map(|rows| (1..=40usize).map(move |cols| (rows, cols)));
    let models = [(64, 144), (48, 64), (32, 48), (4, 32), (3, 64), (400, 784)];
    for (rows, cols) in small.chain(models) {
        let seed = (rows * 1000 + cols) as u64;
        let x = fill(seed, &[cols]);
        let w = fill(seed ^ 0xD1CE, &[rows, cols]);
        let c0 = fill(seed ^ 0x5EED, &[rows]);
        let want = naive_linear(c0.data(), w.data(), x.data());
        for (path, got) in linear_paths(c0.data(), w.data(), x.data()) {
            assert_linear_bits(&got, &want, &format!("{path} {rows}x{cols}"));
        }
    }
}

/// ±0.0, subnormals, ±∞ and NaN planted one at a time at every position of W, of x and of
/// C, over a 17×19 shape (two full 8×8 blocks each way plus both tails) whose other entries
/// include zeros of both signs, so ∞·0 and ∞ − ∞ occur too. Then all-zero operands of mixed
/// signs, so the sign of every zero output must survive the lane-wise adds.
#[test]
fn linear_matvec_keeps_signed_zeros_subnormals_infinities_and_nans() {
    let specials = [
        0.0f32,
        -0.0,
        f32::from_bits(1),
        -f32::from_bits(1),
        f32::MIN_POSITIVE / 3.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
    ];
    let (rows, cols) = (17, 19);
    let ordinary = |i: usize| match i % 7 {
        0 => 0.0,
        3 => -0.0,
        k => (k as f32 - 3.5) * 0.375,
    };
    let w: Vec<f32> = (0..rows * cols).map(|i| ordinary(i * 5 + 1)).collect();
    let x: Vec<f32> = (0..cols).map(|i| ordinary(i * 3 + 2)).collect();
    let c0: Vec<f32> = (0..rows).map(ordinary).collect();
    let check = |w: &[f32], x: &[f32], c0: &[f32], what: &str| {
        let want = naive_linear(c0, w, x);
        for (path, got) in linear_paths(c0, w, x) {
            assert_linear_bits(&got, &want, &format!("{path}, {what}"));
        }
    };
    for v in specials {
        for at in 0..w.len() {
            let mut planted = w.clone();
            planted[at] = v;
            check(&planted, &x, &c0, &format!("w[{at}] = {v:e}"));
        }
        for at in 0..x.len() {
            let mut planted = x.clone();
            planted[at] = v;
            check(&w, &planted, &c0, &format!("x[{at}] = {v:e}"));
        }
        for at in 0..c0.len() {
            let mut planted = c0.clone();
            planted[at] = v;
            check(&w, &x, &planted, &format!("c[{at}] = {v:e}"));
        }
    }
    let signed_zero = |i: usize| if i % 3 == 1 { -0.0 } else { 0.0 };
    let zeros_w: Vec<f32> = (0..rows * cols).map(|i| signed_zero(i / 2)).collect();
    let zeros_x: Vec<f32> = (0..cols).map(|i| signed_zero(i + 1)).collect();
    let zeros_c: Vec<f32> = (0..rows).map(|o| if o % 2 == 0 { -0.0 } else { 0.0 }).collect();
    let all_negative_w = vec![-0.0f32; rows * cols];
    check(&zeros_w, &zeros_x, &zeros_c, "signed zeros");
    check(&all_negative_w, &vec![0.0; cols], &zeros_c, "negative-zero products");
}

/// Every column tail of the `Simd` tier against `Reference`, bit for bit: each tail width
/// `w` in 1..=15 at n ∈ {w, 16 + w, 32 + w}, row counts on both sides of the 4-row tile, and
/// depths on both sides of the tail panel's k-chunk — with C pre-seeded, so a tail that
/// stores its padding lanes, drops a chunk's partial sums or reads the wrong B column fails.
#[test]
fn simd_column_tails_match_reference_bitwise() {
    for w in 1..16usize {
        for n in [w, 16 + w, 32 + w] {
            for m in [1usize, 2, 3, 4, 5, 6, 16] {
                for k in [1, TAIL_KC - 1, TAIL_KC, TAIL_KC + 1] {
                    let seed = (((w * 64 + n) * 32 + m) * 256 + k) as u64;
                    let a = fill(seed, &[m, k]);
                    let b = fill(seed ^ 0x5A5A, &[k, n]);
                    let c0 = fill(seed ^ 0xC3C3, &[m, n]);
                    let (a, b, c0) = (a.data(), b.data(), c0.data());
                    let want =
                        run_gemm(KernelConfig::with_tier(KernelTier::Reference), c0, a, b, m, k, n);
                    let got =
                        run_gemm(KernelConfig::with_tier(KernelTier::Simd), c0, a, b, m, k, n);
                    for (i, (g, r)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(g.to_bits(), r.to_bits(), "m {m} k {k} n {n}: [{i}] {g} vs {r}");
                    }
                }
            }
        }
    }
}

/// Empty operands leave C as it is under every tier, on both sides of the tile width and of
/// the tail panel's k-chunk.
#[test]
fn empty_operands_leave_c_unchanged() {
    for (m, k) in [(0, 0), (0, TAIL_KC + 1), (3, 0)] {
        for n in [0usize, 5, 16, 21] {
            let (a, b) = (vec![0.5f32; m * k], vec![0.25f32; k * n]);
            let c0: Vec<f32> = (0..m * n).map(|i| i as f32).collect();
            for tier in KernelTier::ALL {
                let got = run_gemm(KernelConfig::with_tier(tier), &c0, &a, &b, m, k, n);
                assert_eq!(got, c0, "{} at m {m} k {k} n {n}", tier.label());
            }
        }
    }
}

/// A deliberately non-random pin: the default tier is `Simd` (or whatever
/// `SHIFT_BNN_KERNEL_TIER` forces — the CI matrix relies on this), and `Simd` sits in the
/// bit-exact set.
#[test]
fn default_tier_is_bit_exact_or_explicitly_forced() {
    let tier = KernelTier::default();
    match std::env::var("SHIFT_BNN_KERNEL_TIER") {
        Ok(v) => assert_eq!(tier.label(), v, "forced tier must win"),
        Err(_) => assert_eq!(tier, KernelTier::Simd),
    }
}

/// A typo'd `SHIFT_BNN_KERNEL_TIER` fails loudly and the panic names every valid spelling —
/// a silent fallback would re-test the default tier while CI believes it covered another.
#[test]
fn unknown_env_tier_fails_loudly_listing_the_valid_tiers() {
    for tier in KernelTier::ALL {
        assert_eq!(KernelTier::from_env_value(tier.label()), tier);
    }
    let panic = std::panic::catch_unwind(|| KernelTier::from_env_value("smid"))
        .expect_err("a typo must panic, not fall back");
    let message = panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
        .expect("panic payload is a message");
    assert!(message.contains("smid"), "names the offending value: {message}");
    for tier in KernelTier::ALL {
        assert!(message.contains(tier.label()), "lists {:?}: {message}", tier.label());
    }
}

/// Labels round-trip through `parse` — the env-var spelling can't drift from the enum.
#[test]
fn tier_labels_round_trip() {
    for tier in KernelTier::ALL {
        assert_eq!(KernelTier::parse(tier.label()), Some(tier));
    }
    assert_eq!(KernelTier::parse("avx512-of-the-gaps"), None);
}

/// Scratch carries the kernel config to the drivers (the zero-signature-churn plumbing).
#[test]
fn scratch_defaults_to_the_process_tier_and_accepts_overrides() {
    let scratch = Scratch::new();
    assert_eq!(scratch.kernel().tier, KernelTier::default());
    assert_eq!(scratch.kernel().gemm_workers, 1);
    let mut scratch = Scratch::new();
    scratch.set_kernel(KernelConfig { tier: KernelTier::Blocked, gemm_workers: 3 });
    assert_eq!(scratch.kernel().tier, KernelTier::Blocked);
    assert_eq!(scratch.kernel().gemm_workers, 3);
}

/// Keep a Tensor import alive for the helper signature (and pin that `fill` produces the
/// shapes the tests assume).
#[test]
fn splitmix_fill_produces_requested_shapes() {
    let t: Tensor = fill(7, &[2, 3]);
    assert_eq!(t.shape(), &[2, 3]);
}
