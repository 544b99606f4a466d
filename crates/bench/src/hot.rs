//! The numeric hot-path microbenchmark suite behind the `hot_bench` binary.
//!
//! The families of measurements, all pure functions of their seeds:
//!
//! * **conv kernels** — the packed im2col+GEMM drivers of [`bnn_tensor::kernels`] against the
//!   retained reference loop nests of [`bnn_tensor::conv::reference`], per geometry and per
//!   direction (forward / grad-input / grad-weights). Each comparison also *checks* the two
//!   paths produce bit-identical outputs and records an FNV-1a digest of the result bits —
//!   the digests (not the timings) go into the committed `BENCH_hot_summary.json`;
//! * **ε generation and retrieval** — word-parallel
//!   [`Grng::fill_epsilon`](bnn_lfsr::Grng::fill_epsilon) against the bit-serial
//!   `next_epsilon` loop, plus a stream digest, and word-parallel
//!   [`Grng::fill_retrieved`](bnn_lfsr::Grng::fill_retrieved) against the bit-serial
//!   `retrieve_epsilon` loop over the same block;
//! * **fused training** — two B-LeNet-proxy trainers at `S = 8`, one with the fused
//!   forward walk ([`Trainer::set_fused_forward`]), asserted to train bit-identically before
//!   either is timed;
//! * **conv data movement** — the B-LeNet proxy's im2col packs, L3 input-gradient panel and
//!   `S = 16` pools, timed per pass on their own;
//! * **training passes** — a Bayesian linear layer's forward sampling-and-scoring and its
//!   backward, one pass per weight each, against the stored-sample composition they
//!   replaced, asserted bit-identical before either is timed;
//! * **σ refill** — the dispatched σ and ln passes of [`bnn_tensor::transcendental`] against
//!   the libm passes that define their values, at both training proxies' weight counts,
//!   asserted bit-identical before either is timed;
//! * **steady-state probes** — a full training iteration ([`TrainingProbe`]) and a served
//!   request ([`ServeProbe`]), used by the allocation-counting test and by `hot_bench` to
//!   assert the zero-allocation steady state at the allocator.
//!
//! Wall-clock numbers are machine-dependent and therefore live only in the full
//! `BENCH_hot.json` artifact and the printed table, never in the committed summary.

use bnn_lfsr::{Grng, GrngMode};
use bnn_obs::{Event, Recorder, TraceRecorder};
use bnn_serve::{
    BatchPolicy, EngineSpec, InferRequest, InferResponse, InferenceEngine, ModelSpec, ServeReplica,
    WorkloadSpec,
};
use bnn_tensor::activation::softplus;
use bnn_tensor::conv::{reference, ConvGeometry};
use bnn_tensor::kernels::{
    conv2d_backward_input_into, conv2d_backward_weights_into, conv2d_forward_into,
    gemm_accumulate_tiered, linear_matvec, linear_matvec_portable, pack_im2col,
};
use bnn_tensor::pool::max_pool2d_into;
use bnn_tensor::transcendental::{ln_pass, ln_pass_libm, sigma_pass, sigma_pass_libm};
use bnn_tensor::{KernelConfig, KernelTier, Scratch, Tensor};
use bnn_train::trainer::{Trainer, TrainerConfig};
use bnn_train::variational::{BayesConfig, VariationalParams};
use bnn_train::Network;
use rand::rngs::StdRng;
use rand::SeedableRng;
use shift_bnn::sweep::json::Json;
use std::time::Instant;

/// FNV-1a digest of a float slice's bit patterns, as 16 hex characters (the workspace-shared
/// [`fnv1a_hex`](shift_bnn::sweep::json::fnv1a_hex) over the little-endian bit stream).
pub fn digest_f32(values: &[f32]) -> String {
    shift_bnn::sweep::json::fnv1a_hex(values.iter().flat_map(|v| v.to_bits().to_le_bytes()))
}

/// Deterministic pseudo-random tensor fill in roughly [−1, 1] (the shared splitmix64 fixture
/// generator from `bnn_tensor::init` — the committed digests depend on this exact stream).
pub fn fill_tensor(seed: u64, shape: &[usize]) -> Tensor {
    bnn_tensor::init::splitmix_tensor(seed, shape)
}

/// One benchmarked convolution geometry (name, layer geometry, input spatial size).
#[derive(Debug, Clone)]
pub struct HotGeometry {
    /// Short stable identifier used in reports and the committed summary.
    pub name: &'static str,
    /// The convolution parameters.
    pub geom: ConvGeometry,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
}

/// The benchmarked geometry grid: the two trainable-proxy convolution layers that every
/// training golden exercises, plus two serving-scale layers where the cache-blocked GEMM's
/// arithmetic intensity actually shows.
pub fn hot_geometries() -> Vec<HotGeometry> {
    let c = |ic, oc, k, s, p| ConvGeometry {
        in_channels: ic,
        out_channels: oc,
        kernel: k,
        stride: s,
        padding: p,
    };
    vec![
        HotGeometry { name: "proxy_conv1_1x6_k3_8x8", geom: c(1, 6, 3, 1, 1), h: 8, w: 8 },
        HotGeometry { name: "proxy_conv2_6x16_k3_4x4", geom: c(6, 16, 3, 1, 1), h: 4, w: 4 },
        HotGeometry { name: "serve_conv_8x16_k3_16x16", geom: c(8, 16, 3, 1, 1), h: 16, w: 16 },
        HotGeometry { name: "serve_conv_16x32_k3_32x32", geom: c(16, 32, 3, 1, 1), h: 32, w: 32 },
        HotGeometry {
            name: "serve_conv_16x32_k5_s2_16x16",
            geom: c(16, 32, 5, 2, 2),
            h: 16,
            w: 16,
        },
    ]
}

/// Timing + bit-exactness result of one (geometry, direction) comparison.
#[derive(Debug, Clone)]
pub struct KernelBench {
    /// Geometry identifier.
    pub name: &'static str,
    /// `"forward"`, `"grad_input"` or `"grad_weights"`.
    pub op: &'static str,
    /// Best-of-reps time of the retained reference loops, in nanoseconds per call.
    pub reference_ns: f64,
    /// Best-of-reps time of the packed im2col+GEMM kernel, in nanoseconds per call.
    pub packed_ns: f64,
    /// FNV-1a digest of the (bit-identical) output of both paths.
    pub digest: String,
}

impl KernelBench {
    /// reference / packed wall-clock ratio.
    pub fn speedup(&self) -> f64 {
        self.reference_ns / self.packed_ns
    }
}

fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    best
}

/// Best-of-reps times of `a` and `b`, timed in alternation so that a slow stretch of a
/// shared host hits both and their ratio stays steady.
fn best_of_alternating(reps: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps.max(1) {
        best_a = best_a.min(best_of(1, &mut a));
        best_b = best_b.min(best_of(1, &mut b));
    }
    (best_a, best_b)
}

/// Runs the conv-kernel comparison over [`hot_geometries`].
///
/// # Panics
///
/// Panics if the packed and reference outputs are not bit-identical (the rewrite's core
/// contract; also pinned by proptests in `crates/tensor`).
pub fn run_kernel_benches(reps: usize) -> Vec<KernelBench> {
    let mut out = Vec::new();
    let mut scratch = Scratch::new();
    for hg in hot_geometries() {
        let g = &hg.geom;
        let (n, m, k) = (g.in_channels, g.out_channels, g.kernel);
        let (oh, ow) = g.output_size(hg.h, hg.w);
        let input = fill_tensor(0xA11CE ^ n as u64, &[n, hg.h, hg.w]);
        let weights = fill_tensor(0xB0B ^ m as u64, &[m, n, k, k]);
        let bias = fill_tensor(0xBEEF, &[m]);
        let grad_out = fill_tensor(0xD00D ^ m as u64, &[m, oh, ow]);

        // Forward.
        let want = reference::conv2d_forward(g, &input, &weights, &bias).unwrap();
        let mut got = scratch.take_tensor(&[m, oh, ow]);
        conv2d_forward_into(g, &input, &weights, &bias, &mut got, &mut scratch).unwrap();
        assert_bits(&got, &want, hg.name, "forward");
        let reference_ns =
            best_of(reps, || reference::conv2d_forward(g, &input, &weights, &bias).unwrap());
        let packed_ns = best_of(reps, || {
            conv2d_forward_into(g, &input, &weights, &bias, &mut got, &mut scratch).unwrap()
        });
        out.push(KernelBench {
            name: hg.name,
            op: "forward",
            reference_ns,
            packed_ns,
            digest: digest_f32(want.data()),
        });
        scratch.put_tensor(got);

        // Input gradient.
        let want = reference::conv2d_backward_input(g, &grad_out, &weights, hg.h, hg.w).unwrap();
        let mut got = scratch.take_tensor(&[n, hg.h, hg.w]);
        conv2d_backward_input_into(g, &grad_out, &weights, hg.h, hg.w, &mut got, &mut scratch)
            .unwrap();
        assert_bits(&got, &want, hg.name, "grad_input");
        let reference_ns = best_of(reps, || {
            reference::conv2d_backward_input(g, &grad_out, &weights, hg.h, hg.w).unwrap()
        });
        let packed_ns = best_of(reps, || {
            conv2d_backward_input_into(g, &grad_out, &weights, hg.h, hg.w, &mut got, &mut scratch)
                .unwrap()
        });
        out.push(KernelBench {
            name: hg.name,
            op: "grad_input",
            reference_ns,
            packed_ns,
            digest: digest_f32(want.data()),
        });
        scratch.put_tensor(got);

        // Weight gradient.
        let (want_gw, want_gb) = reference::conv2d_backward_weights(g, &input, &grad_out).unwrap();
        let mut gw = scratch.take_tensor(&[m, n, k, k]);
        let mut gb = scratch.take_tensor(&[m]);
        conv2d_backward_weights_into(g, &input, &grad_out, &mut gw, &mut gb, &mut scratch).unwrap();
        assert_bits(&gw, &want_gw, hg.name, "grad_weights");
        assert_bits(&gb, &want_gb, hg.name, "grad_bias");
        let reference_ns =
            best_of(reps, || reference::conv2d_backward_weights(g, &input, &grad_out).unwrap());
        let packed_ns = best_of(reps, || {
            conv2d_backward_weights_into(g, &input, &grad_out, &mut gw, &mut gb, &mut scratch)
                .unwrap()
        });
        out.push(KernelBench {
            name: hg.name,
            op: "grad_weights",
            reference_ns,
            packed_ns,
            digest: digest_f32(want_gw.data()),
        });
        scratch.put_tensor(gw);
        scratch.put_tensor(gb);
    }
    out
}

fn assert_bits(got: &Tensor, want: &Tensor, name: &str, op: &str) {
    assert_eq!(got.shape(), want.shape(), "{name}/{op} shape");
    for (i, (g, w)) in got.data().iter().zip(want.data()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{name}/{op}[{i}]: {g} vs {w}");
    }
}

/// Per-[`KernelTier`] timing of one GEMM shape (PR 8's tier arms): every tier runs the same
/// `C += A·B`, the bit-exact tiers are asserted `to_bits()`-identical to the reference tier,
/// and `FastMath` — allowed to reassociate — records its own digest unasserted.
#[derive(Debug, Clone)]
pub struct TierBench {
    /// Shape identifier (`gemm_<m>x<k>x<n>`-style).
    pub name: &'static str,
    /// Rows of `A` / `C`.
    pub m: usize,
    /// The contraction depth.
    pub k: usize,
    /// Columns of `B` / `C`.
    pub n: usize,
    /// Best-of-reps nanoseconds per call, one entry per tier in [`KernelTier::ALL`] order.
    pub tier_ns: Vec<(KernelTier, f64)>,
    /// FNV-1a digest of the reference-tier result (shared by every bit-exact tier).
    pub digest: String,
}

impl TierBench {
    /// Best-of-reps time of one tier.
    ///
    /// # Panics
    ///
    /// Panics if `tier` was not benchmarked.
    pub fn ns(&self, tier: KernelTier) -> f64 {
        self.tier_ns.iter().find(|(t, _)| *t == tier).expect("tier was benchmarked").1
    }

    /// The headline PR 8 ratio: the previous default tier (`Blocked`) over the SIMD tier.
    pub fn simd_speedup(&self) -> f64 {
        self.ns(KernelTier::Blocked) / self.ns(KernelTier::Simd)
    }

    fn json(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.name.to_string())),
            ("m", Json::UInt(self.m as u64)),
            ("k", Json::UInt(self.k as u64)),
            ("n", Json::UInt(self.n as u64)),
            (
                "tier_ns",
                Json::obj(
                    self.tier_ns
                        .iter()
                        .map(|(tier, ns)| (tier.label(), Json::Float(*ns)))
                        .collect::<Vec<_>>(),
                ),
            ),
            ("simd_speedup", Json::Float(self.simd_speedup())),
            ("digest", Json::Str(self.digest.clone())),
        ])
    }
}

/// The tier-arm GEMM shapes: the im2col products of the serving-scale conv geometries (the
/// shapes where tiers separate) plus one deeper-contraction panel.
fn tier_shapes() -> [(&'static str, usize, usize, usize); 3] {
    [
        ("gemm_16x72x256", 16, 72, 256),
        ("gemm_32x144x1024", 32, 144, 1024),
        ("gemm_64x288x1024", 64, 288, 1024),
    ]
}

/// The B-LeNet proxy's six conv GEMM shapes: forward, input gradient and weight gradient of
/// its first and second convolution. Their column counts (144, 27, 36, 54) leave tails of 0,
/// 11, 4 and 6 columns past the 16-wide SIMD tile, which no [`tier_shapes`] entry has.
fn tail_shapes() -> [(&'static str, usize, usize, usize); 6] {
    [
        ("gemm_6x27x144", 6, 27, 144),
        ("gemm_3x54x144", 3, 54, 144),
        ("gemm_6x144x27", 6, 144, 27),
        ("gemm_16x54x36", 16, 54, 36),
        ("gemm_6x144x36", 6, 144, 36),
        ("gemm_16x36x54", 16, 36, 54),
    ]
}

/// Runs every [`KernelTier`] over the tier-arm GEMM shapes.
///
/// # Panics
///
/// Panics if any tier in [`KernelTier::BIT_EXACT`] — serial or M-split across 3 GEMM
/// workers — is not bit-identical to the reference tier.
pub fn run_tier_benches(reps: usize) -> Vec<TierBench> {
    run_tiers(reps, &tier_shapes())
}

/// Runs every [`KernelTier`] over the B-LeNet proxy's conv GEMM shapes, whose column tails
/// the `simd_gemm` shapes never reach.
///
/// # Panics
///
/// As [`run_tier_benches`].
pub fn run_tail_benches(reps: usize) -> Vec<TierBench> {
    run_tiers(reps, &tail_shapes())
}

fn run_tiers(reps: usize, shapes: &[(&'static str, usize, usize, usize)]) -> Vec<TierBench> {
    shapes
        .iter()
        .map(|&(name, m, k, n)| {
            let a = fill_tensor(0x7E12 ^ m as u64, &[m, k]);
            let b = fill_tensor(0x7E34 ^ n as u64, &[k, n]);
            let mut want = vec![0.0f32; m * n];
            gemm_accumulate_tiered(
                KernelConfig { tier: KernelTier::Reference, gemm_workers: 1 },
                &mut want,
                a.data(),
                b.data(),
                m,
                k,
                n,
            );
            let digest = digest_f32(&want);
            let mut c = vec![0.0f32; m * n];
            let mut tier_ns = Vec::new();
            for tier in KernelTier::ALL {
                for gemm_workers in [1usize, 3] {
                    let cfg = KernelConfig { tier, gemm_workers };
                    c.fill(0.0);
                    gemm_accumulate_tiered(cfg, &mut c, a.data(), b.data(), m, k, n);
                    if KernelTier::BIT_EXACT.contains(&tier) {
                        for (i, (g, w)) in c.iter().zip(&want).enumerate() {
                            assert_eq!(
                                g.to_bits(),
                                w.to_bits(),
                                "{name}: tier {} × {gemm_workers} workers diverged at [{i}]",
                                tier.label()
                            );
                        }
                    }
                }
                let cfg = KernelConfig { tier, gemm_workers: 1 };
                let ns = best_of(reps, || {
                    c.fill(0.0);
                    gemm_accumulate_tiered(cfg, &mut c, a.data(), b.data(), m, k, n);
                });
                tier_ns.push((tier, ns));
            }
            TierBench { name, m, k, n, tier_ns, digest }
        })
        .collect()
}

/// Timing of the linear kernel ([`linear_matvec`]) against its per-row dot loop
/// ([`linear_matvec_portable`]) on one weight matrix.
#[derive(Debug, Clone)]
pub struct LinearBench {
    /// Shape identifier (`linear_<out>x<in>`).
    pub name: &'static str,
    /// Output rows.
    pub rows: usize,
    /// Input columns.
    pub cols: usize,
    /// Best-of-reps time of the per-row dot loop, in nanoseconds per matvec.
    pub dot_loop_ns: f64,
    /// Best-of-reps time of the dispatched kernel, in nanoseconds per matvec.
    pub kernel_ns: f64,
}

impl LinearBench {
    /// dot loop / kernel wall-clock ratio.
    pub fn speedup(&self) -> f64 {
        self.dot_loop_ns / self.kernel_ns
    }

    fn json(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.name.to_string())),
            ("rows", Json::UInt(self.rows as u64)),
            ("cols", Json::UInt(self.cols as u64)),
            ("dot_loop_ns", Json::Float(self.dot_loop_ns)),
            ("kernel_ns", Json::Float(self.kernel_ns)),
            ("speedup", Json::Float(self.speedup())),
        ])
    }
}

/// Times the dispatched linear kernel against the per-row dot loop on the B-LeNet proxy's
/// 64×144 and the B-MLP proxy's 48×64 weight matrices, in alternation.
///
/// # Panics
///
/// Panics if the two paths' outputs are not bit-identical.
pub fn run_linear_benches(reps: usize) -> Vec<LinearBench> {
    [("linear_64x144", 64, 144), ("linear_48x64", 48, 64)]
        .into_iter()
        .map(|(name, rows, cols)| {
            let w = fill_tensor(0x11EA ^ rows as u64, &[rows, cols]);
            let x = fill_tensor(0x3A7 ^ cols as u64, &[cols]);
            let (mut dot, mut kernel) = (vec![0.0f32; rows], vec![0.0f32; rows]);
            linear_matvec_portable(&mut dot, w.data(), x.data());
            linear_matvec(&mut kernel, w.data(), x.data());
            for (o, (d, k)) in dot.iter().zip(&kernel).enumerate() {
                assert_eq!(d.to_bits(), k.to_bits(), "{name}: kernel diverged at output {o}");
            }
            let (dot_loop_ns, kernel_ns) = best_of_alternating(
                reps,
                || {
                    dot.fill(0.0);
                    linear_matvec_portable(std::hint::black_box(&mut dot), w.data(), x.data());
                },
                || {
                    kernel.fill(0.0);
                    linear_matvec(std::hint::black_box(&mut kernel), w.data(), x.data());
                },
            );
            LinearBench { name, rows, cols, dot_loop_ns, kernel_ns }
        })
        .collect()
}

/// Per-pass time of one of the B-LeNet proxy's conv data-movement passes: an im2col pack
/// or a pool, with no GEMM around it.
#[derive(Debug, Clone)]
pub struct DataPassBench {
    /// Pass identifier (`<pass>_<layer>_<shape>`).
    pub name: &'static str,
    /// Floats the pass writes.
    pub floats: usize,
    /// Best-of-reps time, in nanoseconds per pass.
    pub ns: f64,
}

impl DataPassBench {
    fn json(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.name.to_string())),
            ("floats", Json::UInt(self.floats as u64)),
            ("ns", Json::Float(self.ns)),
        ])
    }
}

/// Passes per timed repetition of [`run_data_pass_benches`]: each pass takes a microsecond
/// or a few, so one clock read per pass would be a visible share of it.
const PASSES_PER_REP: usize = 32;

/// Timed repetitions of [`run_data_pass_benches`] per `reps`: a best-of over a few
/// milliseconds read up to 1.7× the settled per-pass time on the 2-vCPU Xeon host, so each
/// pass is timed for long enough to meet a quiet stretch of a shared host.
const REPS_SCALE: usize = 50;

/// Times the B-LeNet proxy's conv data movement per pass, the parts of a step the conv
/// GEMMs do not cover: the L0 (3×12×12) and L3 (6×6×6) im2col packs, the L3 input
/// gradient's panel (the 16×6×6 output gradient packed at padding 1), and the two max pools
/// of an `S = 16` serving request (`[96, 12, 12]` and `[256, 6, 6]`, values only, as
/// inference runs them). Ungated: wall-clock only, best of `reps · REPS_SCALE` repetitions.
pub fn run_data_pass_benches(reps: usize) -> Vec<DataPassBench> {
    let conv =
        |n, m| ConvGeometry { in_channels: n, out_channels: m, kernel: 3, stride: 1, padding: 1 };
    let packs = [
        ("im2col_L0_3x12x12", conv(3, 6), 12),
        ("im2col_L3_6x6x6", conv(6, 16), 6),
        ("grad_panel_L3_16x6x6", conv(16, 6), 6),
    ];
    let mut out: Vec<DataPassBench> = packs
        .into_iter()
        .map(|(name, geom, hw)| {
            let input = fill_tensor(0xC01 ^ geom.in_channels as u64, &[geom.in_channels, hw, hw]);
            let mut col = vec![0.0f32; geom.panel_len(hw, hw)];
            let ns = best_of(reps * REPS_SCALE, || {
                for _ in 0..PASSES_PER_REP {
                    pack_im2col(&geom, input.data(), hw, hw, std::hint::black_box(&mut col));
                }
            });
            DataPassBench { name, floats: col.len(), ns: ns / PASSES_PER_REP as f64 }
        })
        .collect();
    for (name, shape) in
        [("pool_L2_S16_96x12x12", [96, 12, 12]), ("pool_L5_S16_256x6x6", [256, 6, 6])]
    {
        let input = fill_tensor(0x9001 ^ shape[0] as u64, &shape);
        let mut pooled = Tensor::zeros(&[shape[0], shape[1] / 2, shape[2] / 2]);
        let ns = best_of(reps * REPS_SCALE, || {
            for _ in 0..PASSES_PER_REP {
                max_pool2d_into(&input, 2, std::hint::black_box(&mut pooled), None)
                    .expect("pooled shape");
            }
        });
        out.push(DataPassBench { name, floats: pooled.len(), ns: ns / PASSES_PER_REP as f64 });
    }
    out
}

/// Timing of a fused `S`-sample walk against `S` per-sample walks on the B-LeNet proxy: PR 8's
/// serving arm (one frozen replica answering Monte-Carlo requests) and the training arm (two
/// trainers stepping the same example), each asserted bit-identical before it is timed.
#[derive(Debug, Clone)]
pub struct FusedBench {
    /// Monte-Carlo samples per request or training step.
    pub samples: usize,
    /// Per-sample (`S` separate forward passes) nanoseconds per request or step.
    pub per_sample_ns: f64,
    /// Fused (one stacked walk) nanoseconds per request or step.
    pub fused_ns: f64,
    /// FNV-1a digest of the identical outputs: the response mean ∥ variance bits, or the
    /// loss bits of the checked training steps.
    pub digest: String,
}

impl FusedBench {
    /// per-sample / fused wall-clock ratio.
    pub fn speedup(&self) -> f64 {
        self.per_sample_ns / self.fused_ns
    }

    fn json(&self) -> Json {
        Json::obj([
            ("samples", Json::UInt(self.samples as u64)),
            ("per_sample_ns", Json::Float(self.per_sample_ns)),
            ("fused_ns", Json::Float(self.fused_ns)),
            ("speedup", Json::Float(self.speedup())),
            ("digest", Json::Str(self.digest.clone())),
        ])
    }
}

/// Benchmarks fused vs per-sample Monte-Carlo serving at `samples` draws per request.
///
/// # Panics
///
/// Panics if the two paths' responses are not byte-identical.
pub fn run_fused_serve_bench(reps: usize, samples: usize) -> FusedBench {
    let spec = ModelSpec::lenet(7);
    let mut request = InferRequest {
        id: 0,
        arrival_tick: 0,
        input: fill_tensor(0xFEED, spec.input_shape()),
        samples,
        seed: 1,
    };
    let mut fused = ServeReplica::build(&EngineSpec::new(spec.clone()));
    let mut per_sample = ServeReplica::build(&EngineSpec::new(spec).fused_sampling(false));
    let mut response =
        InferResponse { id: 0, samples: 0, mean: Vec::new(), variance: Vec::new(), entropy: 0.0 };
    let mut check = response.clone();
    for seed in 1..=4u64 {
        request.seed = seed;
        fused.answer_into(&request, &mut response);
        per_sample.answer_into(&request, &mut check);
        assert_eq!(response, check, "fused serving diverged at seed {seed}");
    }
    let digest =
        digest_f32(&response.mean.iter().chain(&response.variance).copied().collect::<Vec<f32>>());
    let fused_ns = best_of(reps, || fused.answer_into(&request, &mut response));
    let per_sample_ns = best_of(reps, || per_sample.answer_into(&request, &mut check));
    FusedBench { samples, per_sample_ns, fused_ns, digest }
}

/// Benchmarks fused vs per-sample training steps on the B-LeNet proxy at `samples` draws: two
/// trainers, one with [`Trainer::set_fused_forward`] on, stepping the same example in
/// lockstep.
///
/// # Panics
///
/// Panics if the two trainers' losses differ in any bit, before or while they are timed.
pub fn run_fused_training_bench(reps: usize, samples: usize) -> FusedBench {
    let spec = ModelSpec::lenet(7);
    let image = fill_tensor(0xF00D, spec.input_shape());
    let trainer = |fused: bool| {
        let config = TrainerConfig { samples, learning_rate: 0.01, ..TrainerConfig::default() };
        let mut trainer = Trainer::new(spec.build(), config).expect("default GRNG construction");
        trainer.set_fused_forward(fused);
        trainer
    };
    let (mut per_sample, mut fused) = (trainer(false), trainer(true));
    let step = |trainer: &mut Trainer| {
        trainer.train_example(&image, 1).expect("proxy shapes are consistent").total_loss
    };
    let mut losses = Vec::new();
    for _ in 0..4 {
        let (a, b) = (step(&mut per_sample), step(&mut fused));
        assert_eq!(a.to_bits(), b.to_bits(), "fused training diverged at step {}", losses.len());
        losses.push(a);
    }
    // The timed steps alternate between the trainers, so a slow stretch of a shared host
    // hits both, and the trainers stay in lockstep (still asserted step by step).
    let timed = |trainer: &mut Trainer| {
        let start = Instant::now();
        let loss = step(trainer);
        (start.elapsed().as_nanos() as f64, loss)
    };
    let (mut per_sample_ns, mut fused_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps.max(1) {
        let (a_ns, a) = timed(&mut per_sample);
        let (b_ns, b) = timed(&mut fused);
        assert_eq!(a.to_bits(), b.to_bits(), "fused training diverged while timed");
        per_sample_ns = per_sample_ns.min(a_ns);
        fused_ns = fused_ns.min(b_ns);
    }
    FusedBench { samples, per_sample_ns, fused_ns, digest: digest_f32(&losses) }
}

/// Timing of one Bayesian linear layer's training passes — sampling and scoring in the
/// forward stage, the backward stage — over `samples` ε blocks of one weight matrix: the
/// one-pass kernels against the stored-sample composition they replaced. The forward's
/// matvec and the ε draws are left out; both arms take their buffers from a [`Scratch`]
/// arena as the layer does.
#[derive(Debug, Clone)]
pub struct TrainingPassBench {
    /// Shape identifier (`passes_<out>x<in>`).
    pub name: &'static str,
    /// Output rows.
    pub rows: usize,
    /// Input columns.
    pub cols: usize,
    /// ε blocks (samples) per timed step.
    pub samples: usize,
    /// Best-of-reps time of the stored-sample composition, in nanoseconds per step.
    pub composed_ns: f64,
    /// Best-of-reps time of the one-pass kernels, in nanoseconds per step.
    pub one_pass_ns: f64,
}

impl TrainingPassBench {
    /// composition / one-pass wall-clock ratio.
    pub fn speedup(&self) -> f64 {
        self.composed_ns / self.one_pass_ns
    }

    fn json(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.name.to_string())),
            ("rows", Json::UInt(self.rows as u64)),
            ("cols", Json::UInt(self.cols as u64)),
            ("samples", Json::UInt(self.samples as u64)),
            ("composed_ns", Json::Float(self.composed_ns)),
            ("one_pass_ns", Json::Float(self.one_pass_ns)),
            ("speedup", Json::Float(self.speedup())),
        ])
    }
}

/// The operands of one linear layer's training samples: input, output gradient (every third
/// row zero, as behind a ReLU), one ε block per sample, and ln σ for the composition's
/// complexity sum.
struct PassOperands {
    x: Vec<f32>,
    g: Vec<f32>,
    eps: Vec<Vec<f32>>,
    ln_sigma: Vec<f64>,
    config: BayesConfig,
}

/// The complexity sum as the composition ran it: 256 terms at a time into a stack array,
/// then added to one f64 total in ascending order.
fn chunked_complexity(w: &[f32], eps: &[f32], ln_sigma: &[f64], prior_sigma: f32) -> f32 {
    let ln_prior_sigma = (prior_sigma as f64).ln();
    let prior_var = (prior_sigma as f64).powi(2);
    let mut terms = [0.0f64; 256];
    let mut total = 0.0f64;
    for ((ws, es), ln_ss) in w.chunks(256).zip(eps.chunks(256)).zip(ln_sigma.chunks(256)) {
        let terms = &mut terms[..ws.len()];
        for (((t, &w), &e), &ln_s) in terms.iter_mut().zip(ws).zip(es).zip(ln_ss) {
            let log_q = -ln_s - 0.5 * (e as f64) * (e as f64);
            let log_p = -ln_prior_sigma - 0.5 * (w as f64) * (w as f64) / prior_var;
            *t = log_q - log_p;
        }
        for &t in terms.iter() {
            total += t;
        }
    }
    total as f32
}

/// One training step's linear-layer passes through the stored-sample composition: per
/// sample, a stored sample and its complexity sum, then a second stored sample, `Wᵀ·g` as
/// contiguous axpys, the outer product `g ⊗ x` and the per-weight gradients. Returns the
/// scores and leaves the last sample's input gradient in `grad_input`.
fn composed_passes(
    p: &mut VariationalParams,
    ops: &PassOperands,
    grad_input: &mut [f32],
    scratch: &mut Scratch,
) -> f32 {
    let (cols, precision) = (ops.x.len(), ops.config.precision);
    let mut score = 0.0;
    for eps in &ops.eps {
        let mut w = scratch.take_tensor(p.shape());
        p.sample_into(eps, precision, &mut w);
        score += chunked_complexity(w.data(), eps, &ops.ln_sigma, ops.config.prior_sigma);
        scratch.put_tensor(w);

        let mut w = scratch.take_tensor(p.shape());
        p.sample_into(eps, precision, &mut w);
        grad_input.fill(0.0);
        for (row, &gv) in w.data().chunks_exact(cols).zip(&ops.g) {
            for (c, &wv) in grad_input.iter_mut().zip(row) {
                *c += wv * gv;
            }
        }
        let mut grad_w = scratch.take_tensor(p.shape());
        for (row, &gv) in grad_w.data_mut().chunks_exact_mut(cols).zip(&ops.g) {
            if gv != 0.0 {
                for (r, &xv) in row.iter_mut().zip(&ops.x) {
                    *r = gv * xv;
                }
            }
        }
        p.accumulate_gradients(&grad_w, &w, eps, &ops.config);
        scratch.put_tensor(grad_w);
        scratch.put_tensor(w);
    }
    score
}

/// [`composed_passes`] through the one-pass kernels:
/// [`VariationalParams::sample_and_score_into`] and [`VariationalParams::linear_backward`].
fn one_pass_passes(
    p: &mut VariationalParams,
    ops: &PassOperands,
    grad_input: &mut [f32],
    scratch: &mut Scratch,
) -> f32 {
    let (precision, prior_sigma) = (ops.config.precision, ops.config.prior_sigma);
    let mut score = 0.0;
    for eps in &ops.eps {
        let mut w = scratch.take_tensor(p.shape());
        score += p.sample_and_score_into(eps, precision, &mut w, prior_sigma);
        scratch.put_tensor(w);
        grad_input.fill(0.0);
        p.linear_backward(eps, &ops.g, &ops.x, Some(&mut *grad_input), &ops.config);
    }
    score
}

/// Times a linear layer's training passes against the stored-sample composition on the
/// B-LeNet proxy's 64×144 and the B-MLP proxy's 48×64 weight matrices, `samples` ε blocks
/// per step, in alternation.
///
/// # Panics
///
/// Panics if the two arms' scores, input gradients, ∂μ or ∂ρ differ in any bit.
pub fn run_training_pass_benches(reps: usize, samples: usize) -> Vec<TrainingPassBench> {
    [("passes_64x144", 64, 144), ("passes_48x64", 48, 64)]
        .into_iter()
        .map(|(name, rows, cols)| {
            let len = rows * cols;
            let config = BayesConfig::default();
            let mu = fill_tensor(0x9A55 ^ rows as u64, &[rows, cols]);
            let rho = fill_tensor(0x2E0 ^ cols as u64, &[rows, cols]).map(|r| r - 4.0);
            let ln_sigma = rho.data().iter().map(|&r| (softplus(r) as f64).ln()).collect();
            let zeros = Tensor::zeros(&[rows, cols]);
            let params = VariationalParams::from_raw(mu, rho, zeros.clone(), zeros).unwrap();
            let mut g = fill_tensor(0x6AD ^ rows as u64, &[rows]).data().to_vec();
            g.iter_mut().step_by(3).for_each(|v| *v = 0.0);
            let ops = PassOperands {
                x: fill_tensor(0x1A9 ^ cols as u64, &[cols]).data().to_vec(),
                g,
                eps: (0..samples as u64)
                    .map(|s| {
                        fill_tensor(0xE95 + s, &[len]).data().iter().map(|e| e * 2.0).collect()
                    })
                    .collect(),
                ln_sigma,
                config,
            };
            let (mut composed, mut one_pass) = (params.clone(), params);
            let (mut composed_in, mut one_pass_in) = (vec![0.0f32; cols], vec![0.0f32; cols]);
            let (mut composed_scratch, mut one_pass_scratch) = (Scratch::new(), Scratch::new());
            let a = composed_passes(&mut composed, &ops, &mut composed_in, &mut composed_scratch);
            let b = one_pass_passes(&mut one_pass, &ops, &mut one_pass_in, &mut one_pass_scratch);
            assert_eq!(a.to_bits(), b.to_bits(), "{name}: complexity scores diverged");
            let pairs = [
                ("input gradient", &composed_in[..], &one_pass_in[..]),
                ("∂μ", composed.grad_mu().data(), one_pass.grad_mu().data()),
                ("∂ρ", composed.grad_rho().data(), one_pass.grad_rho().data()),
            ];
            for (what, want, got) in pairs {
                assert_eq!(digest_f32(want), digest_f32(got), "{name}: {what} diverged");
            }
            let (composed_ns, one_pass_ns) = best_of_alternating(
                reps,
                || {
                    composed_passes(&mut composed, &ops, &mut composed_in, &mut composed_scratch);
                },
                || {
                    one_pass_passes(&mut one_pass, &ops, &mut one_pass_in, &mut one_pass_scratch);
                },
            );
            TrainingPassBench { name, rows, cols, samples, composed_ns, one_pass_ns }
        })
        .collect()
}

/// Timing of the σ refill at one weight count: the dispatched σ and ln passes against the
/// libm passes that define their values.
#[derive(Debug, Clone)]
pub struct RefillBench {
    /// Proxy identifier (`refill_<proxy>_<weights>`).
    pub name: &'static str,
    /// Weights refilled.
    pub weights: usize,
    /// Best-of-reps time of [`sigma_pass_libm`] then [`ln_pass_libm`], in nanoseconds.
    pub libm_ns: f64,
    /// Best-of-reps time of [`sigma_pass`] then [`ln_pass`], in nanoseconds.
    pub dispatched_ns: f64,
}

impl RefillBench {
    /// libm / dispatched wall-clock ratio.
    pub fn speedup(&self) -> f64 {
        self.libm_ns / self.dispatched_ns
    }

    fn json(&self) -> Json {
        Json::obj([
            ("name", Json::Str(self.name.to_string())),
            ("weights", Json::UInt(self.weights as u64)),
            ("libm_ns", Json::Float(self.libm_ns)),
            ("dispatched_ns", Json::Float(self.dispatched_ns)),
            ("speedup", Json::Float(self.speedup())),
        ])
    }
}

/// Timed repetitions of [`run_sigma_refill_benches`] per `reps`: a refill takes tens of
/// microseconds, so `--reps 20` gives a best of 200.
const REFILL_REPS_SCALE: usize = 10;

/// A refill's outputs: `e`, σ and ln σ.
type Refilled = (Vec<f32>, Vec<f32>, Vec<f64>);

/// Refills `out` from `rho` through one σ pass and one ln pass.
fn refill(
    rho: &[f32],
    out: &mut Refilled,
    sigma: fn(&[f32], &mut [f32], &mut [f32]),
    ln: fn(&[f32], &mut [f64]),
) {
    sigma(rho, &mut out.0, &mut out.1);
    ln(&out.1, &mut out.2);
}

/// Times the σ refill, dispatched against libm, at the B-MLP proxy's 4,736 weights and the
/// B-LeNet proxy's 10,434, with ρ = −4 ± 1 as a network started at `init_rho = −4` has it,
/// in alternation. Ungated: wall-clock only.
///
/// # Panics
///
/// Panics if the two arms' `e`, σ or ln σ differ in any bit.
pub fn run_sigma_refill_benches(reps: usize) -> Vec<RefillBench> {
    [("refill_bmlp_4736", 4736), ("refill_blenet_10434", 10_434)]
        .into_iter()
        .map(|(name, weights)| {
            let rho = fill_tensor(0x51A ^ weights as u64, &[weights]).map(|r| r - 4.0);
            let rho = rho.data();
            let buffers = || (vec![0.0; weights], vec![0.0; weights], vec![0.0; weights]);
            let (mut libm, mut dispatched): (Refilled, Refilled) = (buffers(), buffers());
            refill(rho, &mut libm, sigma_pass_libm, ln_pass_libm);
            refill(rho, &mut dispatched, sigma_pass, ln_pass);
            assert_eq!(digest_f32(&libm.0), digest_f32(&dispatched.0), "{name}: e diverged");
            assert_eq!(digest_f32(&libm.1), digest_f32(&dispatched.1), "{name}: σ diverged");
            let ln_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(ln_bits(&libm.2), ln_bits(&dispatched.2), "{name}: ln σ diverged");
            let (libm_ns, dispatched_ns) = best_of_alternating(
                reps * REFILL_REPS_SCALE,
                || refill(rho, &mut libm, sigma_pass_libm, ln_pass_libm),
                || refill(rho, &mut dispatched, sigma_pass, ln_pass),
            );
            RefillBench { name, weights, libm_ns, dispatched_ns }
        })
        .collect()
}

/// Timing result of the ε-generation and ε-retrieval comparisons.
#[derive(Debug, Clone)]
pub struct EpsilonBench {
    /// ε values generated (and retrieved) per call.
    pub count: usize,
    /// Bit-serial `next_epsilon` loop, nanoseconds per call.
    pub serial_ns: f64,
    /// Word-parallel `fill_epsilon`, nanoseconds per call.
    pub word_parallel_ns: f64,
    /// Bit-serial `retrieve_epsilon` loop, nanoseconds per call.
    pub retrieve_serial_ns: f64,
    /// Word-parallel `fill_retrieved`, nanoseconds per call.
    pub retrieve_word_parallel_ns: f64,
    /// FNV-1a digest of the (identical) generated stream.
    pub digest: String,
}

impl EpsilonBench {
    /// serial / word-parallel generation wall-clock ratio — the `eps_generate` gate.
    pub fn speedup(&self) -> f64 {
        self.serial_ns / self.word_parallel_ns
    }

    /// serial / word-parallel retrieval wall-clock ratio — the `eps_retrieve` gate.
    pub fn retrieve_speedup(&self) -> f64 {
        self.retrieve_serial_ns / self.retrieve_word_parallel_ns
    }
}

/// Retrieves `out.len()` ε values one bit-serial backward step at a time, written in
/// generation order like [`Grng::fill_retrieved`].
fn retrieve_serially(grng: &mut Grng, out: &mut [f32]) {
    for slot in out.iter_mut().rev() {
        *slot = grng.retrieve_epsilon() as f32;
    }
}

/// Benchmarks word-parallel vs bit-serial generation of `count` ε values on the 256-bit
/// Shift-BNN GRNG (both paths produce — and the digest pins — the identical stream), then
/// word-parallel vs bit-serial retrieval of the same block, asserted to return exactly that
/// block before either is timed.
pub fn run_epsilon_bench(reps: usize, count: usize) -> EpsilonBench {
    let mut buf = vec![0.0f32; count];
    let mut word = Grng::shift_bnn_default(0x5EED).unwrap();
    word.fill_epsilon(&mut buf);
    let digest = digest_f32(&buf);
    let mut serial_check: Vec<f32> = Vec::with_capacity(count);
    let mut serial = Grng::shift_bnn_default(0x5EED).unwrap();
    for _ in 0..count {
        serial_check.push(serial.next_epsilon() as f32);
    }
    assert_eq!(digest, digest_f32(&serial_check), "ε streams diverged");

    let mut word = Grng::shift_bnn_default(0x5EED).unwrap();
    let mut serial = word.clone();
    let mut serial_buf = buf.clone();
    let (word_parallel_ns, serial_ns) = best_of_alternating(
        reps,
        || word.fill_epsilon(&mut buf),
        || {
            for slot in serial_buf.iter_mut() {
                *slot = serial.next_epsilon() as f32;
            }
        },
    );

    let mut word = Grng::shift_bnn_default(0x5EED).unwrap();
    word.fill_epsilon(&mut buf);
    word.set_mode(GrngMode::Backward);
    let mut serial = word.clone();
    word.fill_retrieved(&mut buf);
    assert_eq!(digest, digest_f32(&buf), "word-parallel retrieval diverged");
    retrieve_serially(&mut serial, &mut buf);
    assert_eq!(digest, digest_f32(&buf), "bit-serial retrieval diverged");
    // Both walks keep rewinding past the seed while timed; every position is a valid pattern.
    let (retrieve_word_parallel_ns, retrieve_serial_ns) = best_of_alternating(
        reps,
        || word.fill_retrieved(&mut buf),
        || retrieve_serially(&mut serial, &mut serial_buf),
    );
    EpsilonBench {
        count,
        serial_ns,
        word_parallel_ns,
        retrieve_serial_ns,
        retrieve_word_parallel_ns,
        digest,
    }
}

/// Geometric mean of a slice of ratios.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn geometric_mean(ratios: &[f64]) -> f64 {
    assert!(!ratios.is_empty(), "geometric mean of nothing");
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

/// A steady-state training-iteration workload: one scaled-down Bayesian conv net, one
/// example, `S = 4` Monte-Carlo samples per iteration — the paper's Fig. 1(a) loop in
/// miniature, covering conv, pooling, flatten and linear layers.
pub struct TrainingProbe {
    trainer: Trainer,
    image: Tensor,
    label: usize,
}

impl TrainingProbe {
    /// Builds the probe (deterministic).
    pub fn new() -> TrainingProbe {
        let mut rng = StdRng::seed_from_u64(0xCAFE);
        let network = Network::bayes_lenet(&[1, 8, 8], 5, BayesConfig::default(), &mut rng);
        let trainer = Trainer::new(
            network,
            TrainerConfig { samples: 4, learning_rate: 0.02, ..TrainerConfig::default() },
        )
        .expect("default GRNG construction cannot fail");
        let image = fill_tensor(0xF00D, &[1, 8, 8]);
        TrainingProbe { trainer, image, label: 2 }
    }

    /// Runs `iters` full training iterations (forward, backward, ε retrieval, update).
    pub fn run(&mut self, iters: usize) {
        for _ in 0..iters {
            self.trainer
                .train_example(&self.image, self.label)
                .expect("probe shapes are consistent");
        }
    }
}

impl Default for TrainingProbe {
    fn default() -> Self {
        Self::new()
    }
}

/// A steady-state serving workload: one frozen-posterior replica answering Monte-Carlo
/// uncertainty requests (`S = 8`) into a reusable response.
pub struct ServeProbe {
    replica: ServeReplica,
    request: InferRequest,
    response: InferResponse,
}

impl ServeProbe {
    /// Builds the probe over the B-LeNet serving proxy (deterministic).
    pub fn new() -> ServeProbe {
        let spec = ModelSpec::lenet(7);
        let replica = ServeReplica::build(&EngineSpec::new(spec.clone()));
        let request = InferRequest {
            id: 0,
            arrival_tick: 0,
            input: fill_tensor(0xFEED, spec.input_shape()),
            samples: 8,
            seed: 1,
        };
        let response = InferResponse {
            id: 0,
            samples: 0,
            mean: Vec::new(),
            variance: Vec::new(),
            entropy: 0.0,
        };
        ServeProbe { replica, request, response }
    }

    /// Serves `n` requests (distinct seeds, reused buffers).
    pub fn run(&mut self, n: usize) {
        for i in 0..n {
            self.request.seed = 1 + i as u64;
            self.replica.answer_into(&self.request, &mut self.response);
        }
    }

    /// The last response's entropy (read back so the optimizer cannot elide the work).
    pub fn last_entropy(&self) -> f32 {
        self.response.entropy
    }
}

impl Default for ServeProbe {
    fn default() -> Self {
        Self::new()
    }
}

/// A steady-state analytic-serving workload: one moment-backend replica answering requests
/// into a reusable response (single pass per request, no ε drawn).
pub struct MomentProbe {
    replica: ServeReplica,
    request: InferRequest,
    response: InferResponse,
}

impl MomentProbe {
    /// Builds the probe over the B-LeNet serving proxy (deterministic), moment backend.
    pub fn new() -> MomentProbe {
        let spec = ModelSpec::lenet(7);
        let request = InferRequest {
            id: 0,
            arrival_tick: 0,
            input: fill_tensor(0xFEED, spec.input_shape()),
            samples: 8, // ignored by the analytic backend — kept to mirror ServeProbe
            seed: 1,
        };
        let replica =
            ServeReplica::build(&EngineSpec::new(spec).mode(bnn_serve::ServeMode::Moment));
        let response = InferResponse {
            id: 0,
            samples: 0,
            mean: Vec::new(),
            variance: Vec::new(),
            entropy: 0.0,
        };
        MomentProbe { replica, request, response }
    }

    /// Serves `n` analytic requests (reused buffers).
    pub fn run(&mut self, n: usize) {
        for i in 0..n {
            self.request.id = i as u64;
            self.replica.answer_into(&self.request, &mut self.response);
        }
    }

    /// The last response's entropy (read back so the optimizer cannot elide the work).
    pub fn last_entropy(&self) -> f32 {
        self.response.entropy
    }

    /// The last response's sample count — 0 marks it analytic.
    pub fn last_samples(&self) -> usize {
        self.response.samples
    }
}

impl Default for MomentProbe {
    fn default() -> Self {
        Self::new()
    }
}

/// A steady-state *traced*-serving workload: the [`ServeProbe`] request loop with the
/// enabled recorder's per-request event sequence (admit → batch-close → dispatch →
/// compute-done → answer) recorded into a pre-sized [`TraceRecorder`]. Used by the
/// allocation-counting test to prove at the allocator that the recording path itself —
/// `record()` into warmed capacity — adds **zero** heap allocations to the steady state.
pub struct TracedServeProbe {
    replica: ServeReplica,
    request: InferRequest,
    response: InferResponse,
    recorder: TraceRecorder,
}

impl TracedServeProbe {
    /// Events recorded per served request (the full admit-to-answer stage sequence).
    pub const EVENTS_PER_REQUEST: usize = 5;

    /// Builds the probe over the B-LeNet serving proxy with a recorder pre-sized for any
    /// steady-state window the probe is asked to run (capacity is never grown afterwards).
    pub fn new() -> TracedServeProbe {
        let spec = ModelSpec::lenet(7);
        let replica = ServeReplica::build(&EngineSpec::new(spec.clone()));
        let request = InferRequest {
            id: 0,
            arrival_tick: 0,
            input: fill_tensor(0xFEED, spec.input_shape()),
            samples: 8,
            seed: 1,
        };
        let response = InferResponse {
            id: 0,
            samples: 0,
            mean: Vec::new(),
            variance: Vec::new(),
            entropy: 0.0,
        };
        TracedServeProbe { replica, request, response, recorder: TraceRecorder::with_capacity(512) }
    }

    /// Serves `n` requests, recording the five-stage event sequence around each answer. The
    /// recorder is cleared first — `clear` keeps capacity, so a warmed probe records
    /// without touching the allocator (for windows up to `512 / EVENTS_PER_REQUEST`
    /// requests).
    pub fn run(&mut self, n: usize) {
        self.recorder.clear();
        for i in 0..n {
            let (id, tick) = (i as u64, i as u64 * 8);
            self.request.seed = 1 + i as u64;
            self.recorder.record(Event::Admit { request: id, tick, shard: 0, queue_depth: 1 });
            self.recorder.record(Event::BatchClose { request: id, shard: 0, tick: tick + 1 });
            self.recorder.record(Event::Dispatch { request: id, shard: 0, tick: tick + 2 });
            self.replica.answer_into(&self.request, &mut self.response);
            self.recorder.record(Event::ComputeDone { request: id, shard: 0, tick: tick + 5 });
            self.recorder.record(Event::Answer { request: id, tick: tick + 5 });
        }
    }

    /// Events recorded by the last [`run`](Self::run) window.
    pub fn events_recorded(&self) -> usize {
        self.recorder.len()
    }

    /// The last response's entropy (read back so the optimizer cannot elide the work).
    pub fn last_entropy(&self) -> f32 {
        self.response.entropy
    }
}

impl Default for TracedServeProbe {
    fn default() -> Self {
        Self::new()
    }
}

/// Timing of the observability overhead arm: one single-worker B-LeNet engine over a
/// uniform trace, responses asserted byte-identical tracing-on vs tracing-off, then a fixed
/// amount of tracing work timed against a fixed amount of serving work, in alternation.
/// The tracing work is the events the traced run recorded, written again into a warmed
/// [`TraceRecorder`]; the serving work is the untraced engine run. The engine's own work of
/// building each event on the traced path is in neither part, so no gate times it.
#[derive(Debug, Clone)]
pub struct ObsOverheadBench {
    /// Requests per engine run.
    pub requests: usize,
    /// Events the traced run records.
    pub events: usize,
    /// Untraced `InferenceEngine::run`, nanoseconds per run.
    pub serving_ns: f64,
    /// Recording the traced run's events into a warmed recorder, nanoseconds per run.
    pub tracing_ns: f64,
    /// FNV-1a digest of the (identical) response document.
    pub digest: String,
}

impl ObsOverheadBench {
    /// serving / (serving + tracing) — an untraced run's time over a traced run's, built
    /// from the two parts timed apart, so the serving run's noise does not swamp the small
    /// tracing share. The `obs_overhead` gate: ≥ 0.95 means the recorder's writes of a
    /// run's events cost at most ~5% of the run.
    pub fn overhead(&self) -> f64 {
        self.serving_ns / (self.serving_ns + self.tracing_ns)
    }
}

/// Benchmarks the tracing work of a traced engine run against the untraced run over
/// `requests` B-LeNet Monte-Carlo requests, timing the two in alternation.
///
/// # Panics
///
/// Panics if the traced and untraced responses are not byte-identical.
pub fn run_obs_overhead_bench(reps: usize, requests: usize) -> ObsOverheadBench {
    let spec = ModelSpec::lenet(7);
    let trace = WorkloadSpec::uniform(requests, 8, 4, 13).generate(&spec);
    let policy = BatchPolicy { max_batch: 8, max_wait_ticks: 16 };
    let engine = InferenceEngine::build(EngineSpec::new(spec).policy(policy));
    let untraced = engine.run(&trace);
    let mut recorder = TraceRecorder::new();
    let traced = engine.run_traced(&trace, &[], &mut recorder);
    assert_eq!(
        untraced.responses_json(),
        traced.responses_json(),
        "responses must be byte-identical tracing-on vs tracing-off"
    );
    let events = recorder.events().to_vec();
    let (serving_ns, tracing_ns) = best_of_alternating(
        reps,
        || {
            std::hint::black_box(engine.run(&trace));
        },
        || {
            recorder.clear();
            for &event in &events {
                recorder.record(std::hint::black_box(event));
            }
            std::hint::black_box(&recorder);
        },
    );
    ObsOverheadBench {
        requests,
        events: events.len(),
        serving_ns,
        tracing_ns,
        digest: traced.responses_digest(),
    }
}

/// Builds the **deterministic** summary document committed as `BENCH_hot_summary.json` and
/// gated by `bench_regression`: kernel output digests, the ε stream digest, and the measured
/// steady-state allocation counts (which must be zero) — no wall-clock values.
pub fn summary_json(
    kernels: &[KernelBench],
    epsilon: &EpsilonBench,
    train_allocs: u64,
    serve_allocs: u64,
    traced_allocs: u64,
) -> Json {
    Json::obj([
        (
            "kernels",
            Json::Array(
                kernels
                    .iter()
                    .map(|k| {
                        Json::obj([
                            ("name", Json::Str(k.name.to_string())),
                            ("op", Json::Str(k.op.to_string())),
                            ("digest", Json::Str(k.digest.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "epsilon",
            Json::obj([
                ("count", Json::UInt(epsilon.count as u64)),
                ("digest", Json::Str(epsilon.digest.clone())),
            ]),
        ),
        (
            "steady_state_allocations",
            Json::obj([
                ("per_training_iteration", Json::UInt(train_allocs)),
                ("per_served_request", Json::UInt(serve_allocs)),
                ("per_traced_request", Json::UInt(traced_allocs)),
            ]),
        ),
    ])
}

/// Builds the full (machine-dependent) report written to `BENCH_hot.json` — timings and
/// speedups alongside everything in the summary, plus PR 8's per-tier GEMM arms, the
/// proxy's column-tail GEMM arms, the fused-serving, fused-training, training-pass and
/// σ-refill arms and the named `speedups` object gated by `bench_regression --min-speedup`
/// (`conv_kernels` is the conv kernels' geometric-mean speedup over the reference loops).
#[allow(clippy::too_many_arguments)]
pub fn full_json(
    kernels: &[KernelBench],
    tiers: &[TierBench],
    tails: &[TierBench],
    linear: &[LinearBench],
    data_passes: &[DataPassBench],
    fused: &FusedBench,
    fused_training: &FusedBench,
    passes: &[TrainingPassBench],
    refills: &[RefillBench],
    obs: &ObsOverheadBench,
    epsilon: &EpsilonBench,
    train_allocs: u64,
    serve_allocs: u64,
    traced_allocs: u64,
) -> Json {
    let speedups: Vec<f64> = kernels.iter().map(KernelBench::speedup).collect();
    let simd: Vec<f64> = tiers.iter().map(TierBench::simd_speedup).collect();
    let simd_tails: Vec<f64> = tails.iter().map(TierBench::simd_speedup).collect();
    let linear_speedups: Vec<f64> = linear.iter().map(LinearBench::speedup).collect();
    let pass_speedups: Vec<f64> = passes.iter().map(TrainingPassBench::speedup).collect();
    let refill_speedups: Vec<f64> = refills.iter().map(RefillBench::speedup).collect();
    Json::obj([
        (
            "kernels",
            Json::Array(
                kernels
                    .iter()
                    .map(|k| {
                        Json::obj([
                            ("name", Json::Str(k.name.to_string())),
                            ("op", Json::Str(k.op.to_string())),
                            ("reference_ns", Json::Float(k.reference_ns)),
                            ("packed_ns", Json::Float(k.packed_ns)),
                            ("speedup", Json::Float(k.speedup())),
                            ("digest", Json::Str(k.digest.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("kernel_tiers", Json::Array(tiers.iter().map(TierBench::json).collect())),
        ("kernel_tail_tiers", Json::Array(tails.iter().map(TierBench::json).collect())),
        ("linear_matvec", Json::Array(linear.iter().map(LinearBench::json).collect())),
        ("conv_data_passes", Json::Array(data_passes.iter().map(DataPassBench::json).collect())),
        ("fused_serving", fused.json()),
        ("fused_training", fused_training.json()),
        ("training_passes", Json::Array(passes.iter().map(TrainingPassBench::json).collect())),
        ("sigma_refill", Json::Array(refills.iter().map(RefillBench::json).collect())),
        (
            "obs_serving",
            Json::obj([
                ("requests", Json::UInt(obs.requests as u64)),
                ("events", Json::UInt(obs.events as u64)),
                ("serving_ns", Json::Float(obs.serving_ns)),
                ("tracing_ns", Json::Float(obs.tracing_ns)),
                ("overhead", Json::Float(obs.overhead())),
                ("digest", Json::Str(obs.digest.clone())),
            ]),
        ),
        (
            "speedups",
            Json::obj([
                ("conv_kernels", Json::Float(geometric_mean(&speedups))),
                ("simd_gemm", Json::Float(geometric_mean(&simd))),
                ("simd_gemm_tails", Json::Float(geometric_mean(&simd_tails))),
                ("linear_matvec", Json::Float(geometric_mean(&linear_speedups))),
                ("fused_sampling", Json::Float(fused.speedup())),
                ("fused_training", Json::Float(fused_training.speedup())),
                ("training_passes", Json::Float(geometric_mean(&pass_speedups))),
                ("sigma_refill", Json::Float(geometric_mean(&refill_speedups))),
                ("obs_overhead", Json::Float(obs.overhead())),
                ("eps_generate", Json::Float(epsilon.speedup())),
                ("eps_retrieve", Json::Float(epsilon.retrieve_speedup())),
            ]),
        ),
        (
            "epsilon",
            Json::obj([
                ("count", Json::UInt(epsilon.count as u64)),
                ("serial_ns", Json::Float(epsilon.serial_ns)),
                ("word_parallel_ns", Json::Float(epsilon.word_parallel_ns)),
                ("speedup", Json::Float(epsilon.speedup())),
                ("retrieve_serial_ns", Json::Float(epsilon.retrieve_serial_ns)),
                ("retrieve_word_parallel_ns", Json::Float(epsilon.retrieve_word_parallel_ns)),
                ("retrieve_speedup", Json::Float(epsilon.retrieve_speedup())),
                ("digest", Json::Str(epsilon.digest.clone())),
            ]),
        ),
        (
            "steady_state_allocations",
            Json::obj([
                ("per_training_iteration", Json::UInt(train_allocs)),
                ("per_served_request", Json::UInt(serve_allocs)),
                ("per_traced_request", Json::UInt(traced_allocs)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_benches_cover_every_geometry_and_direction() {
        let benches = run_kernel_benches(1);
        assert_eq!(benches.len(), hot_geometries().len() * 3);
        for b in &benches {
            assert!(b.reference_ns > 0.0 && b.packed_ns > 0.0);
            assert_eq!(b.digest.len(), 16);
        }
    }

    #[test]
    fn tier_benches_cover_every_tier_and_assert_bit_exactness() {
        let tiers = run_tier_benches(1);
        assert_eq!(tiers.len(), tier_shapes().len());
        let tails = run_tail_benches(1);
        assert_eq!(tails.len(), tail_shapes().len());
        for t in tiers.iter().chain(&tails) {
            assert_eq!(t.tier_ns.len(), KernelTier::ALL.len());
            assert_eq!(t.digest.len(), 16);
            for tier in KernelTier::ALL {
                assert!(t.ns(tier) > 0.0, "{}: {} has no timing", t.name, tier.label());
            }
        }
    }

    #[test]
    fn fused_serve_bench_pins_byte_identity_before_timing() {
        let fused = run_fused_serve_bench(1, 4);
        assert_eq!(fused.samples, 4);
        assert_eq!(fused.digest.len(), 16);
        assert!(fused.per_sample_ns > 0.0 && fused.fused_ns > 0.0);
    }

    #[test]
    fn fused_training_bench_pins_bit_identity_before_timing() {
        let bench = run_fused_training_bench(1, 2);
        assert_eq!(bench.samples, 2);
        assert_eq!(bench.digest.len(), 16);
        assert!(bench.per_sample_ns > 0.0 && bench.fused_ns > 0.0);
    }

    #[test]
    fn training_pass_benches_pin_bit_identity_before_timing() {
        let passes = run_training_pass_benches(1, 2);
        assert_eq!(passes.len(), 2);
        for p in &passes {
            assert_eq!((p.samples, p.rows * p.cols > 0), (2, true), "{}", p.name);
            assert!(p.composed_ns > 0.0 && p.one_pass_ns > 0.0, "{}", p.name);
        }
    }

    #[test]
    fn sigma_refill_benches_pin_bit_identity_before_timing() {
        let refills = run_sigma_refill_benches(1);
        assert_eq!(refills.iter().map(|r| r.weights).collect::<Vec<_>>(), [4736, 10_434]);
        for r in &refills {
            assert!(r.libm_ns > 0.0 && r.dispatched_ns > 0.0, "{}", r.name);
        }
    }

    #[test]
    fn full_json_names_the_gated_speedups() {
        let kernels = run_kernel_benches(1);
        let tiers = run_tier_benches(1);
        let tails = run_tail_benches(1);
        let fused = run_fused_serve_bench(1, 4);
        let fused_training = run_fused_training_bench(1, 2);
        let passes = run_training_pass_benches(1, 2);
        let refills = run_sigma_refill_benches(1);
        let obs = run_obs_overhead_bench(1, 8);
        let epsilon = run_epsilon_bench(1, 128);
        let linear = run_linear_benches(1);
        let data_passes = run_data_pass_benches(1);
        assert_eq!(data_passes.len(), 5);
        let doc = full_json(
            &kernels,
            &tiers,
            &tails,
            &linear,
            &data_passes,
            &fused,
            &fused_training,
            &passes,
            &refills,
            &obs,
            &epsilon,
            0,
            0,
            0,
        )
        .to_compact();
        for name in [
            "speedups",
            "conv_kernels",
            "simd_gemm",
            "simd_gemm_tails",
            "linear_matvec",
            "conv_data_passes",
            "fused_sampling",
            "fused_training",
            "training_passes",
            "sigma_refill",
            "obs_overhead",
            "eps_generate",
            "eps_retrieve",
        ] {
            assert!(doc.contains(&format!("\"{name}\"")), "missing {name}");
        }
    }

    #[test]
    fn obs_overhead_bench_pins_byte_identity_before_timing() {
        let obs = run_obs_overhead_bench(1, 8);
        assert_eq!(obs.requests, 8);
        assert!(obs.events > 0, "the traced run must record events");
        assert_eq!(obs.digest.len(), 16);
        assert!(obs.serving_ns > 0.0 && obs.tracing_ns > 0.0);
        assert!(obs.overhead() > 0.0 && obs.overhead() < 1.0);
    }

    #[test]
    fn traced_probe_records_the_full_stage_sequence() {
        let mut probe = TracedServeProbe::new();
        probe.run(3);
        assert_eq!(probe.events_recorded(), 3 * TracedServeProbe::EVENTS_PER_REQUEST);
        assert!(probe.last_entropy() >= 0.0);
        // Re-running clears and re-records — the window, not the history, is bounded.
        probe.run(2);
        assert_eq!(probe.events_recorded(), 2 * TracedServeProbe::EVENTS_PER_REQUEST);
    }

    #[test]
    fn epsilon_bench_pins_the_stream() {
        let e = run_epsilon_bench(1, 256);
        assert_eq!(e.count, 256);
        assert_eq!(e.digest.len(), 16);
    }

    #[test]
    fn geometric_mean_of_constant_ratios_is_the_ratio() {
        assert!((geometric_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn probes_run_and_produce_work() {
        let mut t = TrainingProbe::new();
        t.run(2);
        let mut s = ServeProbe::new();
        s.run(2);
        assert!(s.last_entropy() >= 0.0);
        let mut m = MomentProbe::new();
        m.run(2);
        assert!(m.last_entropy() >= 0.0);
        assert_eq!(m.last_samples(), 0, "moment responses must be marked analytic");
    }

    #[test]
    fn summary_json_is_deterministic_and_timing_free() {
        let kernels = run_kernel_benches(1);
        let epsilon = run_epsilon_bench(1, 128);
        let a = summary_json(&kernels, &epsilon, 0, 0, 0).to_compact();
        let kernels2 = run_kernel_benches(2);
        let epsilon2 = run_epsilon_bench(2, 128);
        let b = summary_json(&kernels2, &epsilon2, 0, 0, 0).to_compact();
        assert_eq!(a, b, "summary must not depend on timings or rep counts");
        assert!(!a.contains("_ns"), "summary must not embed wall-clock fields");
    }
}
