//! The numeric hot-path kernels: cache-blocked GEMM and im2col convolution drivers.
//!
//! Everything in this module is **bit-exact by construction** against the straightforward
//! loops it replaces (retained in [`crate::conv::reference`] and pinned by
//! `tests/kernel_equivalence.rs`). The invariant that makes this possible: every output scalar
//! accumulates *exactly one* running sum whose terms are added in the same order as the
//! reference loops —
//!
//! * convolution forward: bias first, then products ordered by `(ic, ky, kx)`;
//! * weight gradient: products ordered by output pixel `(oy, ox)`;
//! * input gradient: products ordered by `(om, oy, ox)` (realized as a unit-stride
//!   convolution of the dilated, zero-embedded output gradient — at stride 1 just the
//!   zero-padded gradient — with 180°-rotated kernels, whose k-dimension `(om, ky′, kx′)`
//!   enumerates the same terms in the same order);
//! * GEMM: plain `k`-ascending accumulation per scalar, never split into partial sums.
//!
//! Where the reference loops *skip* terms (out-of-bounds taps, explicit `g == 0` shortcuts),
//! the packed kernels add the corresponding `±0.0` products instead. Under IEEE-754
//! round-to-nearest this cannot change any running sum: `x + (±0.0) == x` for every `x`
//! except `x == -0.0` with a `+0.0` addend, and a running sum seeded from `+0.0` (or from a
//! bias that is never `-0.0`) can never reach `-0.0` — exact cancellation rounds to `+0.0`.
//! The proptests assert `to_bits()` equality, not approximate closeness.
//!
//! All drivers take a [`Scratch`] arena and perform **zero heap allocations** once the arena
//! has warmed up.
//!
//! # Kernel tiers
//!
//! Since PR 8 the GEMM entry point is tiered behind [`KernelTier`]:
//!
//! * [`KernelTier::Reference`] — the naive triple loop, retained as the bit-exactness oracle;
//! * [`KernelTier::Blocked`] — PR 4's cache-blocked scalar kernel (the former default);
//! * [`KernelTier::Simd`] — a register-tile microkernel built from fixed-size `f32` lane
//!   arrays (`MR×NR` accumulators initialized *from C*, stored back once after the k-loop) so
//!   LLVM autovectorizes the inner loops reliably. Because every output scalar still owns
//!   exactly one running sum whose k-terms are added in ascending order, `Simd` is
//!   `to_bits()`-identical to `Reference` — the tile only removes the per-k C memory traffic
//!   the blocked kernel pays. Column tails narrower than the tile run through the same tile
//!   over a zero-padded copy of B's tail. This is the default tier.
//! * [`KernelTier::FastMath`] — an explicitly-labeled tier that splits the k-accumulation
//!   into even/odd partial sums (combined once at the end). Reordering the additions breaks
//!   bit-exactness, so this tier is **never** a default anywhere and is pinned by ULP/forward
//!   -error-bounded tests instead (see `tests/kernel_tiers.rs` for the documented bound).
//!
//! [`gemm_accumulate_tiered`] additionally splits the M dimension of large products across
//! the [`bnn_pool`] work-stealing workers when [`KernelConfig::gemm_workers`] > 1. The
//! partition is deterministic *and* irrelevant to the numbers: every output row is computed
//! by the same serial kernel with the same per-scalar addition order no matter which chunk it
//! lands in, so 1-vs-N-thread results are byte-identical (the property `tests/kernel_tiers.rs`
//! pins). The parallel path is opt-in precisely because it spawns scoped threads and
//! allocates queue state — the zero-allocation steady-state contract holds for the default
//! `gemm_workers == 1`, which runs inline on the calling thread.
//!
//! The active [`KernelConfig`] travels inside [`Scratch`] — every kernel driver and layer
//! already threads a scratch arena, so the tier selection needs no signature changes. The
//! process-wide default tier can be forced with the `SHIFT_BNN_KERNEL_TIER` environment
//! variable (`reference`, `blocked`, `simd`, `fastmath`), which is how CI's per-tier matrix
//! legs keep every tier building and passing.

use crate::conv::{expect_shape, ConvGeometry};
use crate::scratch::Scratch;
use crate::tensor::{Tensor, TensorError};
use std::sync::{Mutex, OnceLock};

/// Selects which GEMM implementation the kernel drivers run. See the module docs for the
/// contract of each tier; every tier except `FastMath` is `to_bits()`-identical to
/// `Reference`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelTier {
    /// Naive triple loop — the bit-exactness oracle.
    Reference,
    /// PR 4's cache-blocked scalar kernel.
    Blocked,
    /// Register-tile microkernel (bit-exact, autovectorized). The default.
    Simd,
    /// Even/odd k-split partial sums — fast but only ULP-close, never a default.
    FastMath,
}

impl KernelTier {
    /// Every tier, in oracle-first order (handy for equivalence sweeps).
    pub const ALL: [KernelTier; 4] =
        [KernelTier::Reference, KernelTier::Blocked, KernelTier::Simd, KernelTier::FastMath];

    /// The tiers that are bit-identical to [`KernelTier::Reference`].
    pub const BIT_EXACT: [KernelTier; 3] =
        [KernelTier::Reference, KernelTier::Blocked, KernelTier::Simd];

    /// Stable lowercase label (also the `SHIFT_BNN_KERNEL_TIER` spelling).
    pub fn label(self) -> &'static str {
        match self {
            KernelTier::Reference => "reference",
            KernelTier::Blocked => "blocked",
            KernelTier::Simd => "simd",
            KernelTier::FastMath => "fastmath",
        }
    }

    /// Parses a [`KernelTier::label`] back into a tier.
    pub fn parse(label: &str) -> Option<KernelTier> {
        KernelTier::ALL.into_iter().find(|t| t.label() == label)
    }

    /// Resolves a `SHIFT_BNN_KERNEL_TIER` setting to a tier.
    ///
    /// # Panics
    ///
    /// Panics on an unrecognized value, naming every valid spelling — a typo'd CI matrix
    /// leg must fail loudly rather than silently re-test the default tier.
    pub fn from_env_value(value: &str) -> KernelTier {
        KernelTier::parse(value).unwrap_or_else(|| {
            let valid: Vec<&str> = KernelTier::ALL.iter().map(|t| t.label()).collect();
            panic!("unknown SHIFT_BNN_KERNEL_TIER {value:?}; valid tiers are: {}", valid.join(", "))
        })
    }
}

impl Default for KernelTier {
    /// The process-wide default: [`KernelTier::Simd`], unless the `SHIFT_BNN_KERNEL_TIER`
    /// environment variable forces another tier (read once; CI's matrix legs use this).
    ///
    /// # Panics
    ///
    /// Panics on an unrecognized `SHIFT_BNN_KERNEL_TIER` value (see
    /// [`KernelTier::from_env_value`]) — a typo'd CI leg must fail loudly rather than
    /// silently re-test the default tier.
    fn default() -> Self {
        static FORCED: OnceLock<KernelTier> = OnceLock::new();
        *FORCED.get_or_init(|| match std::env::var("SHIFT_BNN_KERNEL_TIER") {
            Ok(v) => KernelTier::from_env_value(&v),
            Err(_) => KernelTier::Simd,
        })
    }
}

/// The kernel selection every driver reads from [`Scratch`]: which GEMM tier to run and how
/// many pool workers an M-split may use (`1` = inline, the zero-allocation default).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelConfig {
    /// The GEMM implementation tier.
    pub tier: KernelTier,
    /// Worker budget for the M-dimension parallel split; `1` runs inline on the calling
    /// thread and is the only setting covered by the zero-allocation contract.
    pub gemm_workers: usize,
}

impl Default for KernelConfig {
    fn default() -> Self {
        Self { tier: KernelTier::default(), gemm_workers: 1 }
    }
}

impl KernelConfig {
    /// A config pinned to one tier with the default inline worker budget.
    pub fn with_tier(tier: KernelTier) -> Self {
        Self { tier, gemm_workers: 1 }
    }
}

/// Column-block width of the blocked GEMM: 256 × 4 bytes = one 1 KiB stripe of `B` per row,
/// so an entire `k × NB` panel of `B` stays cache-resident while the `A` rows stream over it.
const NB: usize = 256;

/// C\[m,n\] += A\[m,k\] · B\[k,n\], row-major, accumulating into whatever `c` already holds
/// (zeros or a bias pre-fill). Per output scalar the `k` terms are added in ascending order
/// into a single accumulator, which is what keeps the result bit-identical to a naive
/// `for k { acc += a*b }` loop; blocking only reorders *which scalars* are worked on, never
/// the order of additions within one scalar.
///
/// # Panics
///
/// Debug-asserts that the slices match the given dimensions.
pub fn gemm_accumulate(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(c.len(), m * n);
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    let mut j0 = 0;
    while j0 < n {
        let nb = NB.min(n - j0);
        // 4-row register tile: four A scalars per loaded B stripe quadruple the arithmetic
        // intensity of the inner loop without touching any scalar's addition order.
        let mut i = 0;
        while i + 4 <= m {
            let (a0, a1, a2, a3) = (
                &a[i * k..(i + 1) * k],
                &a[(i + 1) * k..(i + 2) * k],
                &a[(i + 2) * k..(i + 3) * k],
                &a[(i + 3) * k..(i + 4) * k],
            );
            let (row0, rest) = c[i * n..(i + 4) * n].split_at_mut(n);
            let (row1, rest) = rest.split_at_mut(n);
            let (row2, row3) = rest.split_at_mut(n);
            let t0 = &mut row0[j0..j0 + nb];
            let t1 = &mut row1[j0..j0 + nb];
            let t2 = &mut row2[j0..j0 + nb];
            let t3 = &mut row3[j0..j0 + nb];
            for p in 0..k {
                let (v0, v1, v2, v3) = (a0[p], a1[p], a2[p], a3[p]);
                let brow = &b[p * n + j0..p * n + j0 + nb];
                for (j, &bv) in brow.iter().enumerate() {
                    t0[j] += v0 * bv;
                    t1[j] += v1 * bv;
                    t2[j] += v2 * bv;
                    t3[j] += v3 * bv;
                }
            }
            i += 4;
        }
        while i < m {
            let arow = &a[i * k..(i + 1) * k];
            for (p, &av) in arow.iter().enumerate() {
                let brow = &b[p * n + j0..p * n + j0 + nb];
                let crow = &mut c[i * n + j0..i * n + j0 + nb];
                for (cv, &bv) in crow.iter_mut().zip(brow) {
                    *cv += av * bv;
                }
            }
            i += 1;
        }
        j0 += nb;
    }
}

/// Row count of the SIMD microkernel's register tile.
const MR: usize = 4;
/// Column count of the SIMD microkernel's register tile: 16 f32 lanes = two 256-bit vectors
/// per row, so an `MR×NR` tile is 8 vector registers of accumulators — small enough to stay
/// register-resident, wide enough to hide the per-scalar addition-chain latency with ILP
/// across scalars.
const NR: usize = 16;

/// C\[m,n\] += A·B as one naive triple loop — the bit-exactness oracle every other tier is
/// measured against. Per output scalar: one accumulator seeded from `c`, k-ascending terms.
pub fn gemm_reference(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(c.len(), m * n);
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = c[i * n + j];
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            c[i * n + j] = acc;
        }
    }
}

/// Depth of one k-chunk of the [`KernelTier::Simd`] column-tail panel: the last `n mod 16`
/// columns of B are copied, zero-padded to the full tile width, into a `TAIL_KC × 16` stack
/// panel one chunk at a time.
pub const TAIL_KC: usize = 64;

/// One `ROWS × NR` register tile of the SIMD kernel over `kc` k-terms. `c`, `a` and `b` start
/// at the tile's first element; rows of C and A are `ldc` and `lda` apart, and B's k-rows
/// `ldb` apart, each at least `NR` wide. Accumulators are **loaded from C** (its first
/// `width` lanes), the k-loop adds terms in ascending order, and the `width` lanes are stored
/// back once — so every scalar's addition order is exactly the reference order, while C
/// traffic drops from `2·k` accesses per scalar (the blocked kernel's `t[j] +=` form) to one
/// load and one store. The fixed-size `[f32; NR]` rows are what lets LLVM keep the tile in
/// vector registers; lanes past `width` compute on B's zero padding and are never stored.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn simd_tile<const ROWS: usize>(
    c: &mut [f32],
    ldc: usize,
    width: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    kc: usize,
) {
    let mut acc = [[0.0f32; NR]; ROWS];
    for (r, row) in acc.iter_mut().enumerate() {
        row[..width].copy_from_slice(&c[r * ldc..][..width]);
    }
    for q in 0..kc {
        let brow: &[f32; NR] = b[q * ldb..][..NR].try_into().unwrap();
        for (r, row) in acc.iter_mut().enumerate() {
            let av = a[r * lda + q];
            for (lane, &bv) in row.iter_mut().zip(brow) {
                *lane += av * bv;
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        c[r * ldc..][..width].copy_from_slice(&row[..width]);
    }
}

/// Runs [`simd_tile`] down all `m` rows of one column block: `MR`-row tiles, then single-row
/// tiles for the remainder. `c` starts at the block's first column and `a` at its first
/// k-term; `ldc`/`lda`/`ldb` are as in [`simd_tile`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn simd_block(
    c: &mut [f32],
    ldc: usize,
    width: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    m: usize,
    kc: usize,
) {
    let mut i = 0;
    while i + MR <= m {
        simd_tile::<MR>(&mut c[i * ldc..], ldc, width, &a[i * lda..], lda, b, ldb, kc);
        i += MR;
    }
    while i < m {
        simd_tile::<1>(&mut c[i * ldc..], ldc, width, &a[i * lda..], lda, b, ldb, kc);
        i += 1;
    }
}

/// Scalar fallback for the FastMath tier's column strip narrower than [`NR`]; per-scalar
/// order is still the reference k-ascending order.
fn gemm_scalar_strip(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize, j0: usize) {
    let nb = n - j0;
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let crow = &mut c[i * n + j0..i * n + j0 + nb];
        for (p, &av) in arow.iter().enumerate() {
            let brow = &b[p * n + j0..p * n + j0 + nb];
            for (cv, &bv) in crow.iter_mut().zip(brow) {
                *cv += av * bv;
            }
        }
    }
}

/// Tile sweep shared by both [`gemm_simd`] entry paths. `#[inline(always)]` so that the
/// AVX2 wrapper recompiles the whole sweep — tiles included — under its wider target
/// features instead of calling back into baseline code.
///
/// The last `width = n mod NR` columns run through the same tiles over a zero-padded copy
/// of B's tail columns, built once per [`TAIL_KC`]-deep k-chunk in a stack panel. Each chunk
/// stores its partial sums back to C and the next reloads them; an f32 store and reload is
/// exact, so every scalar still adds its k-terms in ascending order, starting from C.
#[inline(always)]
fn gemm_simd_body(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    let mut j0 = 0;
    while j0 + NR <= n {
        // With m = 0 or k = 0, C or B is empty and no tile touches it. (Returning early on
        // an empty operand instead measured about 25% slower on full-width shapes.)
        let c_block = c.get_mut(j0..).unwrap_or_default();
        let b_block = b.get(j0..).unwrap_or_default();
        simd_block(c_block, n, NR, a, k, b_block, n, m, k);
        j0 += NR;
    }
    let width = n - j0;
    if width == 0 || m == 0 {
        return;
    }
    let mut panel = [[0.0f32; NR]; TAIL_KC];
    let mut p0 = 0;
    while p0 < k {
        let kc = TAIL_KC.min(k - p0);
        for (q, row) in panel[..kc].iter_mut().enumerate() {
            row[..width].copy_from_slice(&b[(p0 + q) * n + j0..][..width]);
        }
        simd_block(&mut c[j0..], n, width, &a[p0..], k, panel.as_flattened(), NR, m, kc);
        p0 += kc;
    }
}

/// [`gemm_simd_body`] recompiled with AVX2 enabled: an `NR = 16` tile row is two 256-bit
/// vectors instead of four 128-bit ones, halving the accumulator register pressure. Lane-wise
/// IEEE multiplies and adds round exactly like their scalar counterparts, so this path is
/// every bit as exact as the portable one — width changes *which registers* hold a scalar's
/// running sum, never the order of its additions. (No FMA: contraction would change
/// rounding, and this tier promises bit-exactness.)
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_simd_avx2(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    gemm_simd_body(c, a, b, m, k, n);
}

/// Returns whether the running CPU has AVX2 (detected once, cached): the guard every
/// `#[target_feature(enable = "avx2")]` copy of a bit-exact loop is dispatched on, in this
/// crate and in `bnn-train`.
#[cfg(target_arch = "x86_64")]
pub fn avx2_available() -> bool {
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

/// Returns whether the running CPU has AVX2 + FMA (detected once, cached): the guard of the
/// FastMath GEMM and of the libm ports in [`crate::transcendental`].
#[cfg(target_arch = "x86_64")]
pub(crate) fn fma_available() -> bool {
    static FMA: OnceLock<bool> = OnceLock::new();
    *FMA.get_or_init(|| {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    })
}

/// The [`KernelTier::Simd`] GEMM: full-width columns go through the register tile
/// (`simd_tile`), remainder rows through the same tile at `ROWS = 1`, remainder columns
/// through the same tiles over a zero-padded panel of B's tail (see `gemm_simd_body`). All
/// paths add every scalar's k-terms in ascending order into one accumulator, so the result
/// is `to_bits()`-identical to [`gemm_reference`] — on the AVX2 fast path exactly as on the
/// portable one (see `gemm_simd_avx2`).
pub fn gemm_simd(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(c.len(), m * n);
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: guarded by runtime AVX2 detection.
        return unsafe { gemm_simd_avx2(c, a, b, m, k, n) };
    }
    gemm_simd_body(c, a, b, m, k, n);
}

/// One `ROWS × NR` tile of the FastMath kernel: the k-loop is split into even/odd partial
/// sums (`acc0` seeded from C, `acc1` from zero) that are combined once at the end. The
/// two independent addition chains double the throughput ceiling per scalar but **reorder
/// the sum** — this tile is deliberately not bit-exact.
#[inline(always)]
fn fastmath_tile<const ROWS: usize>(
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    i0: usize,
    j0: usize,
) {
    let mut acc0 = [[0.0f32; NR]; ROWS];
    let mut acc1 = [[0.0f32; NR]; ROWS];
    for (r, row) in acc0.iter_mut().enumerate() {
        let src: &[f32; NR] = c[(i0 + r) * n + j0..][..NR].try_into().unwrap();
        *row = *src;
    }
    let mut p = 0;
    while p + 2 <= k {
        let brow0: &[f32; NR] = b[p * n + j0..][..NR].try_into().unwrap();
        let brow1: &[f32; NR] = b[(p + 1) * n + j0..][..NR].try_into().unwrap();
        for r in 0..ROWS {
            let av0 = a[(i0 + r) * k + p];
            let av1 = a[(i0 + r) * k + p + 1];
            for j in 0..NR {
                acc0[r][j] += av0 * brow0[j];
                acc1[r][j] += av1 * brow1[j];
            }
        }
        p += 2;
    }
    if p < k {
        let brow: &[f32; NR] = b[p * n + j0..][..NR].try_into().unwrap();
        for (r, row) in acc0.iter_mut().enumerate() {
            let av = a[(i0 + r) * k + p];
            for (lane, &bv) in row.iter_mut().zip(brow) {
                *lane += av * bv;
            }
        }
    }
    for r in 0..ROWS {
        for j in 0..NR {
            c[(i0 + r) * n + j0 + j] = acc0[r][j] + acc1[r][j];
        }
    }
}

/// One `ROWS × NR` tile of the FastMath FMA path: like [`simd_tile`] but each term lands via
/// `f32::mul_add`, i.e. a single-rounded hardware FMA. One fewer rounding per term changes
/// the bits (that is why this lives in the FastMath tier), and doubles the arithmetic
/// throughput per instruction on FMA hardware.
#[inline(always)]
#[cfg(target_arch = "x86_64")]
fn fastmath_fma_tile<const ROWS: usize>(
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    i0: usize,
    j0: usize,
) {
    let mut acc = [[0.0f32; NR]; ROWS];
    for (r, row) in acc.iter_mut().enumerate() {
        let src: &[f32; NR] = c[(i0 + r) * n + j0..][..NR].try_into().unwrap();
        *row = *src;
    }
    for p in 0..k {
        let brow: &[f32; NR] = b[p * n + j0..][..NR].try_into().unwrap();
        for (r, row) in acc.iter_mut().enumerate() {
            let av = a[(i0 + r) * k + p];
            for (lane, &bv) in row.iter_mut().zip(brow) {
                *lane = av.mul_add(bv, *lane);
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        c[(i0 + r) * n + j0..][..NR].copy_from_slice(row);
    }
}

/// The FastMath sweep over FMA tiles, compiled with AVX2+FMA enabled so `mul_add` lowers to
/// `vfmadd` instead of a libm call.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn gemm_fastmath_fma(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    let mut j0 = 0;
    while j0 + NR <= n {
        let mut i = 0;
        while i + MR <= m {
            fastmath_fma_tile::<MR>(c, a, b, k, n, i, j0);
            i += MR;
        }
        while i < m {
            fastmath_fma_tile::<1>(c, a, b, k, n, i, j0);
            i += 1;
        }
        j0 += NR;
    }
    if j0 < n {
        gemm_scalar_strip(c, a, b, m, k, n, j0);
    }
}

/// The portable FastMath sweep: even/odd k-split tiles ([`fastmath_tile`]).
#[inline(always)]
fn gemm_fastmath_body(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    let mut j0 = 0;
    while j0 + NR <= n {
        let mut i = 0;
        while i + MR <= m {
            fastmath_tile::<MR>(c, a, b, k, n, i, j0);
            i += MR;
        }
        while i < m {
            fastmath_tile::<1>(c, a, b, k, n, i, j0);
            i += 1;
        }
        j0 += NR;
    }
    if j0 < n {
        gemm_scalar_strip(c, a, b, m, k, n, j0);
    }
}

/// The [`KernelTier::FastMath`] GEMM. **Not bit-exact**: on FMA hardware every term is
/// contracted into a single-rounded `mul_add`, and the portable fallback reassociates each
/// scalar's sum into even/odd partial chains (see `fastmath_tile`). Either way the result
/// only promises closeness to [`gemm_reference`] within the standard forward-error bound
/// `2·γ_{k+1}·(|c₀| + Σ|aᵢbᵢ|)` (`γ_k = k·ε/(1−k·ε)`, ε = f32 machine epsilon) asserted by
/// `tests/kernel_tiers.rs`. Remainder rows reuse the tiles at `ROWS = 1` and narrow column
/// strips fall back to the (exact) scalar strip, so the 1-vs-N-thread M-split identity still
/// holds for this tier on any given machine.
pub fn gemm_fastmath(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(c.len(), m * n);
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: guarded by runtime AVX2+FMA detection.
        return unsafe { gemm_fastmath_fma(c, a, b, m, k, n) };
    }
    gemm_fastmath_body(c, a, b, m, k, n);
}

/// Serial tier dispatch — the function every M-split chunk runs.
fn gemm_serial(
    tier: KernelTier,
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) {
    match tier {
        KernelTier::Reference => gemm_reference(c, a, b, m, k, n),
        KernelTier::Blocked => gemm_accumulate(c, a, b, m, k, n),
        KernelTier::Simd => gemm_simd(c, a, b, m, k, n),
        KernelTier::FastMath => gemm_fastmath(c, a, b, m, k, n),
    }
}

/// Below this many multiply-accumulates an M-split costs more in thread traffic than it
/// saves; such products always run inline regardless of the worker budget.
const PARALLEL_MIN_MACS: usize = 64 * 1024;

/// The tiered GEMM entry point: dispatches `C += A·B` to the configured [`KernelTier`] and,
/// when `cfg.gemm_workers > 1` and the product is large enough, splits the M dimension into
/// contiguous row chunks across the [`bnn_pool`] workers.
///
/// The split is byte-identical to the serial run for every tier and every worker count:
/// chunks are disjoint row ranges, each chunk runs the identical serial kernel, and no tier's
/// per-scalar result depends on which rows share its chunk (row tiling chooses *which* tile
/// path computes a scalar, but all paths add that scalar's terms in the same order — even
/// FastMath's split is a pure function of `k`, not of the chunk shape).
pub fn gemm_accumulate_tiered(
    cfg: KernelConfig,
    c: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert_eq!(c.len(), m * n);
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    // Profiling hook: the full MAC volume counts on the calling thread, before any split.
    crate::profile::record_gemm(cfg.tier, (m * k * n) as u64);
    let workers = cfg.gemm_workers.max(1);
    if workers == 1 || m < 2 || m * k * n < PARALLEL_MIN_MACS {
        return gemm_serial(cfg.tier, c, a, b, m, k, n);
    }
    // Contiguous row chunks, one per worker; each chunk is a disjoint &mut window of C. The
    // per-chunk mutex is uncontended (each job locks only its own chunk) — it exists to hand
    // a &mut slice through the pool's Fn(&self)-style job closure.
    let chunks = workers.min(m);
    let mut parts: Vec<Mutex<(usize, &mut [f32])>> = Vec::with_capacity(chunks);
    let mut rest = c;
    let mut row = 0;
    for t in 0..chunks {
        let hi = m * (t + 1) / chunks;
        let (head, tail) = rest.split_at_mut((hi - row) * n);
        parts.push(Mutex::new((row, head)));
        rest = tail;
        row = hi;
    }
    bnn_pool::run_indexed(chunks, workers, |t| {
        let mut guard = parts[t].lock().unwrap();
        let (lo, chunk) = &mut *guard;
        let rows = chunk.len() / n;
        gemm_serial(cfg.tier, chunk, &a[*lo * k..(*lo + rows) * k], b, rows, k, n);
    });
}

/// `c[o] += Σ_i w[o, i]·x[i]` for a row-major `[out, in]` weight matrix `w`, with `out =
/// c.len()` and `in = x.len()`: the one linear forward of the Bayesian layers.
///
/// Each output adds its terms in ascending `i` into one accumulator seeded from `c[o]`, the
/// order of the per-row dot loop, so the result is `to_bits()`-identical to that loop. On
/// CPUs with AVX2 each block of eight rows runs in registers: 8×8 blocks of W are transposed
/// with shuffles, and column `i` of a block is multiplied by `x[i]` and added lane-wise into
/// one 8-lane accumulator, as a multiply followed by an add (no FMA, which would round
/// once instead of twice). Row and column tails, and every other CPU, run the per-row dot
/// loop ([`linear_matvec_portable`]). Records nothing in the GEMM profile counters.
///
/// # Panics
///
/// Panics unless `w` holds `c.len() · x.len()` values.
pub fn linear_matvec(c: &mut [f32], w: &[f32], x: &[f32]) {
    assert_linear_shape(c, w, x);
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: guarded by runtime AVX2 detection.
        return unsafe { linear_avx2(c, w, x) };
    }
    dot_rows(c, w, x, 0, 0);
}

/// [`linear_matvec`] on the per-row dot loop alone, whatever the CPU: the path non-AVX2
/// CPUs and the vector path's row and column tails take.
///
/// # Panics
///
/// As [`linear_matvec`].
pub fn linear_matvec_portable(c: &mut [f32], w: &[f32], x: &[f32]) {
    assert_linear_shape(c, w, x);
    dot_rows(c, w, x, 0, 0);
}

fn assert_linear_shape(c: &[f32], w: &[f32], x: &[f32]) {
    let len = c.len().checked_mul(x.len()).expect("weight count overflows usize");
    assert_eq!(w.len(), len, "weights must hold out · in values");
}

/// The per-row dot loop: `c[r] += Σ_{i ≥ from} w[first_row + r, i]·x[i]`, one ascending
/// chain per row.
#[inline(always)]
fn dot_rows(c: &mut [f32], w: &[f32], x: &[f32], first_row: usize, from: usize) {
    let cols = x.len();
    for (r, cv) in c.iter_mut().enumerate() {
        let row = &w[(first_row + r) * cols..(first_row + r + 1) * cols];
        *cv = row[from..].iter().zip(&x[from..]).fold(*cv, |acc, (&wv, &xv)| acc + wv * xv);
    }
}

/// Transposes an 8×8 block held as eight row vectors into eight column vectors.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn transpose8(r: [std::arch::x86_64::__m256; 8]) -> [std::arch::x86_64::__m256; 8] {
    use std::arch::x86_64::*;
    // Interleave row pairs: t0 = r0[0] r1[0] r0[1] r1[1] | r0[4] r1[4] r0[5] r1[5], …
    let t0 = _mm256_unpacklo_ps(r[0], r[1]);
    let t1 = _mm256_unpackhi_ps(r[0], r[1]);
    let t2 = _mm256_unpacklo_ps(r[2], r[3]);
    let t3 = _mm256_unpackhi_ps(r[2], r[3]);
    let t4 = _mm256_unpacklo_ps(r[4], r[5]);
    let t5 = _mm256_unpackhi_ps(r[4], r[5]);
    let t6 = _mm256_unpacklo_ps(r[6], r[7]);
    let t7 = _mm256_unpackhi_ps(r[6], r[7]);
    // Gather four rows per column: s0 = r0..r3 of columns 0 | 4, s1 = columns 1 | 5, …
    let s0 = _mm256_shuffle_ps::<0x44>(t0, t2);
    let s1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
    let s2 = _mm256_shuffle_ps::<0x44>(t1, t3);
    let s3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
    let s4 = _mm256_shuffle_ps::<0x44>(t4, t6);
    let s5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
    let s6 = _mm256_shuffle_ps::<0x44>(t5, t7);
    let s7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
    // Join the 128-bit halves: rows 0–3 from the low lanes, rows 4–7 from the high ones.
    [
        _mm256_permute2f128_ps::<0x20>(s0, s4),
        _mm256_permute2f128_ps::<0x20>(s1, s5),
        _mm256_permute2f128_ps::<0x20>(s2, s6),
        _mm256_permute2f128_ps::<0x20>(s3, s7),
        _mm256_permute2f128_ps::<0x31>(s0, s4),
        _mm256_permute2f128_ps::<0x31>(s1, s5),
        _mm256_permute2f128_ps::<0x31>(s2, s6),
        _mm256_permute2f128_ps::<0x31>(s3, s7),
    ]
}

/// The AVX2 body of [`linear_matvec`]: per block of eight rows, one 8-lane accumulator loaded
/// from C takes the transposed columns of each 8×8 weight block in ascending column order;
/// the column tail then continues each row's chain on the per-row dot loop, after the
/// accumulator's exact f32 store, and the row tail runs on that loop alone.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn linear_avx2(c: &mut [f32], w: &[f32], x: &[f32]) {
    use std::arch::x86_64::*;
    let cols = x.len();
    let full_rows = c.len() - c.len() % 8;
    let (body, row_tail) = c.split_at_mut(full_rows);
    for (block, c8) in body.chunks_exact_mut(8).enumerate() {
        let o0 = block * 8;
        let rows: [&[f32]; 8] = std::array::from_fn(|k| &w[(o0 + k) * cols..(o0 + k + 1) * cols]);
        // SAFETY: `c8` is an 8-float chunk, so the unaligned 8-lane load stays inside it.
        let mut acc = unsafe { _mm256_loadu_ps(c8.as_ptr()) };
        let mut i0 = 0;
        while i0 + 8 <= cols {
            let mut tile = [_mm256_setzero_ps(); 8];
            for (lanes, row) in tile.iter_mut().zip(rows) {
                let segment: &[f32; 8] = row[i0..i0 + 8].try_into().expect("an 8-weight segment");
                // SAFETY: `segment` is an `[f32; 8]`, exactly one unaligned 8-lane load.
                *lanes = unsafe { _mm256_loadu_ps(segment.as_ptr()) };
            }
            let xs: &[f32; 8] = x[i0..i0 + 8].try_into().expect("an 8-value x segment");
            for (column, &xv) in transpose8(tile).into_iter().zip(xs) {
                acc = _mm256_add_ps(acc, _mm256_mul_ps(column, _mm256_set1_ps(xv)));
            }
            i0 += 8;
        }
        // SAFETY: `c8` is an 8-float chunk, so the unaligned 8-lane store stays inside it.
        unsafe { _mm256_storeu_ps(c8.as_mut_ptr(), acc) };
        dot_rows(c8, w, x, o0, i0);
    }
    dot_rows(row_tail, w, x, full_rows, 0);
}

/// C\[m,n\] += Aᵀ · B where `a` is `[k, m]` and `b` is `[k, n]`, both row-major. Terms are
/// accumulated `p`-ascending per scalar (the `p`-outer rank-1-update form), matching
/// `a.transpose2().matmul(b)` bit for bit without materializing the transpose.
pub fn gemm_at_accumulate(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(c.len(), m * n);
    debug_assert_eq!(a.len(), k * m);
    debug_assert_eq!(b.len(), k * n);
    for p in 0..k {
        let arow = &a[p * m..(p + 1) * m];
        let brow = &b[p * n..(p + 1) * n];
        for (i, &av) in arow.iter().enumerate() {
            let crow = &mut c[i * n..(i + 1) * n];
            for (cv, &bv) in crow.iter_mut().zip(brow) {
                *cv += av * bv;
            }
        }
    }
}

/// C\[m,n\] += A · Bᵀ where `a` is `[m, k]` and `b` is `[n, k]`, both row-major: every output
/// scalar is a dot product of two contiguous rows, accumulated `p`-ascending in one scalar
/// accumulator (no multi-lane unrolling — splitting the accumulator would reorder the sum).
pub fn gemm_bt_accumulate(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    debug_assert_eq!(c.len(), m * n);
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let brow = &b[j * k..(j + 1) * k];
            let mut acc = c[i * n + j];
            for (&av, &bv) in arow.iter().zip(brow) {
                acc += av * bv;
            }
            c[i * n + j] = acc;
        }
    }
}

/// The output positions `o < out` whose input tap `o·stride + tap − pad` lands inside
/// `0..len`, as a half-open range — empty when every such tap falls in the padding.
fn outputs_in_bounds(
    tap: usize,
    pad: usize,
    stride: usize,
    len: usize,
    out: usize,
) -> (usize, usize) {
    let lo = pad.saturating_sub(tap).div_ceil(stride).min(out);
    let hi = match (len + pad).checked_sub(tap + 1) {
        Some(span) => (span / stride + 1).min(out),
        None => 0,
    };
    (lo, hi.max(lo))
}

/// Packs `input` (`[N, H, W]` data) into the im2col matrix `[N·K·K, OH·OW]` — the B panel
/// of [`conv2d_forward_packed`]: row `(ic, ky, kx)`, column `(oy, ox)`, out-of-bounds taps
/// as `0.0`. Row order `(ic, ky, kx)` is exactly the accumulation order of the reference
/// forward loop. `col` holds [`ConvGeometry::panel_len`] floats.
///
/// A stride-1 convolution whose output is as wide as its input (`K = 2·pad + 1`, every
/// conv of the B-LeNet proxy) packs each row as one shifted copy of the input plane
/// (`pack_shifted_rows`). Every other geometry packs per output row: a row's in-bounds
/// outputs form one range per axis (`outputs_in_bounds`), so each output row's segment is
/// a zero fill, one copy (a slice copy at unit stride) and a zero fill instead of a bounds
/// check per element. Both write the same values, so the panel is the same either way.
pub fn pack_im2col(geom: &ConvGeometry, input: &[f32], h: usize, w: usize, col: &mut [f32]) {
    let (n, k, stride, pad) = (geom.in_channels, geom.kernel, geom.stride, geom.padding);
    let (oh, ow) = geom.output_size(h, w);
    let cols = oh * ow;
    debug_assert_eq!(input.len(), n * h * w);
    debug_assert_eq!(col.len(), n * k * k * cols);
    if stride == 1 && ow == w {
        pack_shifted_rows(geom, input, h, w, col);
        return;
    }
    for ic in 0..n {
        let plane = &input[ic * h * w..(ic + 1) * h * w];
        for ky in 0..k {
            let (y_lo, y_hi) = outputs_in_bounds(ky, pad, stride, h, oh);
            for kx in 0..k {
                let (x_lo, x_hi) = outputs_in_bounds(kx, pad, stride, w, ow);
                let row = &mut col[((ic * k + ky) * k + kx) * cols..][..cols];
                if x_lo == x_hi {
                    row.fill(0.0);
                    continue;
                }
                row[..y_lo * ow].fill(0.0);
                row[y_hi * ow..].fill(0.0);
                let x_first = x_lo * stride + kx - pad;
                for oy in y_lo..y_hi {
                    let src = &plane[(oy * stride + ky - pad) * w + x_first..];
                    let dst = &mut row[oy * ow..(oy + 1) * ow];
                    dst[..x_lo].fill(0.0);
                    dst[x_hi..].fill(0.0);
                    let dst = &mut dst[x_lo..x_hi];
                    if stride == 1 {
                        dst.copy_from_slice(&src[..dst.len()]);
                    } else {
                        for (d, &v) in dst.iter_mut().zip(src.iter().step_by(stride)) {
                            *d = v;
                        }
                    }
                }
            }
        }
    }
}

/// [`pack_im2col`] for a stride-1 convolution whose output is its input's size. Row
/// `(ic, ky, kx)` at flat column `j = oy·W + ox` holds `plane[j + (ky − pad)·W + kx − pad]`
/// wherever that tap is in bounds: the plane shifted by a constant, so the row is zeros,
/// one copy from the first in-bounds tap to the last, and zeros. Inside the copy, the
/// `|kx − pad|` columns between two output rows read taps that wrapped into the next or
/// previous input row, and are zeroed after it.
fn pack_shifted_rows(geom: &ConvGeometry, input: &[f32], h: usize, w: usize, col: &mut [f32]) {
    let (k, pad, hw) = (geom.kernel, geom.padding, h * w);
    for (plane, rows) in input.chunks_exact(hw).zip(col.chunks_exact_mut(k * k * hw)) {
        for (tap, row) in rows.chunks_exact_mut(hw).enumerate() {
            let (ky, kx) = (tap / k, tap % k);
            let (y_lo, y_hi) = outputs_in_bounds(ky, pad, 1, h, h);
            let (x_lo, x_hi) = outputs_in_bounds(kx, pad, 1, w, w);
            if y_lo == y_hi || x_lo == x_hi {
                row.fill(0.0);
                continue;
            }
            let (start, end) = (y_lo * w + x_lo, (y_hi - 1) * w + x_hi);
            let src = (y_lo + ky - pad) * w + x_lo + kx - pad;
            row[..start].fill(0.0);
            row[start..end].copy_from_slice(&plane[src..src + (end - start)]);
            row[end..].fill(0.0);
            if x_hi - x_lo < w {
                for oy in y_lo..y_hi - 1 {
                    row[oy * w + x_hi..(oy + 1) * w + x_lo].fill(0.0);
                }
            }
        }
    }
}

/// Packs `input` (`[N, H, W]` data) into the im2row matrix `[OH·OW, N·K·K]` (one contiguous
/// patch per output pixel) — the transpose of [`pack_im2col`], the B panel of
/// [`conv2d_backward_weights_packed`], so the weight gradient's k-dimension enumerates output
/// pixels in raster order. `row_mat` holds [`ConvGeometry::panel_len`] floats.
pub fn pack_im2row(geom: &ConvGeometry, input: &[f32], h: usize, w: usize, row_mat: &mut [f32]) {
    let (n, k) = (geom.in_channels, geom.kernel);
    let (stride, pad) = (geom.stride as isize, geom.padding as isize);
    let (oh, ow) = geom.output_size(h, w);
    let patch = n * k * k;
    debug_assert_eq!(input.len(), n * h * w);
    debug_assert_eq!(row_mat.len(), oh * ow * patch);
    for oy in 0..oh {
        for ox in 0..ow {
            let dst = &mut row_mat[(oy * ow + ox) * patch..][..patch];
            let mut q = 0;
            for ic in 0..n {
                let plane = &input[ic * h * w..(ic + 1) * h * w];
                for ky in 0..k {
                    let iy = oy as isize * stride + ky as isize - pad;
                    if iy < 0 || iy >= h as isize {
                        dst[q..q + k].fill(0.0);
                        q += k;
                        continue;
                    }
                    let src = &plane[iy as usize * w..(iy as usize + 1) * w];
                    for kx in 0..k {
                        let ix = ox as isize * stride + kx as isize - pad;
                        dst[q] = if ix < 0 || ix >= w as isize { 0.0 } else { src[ix as usize] };
                        q += 1;
                    }
                }
            }
        }
    }
}

/// Forward convolution into a caller-provided output tensor (shape `[M, OH, OW]`, any prior
/// contents overwritten): [`pack_im2col`] into a scratch panel, then
/// [`conv2d_forward_packed`]. Bit-identical to [`crate::conv::reference::conv2d_forward`].
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] on inconsistent operand shapes.
pub fn conv2d_forward_into(
    geom: &ConvGeometry,
    input: &Tensor,
    weights: &Tensor,
    bias: &Tensor,
    out: &mut Tensor,
    scratch: &mut Scratch,
) -> Result<(), TensorError> {
    let (h, w) = geom.input_hw(input.shape())?;
    let mut col = scratch.take_f32(geom.panel_len(h, w));
    pack_im2col(geom, input.data(), h, w, &mut col);
    let result = conv2d_forward_packed(geom, &col, weights, bias, out.data_mut(), scratch);
    scratch.put_f32(col);
    result
}

/// The forward GEMM over an im2col panel from [`pack_im2col`]: seeds every output scalar of
/// `out` (the `[M, OH, OW]` values, row-major, any prior contents overwritten) with its
/// channel bias and adds `weights · col`. A caller whose input repeats packs it once and
/// calls this per kernel; `out` may be one sample's slice of a stacked output.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when `weights` or `bias` does not match `geom`.
pub fn conv2d_forward_packed(
    geom: &ConvGeometry,
    col: &[f32],
    weights: &Tensor,
    bias: &Tensor,
    out: &mut [f32],
    scratch: &mut Scratch,
) -> Result<(), TensorError> {
    let (n, m, k) = (geom.in_channels, geom.out_channels, geom.kernel);
    expect_shape(weights, &[m, n, k, k])?;
    expect_shape(bias, &[m])?;
    let kk = n * k * k;
    let cols = out.len() / m;
    debug_assert_eq!(out.len(), m * cols);
    debug_assert_eq!(col.len(), kk * cols);

    // Seed every output scalar with its channel bias — the reference loop starts `acc = b`.
    for om in 0..m {
        out[om * cols..(om + 1) * cols].fill(bias.data()[om]);
    }
    // Weights are already `[M, (ic, ky, kx)]` row-major: the GEMM A operand needs no packing.
    gemm_accumulate_tiered(scratch.kernel(), out, weights.data(), col, m, kk, cols);
    Ok(())
}

/// Input-gradient convolution into a caller-provided `[N, H, W]` tensor, bit-identical to
/// [`crate::conv::reference::conv2d_backward_input`].
///
/// The scatter loop of the reference accumulates into each input pixel in `(om, oy, ox)`
/// order. That is exactly the `(om, ky′, kx′)`-ordered k-dimension of a unit-stride
/// convolution over the *dilated* output gradient (stride−1 zeros between elements, embedded
/// with a `k−1−pad` border) with 180°-rotated, axis-swapped kernels — so the same
/// im2col+GEMM machinery applies. At stride 1 there is nothing to dilate, and the panel is
/// packed straight from the output gradient at padding `k−1−pad`; only strides above 1
/// build the dilated copy. Geometries with `padding ≥ kernel` (which never occur in the
/// paper's models) fall back to the reference scatter.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] on inconsistent operand shapes.
pub fn conv2d_backward_input_into(
    geom: &ConvGeometry,
    grad_output: &Tensor,
    weights: &Tensor,
    input_h: usize,
    input_w: usize,
    grad_in: &mut Tensor,
    scratch: &mut Scratch,
) -> Result<(), TensorError> {
    let (n, m, k) = (geom.in_channels, geom.out_channels, geom.kernel);
    let (oh, ow) = geom.output_size(input_h, input_w);
    expect_shape(grad_output, &[m, oh, ow])?;
    expect_shape(weights, &[m, n, k, k])?;
    debug_assert_eq!(grad_in.shape(), &[n, input_h, input_w]);

    if geom.padding >= k {
        // Degenerate geometry outside the dilated-convolution formulation's domain.
        let reference = crate::conv::reference::conv2d_backward_input(
            geom,
            grad_output,
            weights,
            input_h,
            input_w,
        )?;
        grad_in.data_mut().copy_from_slice(reference.data());
        return Ok(());
    }

    // 1. Rotate + axis-swap the kernels: A[ic, (om, ky′, kx′)] = w[om, ic, k−1−ky′, k−1−kx′].
    let kk = m * k * k;
    let mut rot = scratch.take_f32(n * kk);
    let w_d = weights.data();
    for ic in 0..n {
        for om in 0..m {
            for ky in 0..k {
                for kx in 0..k {
                    rot[(ic * m + om) * k * k + ky * k + kx] =
                        w_d[((om * n + ic) * k + (k - 1 - ky)) * k + (k - 1 - kx)];
                }
            }
        }
    }

    // 2. The im2col panel of D, the output gradient embedded with stride − 1 zeros between
    //    elements and a border of k − 1 − pad: D[om, oy·s + border, ox·s + border] =
    //    go[om, oy, ox], everything else 0. A unit-stride valid convolution of D has output
    //    extent exactly [input_h, input_w]. At stride 1, D is the gradient zero-padded by the
    //    border, so its panel is the gradient's own im2col at padding `border`.
    let border = k - 1 - geom.padding;
    let cols = input_h * input_w;
    let mut col = scratch.take_f32(kk * cols);
    let go = grad_output.data();
    let padded =
        ConvGeometry { in_channels: m, out_channels: n, kernel: k, stride: 1, padding: border };
    if geom.stride == 1 {
        pack_im2col(&padded, go, oh, ow, &mut col);
    } else {
        let (dh, dw) = (input_h + k - 1, input_w + k - 1);
        let mut dilated = scratch.take_f32(m * dh * dw);
        for om in 0..m {
            let plane = &mut dilated[om * dh * dw..(om + 1) * dh * dw];
            for oy in 0..oh {
                let y = oy * geom.stride + border;
                for ox in 0..ow {
                    plane[y * dw + ox * geom.stride + border] = go[(om * oh + oy) * ow + ox];
                }
            }
        }
        pack_im2col(&ConvGeometry { padding: 0, ..padded }, &dilated, dh, dw, &mut col);
        scratch.put_f32(dilated);
    }

    let gi = grad_in.data_mut();
    gi.fill(0.0);
    gemm_accumulate_tiered(scratch.kernel(), gi, &rot, &col, n, kk, cols);

    scratch.put_f32(col);
    scratch.put_f32(rot);
    Ok(())
}

/// Weight/bias-gradient convolution into caller-provided `[M, N, K, K]` / `[M]` tensors:
/// [`pack_im2row`] into a scratch panel, then [`conv2d_backward_weights_packed`].
/// Bit-identical to [`crate::conv::reference::conv2d_backward_weights`].
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] on inconsistent operand shapes.
pub fn conv2d_backward_weights_into(
    geom: &ConvGeometry,
    input: &Tensor,
    grad_output: &Tensor,
    grad_w: &mut Tensor,
    grad_b: &mut Tensor,
    scratch: &mut Scratch,
) -> Result<(), TensorError> {
    let (h, w) = geom.input_hw(input.shape())?;
    let (oh, ow) = geom.output_size(h, w);
    expect_shape(grad_output, &[geom.out_channels, oh, ow])?;
    let mut rows = scratch.take_f32(geom.panel_len(h, w));
    pack_im2row(geom, input.data(), h, w, &mut rows);
    conv2d_backward_weights_packed(geom, &rows, grad_output, grad_w, grad_b, scratch);
    scratch.put_f32(rows);
    Ok(())
}

/// The weight/bias-gradient GEMM over an im2row panel from [`pack_im2row`], for a
/// `grad_output` of shape `[M, OH, OW]` matching the packed input: the GEMM k-dimension
/// enumerates output pixels in raster order, matching the reference's `(oy, ox)`
/// accumulation. A caller whose input repeats packs it once and calls this per gradient.
pub fn conv2d_backward_weights_packed(
    geom: &ConvGeometry,
    rows: &[f32],
    grad_output: &Tensor,
    grad_w: &mut Tensor,
    grad_b: &mut Tensor,
    scratch: &mut Scratch,
) {
    let (n, m, k) = (geom.in_channels, geom.out_channels, geom.kernel);
    let patch = n * k * k;
    let pixels = grad_output.len() / m;
    debug_assert_eq!(grad_output.shape()[0], m);
    debug_assert_eq!(rows.len(), pixels * patch);
    debug_assert_eq!(grad_w.shape(), &[m, n, k, k]);
    debug_assert_eq!(grad_b.shape(), &[m]);

    let go = grad_output.data();
    let gb = grad_b.data_mut();
    for om in 0..m {
        let mut acc = 0.0f32;
        for &g in &go[om * pixels..(om + 1) * pixels] {
            acc += g;
        }
        gb[om] = acc;
    }

    let gw = grad_w.data_mut();
    gw.fill(0.0);
    gemm_accumulate_tiered(scratch.kernel(), gw, go, rows, m, pixels, patch);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tensor(shape: &[usize], f: impl Fn(usize) -> f32) -> Tensor {
        let len = shape.iter().product();
        Tensor::from_vec(shape.to_vec(), (0..len).map(f).collect()).unwrap()
    }

    #[test]
    fn gemm_matches_naive_bitwise() {
        let (m, k, n) = (5, 7, 300); // n > NB exercises column blocking
        let a = tensor(&[m, k], |i| ((i as f32) * 0.17).sin());
        let b = tensor(&[k, n], |i| ((i as f32) * 0.09).cos());
        let mut c = vec![0.0f32; m * n];
        gemm_accumulate(&mut c, a.data(), b.data(), m, k, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a.data()[i * k + p] * b.data()[p * n + j];
                }
                assert_eq!(c[i * n + j].to_bits(), acc.to_bits(), "({i},{j})");
            }
        }
    }

    #[test]
    fn gemm_at_matches_transpose_then_matmul_bitwise() {
        let (k, m, n) = (6, 4, 9);
        let a = tensor(&[k, m], |i| (i as f32 * 0.31).sin());
        let b = tensor(&[k, n], |i| (i as f32 * 0.23).cos());
        let expect = a.transpose2().matmul(&b).unwrap();
        let mut c = vec![0.0f32; m * n];
        gemm_at_accumulate(&mut c, a.data(), b.data(), m, k, n);
        for (got, want) in c.iter().zip(expect.data()) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn gemm_bt_matches_matmul_of_transpose_bitwise() {
        let (m, k, n) = (3, 11, 5);
        let a = tensor(&[m, k], |i| (i as f32 * 0.13).sin());
        let b = tensor(&[n, k], |i| (i as f32 * 0.29).cos());
        let expect = a.matmul(&b.transpose2()).unwrap();
        let mut c = vec![0.0f32; m * n];
        gemm_bt_accumulate(&mut c, a.data(), b.data(), m, k, n);
        for (got, want) in c.iter().zip(expect.data()) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn conv_forward_into_matches_reference_bitwise() {
        let geom =
            ConvGeometry { in_channels: 3, out_channels: 5, kernel: 3, stride: 2, padding: 1 };
        let input = tensor(&[3, 9, 11], |i| (i as f32 * 0.7).sin());
        let weights = tensor(&[5, 3, 3, 3], |i| (i as f32 * 0.11).cos() * 0.4);
        let bias = tensor(&[5], |i| i as f32 * 0.05 - 0.1);
        let expect =
            crate::conv::reference::conv2d_forward(&geom, &input, &weights, &bias).unwrap();
        // Pin a bit-exact tier explicitly: the bitwise contract holds for every tier in
        // `KernelTier::BIT_EXACT` but not under a `SHIFT_BNN_KERNEL_TIER=fastmath` process
        // default (the CI tier matrix runs exactly that).
        let mut scratch = Scratch::new();
        scratch.set_kernel(KernelConfig { tier: KernelTier::Simd, gemm_workers: 1 });
        let mut out = scratch.take_tensor(expect.shape());
        conv2d_forward_into(&geom, &input, &weights, &bias, &mut out, &mut scratch).unwrap();
        for (got, want) in out.data().iter().zip(expect.data()) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }

    #[test]
    fn degenerate_padding_falls_back_to_reference_bitwise() {
        // padding >= kernel is outside the dilated-gather formulation's domain; the driver
        // must detect it and reproduce the reference scatter exactly.
        let geom =
            ConvGeometry { in_channels: 2, out_channels: 3, kernel: 2, stride: 1, padding: 3 };
        let (h, w) = (5, 4);
        let (oh, ow) = geom.output_size(h, w);
        let weights = tensor(&[3, 2, 2, 2], |i| (i as f32 * 0.23).cos() * 0.5);
        let grad_out = tensor(&[3, oh, ow], |i| (i as f32 * 0.31).sin());
        let want = crate::conv::reference::conv2d_backward_input(&geom, &grad_out, &weights, h, w)
            .unwrap();
        let mut scratch = Scratch::new();
        let mut got = scratch.take_tensor(&[2, h, w]);
        conv2d_backward_input_into(&geom, &grad_out, &weights, h, w, &mut got, &mut scratch)
            .unwrap();
        for (g, t) in got.data().iter().zip(want.data()) {
            assert_eq!(g.to_bits(), t.to_bits());
        }
    }

    #[test]
    fn conv_backward_into_matches_reference_bitwise() {
        let geom =
            ConvGeometry { in_channels: 2, out_channels: 4, kernel: 3, stride: 2, padding: 1 };
        let (h, w) = (8, 7);
        let input = tensor(&[2, h, w], |i| (i as f32 * 0.37).sin());
        let weights = tensor(&[4, 2, 3, 3], |i| (i as f32 * 0.19).cos() * 0.3);
        let (oh, ow) = geom.output_size(h, w);
        let grad_out = tensor(&[4, oh, ow], |i| (i as f32 * 0.41).sin());

        let expect_gi =
            crate::conv::reference::conv2d_backward_input(&geom, &grad_out, &weights, h, w)
                .unwrap();
        let (expect_gw, expect_gb) =
            crate::conv::reference::conv2d_backward_weights(&geom, &input, &grad_out).unwrap();

        // Pinned bit-exact tier, as in the forward test: the CI tier matrix forces fastmath
        // via the environment, which is outside this test's bitwise contract.
        let mut scratch = Scratch::new();
        scratch.set_kernel(KernelConfig { tier: KernelTier::Simd, gemm_workers: 1 });
        let mut gi = scratch.take_tensor(expect_gi.shape());
        conv2d_backward_input_into(&geom, &grad_out, &weights, h, w, &mut gi, &mut scratch)
            .unwrap();
        let mut gw = scratch.take_tensor(expect_gw.shape());
        let mut gb = scratch.take_tensor(expect_gb.shape());
        conv2d_backward_weights_into(&geom, &input, &grad_out, &mut gw, &mut gb, &mut scratch)
            .unwrap();

        for (got, want) in gi.data().iter().zip(expect_gi.data()) {
            assert_eq!(got.to_bits(), want.to_bits(), "grad input");
        }
        for (got, want) in gw.data().iter().zip(expect_gw.data()) {
            assert_eq!(got.to_bits(), want.to_bits(), "grad weights");
        }
        for (got, want) in gb.data().iter().zip(expect_gb.data()) {
            assert_eq!(got.to_bits(), want.to_bits(), "grad bias");
        }
    }
}
