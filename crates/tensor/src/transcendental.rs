//! The per-weight transcendentals of the variational σ terms: bit-exact AVX2+FMA ports of the
//! host libm's `expf`, `log1pf` and `log`, and the two passes built on them.
//!
//! * [`sigma_pass`] writes `e = exp(−|ρ|)` and `σ = softplus(ρ)` for every ρ;
//! * [`ln_pass`] writes `(σ as f64).ln()` for every σ.
//!
//! # The contract
//!
//! Every value a pass writes is the host libm's value bit for bit: [`sigma_pass`] writes what
//! [`sigma_pass_libm`] writes and [`ln_pass`] what [`ln_pass_libm`] writes. Those two define
//! the values. They call `f32::exp`, `f32::ln_1p` and `f64::ln`, which glibc 2.36 resolves on
//! an AVX2+FMA CPU to `__expf_fma`, fdlibm's `log1pf` (which has no FMA variant) and
//! `__log_fma`. Each of the three is a short, fixed sequence of IEEE-754 operations on table
//! and polynomial constants. The ports below perform the same operations in the same order on
//! the same constants, one input per lane, so every lane rounds as the scalar call does. The
//! sequences were read from the machine code of Debian's glibc 2.36-9+deb12u14 `libm.so.6`
//! (`__expf_fma` at 0x72ba0, `log1pf`'s body at 0x40660, `__log_fma` at 0x6eda0) and the
//! constants from its read-only data.
//!
//! # When the ports run
//!
//! * On x86_64 with AVX2 and FMA the passes run the ports 8 weights at a time. Everywhere
//!   else they run the scalar expressions. On a CPU without FMA glibc picks its non-FMA
//!   variants, whose bits can differ from the ports', so libm is the only correct path there.
//! * An 8-weight chunk with any lane outside a port's domain runs the scalar expressions for
//!   that chunk, and so does the tail of fewer than 8 weights. The domains:
//!   - `exp` and `log1pf` run where −20 ≤ ρ < 0, the branch where σ is `log1pf(e)`, and
//!     `bits(e) < 0x3ed413d7`, fdlibm's k = 0 branch (`e` below √2 − 1, so ρ below about
//!     −0.8814). That branch starts at 2⁻²⁹, and ρ ≥ −20 keeps `e ≥ exp(−20) > 2⁻²⁹`.
//!   - `log` runs on positive finite σ outside glibc's near-1 window `[1 − 2⁻⁴, 1 + 0x1.09p−4)`,
//!     where `__log_fma` takes another path.
//!
//!   Every weight of a network started at the default `init_rho = −4` is in both domains.
//! * No option, environment variable or kernel tier selects the path: the CPU does.
//!
//! # Layout
//!
//! The σ pass runs `exp` over the whole tensor into `e`, then `log1pf` from `e` into σ. One
//! loop that kept `e` in registers and ran both per chunk measured slower: 2.45 against 1.80
//! ns per weight on the B-MLP and B-LeNet proxies' weight counts (EXPERIMENTS.md, "Vector σ
//! refill"). The ln pass is separate because it belongs to the training tier of
//! `bnn_train`'s cache: a serving replica fills σ only.
//!
//! # Credits
//!
//! `expf` and `log` are Arm's optimized-routines (`math/expf.c`, `math/exp2f_data.c`,
//! `math/log.c`, `math/log_data.c`; Copyright (c) 2017-2018, Arm Limited; MIT OR
//! Apache-2.0 WITH LLVM-exception), which glibc ships as `__expf_fma` and `__log_fma`.
//! `log1pf` is fdlibm's `s_log1pf.c` (conversion to float by Ian Lance Taylor, Cygnus
//! Support), under Sun's notice:
//!
//! > Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//! >
//! > Developed at SunPro, a Sun Microsystems, Inc. business.
//! > Permission to use, copy, modify, and distribute this
//! > software is freely granted, provided that this notice
//! > is preserved.

use crate::activation::softplus;
#[cfg(target_arch = "x86_64")]
use crate::kernels::fma_available;

/// Writes `e = exp(−|ρ|)` and `σ = softplus(ρ)` for every ρ, bit for bit as
/// [`sigma_pass_libm`] does: through the ports 8 weights at a time on AVX2+FMA CPUs, through
/// libm elsewhere (see the module docs).
///
/// # Panics
///
/// Panics if `e` or `sigma` is not as long as `rho`.
pub fn sigma_pass(rho: &[f32], e: &mut [f32], sigma: &mut [f32]) {
    assert_eq!(e.len(), rho.len(), "one e per ρ");
    assert_eq!(sigma.len(), rho.len(), "one σ per ρ");
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: guarded by runtime AVX2+FMA detection.
        return unsafe { ports::sigma_pass(rho, e, sigma) };
    }
    exp_neg_abs(rho, e);
    softplus_from_exp(rho, e, sigma);
}

/// Writes `(σ as f64).ln()` for every σ, bit for bit as [`ln_pass_libm`] does: through the
/// port 8 weights at a time on AVX2+FMA CPUs, through libm elsewhere (see the module docs).
///
/// # Panics
///
/// Panics if `ln_sigma` is not as long as `sigma`.
pub fn ln_pass(sigma: &[f32], ln_sigma: &mut [f64]) {
    assert_eq!(ln_sigma.len(), sigma.len(), "one ln σ per σ");
    #[cfg(target_arch = "x86_64")]
    if fma_available() {
        // SAFETY: guarded by runtime AVX2+FMA detection.
        return unsafe { ports::ln_pass(sigma, ln_sigma) };
    }
    ln_pass_libm(sigma, ln_sigma);
}

/// The definition of [`sigma_pass`]'s values, through libm on every CPU: `e = exp(−|ρ|)` with
/// `f32::exp`, then σ from it (`e` for ρ < −20, `e.ln_1p()` for −20 ≤ ρ < 0, `softplus(ρ)`
/// for ρ ≥ 0 and NaN), which is `softplus(ρ)` bit for bit.
///
/// # Panics
///
/// Panics if `e` or `sigma` is not as long as `rho`.
pub fn sigma_pass_libm(rho: &[f32], e: &mut [f32], sigma: &mut [f32]) {
    assert_eq!(e.len(), rho.len(), "one e per ρ");
    assert_eq!(sigma.len(), rho.len(), "one σ per ρ");
    exp_neg_abs(rho, e);
    softplus_from_exp(rho, e, sigma);
}

/// The definition of [`ln_pass`]'s values: `(σ as f64).ln()` with libm's `f64::ln`.
///
/// # Panics
///
/// Panics if `ln_sigma` is not as long as `sigma`.
pub fn ln_pass_libm(sigma: &[f32], ln_sigma: &mut [f64]) {
    assert_eq!(ln_sigma.len(), sigma.len(), "one ln σ per σ");
    for (l, &s) in ln_sigma.iter_mut().zip(sigma) {
        *l = (s as f64).ln();
    }
}

/// `e = exp(−|ρ|)` per weight, as sigmoid takes it: `exp(−ρ)` for ρ ≥ 0, and otherwise
/// `exp(ρ)`, the exponential softplus also begins with. A NaN ρ takes the second branch, as
/// in sigmoid, so its `e` keeps the NaN's sign.
fn exp_neg_abs(rho: &[f32], e: &mut [f32]) {
    for (e, &r) in e.iter_mut().zip(rho) {
        *e = if r >= 0.0 { -r } else { r }.exp();
    }
}

/// `σ = softplus(ρ)` per weight from its `e = exp(−|ρ|)`.
fn softplus_from_exp(rho: &[f32], e: &[f32], sigma: &mut [f32]) {
    for ((s, &r), &e) in sigma.iter_mut().zip(rho).zip(e) {
        // softplus(ρ) with its own exp(ρ) already in `e`; ρ ≥ 0 (where `e` is exp(−ρ)) and
        // NaN take softplus itself.
        *s = if r < -20.0 {
            e
        } else if r < 0.0 {
            e.ln_1p()
        } else {
            softplus(r)
        };
    }
}

/// The AVX2+FMA ports and the vector passes over them.
#[cfg(target_arch = "x86_64")]
mod ports {
    use std::arch::x86_64::*;

    /// `expf`'s `N / ln 2` with `N = 32` table entries.
    const INV_LN2_N: f64 = f64::from_bits(0x40471547652b82fe);
    /// `expf`'s round-to-integer shift, `0x1.8p52`.
    const SHIFT: f64 = f64::from_bits(0x4338000000000000);
    /// `expf`'s polynomial coefficients `C0..C2` for `2^(r/N) ≈ 1 + C2·r + C1·r² + C0·r³`.
    const EXP_C: [f64; 3] = [
        f64::from_bits(0x3ebc6af84b912394),
        f64::from_bits(0x3f2ebfce50fac4f3),
        f64::from_bits(0x3f962e42ff0c52d6),
    ];
    /// `expf`'s `2^(i/N)` table, as bit patterns with the exponent's `i/N` share taken out
    /// (`T[i] = bits(2^(i/N)) − (i << 47)`).
    #[rustfmt::skip]
    const EXP2_TABLE: [u64; 32] = [
        0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f, 0x3fef9301d0125b51,
        0x3fef72b83c7d517b, 0x3fef54873168b9aa, 0x3fef387a6e756238, 0x3fef1e9df51fdee1,
        0x3fef06fe0a31b715, 0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
        0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429, 0x3feea47eb03a5585,
        0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74, 0x3feea11473eb0187, 0x3feea589994cce13,
        0x3feeace5422aa0db, 0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
        0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c, 0x3fef3720dcef9069,
        0x3fef5818dcfba487, 0x3fef7c97337b9b5f, 0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
    ];
    /// `log1pf`'s `Lp1..Lp7`, the coefficients of `R(z) = z·(Lp1 + z·(Lp2 + … + z·Lp7))`.
    const LP: [f32; 7] = [
        f32::from_bits(0x3f2aaaab),
        f32::from_bits(0x3ecccccd),
        f32::from_bits(0x3e924925),
        f32::from_bits(0x3e638e29),
        f32::from_bits(0x3e3a3325),
        f32::from_bits(0x3e1cd04f),
        f32::from_bits(0x3e178897),
    ];
    /// The first f32 bit pattern past `log1pf`'s k = 0 branch (√2 − 1): `e` must be below it.
    const LOG1P_K0_END: i32 = 0x3ed413d7;
    /// `log`'s `ln 2` split into a high and a low part.
    const LN2_HI: f64 = f64::from_bits(0x3fe62e42fefa3800);
    const LN2_LO: f64 = f64::from_bits(0x3d2ef35793c76730);
    /// `log`'s polynomial coefficients `A0..A4` for `log1p(r) − r`.
    const LOG_A: [f64; 5] = [
        f64::from_bits(0xbfe0000000000001),
        f64::from_bits(0x3fd555555551305b),
        f64::from_bits(0xbfcfffffffeb4590),
        f64::from_bits(0x3fc999b324f10111),
        f64::from_bits(0xbfc55575e506c89f),
    ];
    /// `log`'s reduction offset: `x / 2^k` falls in `[0x1.6p−1, 0x1.6p0)`.
    const LOG_OFF: i64 = 0x3fe6000000000000;
    /// `log`'s 128 `{1/c, ln c}` pairs, one per subinterval of `[0x1.6p−1, 0x1.6p0)`.
    #[rustfmt::skip]
    const LOG_TABLE: [[u64; 2]; 128] = [
        [0x3ff734f0c3e0de9f, 0xbfd7cc7f79e69000], [0x3ff713786a2ce91f, 0xbfd76feec20d0000],
        [0x3ff6f26008fab5a0, 0xbfd713e31351e000], [0x3ff6d1a61f138c7d, 0xbfd6b85b38287800],
        [0x3ff6b1490bc5b4d1, 0xbfd65d5590807800], [0x3ff69147332f0cba, 0xbfd602d076180000],
        [0x3ff6719f18224223, 0xbfd5a8ca86909000], [0x3ff6524f99a51ed9, 0xbfd54f4356035000],
        [0x3ff63356aa8f24c4, 0xbfd4f637c36b4000], [0x3ff614b36b9ddc14, 0xbfd49da7fda85000],
        [0x3ff5f66452c65c4c, 0xbfd445923989a800], [0x3ff5d867b5912c4f, 0xbfd3edf439b0b800],
        [0x3ff5babccb5b90de, 0xbfd396ce448f7000], [0x3ff59d61f2d91a78, 0xbfd3401e17bda000],
        [0x3ff5805612465687, 0xbfd2e9e2ef468000], [0x3ff56397cee76bd3, 0xbfd2941b3830e000],
        [0x3ff54725e2a77f93, 0xbfd23ec58cda8800], [0x3ff52aff42064583, 0xbfd1e9e129279000],
        [0x3ff50f22dbb2bddf, 0xbfd1956d2b48f800], [0x3ff4f38f4734ded7, 0xbfd141679ab9f800],
        [0x3ff4d843cfde2840, 0xbfd0edd094ef9800], [0x3ff4bd3ec078a3c8, 0xbfd09aa518db1000],
        [0x3ff4a27fc3e0258a, 0xbfd047e65263b800], [0x3ff4880524d48434, 0xbfcfeb224586f000],
        [0x3ff46dce1b192d0b, 0xbfcf474a7517b000], [0x3ff453d9d3391854, 0xbfcea4443d103000],
        [0x3ff43a2744b4845a, 0xbfce020d44e9b000], [0x3ff420b54115f8fb, 0xbfcd60a22977f000],
        [0x3ff40782da3ef4b1, 0xbfccc00104959000], [0x3ff3ee8f5d57fe8f, 0xbfcc202956891000],
        [0x3ff3d5d9a00b4ce9, 0xbfcb81178d811000], [0x3ff3bd60c010c12b, 0xbfcae2c9ccd3d000],
        [0x3ff3a5242b75dab8, 0xbfca45402e129000], [0x3ff38d22cd9fd002, 0xbfc9a877681df000],
        [0x3ff3755bc5847a1c, 0xbfc90c6d69483000], [0x3ff35dce49ad36e2, 0xbfc87120a645c000],
        [0x3ff34679984dd440, 0xbfc7d68fb4143000], [0x3ff32f5cceffcb24, 0xbfc73cb83c627000],
        [0x3ff3187775a10d49, 0xbfc6a39a9b376000], [0x3ff301c8373e3990, 0xbfc60b3154b7a000],
        [0x3ff2eb4ebb95f841, 0xbfc5737d76243000], [0x3ff2d50a0219a9d1, 0xbfc4dc7b8fc23000],
        [0x3ff2bef9a8b7fd2a, 0xbfc4462c51d20000], [0x3ff2a91c7a0c1bab, 0xbfc3b08abc830000],
        [0x3ff293726014b530, 0xbfc31b996b490000], [0x3ff27dfa5757a1f5, 0xbfc2875490a44000],
        [0x3ff268b39b1d3bbf, 0xbfc1f3b9f879a000], [0x3ff2539d838ff5bd, 0xbfc160c8252ca000],
        [0x3ff23eb7aac9083b, 0xbfc0ce7f57f72000], [0x3ff22a012ba940b6, 0xbfc03cdc49fea000],
        [0x3ff2157996cc4132, 0xbfbf57bdbc4b8000], [0x3ff201201dd2fc9b, 0xbfbe370896404000],
        [0x3ff1ecf4494d480b, 0xbfbd17983ef94000], [0x3ff1d8f5528f6569, 0xbfbbf9674ed8a000],
        [0x3ff1c52311577e7c, 0xbfbadc79202f6000], [0x3ff1b17c74cb26e9, 0xbfb9c0c3e7288000],
        [0x3ff19e010c2c1ab6, 0xbfb8a646b372c000], [0x3ff18ab07bb670bd, 0xbfb78d01b3ac0000],
        [0x3ff1778a25efbcb6, 0xbfb674f145380000], [0x3ff1648d354c31da, 0xbfb55e0e6d878000],
        [0x3ff151b990275fdd, 0xbfb4485cdea1e000], [0x3ff13f0ea432d24c, 0xbfb333d94d6aa000],
        [0x3ff12c8b7210f9da, 0xbfb22079f8c56000], [0x3ff11a3028ecb531, 0xbfb10e4698622000],
        [0x3ff107fbda8434af, 0xbfaffa6c6ad20000], [0x3ff0f5ee0f4e6bb3, 0xbfadda8d4a774000],
        [0x3ff0e4065d2a9fce, 0xbfabbcece4850000], [0x3ff0d244632ca521, 0xbfa9a1894012c000],
        [0x3ff0c0a77ce2981a, 0xbfa788583302c000], [0x3ff0af2f83c636d1, 0xbfa5715e67d68000],
        [0x3ff09ddb98a01339, 0xbfa35c8a49658000], [0x3ff08cabaf52e7df, 0xbfa149e364154000],
        [0x3ff07b9f2f4e28fb, 0xbf9e72c082eb8000], [0x3ff06ab58c358f19, 0xbf9a55f152528000],
        [0x3ff059eea5ecf92c, 0xbf963d62cf818000], [0x3ff04949cdd12c90, 0xbf9228fb8caa0000],
        [0x3ff038c6c6f0ada9, 0xbf8c317b20f90000], [0x3ff02865137932a9, 0xbf8419355daa0000],
        [0x3ff0182427ea7348, 0xbf781203c2ec0000], [0x3ff008040614b195, 0xbf60040979240000],
        [0x3fefe01ff726fa1a, 0x3f6feff384900000], [0x3fefa11cc261ea74, 0x3f87dc41353d0000],
        [0x3fef6310b081992e, 0x3f93cea3c4c28000], [0x3fef25f63ceeadcd, 0x3f9b9fc114890000],
        [0x3feee9c8039113e7, 0x3fa1b0d8ce110000], [0x3feeae8078cbb1ab, 0x3fa58a5bd001c000],
        [0x3fee741aa29d0c9b, 0x3fa95c8340d88000], [0x3fee3a91830a99b5, 0x3fad276aef578000],
        [0x3fee01e009609a56, 0x3fb07598e598c000], [0x3fedca01e577bb98, 0x3fb253f5e30d2000],
        [0x3fed92f20b7c9103, 0x3fb42edd8b380000], [0x3fed5cac66fb5cce, 0x3fb606598757c000],
        [0x3fed272caa5ede9d, 0x3fb7da76356a0000], [0x3fecf26e3e6b2ccd, 0x3fb9ab434e1c6000],
        [0x3fecbe6da2a77902, 0x3fbb78c7bb0d6000], [0x3fec8b266d37086d, 0x3fbd431332e72000],
        [0x3fec5894bd5d5804, 0x3fbf0a3171de6000], [0x3fec26b533bb9f8c, 0x3fc067152b914000],
        [0x3febf583eeece73f, 0x3fc147858292b000], [0x3febc4fd75db96c1, 0x3fc2266ecdca3000],
        [0x3feb951e0c864a28, 0x3fc303d7a6c55000], [0x3feb65e2c5ef3e2c, 0x3fc3dfc33c331000],
        [0x3feb374867c9888b, 0x3fc4ba366b7a8000], [0x3feb094b211d304a, 0x3fc5933928d1f000],
        [0x3feadbe885f2ef7e, 0x3fc66acd2418f000], [0x3feaaf1d31603da2, 0x3fc740f8ec669000],
        [0x3fea82e63fd358a7, 0x3fc815c0f51af000], [0x3fea5740ef09738b, 0x3fc8e92954f68000],
        [0x3fea2c2a90ab4b27, 0x3fc9bb3602f84000], [0x3fea01a01393f2d1, 0x3fca8bed1c2c0000],
        [0x3fe9d79f24db3c1b, 0x3fcb5b515c01d000], [0x3fe9ae2505c7b190, 0x3fcc2967ccbcc000],
        [0x3fe9852ef297ce2f, 0x3fccf635d5486000], [0x3fe95cbaeea44b75, 0x3fcdc1bd3446c000],
        [0x3fe934c69de74838, 0x3fce8c01b8cfe000], [0x3fe90d4f2f6752e6, 0x3fcf5509c0179000],
        [0x3fe8e6528effd79d, 0x3fd00e6c121fb800], [0x3fe8bfce9fcc007c, 0x3fd071b80e93d000],
        [0x3fe899c0dabec30e, 0x3fd0d46b9e867000], [0x3fe87427aa2317fb, 0x3fd13687334bd000],
        [0x3fe84f00acb39a08, 0x3fd1980d67234800], [0x3fe82a49e8653e55, 0x3fd1f8ffe0cc8000],
        [0x3fe8060195f40260, 0x3fd2595fd7636800], [0x3fe7e22563e0a329, 0x3fd2b9300914a800],
        [0x3fe7beb377dcb5ad, 0x3fd3187210436000], [0x3fe79baa679725c2, 0x3fd377266dec1800],
        [0x3fe77907f2170657, 0x3fd3d54ffbaf3000], [0x3fe756cadbd6130c, 0x3fd432eee32fe000],
    ];
    /// glibc's near-1 window of `log`, `[1 − 2⁻⁴, 1 + 0x1.09p−4)`, as f32 values (both are
    /// exact in f32, so an f32 is inside iff its f64 widening is).
    const NEAR_ONE: (f32, f32) = (f32::from_bits(0x3f70_0000), f32::from_bits(0x3f88_4800));

    /// `__expf_fma` on four f32 inputs widened to f64, in its domain `top12 ≤ 0x42a`
    /// (`|x| < 0x1.6p6`): `x·N/ln 2 = k + r` with integer `k` and |r| ≤ 1/2, so
    /// `exp(x) = 2^(k/N)·2^(r/N)`, the first factor from the table and the exponent bits, the
    /// second a cubic in `r`, and one rounding to f32.
    #[target_feature(enable = "avx2,fma")]
    fn expf_x4(xd: __m256d) -> __m128 {
        let (inv_ln2_n, shift) = (_mm256_set1_pd(INV_LN2_N), _mm256_set1_pd(SHIFT));
        let z = _mm256_fmadd_pd(inv_ln2_n, xd, shift);
        let ki = _mm256_castpd_si256(z);
        let kd = _mm256_sub_pd(z, shift);
        let r = _mm256_fmsub_pd(inv_ln2_n, xd, kd);
        let index = _mm256_and_si256(ki, _mm256_set1_epi64x(31));
        // SAFETY: every index is masked to 0..32 (`& 31`), the table's length.
        let t = unsafe { _mm256_i64gather_epi64::<8>(EXP2_TABLE.as_ptr().cast(), index) };
        let s = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64::<47>(ki)));
        let c = EXP_C.map(|c| _mm256_set1_pd(c));
        let y = _mm256_fmadd_pd(
            _mm256_fmadd_pd(c[0], r, c[1]),
            _mm256_mul_pd(r, r),
            _mm256_fmadd_pd(r, c[2], _mm256_set1_pd(1.0)),
        );
        _mm256_cvtpd_ps(_mm256_mul_pd(y, s))
    }

    /// [`expf_x4`] on eight f32 lanes.
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn expf_x8(x: __m256) -> __m256 {
        let low = expf_x4(_mm256_cvtps_pd(_mm256_castps256_ps128(x)));
        let high = expf_x4(_mm256_cvtps_pd(_mm256_extractf128_ps::<1>(x)));
        _mm256_set_m128(high, low)
    }

    /// fdlibm's `log1pf` on its k = 0 branch (`0x31000000 ≤ bits(x) < 0x3ed413d7`), in f32
    /// lanes with no FMA: `s = x/(2+x)`, `R(s²)` by Horner's rule, then
    /// `x − (hfsq − s·(hfsq + R))` with `hfsq = x²/2`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn log1pf_x8(x: __m256) -> __m256 {
        let hfsq = _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(0.5), x), x);
        let s = _mm256_div_ps(x, _mm256_add_ps(_mm256_set1_ps(2.0), x));
        let z = _mm256_mul_ps(s, s);
        let mut r = _mm256_mul_ps(z, _mm256_set1_ps(LP[6]));
        for &lp in LP[..6].iter().rev() {
            r = _mm256_mul_ps(z, _mm256_add_ps(_mm256_set1_ps(lp), r));
        }
        _mm256_sub_ps(x, _mm256_sub_ps(hfsq, _mm256_mul_ps(s, _mm256_add_ps(hfsq, r))))
    }

    /// `__log_fma`'s main path on four positive normal f64 outside its near-1 window:
    /// `x = 2^k·z` with `z` near the table's `c`, `ln x = k·ln 2 + ln c + log1p(z/c − 1)`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn log_x4(x: __m256d) -> __m256d {
        let ix = _mm256_castpd_si256(x);
        let tmp = _mm256_sub_epi64(ix, _mm256_set1_epi64x(LOG_OFF));
        let i = _mm256_and_si256(_mm256_srli_epi64::<45>(tmp), _mm256_set1_epi64x(127));
        // k = tmp >> 52, arithmetic: the high 32 bits of each lane shifted by 20.
        let k_high = _mm256_srai_epi32::<20>(tmp);
        let odd = _mm256_setr_epi32(1, 3, 5, 7, 1, 3, 5, 7);
        let kd =
            _mm256_cvtepi32_pd(_mm256_castsi256_si128(_mm256_permutevar8x32_epi32(k_high, odd)));
        let exponent = _mm256_and_si256(tmp, _mm256_set1_epi64x(0xfff << 52));
        let z = _mm256_castsi256_pd(_mm256_sub_epi64(ix, exponent));
        let (pairs, pair) = (LOG_TABLE.as_ptr().cast::<f64>(), _mm256_slli_epi64::<1>(i));
        // SAFETY: every index is masked to 0..128 (`& 127`), the table's length, so `2i` and
        // `2i + 1` stay inside its 256 f64s.
        let (invc, logc) = unsafe {
            (_mm256_i64gather_pd::<8>(pairs, pair), _mm256_i64gather_pd::<8>(pairs.add(1), pair))
        };
        let w = _mm256_fmadd_pd(kd, _mm256_set1_pd(LN2_HI), logc);
        let r = _mm256_fmadd_pd(z, invc, _mm256_set1_pd(-1.0));
        let hi = _mm256_add_pd(r, w);
        let lo =
            _mm256_fmadd_pd(kd, _mm256_set1_pd(LN2_LO), _mm256_add_pd(_mm256_sub_pd(w, hi), r));
        let r2 = _mm256_mul_pd(r, r);
        let a = LOG_A.map(|a| _mm256_set1_pd(a));
        let p = _mm256_fmadd_pd(_mm256_fmadd_pd(r, a[4], a[3]), r2, _mm256_fmadd_pd(r, a[2], a[1]));
        let y = _mm256_fmadd_pd(_mm256_mul_pd(r, r2), p, _mm256_fmadd_pd(r2, a[0], lo));
        _mm256_add_pd(y, hi)
    }

    /// Lanes with −20 ≤ ρ < 0 (not NaN), where σ is `log1pf(exp(ρ))`.
    #[target_feature(enable = "avx2,fma")]
    fn log1p_branch(rho: __m256) -> __m256 {
        let low = _mm256_cmp_ps::<_CMP_GE_OQ>(rho, _mm256_set1_ps(-20.0));
        _mm256_and_ps(low, _mm256_cmp_ps::<_CMP_LT_OQ>(rho, _mm256_setzero_ps()))
    }

    /// Whether every lane of a comparison mask is set.
    #[target_feature(enable = "avx2,fma")]
    fn all_lanes(mask: __m256) -> bool {
        _mm256_movemask_ps(mask) == 0xff
    }

    /// The σ pass on AVX2+FMA: the `exp` loop, then the `log1pf` loop, each running the
    /// scalar expressions on a chunk with a lane outside its port's domain and on the tail.
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn sigma_pass(rho: &[f32], e: &mut [f32], sigma: &mut [f32]) {
        let body = rho.len() - rho.len() % 8;
        for (r8, e8) in rho[..body].chunks_exact(8).zip(e.chunks_exact_mut(8)) {
            // SAFETY: `r8` is an 8-float chunk, so the unaligned 8-lane load stays inside it.
            let r = unsafe { _mm256_loadu_ps(r8.as_ptr()) };
            if all_lanes(log1p_branch(r)) {
                // SAFETY: `e8` is an 8-float chunk, so the unaligned 8-lane store stays in it.
                unsafe { _mm256_storeu_ps(e8.as_mut_ptr(), expf_x8(r)) };
            } else {
                super::exp_neg_abs(r8, e8);
            }
        }
        super::exp_neg_abs(&rho[body..], &mut e[body..]);
        let chunks = rho[..body].chunks_exact(8).zip(e.chunks_exact(8));
        for ((r8, e8), s8) in chunks.zip(sigma.chunks_exact_mut(8)) {
            // SAFETY: `r8` and `e8` are 8-float chunks, so each 8-lane load stays inside.
            let (r, ev) = unsafe { (_mm256_loadu_ps(r8.as_ptr()), _mm256_loadu_ps(e8.as_ptr())) };
            let k0 = _mm256_cmpgt_epi32(_mm256_set1_epi32(LOG1P_K0_END), _mm256_castps_si256(ev));
            if all_lanes(_mm256_and_ps(log1p_branch(r), _mm256_castsi256_ps(k0))) {
                // SAFETY: `s8` is an 8-float chunk, so the unaligned 8-lane store stays in it.
                unsafe { _mm256_storeu_ps(s8.as_mut_ptr(), log1pf_x8(ev)) };
            } else {
                super::softplus_from_exp(r8, e8, s8);
            }
        }
        super::softplus_from_exp(&rho[body..], &e[body..], &mut sigma[body..]);
    }

    /// The ln pass on AVX2+FMA: each chunk of positive finite σ outside the near-1 window
    /// through [`log_x4`] as two widened halves, any other chunk and the tail through libm.
    #[target_feature(enable = "avx2,fma")]
    pub(super) fn ln_pass(sigma: &[f32], ln_sigma: &mut [f64]) {
        let body = sigma.len() - sigma.len() % 8;
        for (s8, l8) in sigma[..body].chunks_exact(8).zip(ln_sigma.chunks_exact_mut(8)) {
            // SAFETY: `s8` is an 8-float chunk, so the unaligned 8-lane load stays inside it.
            let s = unsafe { _mm256_loadu_ps(s8.as_ptr()) };
            let positive = _mm256_and_ps(
                _mm256_cmp_ps::<_CMP_GT_OQ>(s, _mm256_setzero_ps()),
                _mm256_cmp_ps::<_CMP_LT_OQ>(s, _mm256_set1_ps(f32::INFINITY)),
            );
            let off_one = _mm256_or_ps(
                _mm256_cmp_ps::<_CMP_LT_OQ>(s, _mm256_set1_ps(NEAR_ONE.0)),
                _mm256_cmp_ps::<_CMP_GE_OQ>(s, _mm256_set1_ps(NEAR_ONE.1)),
            );
            if all_lanes(_mm256_and_ps(positive, off_one)) {
                let low = log_x4(_mm256_cvtps_pd(_mm256_castps256_ps128(s)));
                let high = log_x4(_mm256_cvtps_pd(_mm256_extractf128_ps::<1>(s)));
                // SAFETY: `l8` is an 8-double chunk, so the two 4-lane stores stay inside it.
                unsafe {
                    _mm256_storeu_pd(l8.as_mut_ptr(), low);
                    _mm256_storeu_pd(l8.as_mut_ptr().add(4), high);
                }
            } else {
                super::ln_pass_libm(s8, l8);
            }
        }
        super::ln_pass_libm(&sigma[body..], &mut ln_sigma[body..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The σ pass's ρ thresholds and the point where `e = exp(ρ)` leaves `log1pf`'s k = 0
    /// branch (ρ = ln(√2 − 1)), as f32.
    const RHO_EDGES: [f32; 3] = [-20.0, 0.0, -0.881_373_6];

    /// The f32s within `ulps` bit patterns of `x` on either side, as far as they exist.
    fn around(x: f32, ulps: u32) -> impl Iterator<Item = f32> {
        let bits = x.to_bits();
        (bits.saturating_sub(ulps)..=bits.saturating_add(ulps)).map(f32::from_bits)
    }

    #[test]
    fn passes_equal_the_libm_passes_around_every_domain_edge() {
        // ρ within 64 ulps of −20, of ±0 (the subnormals) and of the log1pf k = 0 edge, and
        // the specials; every offset of the chunk grid, and an odd tail.
        let mut rho: Vec<f32> = RHO_EDGES.iter().flat_map(|&r| around(r, 64)).collect();
        rho.extend(around(-0.0, 64));
        rho.extend([f32::NAN, f32::INFINITY, f32::NEG_INFINITY, f32::MIN, f32::MAX, 1e-30, 25.0]);
        let e_bits: Vec<u32> = around(RHO_EDGES[2], 64).map(|r| r.exp().to_bits()).collect();
        assert!(
            e_bits.iter().any(|&b| b < 0x3ed4_13d7) && e_bits.iter().any(|&b| b >= 0x3ed4_13d7),
            "the ρ around ln(√2 − 1) must put e on both sides of log1pf's k = 0 edge"
        );
        // σ within 64 ulps of both near-1 edges, of 0 and of the largest finite f32, and the
        // specials.
        let mut sigma: Vec<f32> = [0.9375f32, f32::from_bits(0x3f88_4800), 0.0, f32::MAX]
            .into_iter()
            .flat_map(|s| around(s, 64))
            .collect();
        sigma.extend([-0.0, -1.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e-30, 0.5]);
        for offset in 0..8 {
            let rho = &rho[offset..rho.len() - 7 + offset];
            let n = rho.len();
            let (mut e, mut s, mut want_e, mut want_s) =
                (vec![0.0; n], vec![0.0; n], vec![0.0; n], vec![0.0; n]);
            sigma_pass(rho, &mut e, &mut s);
            sigma_pass_libm(rho, &mut want_e, &mut want_s);
            for i in 0..n {
                let case = format!("offset {offset}, ρ = {:e}", rho[i]);
                assert_eq!(e[i].to_bits(), want_e[i].to_bits(), "{case}: e");
                assert_eq!(s[i].to_bits(), want_s[i].to_bits(), "{case}: σ");
            }
            let sigma = &sigma[offset..sigma.len() - 7 + offset];
            let (mut ln, mut want_ln) = (vec![0.0; sigma.len()], vec![0.0; sigma.len()]);
            ln_pass(sigma, &mut ln);
            ln_pass_libm(sigma, &mut want_ln);
            for (i, &s) in sigma.iter().enumerate() {
                assert_eq!(ln[i].to_bits(), want_ln[i].to_bits(), "offset {offset}, σ = {s:e}");
            }
        }
    }

    /// Each port against the host libm call it replaces, lane for lane.
    #[cfg(target_arch = "x86_64")]
    mod host_libm {
        use super::*;
        use std::arch::x86_64::*;

        /// One port, the host libm call it replaces, and its domain.
        #[derive(Clone, Copy)]
        struct Port {
            name: &'static str,
            /// The port on eight f32 inputs, as result bit patterns.
            lanes: fn(&[f32; 8]) -> [u64; 8],
            /// The libm call, as a result bit pattern.
            libm: fn(f32) -> u64,
            /// The f32 bit patterns the port is exact on, as `start..end` ranges.
            domain: &'static [(u32, u32)],
        }

        /// The three ports with their domains (module docs): `expf` for `top12 ≤ 0x42a` of both
        /// signs, `log1pf` on its k = 0 branch, `log` on positive finite f32 (subnormal, then
        /// normal) outside the near-1 window.
        const PORTS: [Port; 3] = [
            Port {
                name: "expf",
                lanes: expf_lanes,
                libm: |x| u64::from(x.exp().to_bits()),
                domain: &[(0, 0x42b0_0000), (0x8000_0000, 0xc2b0_0000)],
            },
            Port {
                name: "log1pf",
                lanes: log1pf_lanes,
                libm: |x| u64::from(x.ln_1p().to_bits()),
                domain: &[(0x3100_0000, 0x3ed4_13d7)],
            },
            Port {
                name: "log",
                lanes: log_lanes,
                libm: |x| (x as f64).ln().to_bits(),
                domain: &[(1, 0x0080_0000), (0x0080_0000, 0x3f70_0000), (0x3f88_4800, 0x7f80_0000)],
            },
        ];

        fn expf_lanes(x: &[f32; 8]) -> [u64; 8] {
            let mut y = [0.0f32; 8];
            // SAFETY: the port tests run only where `fma_available()` holds, and `x` and `y` are
            // `[f32; 8]`s, each exactly one unaligned 8-lane access.
            unsafe {
                _mm256_storeu_ps(y.as_mut_ptr(), ports::expf_x8(_mm256_loadu_ps(x.as_ptr())))
            };
            y.map(|v| u64::from(v.to_bits()))
        }

        fn log1pf_lanes(x: &[f32; 8]) -> [u64; 8] {
            let mut y = [0.0f32; 8];
            // SAFETY: as in `expf_lanes`.
            unsafe {
                _mm256_storeu_ps(y.as_mut_ptr(), ports::log1pf_x8(_mm256_loadu_ps(x.as_ptr())))
            };
            y.map(|v| u64::from(v.to_bits()))
        }

        /// The log port as the ln pass runs it: each half of the eight f32 widened to f64.
        fn log_lanes(x: &[f32; 8]) -> [u64; 8] {
            let mut y = [0.0f64; 8];
            // SAFETY: as in `expf_lanes`; `y` is an `[f64; 8]`, exactly two 4-lane stores.
            unsafe {
                let x = _mm256_loadu_ps(x.as_ptr());
                let low = ports::log_x4(_mm256_cvtps_pd(_mm256_castps256_ps128(x)));
                let high = ports::log_x4(_mm256_cvtps_pd(_mm256_extractf128_ps::<1>(x)));
                _mm256_storeu_pd(y.as_mut_ptr(), low);
                _mm256_storeu_pd(y.as_mut_ptr().add(4), high);
            }
            y.map(f64::to_bits)
        }

        /// Runs `port` over the f32 inputs with bit patterns `inputs`, eight at a time, and
        /// returns how many lanes it compared and how many differed from the host libm.
        fn sweep(port: Port, inputs: impl IntoIterator<Item = u32>) -> (u64, u64) {
            let mut counts = (0, 0);
            let mut chunk = [0.0f32; 8];
            let mut filled = 0;
            for bits in inputs {
                chunk[filled] = f32::from_bits(bits);
                filled += 1;
                if filled == 8 {
                    tally(port, &chunk, 8, &mut counts);
                    filled = 0;
                }
            }
            if filled > 0 {
                let first = chunk[0];
                chunk[filled..].fill(first);
                tally(port, &chunk, filled, &mut counts);
            }
            counts
        }

        /// Compares the first `lanes` lanes of one chunk, printing the first few mismatches.
        fn tally(port: Port, chunk: &[f32; 8], lanes: usize, counts: &mut (u64, u64)) {
            let got = (port.lanes)(chunk);
            for (&x, &bits) in chunk[..lanes].iter().zip(&got) {
                counts.0 += 1;
                let want = (port.libm)(x);
                if bits != want {
                    counts.1 += 1;
                    if counts.1 <= 8 {
                        eprintln!(
                            "{}({x:e}) [{:#010x}]: {bits:#x}, libm {want:#x}",
                            port.name,
                            x.to_bits()
                        );
                    }
                }
            }
        }

        /// The only two inputs of `expf`'s domain whose result changes if `r`'s FMA is split into
        /// a multiply and a subtraction (an exhaustive scan; splitting any of the other four FMAs
        /// changes no result). The f64 arithmetic ends in a rounding to f32 that hides almost any
        /// change to it, so the strided sweep alone would not tell those variants apart.
        const EXPF_FMA_WITNESSES: [u32; 2] = [0x4202_422f, 0xc27c_65d9];

        #[test]
        fn ports_equal_the_host_libm_on_a_strided_sweep() {
            if !fma_available() {
                return;
            }
            for port in PORTS {
                // Every 4099th input of the domain, and 64 inputs inside each end of each range.
                let mut inputs: Vec<u32> = port
                    .domain
                    .iter()
                    .flat_map(|&(start, end)| (start..end).step_by(4099))
                    .collect();
                for &(start, end) in port.domain {
                    inputs.extend(start..(start + 64).min(end));
                    inputs.extend(end.saturating_sub(64).max(start)..end);
                }
                if port.name == "expf" {
                    inputs.extend(EXPF_FMA_WITNESSES);
                    // ±64 ulps around the σ pass's own thresholds, inside the domain.
                    for edge in RHO_EDGES {
                        let bits = edge.to_bits();
                        inputs.extend(bits.saturating_sub(64)..=bits + 64);
                        inputs.extend(
                            (bits ^ 0x8000_0000).saturating_sub(64)..=(bits ^ 0x8000_0000) + 64,
                        );
                    }
                    inputs.retain(|&b| {
                        port.domain.iter().any(|&(start, end)| (start..end).contains(&b))
                    });
                }
                let (lanes, mismatches) = sweep(port, inputs);
                assert!(lanes > 50_000, "{}: only {lanes} inputs", port.name);
                assert_eq!(
                    mismatches, 0,
                    "{}: {mismatches} of {lanes} inputs differ from libm",
                    port.name
                );
            }
        }

        /// Every input of each port's domain (about 4.6 G); about a minute single-threaded in the
        /// release build. Like the strided sweep it compares against the host libm: a host whose
        /// glibc differs in these three functions fails it, and that host's training digests
        /// already differ from the committed ones.
        #[test]
        #[ignore = "every input of each domain: run in the release build with --ignored"]
        fn ports_equal_the_host_libm_on_every_input() {
            assert!(fma_available(), "the ports need AVX2 and FMA");
            for port in PORTS {
                for &(start, end) in port.domain {
                    let clock = std::time::Instant::now();
                    let (lanes, mismatches) = sweep(port, start..end);
                    print!("{} {start:#010x}..{end:#010x}: ", port.name);
                    let seconds = clock.elapsed().as_secs_f64();
                    println!("{lanes} inputs, {mismatches} mismatches, {seconds:.1} s");
                    assert_eq!(lanes, u64::from(end - start));
                    assert_eq!(
                        mismatches, 0,
                        "{}: {mismatches} inputs differ from libm",
                        port.name
                    );
                }
            }
        }
    }
}
