//! Precision emulation for quantized training.
//!
//! The paper trains with 16-bit fixed point on the accelerator (Table 1 compares 8-, 16- and
//! 32-bit validation accuracy). Rather than maintaining separate integer tensor types, this
//! module *emulates* reduced precision by rounding every value through the corresponding fixed
//! point grid and saturating at its representable range — the standard "fake quantization"
//! technique, which reproduces the numerical behaviour (resolution loss, clipping, divergence of
//! 8-bit training on large models) while keeping a single `f32` storage type.

use crate::tensor::Tensor;

/// Numeric precision used for training arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// IEEE single precision (the paper's lossless reference).
    #[default]
    Fp32,
    /// 16-bit fixed point with the given number of fractional bits (the accelerator default;
    /// the paper uses Q6.10-style formats for weights/activations).
    Fx16 {
        /// Number of fractional bits (0..=15).
        frac_bits: u32,
    },
    /// 8-bit fixed point with the given number of fractional bits.
    Fx8 {
        /// Number of fractional bits (0..=7).
        frac_bits: u32,
    },
}

impl Precision {
    /// The 16-bit format used throughout the paper's evaluation (10 fractional bits).
    pub const PAPER_16BIT: Precision = Precision::Fx16 { frac_bits: 10 };
    /// The 8-bit format evaluated in Table 1 (4 fractional bits).
    pub const PAPER_8BIT: Precision = Precision::Fx8 { frac_bits: 4 };

    /// Number of bits a value of this precision occupies in buffers and DRAM.
    pub fn bits(&self) -> u32 {
        match self {
            Precision::Fp32 => 32,
            Precision::Fx16 { .. } => 16,
            Precision::Fx8 { .. } => 8,
        }
    }

    /// Number of bytes a value of this precision occupies.
    pub fn bytes(&self) -> usize {
        (self.bits() / 8) as usize
    }

    /// Quantizes a single value to this precision (round-to-nearest, saturating).
    pub fn quantize(&self, value: f32) -> f32 {
        match *self {
            Precision::Fp32 => value,
            Precision::Fx16 { frac_bits } => fixed_point(value, 16, frac_bits),
            Precision::Fx8 { frac_bits } => fixed_point(value, 8, frac_bits),
        }
    }

    /// Quantizes every element of a tensor.
    pub fn quantize_tensor(&self, tensor: &Tensor) -> Tensor {
        match self {
            Precision::Fp32 => tensor.clone(),
            _ => tensor.map(|v| self.quantize(v)),
        }
    }

    /// Quantizes every element of a tensor in place — the zero-allocation variant of
    /// [`Precision::quantize_tensor`], bit-identical (a no-op for `Fp32`).
    pub fn quantize_tensor_inplace(&self, tensor: &mut Tensor) {
        self.quantize_inplace(tensor.data_mut());
    }

    /// Quantizes every value of a slice in place, as [`Precision::quantize_tensor_inplace`]
    /// does a tensor's (a no-op for `Fp32`).
    pub fn quantize_inplace(&self, values: &mut [f32]) {
        match self {
            Precision::Fp32 => {}
            _ => {
                for v in values {
                    *v = self.quantize(*v);
                }
            }
        }
    }

    /// Smallest positive representable step (the quantization resolution); zero for `Fp32`
    /// (negligible at the scales involved).
    pub fn resolution(&self) -> f32 {
        match *self {
            Precision::Fp32 => 0.0,
            Precision::Fx16 { frac_bits } | Precision::Fx8 { frac_bits } => {
                1.0 / (1u32 << frac_bits) as f32
            }
        }
    }

    /// Largest representable magnitude; infinity for `Fp32`.
    pub fn max_value(&self) -> f32 {
        match *self {
            Precision::Fp32 => f32::INFINITY,
            Precision::Fx16 { frac_bits } => ((1i64 << 15) - 1) as f32 / (1u32 << frac_bits) as f32,
            Precision::Fx8 { frac_bits } => ((1i64 << 7) - 1) as f32 / (1u32 << frac_bits) as f32,
        }
    }
}

fn fixed_point(value: f32, total_bits: u32, frac_bits: u32) -> f32 {
    debug_assert!(frac_bits < total_bits);
    if value.is_nan() {
        return f32::NAN;
    }
    let scale = (1u64 << frac_bits) as f32;
    let max_int = (1i64 << (total_bits - 1)) - 1;
    let min_int = -(1i64 << (total_bits - 1));
    let scaled = (value * scale).round() as i64;
    let clamped = scaled.clamp(min_int, max_int);
    clamped as f32 / scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp32_is_identity() {
        let p = Precision::Fp32;
        assert_eq!(p.quantize(0.123_456_79), 0.123_456_79);
        assert_eq!(p.bits(), 32);
        assert_eq!(p.bytes(), 4);
    }

    #[test]
    fn fx16_rounds_to_grid() {
        let p = Precision::Fx16 { frac_bits: 10 };
        assert_eq!(p.resolution(), 1.0 / 1024.0);
        let q = p.quantize(0.1);
        assert!((q - 0.1).abs() <= p.resolution() / 2.0 + 1e-7);
        // Exactly representable values pass through unchanged.
        assert_eq!(p.quantize(0.5), 0.5);
        assert_eq!(p.bits(), 16);
    }

    #[test]
    fn fx8_saturates_at_range_limits() {
        let p = Precision::Fx8 { frac_bits: 4 };
        assert!(p.max_value() < 8.0);
        assert_eq!(p.quantize(100.0), p.max_value());
        assert_eq!(p.quantize(-100.0), -8.0);
        assert_eq!(p.bytes(), 1);
    }

    #[test]
    fn quantization_error_is_bounded_by_half_resolution() {
        let p16 = Precision::PAPER_16BIT;
        let p8 = Precision::PAPER_8BIT;
        for i in -100..100 {
            let v = i as f32 * 0.013;
            assert!((p16.quantize(v) - v).abs() <= p16.resolution() / 2.0 + 1e-6);
            if v.abs() < p8.max_value() {
                assert!((p8.quantize(v) - v).abs() <= p8.resolution() / 2.0 + 1e-6);
            }
        }
    }

    #[test]
    fn eight_bit_is_much_coarser_than_sixteen_bit() {
        assert!(Precision::PAPER_8BIT.resolution() > 30.0 * Precision::PAPER_16BIT.resolution());
    }

    #[test]
    fn tensor_quantization_applies_elementwise() {
        let t = Tensor::from_vec(vec![3], vec![0.1, 0.26, 100.0]).unwrap();
        let q = Precision::Fx8 { frac_bits: 4 }.quantize_tensor(&t);
        assert_eq!(q.data()[2], Precision::Fx8 { frac_bits: 4 }.max_value());
        assert!((q.data()[0] - 0.125).abs() < 1e-6);
    }

    #[test]
    fn nan_propagates_through_quantization() {
        let p = Precision::PAPER_16BIT;
        assert!(p.quantize(f32::NAN).is_nan());
    }
}
