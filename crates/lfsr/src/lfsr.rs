//! Reversible Fibonacci linear feedback shift registers.
//!
//! The register file is modelled exactly as in Fig. 4 of the paper: registers `R_1..R_n`, where
//! `R_1` is the *head* (receives the feedback bit on a forward shift) and `R_n` is the *tail*
//! (its value is dropped on a forward shift). A forward shift moves every bit one position to the
//! right (`R_i -> R_{i+1}`).
//!
//! The crate's central property is **reversibility**: because XOR satisfies `A = C ⊕ B` whenever
//! `A ⊕ B = C`, the bit dropped from the tail can be reconstructed from the current head and the
//! shifted tap registers (Eq. 3 of the paper), so shifting the register *backwards* reproduces
//! every earlier pattern without storing anything.

use crate::error::LfsrError;
use crate::taps::{maximal_taps, validate_taps};

/// Maximum supported register width, in bits.
pub const MAX_WIDTH: usize = 4096;

/// The 4-word splitmix64 expansion [`Lfsr::shift_bnn_default`] seeds a 256-bit register from
/// (exposed so in-place reseeding can reproduce the construction exactly).
pub fn shift_bnn_seed_words(seed: u64) -> [u64; 4] {
    let mut words = [0u64; 4];
    let mut x = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    for w in &mut words {
        // splitmix64 step: deterministic, well-mixed, never all zero across 4 words.
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        *w = z ^ (z >> 31);
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    }
    words
}

/// A complete, restorable capture of an [`Lfsr`]'s state: everything a register needs to
/// continue its pattern sequence exactly where it left off — the primitive the checkpoint
/// store (`bnn-store`) serializes so a resumed training run draws the identical ε stream.
///
/// Produced by [`Lfsr::state`]; consumed by [`Lfsr::from_state`] / [`Lfsr::restore`], which
/// re-validate every field (a corrupted capture yields an [`LfsrError`], never a register in
/// an impossible configuration).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LfsrState {
    /// Register width in bits.
    pub width: usize,
    /// Tap positions, 1-based, ascending.
    pub taps: Vec<usize>,
    /// Packed register state words (bit `i` of the concatenation is `R_{i+1}`).
    pub state_words: Vec<u64>,
    /// Net forward steps since construction ([`Lfsr::position`]).
    pub position: i64,
}

/// A reversible Fibonacci LFSR with an arbitrary register width.
///
/// Bits are stored packed into `u64` words; bit `i` of the packed state holds register
/// `R_{i+1}`, i.e. index 0 is the head and index `width-1` is the tail.
///
/// # Examples
///
/// ```
/// use bnn_lfsr::Lfsr;
///
/// # fn main() -> Result<(), bnn_lfsr::LfsrError> {
/// let mut lfsr = Lfsr::with_maximal_taps(8, 0b1111_0000)?;
/// let before = lfsr.pattern();
/// lfsr.step_forward();
/// lfsr.step_backward();
/// assert_eq!(lfsr.pattern(), before);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Lfsr {
    width: usize,
    /// Tap positions, 1-based, sorted ascending; always contains `width`.
    taps: Vec<usize>,
    /// Packed register state: bit `i` is register `R_{i+1}`.
    state: Vec<u64>,
    /// Number of forward steps minus backward steps since construction.
    position: i64,
}

fn words_for(width: usize) -> usize {
    width.div_ceil(64)
}

impl Lfsr {
    /// Creates an LFSR with explicit tap positions and a seed.
    ///
    /// The seed is taken from the low `width` bits of `seed_words` (little-endian words); if
    /// fewer words than necessary are supplied the remaining registers start at zero.
    ///
    /// # Errors
    ///
    /// * [`LfsrError::InvalidWidth`] if `width < 2` or `width > MAX_WIDTH`.
    /// * [`LfsrError::InvalidTaps`] if the tap set is invalid (see
    ///   [`validate_taps`](crate::taps::validate_taps)).
    /// * [`LfsrError::ZeroSeed`] if the resulting seed is all zeroes.
    pub fn new(width: usize, taps: &[usize], seed_words: &[u64]) -> Result<Self, LfsrError> {
        if !(2..=MAX_WIDTH).contains(&width) {
            return Err(LfsrError::InvalidWidth { width });
        }
        validate_taps(width, taps)?;
        let mut state = vec![0u64; words_for(width)];
        for (i, word) in state.iter_mut().enumerate() {
            *word = seed_words.get(i).copied().unwrap_or(0);
        }
        // Mask off bits beyond `width` in the last word.
        let rem = width % 64;
        if rem != 0 {
            if let Some(last) = state.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
        if state.iter().all(|&w| w == 0) {
            return Err(LfsrError::ZeroSeed);
        }
        let mut taps = taps.to_vec();
        taps.sort_unstable();
        Ok(Self { width, taps, state, position: 0 })
    }

    /// Creates an LFSR of the given width using the known maximal-length taps and a 64-bit seed.
    ///
    /// # Errors
    ///
    /// Returns an error if the width has no known maximal-length taps, or the seed is zero.
    pub fn with_maximal_taps(width: usize, seed: u64) -> Result<Self, LfsrError> {
        let taps = maximal_taps(width)?;
        Self::new(width, &taps, &[seed])
    }

    /// Creates a 256-bit LFSR as used by one Shift-BNN GRNG slice, seeding every word from a
    /// simple splitmix of `seed` so the whole register starts populated.
    ///
    /// # Errors
    ///
    /// Returns an error only if `seed`'s expansion happens to be all zeroes, which the splitmix
    /// expansion cannot produce for any input.
    pub fn shift_bnn_default(seed: u64) -> Result<Self, LfsrError> {
        let words = shift_bnn_seed_words(seed);
        let taps = maximal_taps(256)?;
        Self::new(256, &taps, &words)
    }

    /// Width of the register, in bits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Tap positions, 1-based, ascending.
    pub fn taps(&self) -> &[usize] {
        &self.taps
    }

    /// Net number of forward steps taken since construction (backward steps decrement it).
    ///
    /// A value of zero means the register currently holds its seed pattern.
    pub fn position(&self) -> i64 {
        self.position
    }

    /// Reads register `R_pos` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `pos` is zero or greater than the width.
    pub fn register(&self, pos: usize) -> bool {
        assert!(pos >= 1 && pos <= self.width, "register index {pos} out of range");
        let idx = pos - 1;
        (self.state[idx / 64] >> (idx % 64)) & 1 == 1
    }

    fn set_register(&mut self, pos: usize, value: bool) {
        let idx = pos - 1;
        let mask = 1u64 << (idx % 64);
        if value {
            self.state[idx / 64] |= mask;
        } else {
            self.state[idx / 64] &= !mask;
        }
    }

    /// Returns the current pattern as a vector of register values `R_1..R_n`.
    pub fn pattern(&self) -> Vec<bool> {
        (1..=self.width).map(|p| self.register(p)).collect()
    }

    /// Returns the packed state words (bit `i` of the concatenation is `R_{i+1}`).
    pub fn state_words(&self) -> &[u64] {
        &self.state
    }

    /// Number of registers currently holding a `1` (the pattern's population count).
    pub fn popcount(&self) -> u32 {
        self.state.iter().map(|w| w.count_ones()).sum()
    }

    /// XOR of the tapped registers, i.e. the feedback bit a forward shift writes into `R_1`
    /// (Eq. 2 of the paper).
    pub fn feedback_bit(&self) -> bool {
        self.taps.iter().fold(false, |acc, &t| acc ^ self.register(t))
    }

    /// Shifts the register one position forward (right), producing the next pattern.
    ///
    /// Returns the bit that was dropped from the tail register `R_n`.
    pub fn step_forward(&mut self) -> bool {
        let new_head = self.feedback_bit();
        let dropped = self.register(self.width);
        self.shift_right_one();
        self.set_register(1, new_head);
        self.position += 1;
        dropped
    }

    /// Shifts the register one position backward (left), reproducing the previous pattern.
    ///
    /// The tail register receives the bit reconstructed via Eq. 3 of the paper:
    /// `R_n = R'_1 ⊕ R_{a+1} ⊕ R_{b+1} ⊕ ...` where `a, b, ...` are the non-tail taps of the
    /// previous pattern (which now live one position to the right). Returns the bit that was
    /// dropped from the head register `R_1`.
    pub fn step_backward(&mut self) -> bool {
        // XOR the current head with the shifted images of every non-tail tap.
        let mut recovered = self.register(1);
        for &t in &self.taps {
            if t != self.width {
                recovered ^= self.register(t + 1);
            }
        }
        let dropped_head = self.register(1);
        self.shift_left_one();
        self.set_register(self.width, recovered);
        self.position -= 1;
        dropped_head
    }

    /// Whether this register supports the word-parallel 64-step batches
    /// ([`Lfsr::step_forward64`], [`Lfsr::step_backward64`]): the width must be a whole number
    /// of 64-bit words and every tap must sit at position ≥ 64, so that none of the 64
    /// feedback bits of a forward batch depends on a bit produced *within* the batch. The
    /// Shift-BNN default (width 256, taps `{246, 251, 254, 256}`) qualifies; narrow ablation
    /// widths fall back to bit-serial stepping in both directions.
    pub fn supports_batch64(&self) -> bool {
        self.width >= 64 && self.width.is_multiple_of(64) && self.taps.iter().all(|&t| t >= 64)
    }

    /// Reads up to 64 consecutive registers starting at 0-based bit position `pos` as one
    /// `u64`: bit `i` of the result is register `R_{pos+i+1}`, and bits past the tail read 0.
    fn extract64(&self, pos: usize) -> u64 {
        let (wi, sh) = (pos / 64, pos % 64);
        match self.state.get(wi + 1) {
            Some(&next) if sh != 0 => (self.state[wi] >> sh) | (next << (64 - sh)),
            _ => self.state[wi] >> sh,
        }
    }

    /// Advances the register by exactly 64 forward steps in one word-parallel operation —
    /// bit-identical to 64 calls of [`Lfsr::step_forward`], but costing a handful of word
    /// XOR/shift operations instead of 64 full-register shifts.
    ///
    /// Because every tap position `t` satisfies `t ≥ 64`, feedback bit `f_j` of the batch
    /// (`j = 0..64`) is `⊕_t b_{t−1−j}` over *pre-batch* register bits only, so all 64 bits
    /// are computed at once: `⊕_t extract64(t − 64)` holds `f_j` at bit `63 − j` — which is
    /// exactly the value the low word holds after 64 single steps. The remaining words just
    /// move up one slot.
    ///
    /// Returns `(entering, leaving)`: bit `63 − j` of `entering` is the feedback bit inserted
    /// at step `j`, bit `63 − j` of `leaving` is the tail bit dropped at step `j` — the two
    /// streams a GRNG needs to maintain its incremental pop-count through the batch.
    ///
    /// # Panics
    ///
    /// Debug-asserts [`Lfsr::supports_batch64`].
    pub fn step_forward64(&mut self) -> (u64, u64) {
        debug_assert!(self.supports_batch64(), "step_forward64 requires word-aligned taps");
        let mut entering = 0u64;
        for &t in &self.taps {
            entering ^= self.extract64(t - 64);
        }
        let leaving = self.extract64(self.width - 64);
        for i in (1..self.state.len()).rev() {
            self.state[i] = self.state[i - 1];
        }
        self.state[0] = entering;
        self.position += 64;
        (entering, leaving)
    }

    /// Rewinds the register by exactly 64 backward steps in a few word operations —
    /// bit-identical to 64 calls of [`Lfsr::step_backward`].
    ///
    /// Write `y` for the pre-batch register bits `b_0..b_{n−1}` followed by the 64 bits the
    /// batch recovers into the tail, `W = y_n..y_{n+63}`. Eq. 3 gives bit `j` of `W` as
    /// `y_j ⊕ ⊕_{t<n} y_{t+j}` over the non-tail taps `t`. Terms with `t + j < n` read
    /// pre-batch bits; together they form `C`. The others are bits of `W` itself, recovered
    /// earlier in the batch at offset `d = n − t` (2, 5 and 10 for taps `{246, 251, 254,
    /// 256}`), so `W = C ⊕ ⊕_d (W ≪ d)`. Over GF(2) the shift-sum `A = Σ_d ≪d` is nilpotent
    /// and `A^{2^k} = Σ_d ≪(d·2^k)`, so `W = Π_k (I ⊕ A^{2^k}) · C`: rounds of
    /// `W ^= ⊕_d (W ≪ d·2^k)` until the smallest shift reaches 64, five for the default
    /// register. The remaining words move down one slot.
    ///
    /// Returns `(entering, leaving)`: bit `j` of `entering` is the tail bit recovered at
    /// step `j`, bit `j` of `leaving` is the head bit dropped at step `j` — the streams a GRNG
    /// needs to walk its incremental pop-count back through the batch.
    ///
    /// # Panics
    ///
    /// Debug-asserts [`Lfsr::supports_batch64`].
    pub fn step_backward64(&mut self) -> (u64, u64) {
        debug_assert!(self.supports_batch64(), "step_backward64 requires word-aligned taps");
        let n = self.width;
        let leaving = self.state[0];
        let mut entering = leaving;
        let mut min_offset = 64;
        for &t in &self.taps[..self.taps.len() - 1] {
            entering ^= self.extract64(t);
            min_offset = min_offset.min(n - t);
        }
        let mut scale = 1;
        while min_offset * scale < 64 {
            let mut next = entering;
            for &t in &self.taps[..self.taps.len() - 1] {
                let shift = (n - t) * scale;
                if shift < 64 {
                    next ^= entering << shift;
                }
            }
            entering = next;
            scale *= 2;
        }
        let last = self.state.len() - 1;
        self.state.copy_within(1.., 0);
        self.state[last] = entering;
        self.position -= 64;
        (entering, leaving)
    }

    /// Captures the register's complete state for later restoration (or serialization by the
    /// checkpoint store). The capture is self-contained: [`Lfsr::from_state`] rebuilds an
    /// identical register from it alone.
    pub fn state(&self) -> LfsrState {
        LfsrState {
            width: self.width,
            taps: self.taps.clone(),
            state_words: self.state.clone(),
            position: self.position,
        }
    }

    /// Rebuilds a register from a captured state, continuing the pattern sequence exactly
    /// where [`Lfsr::state`] left it (`from_state(lfsr.state())` and `lfsr` produce identical
    /// streams in both directions).
    ///
    /// # Errors
    ///
    /// Every field is re-validated, so a corrupted capture fails loudly:
    ///
    /// * [`LfsrError::InvalidWidth`] / [`LfsrError::InvalidTaps`] for out-of-range geometry;
    /// * [`LfsrError::InvalidState`] when the word count does not match the width or bits are
    ///   set beyond it;
    /// * [`LfsrError::ZeroSeed`] for the all-zero (degenerate) pattern.
    pub fn from_state(state: &LfsrState) -> Result<Self, LfsrError> {
        if !(2..=MAX_WIDTH).contains(&state.width) {
            return Err(LfsrError::InvalidWidth { width: state.width });
        }
        validate_taps(state.width, &state.taps)?;
        if state.state_words.len() != words_for(state.width) {
            return Err(LfsrError::InvalidState {
                detail: format!(
                    "{} state words for a {}-bit register (need {})",
                    state.state_words.len(),
                    state.width,
                    words_for(state.width)
                ),
            });
        }
        let rem = state.width % 64;
        if rem != 0 {
            let last = state.state_words[state.state_words.len() - 1];
            if last & !((1u64 << rem) - 1) != 0 {
                return Err(LfsrError::InvalidState {
                    detail: format!("bits set beyond the {}-bit register width", state.width),
                });
            }
        }
        if state.state_words.iter().all(|&w| w == 0) {
            return Err(LfsrError::ZeroSeed);
        }
        let mut taps = state.taps.clone();
        taps.sort_unstable();
        Ok(Self {
            width: state.width,
            taps,
            state: state.state_words.clone(),
            position: state.position,
        })
    }

    /// Restores a captured state into this register in place (same validation as
    /// [`Lfsr::from_state`]; on error the current state is left untouched).
    ///
    /// # Errors
    ///
    /// Propagates the validation errors of [`Lfsr::from_state`].
    pub fn restore(&mut self, state: &LfsrState) -> Result<(), LfsrError> {
        *self = Self::from_state(state)?;
        Ok(())
    }

    /// Re-seeds the register in place from little-endian `seed_words` (the same convention as
    /// [`Lfsr::new`]), resetting [`Lfsr::position`] to zero without reallocating — the
    /// primitive that lets a serving worker reuse one register per replica across requests.
    ///
    /// # Errors
    ///
    /// Returns [`LfsrError::ZeroSeed`] (leaving the current state untouched) if the masked
    /// seed would be all zeroes.
    pub fn reseed_words(&mut self, seed_words: &[u64]) -> Result<(), LfsrError> {
        let rem = self.width % 64;
        let last = self.state.len() - 1;
        let masked = |i: usize| {
            let w = seed_words.get(i).copied().unwrap_or(0);
            if i == last && rem != 0 {
                w & ((1u64 << rem) - 1)
            } else {
                w
            }
        };
        if (0..self.state.len()).all(|i| masked(i) == 0) {
            return Err(LfsrError::ZeroSeed);
        }
        for i in 0..self.state.len() {
            self.state[i] = masked(i);
        }
        self.position = 0;
        Ok(())
    }

    /// Advances the register by `n` forward steps.
    pub fn step_forward_by(&mut self, n: usize) {
        for _ in 0..n {
            self.step_forward();
        }
    }

    /// Rewinds the register by `n` backward steps.
    pub fn step_backward_by(&mut self, n: usize) {
        for _ in 0..n {
            self.step_backward();
        }
    }

    /// Shift every register one position toward the tail (`R_i -> R_{i+1}`), i.e. a left shift
    /// of the packed little-endian bit vector. The head bit becomes stale and must be set by the
    /// caller.
    fn shift_right_one(&mut self) {
        let mut carry = 0u64;
        for word in self.state.iter_mut() {
            let new_carry = *word >> 63;
            *word = (*word << 1) | carry;
            carry = new_carry;
        }
        let rem = self.width % 64;
        if rem != 0 {
            if let Some(last) = self.state.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    /// Shift every register one position toward the head (`R_{i+1} -> R_i`), i.e. a right shift
    /// of the packed bit vector. The tail bit becomes stale and must be set by the caller.
    fn shift_left_one(&mut self) {
        let words = self.state.len();
        for i in 0..words {
            let upper = if i + 1 < words { self.state[i + 1] & 1 } else { 0 };
            self.state[i] = (self.state[i] >> 1) | (upper << 63);
        }
        let rem = self.width % 64;
        if rem != 0 {
            if let Some(last) = self.state.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lfsr8(seed: u64) -> Lfsr {
        Lfsr::with_maximal_taps(8, seed).unwrap()
    }

    #[test]
    fn construction_validates_width_taps_and_seed() {
        assert!(matches!(Lfsr::new(1, &[1], &[1]), Err(LfsrError::InvalidWidth { .. })));
        assert!(matches!(Lfsr::new(8, &[3, 5], &[1]), Err(LfsrError::InvalidTaps { .. })));
        assert!(matches!(Lfsr::new(8, &[4, 5, 6, 8], &[0]), Err(LfsrError::ZeroSeed)));
        assert!(Lfsr::new(8, &[4, 5, 6, 8], &[0xF0]).is_ok());
    }

    #[test]
    fn seed_bits_beyond_width_are_masked_off() {
        let lfsr = Lfsr::new(8, &[4, 5, 6, 8], &[0xFFFF]).unwrap();
        assert_eq!(lfsr.popcount(), 8);
    }

    #[test]
    fn register_indexing_matches_paper_convention() {
        // Seed 0b1111_0000 means R1..R4 = 0 and R5..R8 = 1 (bit i-1 of the word is R_i).
        let lfsr = lfsr8(0b1111_0000);
        assert!(!lfsr.register(1));
        assert!(!lfsr.register(4));
        assert!(lfsr.register(5));
        assert!(lfsr.register(8));
    }

    #[test]
    fn forward_step_matches_figure_4_example() {
        // Fig. 4(c): pattern #1 = 0 0 0 0 1 1 1 1 (R1..R8), taps R4 R5 R6 R8.
        // Feedback = R4 ^ R5 ^ R6 ^ R8 = 0 ^ 1 ^ 1 ^ 1 = 1, so pattern #2 = 1 0 0 0 0 1 1 1.
        let mut lfsr = lfsr8(0b1111_0000);
        let dropped = lfsr.step_forward();
        assert!(dropped, "the tail bit of pattern #1 is 1");
        let expect = vec![true, false, false, false, false, true, true, true];
        assert_eq!(lfsr.pattern(), expect);
        // Pattern #3 = 0 1 0 0 0 0 1 1 per Fig. 4(c).
        lfsr.step_forward();
        let expect = vec![false, true, false, false, false, false, true, true];
        assert_eq!(lfsr.pattern(), expect);
        // Pattern #4 = 1 0 1 0 0 0 0 1 per Fig. 4(c).
        lfsr.step_forward();
        let expect = vec![true, false, true, false, false, false, false, true];
        assert_eq!(lfsr.pattern(), expect);
    }

    #[test]
    fn backward_step_reproduces_figure_4_reverse_sequence() {
        let mut lfsr = lfsr8(0b1111_0000);
        let p1 = lfsr.pattern();
        lfsr.step_forward();
        let p2 = lfsr.pattern();
        lfsr.step_forward();
        let p3 = lfsr.pattern();
        lfsr.step_forward();
        // Reverse: #4 -> #3 -> #2 -> #1.
        lfsr.step_backward();
        assert_eq!(lfsr.pattern(), p3);
        lfsr.step_backward();
        assert_eq!(lfsr.pattern(), p2);
        lfsr.step_backward();
        assert_eq!(lfsr.pattern(), p1);
        assert_eq!(lfsr.position(), 0);
    }

    #[test]
    fn forward_then_backward_is_identity_for_many_steps() {
        let mut lfsr = Lfsr::shift_bnn_default(42).unwrap();
        let seed_state = lfsr.clone();
        lfsr.step_forward_by(1000);
        lfsr.step_backward_by(1000);
        assert_eq!(lfsr.state_words(), seed_state.state_words());
        assert_eq!(lfsr.position(), 0);
    }

    #[test]
    fn eight_bit_maximal_lfsr_has_period_255() {
        let mut lfsr = lfsr8(0x1);
        let seed = lfsr.pattern();
        let mut period = 0usize;
        loop {
            lfsr.step_forward();
            period += 1;
            if lfsr.pattern() == seed {
                break;
            }
            assert!(period <= 256, "period exceeded 2^8, taps are not maximal");
        }
        assert_eq!(period, 255);
    }

    #[test]
    fn four_bit_maximal_lfsr_has_period_15() {
        let mut lfsr = Lfsr::with_maximal_taps(4, 0b1000).unwrap();
        let seed = lfsr.pattern();
        let mut period = 0usize;
        loop {
            lfsr.step_forward();
            period += 1;
            if lfsr.pattern() == seed {
                break;
            }
            assert!(period <= 16);
        }
        assert_eq!(period, 15);
    }

    #[test]
    fn multiword_widths_shift_across_word_boundaries() {
        let mut lfsr = Lfsr::with_maximal_taps(128, 0xDEAD_BEEF_0BAD_F00D).unwrap();
        let start = lfsr.clone();
        lfsr.step_forward_by(300);
        assert_ne!(lfsr.state_words(), start.state_words());
        lfsr.step_backward_by(300);
        assert_eq!(lfsr.state_words(), start.state_words());
    }

    #[test]
    fn popcount_matches_pattern_ones() {
        let lfsr = Lfsr::shift_bnn_default(7).unwrap();
        let ones = lfsr.pattern().iter().filter(|&&b| b).count() as u32;
        assert_eq!(lfsr.popcount(), ones);
    }

    #[test]
    fn dropped_bits_round_trip_between_directions() {
        let mut lfsr = Lfsr::shift_bnn_default(11).unwrap();
        let mut dropped_fw = Vec::new();
        for _ in 0..64 {
            // The bit dropped from the tail going forward is exactly the bit the backward step
            // must reconstruct into the tail.
            let tail_before = lfsr.register(lfsr.width());
            assert_eq!(lfsr.step_forward(), tail_before);
            dropped_fw.push(tail_before);
        }
        for expected_tail in dropped_fw.iter().rev() {
            lfsr.step_backward();
            assert_eq!(lfsr.register(lfsr.width()), *expected_tail);
        }
    }

    #[test]
    fn state_round_trip_continues_the_stream() {
        let mut lfsr = Lfsr::shift_bnn_default(33).unwrap();
        lfsr.step_forward_by(137);
        let state = lfsr.state();
        let mut restored = Lfsr::from_state(&state).unwrap();
        assert_eq!(restored.position(), lfsr.position());
        for _ in 0..300 {
            assert_eq!(restored.step_forward(), lfsr.step_forward());
            assert_eq!(restored.state_words(), lfsr.state_words());
        }
        let mut in_place = Lfsr::shift_bnn_default(99).unwrap();
        in_place.restore(&state).unwrap();
        in_place.step_backward_by(10);
        restored.step_backward_by(310);
        assert_eq!(in_place.state_words(), restored.state_words());
    }

    #[test]
    fn from_state_rejects_corrupted_captures() {
        let lfsr = lfsr8(0xA5);
        let good = lfsr.state();

        let mut bad = good.clone();
        bad.width = 1;
        assert!(matches!(Lfsr::from_state(&bad), Err(LfsrError::InvalidWidth { .. })));

        let mut bad = good.clone();
        bad.taps = vec![3, 5];
        assert!(matches!(Lfsr::from_state(&bad), Err(LfsrError::InvalidTaps { .. })));

        let mut bad = good.clone();
        bad.state_words.push(0);
        assert!(matches!(Lfsr::from_state(&bad), Err(LfsrError::InvalidState { .. })));

        let mut bad = good.clone();
        bad.state_words[0] |= 1 << 9; // beyond the 8-bit width
        assert!(matches!(Lfsr::from_state(&bad), Err(LfsrError::InvalidState { .. })));

        let mut bad = good.clone();
        bad.state_words[0] = 0;
        assert!(matches!(Lfsr::from_state(&bad), Err(LfsrError::ZeroSeed)));
    }

    #[test]
    fn position_tracks_net_steps() {
        let mut lfsr = lfsr8(3);
        lfsr.step_forward_by(10);
        lfsr.step_backward_by(4);
        assert_eq!(lfsr.position(), 6);
    }
}
