//! Gaussian random number generation from LFSR patterns.
//!
//! Following VIBNN and Shift-BNN, a Gaussian random variable is obtained from an `n`-bit LFSR
//! pattern through the Central Limit Theorem: the number of ones in the pattern follows
//! `B(n, 0.5) ≈ N(n/2, n/4)`, so `ε = (ones − n/2) / sqrt(n/4)` is approximately a unit Gaussian.
//!
//! Shift-BNN's GRNG (Fig. 8(b) of the paper) adds two twists that are both modelled here:
//!
//! 1. **Three operating modes** — forward (FW stage), backward (BW stage) and idle — selected via
//!    [`Grng::set_mode`].
//! 2. **Incremental pop-count** — instead of recounting ones with an adder tree after every
//!    shift, the generator stores the seed's bit-sum and adds the difference between the bit that
//!    enters and the bit that leaves the register on each shift.

use crate::error::LfsrError;
use crate::lfsr::{Lfsr, LfsrState};

/// Operating mode of a [`Grng`], mirroring the three modes of the hardware GRNG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum GrngMode {
    /// Forward mode, used during the forward (FW) training stage: the LFSR shifts toward the
    /// tail and produces *new* ε values.
    #[default]
    Forward,
    /// Backward mode, used during backpropagation (BW/GC): the LFSR shifts toward the head and
    /// *retrieves* previously generated ε values in reverse order.
    Backward,
    /// Idle mode: registers hold their values; requesting an ε in this mode is a logic error.
    Idle,
}

/// A complete, restorable capture of a [`Grng`]'s state: the register capture plus the
/// pop-count/mode/outstanding bookkeeping of Fig. 8(b) — everything the checkpoint store
/// (`bnn-store`) needs so a restored generator continues both its forward and backward ε
/// streams bit-exactly.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GrngState {
    /// The underlying register capture.
    pub lfsr: LfsrState,
    /// Pop-count of the seed pattern (the "initial sum" register).
    pub initial_sum: u32,
    /// The incrementally maintained pop-count of the current pattern.
    pub current_sum: u32,
    /// The operating mode at capture time.
    pub mode: GrngMode,
    /// ε values generated forward and not yet retrieved backward.
    pub outstanding: i64,
}

/// A Gaussian random number generator backed by a reversible LFSR.
///
/// # Examples
///
/// Generate a forward ε stream and retrieve it again in reverse order without storing it:
///
/// ```
/// use bnn_lfsr::{Grng, GrngMode};
///
/// # fn main() -> Result<(), bnn_lfsr::LfsrError> {
/// let mut grng = Grng::shift_bnn_default(7)?;
/// let forward: Vec<f64> = (0..100).map(|_| grng.next_epsilon()).collect();
///
/// grng.set_mode(GrngMode::Backward);
/// let retrieved: Vec<f64> = (0..100).map(|_| grng.retrieve_epsilon()).collect();
///
/// let mut reversed = forward.clone();
/// reversed.reverse();
/// assert_eq!(retrieved, reversed);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Grng {
    lfsr: Lfsr,
    /// Pop-count of the seed pattern (the "initial sum" register of Fig. 8(b)).
    initial_sum: u32,
    /// Running pop-count maintained incrementally (the "bit update" path of Fig. 8(b)).
    current_sum: u32,
    mode: GrngMode,
    /// Number of ε values produced in forward mode minus values retrieved in backward mode.
    outstanding: i64,
}

impl Grng {
    /// Wraps an existing LFSR into a GRNG. The LFSR's current pattern becomes the seed pattern.
    pub fn from_lfsr(lfsr: Lfsr) -> Self {
        let sum = lfsr.popcount();
        Self { lfsr, initial_sum: sum, current_sum: sum, mode: GrngMode::Forward, outstanding: 0 }
    }

    /// Creates a GRNG over a maximal-length LFSR of the given width.
    ///
    /// # Errors
    ///
    /// Propagates [`LfsrError`] from LFSR construction (unknown width or zero seed).
    pub fn new(width: usize, seed: u64) -> Result<Self, LfsrError> {
        Ok(Self::from_lfsr(Lfsr::with_maximal_taps(width, seed)?))
    }

    /// Creates the 256-bit GRNG used by a Shift-BNN GRNG slice.
    ///
    /// # Errors
    ///
    /// Propagates [`LfsrError`] from LFSR construction.
    pub fn shift_bnn_default(seed: u64) -> Result<Self, LfsrError> {
        Ok(Self::from_lfsr(Lfsr::shift_bnn_default(seed)?))
    }

    /// The register width of the underlying LFSR.
    pub fn width(&self) -> usize {
        self.lfsr.width()
    }

    /// The current operating mode.
    pub fn mode(&self) -> GrngMode {
        self.mode
    }

    /// Switches the operating mode (forward / backward / idle).
    pub fn set_mode(&mut self, mode: GrngMode) {
        self.mode = mode;
    }

    /// Number of ε values generated forward and not yet retrieved backward.
    pub fn outstanding(&self) -> i64 {
        self.outstanding
    }

    /// Pop-count of the seed pattern.
    pub fn initial_sum(&self) -> u32 {
        self.initial_sum
    }

    /// The incrementally maintained pop-count of the current pattern.
    pub fn current_sum(&self) -> u32 {
        self.current_sum
    }

    /// Borrow of the underlying LFSR (for inspection in tests and the micro-simulator).
    pub fn lfsr(&self) -> &Lfsr {
        &self.lfsr
    }

    /// Converts a pattern pop-count into a unit Gaussian variable via the CLT approximation.
    pub fn epsilon_from_sum(&self, sum: u32) -> f64 {
        let n = self.lfsr.width() as f64;
        (f64::from(sum) - 0.5 * n) / (0.25 * n).sqrt()
    }

    /// The ε corresponding to the register's *current* pattern (no shift).
    pub fn current_epsilon(&self) -> f64 {
        self.epsilon_from_sum(self.current_sum)
    }

    /// Generates the next ε: shifts the LFSR forward once and returns the new pattern's ε.
    ///
    /// # Panics
    ///
    /// Panics if the GRNG is in [`GrngMode::Idle`] or [`GrngMode::Backward`]; hardware would
    /// simply not clock the register, and calling this in the wrong mode indicates a dataflow
    /// bug in the caller.
    pub fn next_epsilon(&mut self) -> f64 {
        assert_eq!(self.mode, GrngMode::Forward, "next_epsilon requires forward mode");
        let entering = self.lfsr.feedback_bit();
        let leaving = self.lfsr.step_forward();
        self.current_sum = self.current_sum + u32::from(entering) - u32::from(leaving);
        debug_assert_eq!(self.current_sum, self.lfsr.popcount());
        self.outstanding += 1;
        crate::profile::record_epsilon(1);
        self.current_epsilon()
    }

    /// Retrieves the most recently generated (and not yet retrieved) ε by reading the current
    /// pattern and then shifting the LFSR backward once.
    ///
    /// Calling this repeatedly returns the forward ε stream in exactly reversed order, which is
    /// the order backpropagation consumes the weight samples in (last layer first, kernels
    /// rotated 180°).
    ///
    /// # Panics
    ///
    /// Panics if the GRNG is not in [`GrngMode::Backward`].
    pub fn retrieve_epsilon(&mut self) -> f64 {
        assert_eq!(self.mode, GrngMode::Backward, "retrieve_epsilon requires backward mode");
        let epsilon = self.current_epsilon();
        let leaving_head = self.lfsr.step_backward();
        let entering_tail = self.lfsr.register(self.lfsr.width());
        self.current_sum = self.current_sum + u32::from(entering_tail) - u32::from(leaving_head);
        debug_assert_eq!(self.current_sum, self.lfsr.popcount());
        self.outstanding -= 1;
        epsilon
    }

    /// The word-parallel forward core: produces `count` ε values through `emit(index, ε)`,
    /// stepping the LFSR in 64-bit batches wherever the register supports it
    /// ([`crate::Lfsr::supports_batch64`]) and bit-serially otherwise. The emitted stream is
    /// bit-identical to `count` calls of [`Grng::next_epsilon`] — the batch only changes *how*
    /// the register advances, never which patterns it visits (pinned by
    /// `tests/word_parallel.rs`).
    fn fill_forward_with(&mut self, count: usize, mut emit: impl FnMut(usize, f64)) {
        assert_eq!(self.mode, GrngMode::Forward, "ε generation requires forward mode");
        let mut i = 0;
        if self.lfsr.supports_batch64() {
            while count - i >= 64 {
                let (entering, leaving) = self.lfsr.step_forward64();
                let mut sum = self.current_sum;
                for j in 0..64 {
                    let bit = 63 - j;
                    sum = sum + (((entering >> bit) & 1) as u32) - (((leaving >> bit) & 1) as u32);
                    emit(i + j, self.epsilon_from_sum(sum));
                }
                self.current_sum = sum;
                debug_assert_eq!(self.current_sum, self.lfsr.popcount());
                self.outstanding += 64;
                crate::profile::record_epsilon(64);
                i += 64;
            }
        }
        while i < count {
            emit(i, self.next_epsilon());
            i += 1;
        }
    }

    /// Fills `out` with the next forward ε values as `f32` — the word-parallel,
    /// zero-allocation variant of [`Grng::generate`] that the training/serving hot path uses
    /// (each value is the `f64` ε narrowed with `as f32`, exactly as the call sites used to).
    ///
    /// # Panics
    ///
    /// Panics unless the GRNG is in [`GrngMode::Forward`].
    pub fn fill_epsilon(&mut self, out: &mut [f32]) {
        self.fill_forward_with(out.len(), |i, e| out[i] = e as f32);
    }

    /// The word-parallel backward core, the mirror of `fill_forward_with`: retrieves `count`
    /// ε values through `emit(index, ε)` in retrieval order (last generated first), rewinding
    /// the LFSR in 64-bit batches ([`crate::Lfsr::step_backward64`]) wherever the register
    /// supports it and bit-serially otherwise. The emitted stream is bit-identical to `count`
    /// calls of [`Grng::retrieve_epsilon`] (pinned by `tests/word_parallel.rs`).
    fn fill_backward_with(&mut self, count: usize, mut emit: impl FnMut(usize, f64)) {
        assert_eq!(self.mode, GrngMode::Backward, "ε retrieval requires backward mode");
        let mut i = 0;
        if self.lfsr.supports_batch64() {
            while count - i >= 64 {
                let (entering, leaving) = self.lfsr.step_backward64();
                let mut sum = self.current_sum;
                for j in 0..64 {
                    emit(i + j, self.epsilon_from_sum(sum));
                    sum = sum + (((entering >> j) & 1) as u32) - (((leaving >> j) & 1) as u32);
                }
                self.current_sum = sum;
                debug_assert_eq!(self.current_sum, self.lfsr.popcount());
                self.outstanding -= 64;
                i += 64;
            }
        }
        while i < count {
            emit(i, self.retrieve_epsilon());
            i += 1;
        }
    }

    /// Fills `out` with retrieved ε values **in generation order** (the backward LFSR walk
    /// visits them last-first; this writes back-to-front so callers get the block exactly as
    /// it was generated) — the word-parallel, zero-allocation variant of reversing
    /// [`Grng::retrieve`].
    ///
    /// # Panics
    ///
    /// Panics unless the GRNG is in [`GrngMode::Backward`].
    pub fn fill_retrieved(&mut self, out: &mut [f32]) {
        let last = out.len().saturating_sub(1);
        self.fill_backward_with(out.len(), |i, e| out[last - i] = e as f32);
    }

    /// Advances the generator past `count` forward ε values without emitting them — ending in
    /// exactly the state `count` calls of [`Grng::next_epsilon`] would leave (register,
    /// pop-count and outstanding balance), but using word-parallel batches where supported.
    /// This is how Shift-BNN's retrieval source fast-forwards at iteration end so the next
    /// iteration draws fresh noise.
    ///
    /// # Panics
    ///
    /// Panics unless the GRNG is in [`GrngMode::Forward`].
    pub fn skip_forward(&mut self, count: usize) {
        assert_eq!(self.mode, GrngMode::Forward, "skip_forward requires forward mode");
        let mut remaining = count;
        if self.lfsr.supports_batch64() {
            while remaining >= 64 {
                self.lfsr.step_forward64();
                self.outstanding += 64;
                remaining -= 64;
            }
            self.current_sum = self.lfsr.popcount();
        }
        for _ in 0..remaining {
            self.next_epsilon();
        }
    }

    /// Generates `count` forward ε values (delegates to the word-parallel fill core).
    pub fn generate(&mut self, count: usize) -> Vec<f64> {
        let mut out = vec![0.0f64; count];
        let out_ref = &mut out;
        self.fill_forward_with(count, |i, e| out_ref[i] = e);
        out
    }

    /// Retrieves `count` ε values in reverse generation order (delegates to the word-parallel
    /// backward core).
    pub fn retrieve(&mut self, count: usize) -> Vec<f64> {
        let mut out = vec![0.0f64; count];
        let out_ref = &mut out;
        self.fill_backward_with(count, |i, e| out_ref[i] = e);
        out
    }

    /// Re-seeds the GRNG in place as if freshly built by [`Grng::shift_bnn_default`] with
    /// `seed`, without allocating: the serving engine's way of reusing one GRNG per replica
    /// across requests.
    ///
    /// # Panics
    ///
    /// Panics if the underlying register is not the 256-bit Shift-BNN default width (callers
    /// of other widths use [`Grng::reseed_plain`]).
    pub fn reseed_shift_bnn(&mut self, seed: u64) {
        assert_eq!(self.width(), 256, "reseed_shift_bnn requires the 256-bit default register");
        let words = crate::lfsr::shift_bnn_seed_words(seed);
        self.lfsr.reseed_words(&words).expect("splitmix seed expansion is never all zero");
        self.reset_counters();
    }

    /// Re-seeds the GRNG in place as if freshly built by [`Grng::new`] with this width and
    /// `seed`, without allocating.
    ///
    /// # Errors
    ///
    /// Returns [`LfsrError::ZeroSeed`] (leaving the state untouched) if `seed` masks to zero.
    pub fn reseed_plain(&mut self, seed: u64) -> Result<(), LfsrError> {
        self.lfsr.reseed_words(&[seed])?;
        self.reset_counters();
        Ok(())
    }

    /// Captures the generator's complete state ([`GrngState`]) for later restoration or
    /// serialization by the checkpoint store.
    pub fn state(&self) -> GrngState {
        GrngState {
            lfsr: self.lfsr.state(),
            initial_sum: self.initial_sum,
            current_sum: self.current_sum,
            mode: self.mode,
            outstanding: self.outstanding,
        }
    }

    /// Rebuilds a generator from a captured state; the result continues the forward and
    /// backward ε streams exactly where [`Grng::state`] left them.
    ///
    /// # Errors
    ///
    /// Propagates the register validation of [`Lfsr::from_state`], and additionally returns
    /// [`LfsrError::InvalidState`] when the captured sums are inconsistent with the register
    /// pattern (the incremental pop-count invariant would otherwise be silently broken).
    pub fn from_state(state: &GrngState) -> Result<Self, LfsrError> {
        let lfsr = Lfsr::from_state(&state.lfsr)?;
        if state.current_sum != lfsr.popcount() {
            return Err(LfsrError::InvalidState {
                detail: format!(
                    "current_sum {} does not match the pattern pop-count {}",
                    state.current_sum,
                    lfsr.popcount()
                ),
            });
        }
        if state.initial_sum > lfsr.width() as u32 {
            return Err(LfsrError::InvalidState {
                detail: format!(
                    "initial_sum {} exceeds the {}-bit register width",
                    state.initial_sum,
                    lfsr.width()
                ),
            });
        }
        Ok(Self {
            lfsr,
            initial_sum: state.initial_sum,
            current_sum: state.current_sum,
            mode: state.mode,
            outstanding: state.outstanding,
        })
    }

    /// Restores a captured state into this generator in place (same validation as
    /// [`Grng::from_state`]; on error the current state is left untouched).
    ///
    /// # Errors
    ///
    /// Propagates the validation errors of [`Grng::from_state`].
    pub fn restore(&mut self, state: &GrngState) -> Result<(), LfsrError> {
        *self = Self::from_state(state)?;
        Ok(())
    }

    fn reset_counters(&mut self) {
        let sum = self.lfsr.popcount();
        self.initial_sum = sum;
        self.current_sum = sum;
        self.mode = GrngMode::Forward;
        self.outstanding = 0;
    }

    /// Full recount of the current pattern's ones using the LFSR state, bypassing the
    /// incremental sum. Exposed so benchmarks can compare the adder-tree recount against the
    /// incremental path (the ablation called out in DESIGN.md).
    pub fn recount_epsilon(&self) -> f64 {
        self.epsilon_from_sum(self.lfsr.popcount())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_sum_always_matches_full_popcount() {
        let mut grng = Grng::shift_bnn_default(1234).unwrap();
        for _ in 0..500 {
            grng.next_epsilon();
            assert_eq!(grng.current_sum(), grng.lfsr().popcount());
        }
        grng.set_mode(GrngMode::Backward);
        for _ in 0..500 {
            grng.retrieve_epsilon();
            assert_eq!(grng.current_sum(), grng.lfsr().popcount());
        }
    }

    #[test]
    fn retrieval_reproduces_forward_stream_in_reverse_bit_exactly() {
        let mut grng = Grng::new(64, 0xACE1).unwrap();
        let forward = grng.generate(257);
        grng.set_mode(GrngMode::Backward);
        let retrieved = grng.retrieve(257);
        let mut reversed = forward;
        reversed.reverse();
        assert_eq!(retrieved, reversed);
        assert_eq!(grng.outstanding(), 0);
        // After full retrieval the register holds the seed again.
        assert_eq!(grng.current_sum(), grng.initial_sum());
    }

    #[test]
    fn epsilon_has_zero_mean_unit_scale_mapping() {
        let grng = Grng::new(16, 0xFFFF).unwrap();
        // All ones: sum = 16, mean 8, std 2 -> epsilon = 4.
        assert!((grng.current_epsilon() - 4.0).abs() < 1e-12);
        assert!((grng.epsilon_from_sum(8) - 0.0).abs() < 1e-12);
        assert!((grng.epsilon_from_sum(6) + 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "forward mode")]
    fn next_epsilon_panics_in_backward_mode() {
        let mut grng = Grng::new(8, 1).unwrap();
        grng.set_mode(GrngMode::Backward);
        grng.next_epsilon();
    }

    #[test]
    #[should_panic(expected = "backward mode")]
    fn retrieve_epsilon_panics_in_forward_mode() {
        let mut grng = Grng::new(8, 1).unwrap();
        grng.retrieve_epsilon();
    }

    #[test]
    fn idle_mode_holds_state() {
        let mut grng = Grng::new(8, 3).unwrap();
        grng.set_mode(GrngMode::Idle);
        assert_eq!(grng.mode(), GrngMode::Idle);
        // No API mutates the register in idle mode; current ε stays put.
        let e = grng.current_epsilon();
        assert_eq!(e, grng.current_epsilon());
    }

    #[test]
    fn recount_matches_incremental_path() {
        let mut grng = Grng::shift_bnn_default(99).unwrap();
        for _ in 0..100 {
            let inc = grng.next_epsilon();
            assert_eq!(inc, grng.recount_epsilon());
        }
    }

    #[test]
    fn distinct_seeds_produce_distinct_streams() {
        let mut a = Grng::shift_bnn_default(1).unwrap();
        let mut b = Grng::shift_bnn_default(2).unwrap();
        let sa = a.generate(32);
        let sb = b.generate(32);
        assert_ne!(sa, sb);
    }

    #[test]
    fn state_round_trip_continues_both_directions() {
        let mut grng = Grng::shift_bnn_default(1234).unwrap();
        grng.generate(77);
        let state = grng.state();
        let mut restored = Grng::from_state(&state).unwrap();
        assert_eq!(restored.generate(64), grng.generate(64));
        grng.set_mode(GrngMode::Backward);
        restored.set_mode(GrngMode::Backward);
        assert_eq!(restored.retrieve(100), grng.retrieve(100));
        assert_eq!(restored.outstanding(), grng.outstanding());
    }

    #[test]
    fn from_state_rejects_inconsistent_sums() {
        let grng = Grng::new(16, 0xACE1).unwrap();
        let mut state = grng.state();
        state.current_sum += 1;
        assert!(matches!(Grng::from_state(&state), Err(LfsrError::InvalidState { .. })));
        let mut state = grng.state();
        state.initial_sum = 17;
        assert!(matches!(Grng::from_state(&state), Err(LfsrError::InvalidState { .. })));
        // Restore leaves the target untouched on error.
        let mut target = Grng::new(16, 0xBEEF).unwrap();
        let before = target.clone();
        assert!(target.restore(&state).is_err());
        assert_eq!(target, before);
    }

    #[test]
    fn outstanding_tracks_generation_and_retrieval() {
        let mut grng = Grng::new(32, 5).unwrap();
        grng.generate(10);
        assert_eq!(grng.outstanding(), 10);
        grng.set_mode(GrngMode::Backward);
        grng.retrieve(4);
        assert_eq!(grng.outstanding(), 6);
    }
}
