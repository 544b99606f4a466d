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
//!
//! # Word-parallel extraction
//!
//! The hardware updates its sum once per shift, a serial chain of ±1 steps. The software twin
//! keeps the same invariant — `current_sum` is always the pattern's pop-count — but moves up
//! to 64 shifts per word operation and reads all of a batch's sums from prefix counts of the
//! batch's entering and leaving bits:
//!
//! * **Forward.** Step `j` of the batch sits at bit `63 − j` of both words, so the sum after
//!   step `r` is `current_sum + ones(entering, top r+1 bits) − ones(leaving, top r+1 bits)`.
//! * **Backward.** Take the sum after the batch, `S = current_sum + popcnt(entering) −
//!   popcnt(leaving)`. Step `j` of a `k`-step rewind sits at bit `j`; shifted up to bit
//!   `64 − k + j`, the top `r + 1` bits are the batch's last `r + 1` steps, and the pattern
//!   those steps walk back over is the `r`-th of the block in generation order. Its sum is
//!   `S − ones(entering, top r+1) + ones(leaving, top r+1)`: the forward form with the roles
//!   swapped and the base at the batch's far end, so the block comes out already in
//!   generation order.
//!
//! Every fill and [`Grng::skip_forward`] choose their walk once per call from the register's
//! width and taps. The 128-, 192- and 256-bit maximal-tap registers, whose taps all sit at
//! position ≥ 64, run one batch walk compiled per geometry, with the word count and tap
//! positions as constants: it copies the register's words into a local array, moves each
//! whole 64-step batch as a word rotation (forward, the new word is an XOR of constant-shift
//! tap extractions; backward, constant rewind rounds recover it), writes the batch's 64 ε as
//! one fixed chunk, and writes the words, position, sum and outstanding count back once. A
//! block that is not a whole number of words ends in one batch of `k < 64` steps through the
//! same body. Every other register — the narrow widths, and any custom tap set — steps
//! bit-serially through [`Grng::next_epsilon`] and [`Grng::retrieve_epsilon`].
//!
//! The prefix counts come eight at a time from a const 256×8 table of byte prefix counts.
//! Consecutive octet bases differ by the earlier octet's two rows' last lanes (its whole-byte
//! counts): a scalar chain that runs up from the sum before a forward batch and down from the
//! sum before a rewind, so no pop-count is taken. A sum maps straight to an `f32`: by
//! `(s − n/2)·c` in `f32` arithmetic when that reproduces every entry of
//! [`Grng::epsilon_table`] narrowed to `f32` (checked once per width when its tables are
//! built; true for the 256-bit default, `(s − 128)·0.125`), else by a load from an `f32`
//! copy of the table (the 128- and 192-bit registers). Where the CPU has AVX2 the affine
//! map's eight lanes are two integer ops, one convert and one multiply; elsewhere the same
//! integer arithmetic runs in portable Rust. The lane integers are the scalar ones and the
//! convert is exact, so both round as `(s − n/2) as f32 * c` does.

use crate::error::LfsrError;
use crate::lfsr::{
    Batch128, Batch192, Batch256, BatchRegister, Geometry, Lfsr, LfsrState, MAX_WIDTH,
};
use std::sync::OnceLock;

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

    /// The pop-count → ε table the word-parallel fills read: entry `s` equals
    /// [`Grng::epsilon_from_sum`]`(s)` for every `s` in `0..=width`. A pattern's ε depends
    /// only on its pop-count, so the table replaces a divide per ε with a load. It is built
    /// on first use, once per width, and shared by all generators of that width, so
    /// constructing a generator never pays for it.
    pub fn epsilon_table(&self) -> &'static [f64] {
        &self.maps().table
    }

    /// This width's [`EpsilonMaps`], built on first use and shared by every generator of the
    /// width.
    fn maps(&self) -> &'static EpsilonMaps {
        // Slots are grouped 64 widths to a lazily allocated block: a flat static array of one
        // `OnceLock` per width would put ~100 KB of initialized data in the binary.
        type Block = [OnceLock<EpsilonMaps>; 64];
        static BLOCKS: [OnceLock<Box<Block>>; MAX_WIDTH / 64 + 1] =
            [const { OnceLock::new() }; MAX_WIDTH / 64 + 1];
        let width = self.lfsr.width();
        let block = BLOCKS[width / 64].get_or_init(|| Box::new([const { OnceLock::new() }; 64]));
        block[width % 64].get_or_init(|| {
            let table: Box<[f64]> =
                (0..=width as u32).map(|sum| self.epsilon_from_sum(sum)).collect();
            let half = (width / 2) as i32;
            let scale = (1.0 / (0.25 * width as f64).sqrt()) as f32;
            let exact = (0..)
                .zip(&table)
                .all(|(s, &e)| Affine { half, scale }.map(s).to_bits() == (e as f32).to_bits());
            let narrow = if exact {
                NarrowMap::Affine { half, scale }
            } else {
                NarrowMap::Table(table.iter().map(|&e| e as f32).collect())
            };
            EpsilonMaps { table, narrow }
        })
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

    /// The ε walk behind every fill: generates (`FORWARD`) or retrieves the next
    /// `out.len()` ε values, mapping each pattern's pop-count through `map`. Forward, `out`
    /// receives the stream in order; backward, the last `out.len()` generated values **in
    /// generation order**. The register's walk is chosen once per call from its geometry
    /// ([`Lfsr::geometry`]): the three batch registers run [`Grng::walk_batches`]; any other
    /// register steps with [`Grng::next_epsilon`] or [`Grng::retrieve_epsilon`] per value
    /// and reads each pop-count through the same `map`. `map` returns the ε of a pop-count
    /// (a table entry or `(s − n/2)·c`), so every path is bit-identical to `out.len()` calls
    /// of the bit-serial step (pinned by `tests/word_parallel.rs`).
    #[inline(always)]
    fn walk<const FORWARD: bool, M: EpsilonMap>(&mut self, out: &mut [M::Out], map: M) {
        if FORWARD {
            assert_eq!(self.mode, GrngMode::Forward, "ε generation requires forward mode");
        } else {
            assert_eq!(self.mode, GrngMode::Backward, "ε retrieval requires backward mode");
        }
        match self.lfsr.geometry() {
            Geometry::Batch128 => {
                self.walk_batches::<FORWARD, _, _, _, _, _>(Batch128::load(&self.lfsr), out, map)
            }
            Geometry::Batch192 => {
                self.walk_batches::<FORWARD, _, _, _, _, _>(Batch192::load(&self.lfsr), out, map)
            }
            Geometry::Batch256 => {
                self.walk_batches::<FORWARD, _, _, _, _, _>(Batch256::load(&self.lfsr), out, map)
            }
            Geometry::BitSerial if FORWARD => {
                for slot in out.iter_mut() {
                    self.next_epsilon();
                    *slot = map.map(self.current_sum as i32);
                }
            }
            Geometry::BitSerial => {
                for slot in out.iter_mut().rev() {
                    *slot = map.map(self.current_sum as i32);
                    self.retrieve_epsilon();
                }
            }
        }
    }

    /// The batch walk over `register`, a copy of this generator's register: one batch per
    /// whole 64-value chunk of `out` — forward from the front, backward from the back — then
    /// one batch of fewer than 64 steps for what is left, if anything is ([`fill_batch`]).
    /// The words, the position, `current_sum` and `outstanding` are written back once, at
    /// the end.
    #[inline(always)]
    fn walk_batches<
        const FORWARD: bool,
        const N: usize,
        const A: usize,
        const B: usize,
        const C: usize,
        M: EpsilonMap,
    >(
        &mut self,
        mut register: BatchRegister<N, A, B, C>,
        out: &mut [M::Out],
        map: M,
    ) {
        let mut sum = self.current_sum as i32;
        if FORWARD {
            let (whole, rest) = out.as_chunks_mut::<64>();
            for chunk in whole {
                fill_batch::<FORWARD, _, _, _, _, _>(&mut register, &mut sum, map, chunk);
            }
            if !rest.is_empty() {
                fill_batch::<FORWARD, _, _, _, _, _>(&mut register, &mut sum, map, rest);
            }
        } else {
            let (rest, whole) = out.as_rchunks_mut::<64>();
            for chunk in whole.iter_mut().rev() {
                fill_batch::<FORWARD, _, _, _, _, _>(&mut register, &mut sum, map, chunk);
            }
            if !rest.is_empty() {
                fill_batch::<FORWARD, _, _, _, _, _>(&mut register, &mut sum, map, rest);
            }
        }
        let steps = if FORWARD { out.len() as i64 } else { -(out.len() as i64) };
        register.store(&mut self.lfsr, steps);
        self.current_sum = sum as u32;
        debug_assert_eq!(self.current_sum, self.lfsr.popcount());
        self.outstanding += steps;
        if FORWARD {
            crate::profile::record_epsilon(out.len() as u64);
        }
    }

    /// [`Grng::walk`] with the affine map, through the AVX2 octet body where the CPU has
    /// AVX2 and the portable one elsewhere.
    fn walk_affine<const FORWARD: bool>(&mut self, out: &mut [f32], map: Affine) {
        #[cfg(target_arch = "x86_64")]
        if let Some(map) = Avx2Affine::detect(map) {
            // SAFETY: `detect` returns a map only when this CPU has AVX2.
            return unsafe { self.walk_avx2::<FORWARD>(out, map) };
        }
        self.walk::<FORWARD, _>(out, map);
    }

    /// [`Grng::walk`] compiled with AVX2 enabled, so that [`Avx2Affine`]'s octet body
    /// inlines into it.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn walk_avx2<const FORWARD: bool>(&mut self, out: &mut [f32], map: Avx2Affine) {
        self.walk::<FORWARD, _>(out, map);
    }

    /// Fills `out` with the next forward ε values as `f32` — the word-parallel,
    /// zero-allocation variant of [`Grng::generate`] that the training/serving hot path uses
    /// (each value is the `f64` ε narrowed with `as f32`, bit for bit).
    ///
    /// # Panics
    ///
    /// Panics unless the GRNG is in [`GrngMode::Forward`].
    pub fn fill_epsilon(&mut self, out: &mut [f32]) {
        match &self.maps().narrow {
            &NarrowMap::Affine { half, scale } => {
                self.walk_affine::<true>(out, Affine { half, scale });
            }
            NarrowMap::Table(table) => self.walk::<true, _>(out, Table(table)),
        }
    }

    /// Fills `out` with retrieved ε values **in generation order** (the backward LFSR walk
    /// visits them last-first; `out` receives the block exactly as it was generated) — the
    /// word-parallel, zero-allocation variant of reversing [`Grng::retrieve`].
    ///
    /// # Panics
    ///
    /// Panics unless the GRNG is in [`GrngMode::Backward`].
    pub fn fill_retrieved(&mut self, out: &mut [f32]) {
        match &self.maps().narrow {
            &NarrowMap::Affine { half, scale } => {
                self.walk_affine::<false>(out, Affine { half, scale });
            }
            NarrowMap::Table(table) => self.walk::<false, _>(out, Table(table)),
        }
    }

    /// Advances the generator past `count` forward ε values without emitting them — ending in
    /// exactly the state `count` calls of [`Grng::next_epsilon`] would leave (register,
    /// pop-count and outstanding balance), without counting the skipped values in
    /// [`crate::profile`]. A batch register moves whole words by rotation and ends in at
    /// most one batch of fewer than 64 steps; any other register steps bit-serially.
    /// This is how Shift-BNN's retrieval source fast-forwards at iteration end so the next
    /// iteration draws fresh noise.
    ///
    /// # Panics
    ///
    /// Panics unless the GRNG is in [`GrngMode::Forward`].
    pub fn skip_forward(&mut self, count: usize) {
        assert_eq!(self.mode, GrngMode::Forward, "skip_forward requires forward mode");
        match self.lfsr.geometry() {
            Geometry::Batch128 => Batch128::skip(&mut self.lfsr, count),
            Geometry::Batch192 => Batch192::skip(&mut self.lfsr, count),
            Geometry::Batch256 => Batch256::skip(&mut self.lfsr, count),
            Geometry::BitSerial => self.lfsr.step_forward_by(count),
        }
        self.current_sum = self.lfsr.popcount();
        self.outstanding += count as i64;
    }

    /// Generates `count` forward ε values (the same walk as [`Grng::fill_epsilon`], through
    /// the `f64` table).
    pub fn generate(&mut self, count: usize) -> Vec<f64> {
        let mut out = vec![0.0f64; count];
        self.walk::<true, _>(&mut out, Table(self.epsilon_table()));
        out
    }

    /// Retrieves `count` ε values in reverse generation order (the same walk as
    /// [`Grng::fill_retrieved`], through the `f64` table).
    pub fn retrieve(&mut self, count: usize) -> Vec<f64> {
        let mut out = vec![0.0f64; count];
        self.walk::<false, _>(&mut out, Table(self.epsilon_table()));
        out.reverse();
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

/// `PREFIX_ONES[b][i]` is the number of ones among the top `i + 1` bits of byte `b`.
const PREFIX_ONES: [[i32; 8]; 256] = {
    let mut table = [[0i32; 8]; 256];
    let mut byte = 0;
    while byte < 256 {
        let mut i = 0;
        while i < 8 {
            table[byte][i] = ((byte as u8) >> (7 - i)).count_ones() as i32;
            i += 1;
        }
        byte += 1;
    }
    table
};

/// The byte of `word` holding bits `63 − 8i` down to `56 − 8i`.
fn octet(word: u64, i: usize) -> usize {
    usize::from((word >> (56 - 8 * i)) as u8)
}

/// One batch of `out.len() ≤ 64` steps of [`Grng::walk_batches`]. Forward, the batch's
/// pop-counts are `sum + ones(entering, top r+1) − ones(leaving, top r+1)` on the sum
/// before it; backward, they are the same form with the two words swapped, shifted to the
/// top, and the sum after the rewind as base, which puts the batch in generation order
/// (module docs). `sum` moves to the sum after the batch. A whole chunk's `k = 64` is a
/// constant here, so the register's batch is a word rotation.
#[inline(always)]
fn fill_batch<
    const FORWARD: bool,
    const N: usize,
    const A: usize,
    const B: usize,
    const C: usize,
    M: EpsilonMap,
>(
    register: &mut BatchRegister<N, A, B, C>,
    sum: &mut i32,
    map: M,
    out: &mut [M::Out],
) {
    let k = out.len();
    if FORWARD {
        let (entering, leaving) = register.forward(k);
        *sum = prefix_fill::<FORWARD, M>(map, *sum, entering, leaving, out);
    } else {
        let (entering, leaving) = register.backward(k);
        *sum = prefix_fill::<FORWARD, M>(map, *sum, leaving << (64 - k), entering << (64 - k), out);
    }
}

/// Writes `out[r] = map(base + ones(plus, top r+1 bits) − ones(minus, top r+1 bits))` for
/// every `r < out.len() ≤ 64`, eight lanes at a time from `PREFIX_ONES`, and returns the
/// sum at the batch's far end. The bits of `plus` and `minus` past `out.len()` are zero.
/// Each octet's base differs from the next one's by its two rows' last lanes (whole-byte
/// counts), so the only chain from octet to octet is a scalar add, and no separate pop-count
/// is taken. Forward, `sum` is the base of the first octet and the chain runs up to the
/// sum after the batch; backward, `sum` is the sum before the rewind, the base past the last
/// octet, and the chain runs down, from the last octet to the first, to the sum after it.
#[inline(always)]
fn prefix_fill<const FORWARD: bool, M: EpsilonMap>(
    map: M,
    sum: i32,
    plus: u64,
    minus: u64,
    out: &mut [M::Out],
) -> i32 {
    let rows = |i: usize| (&PREFIX_ONES[octet(plus, i)], &PREFIX_ONES[octet(minus, i)]);
    let (octets, rest) = out.as_chunks_mut::<8>();
    let last = octets.len();
    let mut base = sum;
    if FORWARD {
        for (i, dst) in octets.iter_mut().enumerate() {
            let (p, m) = rows(i);
            map.octet(base, p, m, dst);
            base += p[7] - m[7];
        }
        if !rest.is_empty() {
            let (p, m) = rows(last);
            map.part(base, p, m, rest);
            base += p[7] - m[7];
        }
    } else {
        if !rest.is_empty() {
            let (p, m) = rows(last);
            base -= p[7] - m[7];
            map.part(base, p, m, rest);
        }
        for (i, dst) in octets.iter_mut().enumerate().rev() {
            let (p, m) = rows(i);
            base -= p[7] - m[7];
            map.octet(base, p, m, dst);
        }
    }
    base
}

/// How a walk turns pop-counts into output values.
trait EpsilonMap: Copy {
    /// The output value type.
    type Out: Copy + Default;

    /// The value of pop-count `sum`.
    fn map(self, sum: i32) -> Self::Out;

    /// `out[r] = map(base + plus[r] − minus[r])` for the eight lanes of one octet.
    #[inline(always)]
    fn octet(self, base: i32, plus: &[i32; 8], minus: &[i32; 8], out: &mut [Self::Out; 8]) {
        for ((o, &p), &m) in out.iter_mut().zip(plus).zip(minus) {
            *o = self.map(base + p - m);
        }
    }

    /// [`EpsilonMap::octet`]'s first `out.len() < 8` lanes.
    #[inline(always)]
    fn part(self, base: i32, plus: &[i32; 8], minus: &[i32; 8], out: &mut [Self::Out]) {
        let mut lanes = [Self::Out::default(); 8];
        self.octet(base, plus, minus, &mut lanes);
        out.copy_from_slice(&lanes[..out.len()]);
    }
}

/// The affine `f32` map `(s − half)·scale`, used where it reproduces every narrowed table
/// entry ([`NarrowMap::Affine`]).
#[derive(Debug, Clone, Copy)]
struct Affine {
    half: i32,
    scale: f32,
}

impl EpsilonMap for Affine {
    type Out = f32;

    #[inline(always)]
    fn map(self, sum: i32) -> f32 {
        (sum - self.half) as f32 * self.scale
    }
}

/// A pop-count → ε table (`f32` narrowed or `f64`).
#[derive(Debug, Clone, Copy)]
struct Table<'a, T>(&'a [T]);

impl<T: Copy + Default> EpsilonMap for Table<'_, T> {
    type Out = T;

    #[inline(always)]
    fn map(self, sum: i32) -> T {
        self.0[sum as usize]
    }
}

/// [`Affine`] with an AVX2 octet body. A value exists only once [`Avx2Affine::detect`] has
/// seen AVX2 on this CPU.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy)]
struct Avx2Affine(Affine);

#[cfg(target_arch = "x86_64")]
impl Avx2Affine {
    /// `map` with the AVX2 octet body, if this CPU has AVX2 (the standard library caches
    /// the detection).
    fn detect(map: Affine) -> Option<Self> {
        std::arch::is_x86_feature_detected!("avx2").then_some(Self(map))
    }
}

#[cfg(target_arch = "x86_64")]
impl EpsilonMap for Avx2Affine {
    type Out = f32;

    #[inline(always)]
    fn map(self, sum: i32) -> f32 {
        self.0.map(sum)
    }

    #[inline(always)]
    fn octet(self, base: i32, plus: &[i32; 8], minus: &[i32; 8], out: &mut [f32; 8]) {
        // SAFETY: an `Avx2Affine` exists only on a CPU with AVX2 (`detect`).
        unsafe { affine_octet_avx2(base - self.0.half, self.0.scale, plus, minus, out) }
    }
}

/// [`Avx2Affine`]'s octet: `out[r] = (offset + plus[r] − minus[r]) as f32 · scale` in eight
/// lanes, with `offset = base − half`. The lane integers are [`Affine::map`]'s, which
/// `cvtepi32_ps` converts exactly (they are at most the width), and `mul_ps` rounds as the
/// scalar `f32` multiply does, so every bit is the portable octet's.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn affine_octet_avx2(
    offset: i32,
    scale: f32,
    plus: &[i32; 8],
    minus: &[i32; 8],
    out: &mut [f32; 8],
) {
    use std::arch::x86_64::*;
    // SAFETY: `plus` and `minus` are `[i32; 8]`s, each exactly one unaligned 256-bit load.
    let (p, m) = unsafe {
        (_mm256_loadu_si256(plus.as_ptr().cast()), _mm256_loadu_si256(minus.as_ptr().cast()))
    };
    let sums = _mm256_add_epi32(_mm256_set1_epi32(offset), _mm256_sub_epi32(p, m));
    let eps = _mm256_mul_ps(_mm256_cvtepi32_ps(sums), _mm256_set1_ps(scale));
    // SAFETY: `out` is an `[f32; 8]`, exactly one unaligned 256-bit store.
    unsafe { _mm256_storeu_ps(out.as_mut_ptr(), eps) };
}

/// The pop-count → ε maps of one register width, built together on first use.
struct EpsilonMaps {
    /// [`Grng::epsilon_from_sum`] for every pop-count `0..=n`.
    table: Box<[f64]>,
    /// How the `f32` fills map a pop-count; both arms give `table[s] as f32` bit for bit.
    narrow: NarrowMap,
}

enum NarrowMap {
    /// The [`Affine`] map `(s − half)·scale`, used when it reproduces every narrowed table
    /// entry.
    Affine { half: i32, scale: f32 },
    /// The table narrowed once.
    Table(Box<[f32]>),
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
    fn only_the_256_bit_register_maps_sums_affinely() {
        // The default register's f32 fills evaluate `(s − 128)·0.125`; the 128- and 192-bit
        // registers, whose scale is irrational, load from the narrowed table.
        for (width, affine) in [(128, false), (192, false), (256, true)] {
            let maps = Grng::new(width, 1).unwrap().maps();
            assert_eq!(matches!(maps.narrow, NarrowMap::Affine { .. }), affine, "width {width}");
        }
        let maps = Grng::shift_bnn_default(1).unwrap().maps();
        assert!(matches!(maps.narrow, NarrowMap::Affine { half: 128, scale: 0.125 }));
    }

    #[test]
    fn only_the_maximal_batch_registers_take_the_const_walk() {
        // One instantiation per batch register, whatever the seed or constructor; narrow
        // widths (a tap below 64) and other tap sets, even at 256 bits, step bit-serially.
        let batch =
            [(128, Geometry::Batch128), (192, Geometry::Batch192), (256, Geometry::Batch256)];
        for (width, geometry) in batch {
            assert_eq!(Grng::new(width, 1).unwrap().lfsr().geometry(), geometry, "width {width}");
        }
        assert_eq!(Grng::shift_bnn_default(1).unwrap().lfsr().geometry(), Geometry::Batch256);
        for width in crate::taps::supported_widths() {
            if ![128, 192, 256].contains(&width) {
                let geometry = Grng::new(width, 1).unwrap().lfsr().geometry();
                assert_eq!(geometry, Geometry::BitSerial, "width {width}");
            }
        }
        let custom = Grng::from_lfsr(Lfsr::new(256, &[100, 256], &[1]).unwrap());
        assert_eq!(custom.lfsr().geometry(), Geometry::BitSerial);
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn portable_and_avx2_octets_write_the_bit_serial_stream() {
        // The affine fills take the AVX2 octet body wherever the CPU has AVX2, so the
        // portable body is run here directly, and both are checked on the same blocks
        // against the bit-serial walk, forward from the seed and backward over the block.
        let map = Affine { half: 128, scale: 0.125 };
        for len in (1..=130).chain([162, 192, 864, 9216]) {
            let mut serial = Grng::shift_bnn_default(0xACE1).unwrap();
            let start = serial.clone();
            let want: Vec<u32> =
                (0..len).map(|_| (serial.next_epsilon() as f32).to_bits()).collect();
            let mut out = vec![7.0f32; len];
            let mut portable = start.clone();
            portable.walk::<true, _>(&mut out, map);
            assert_eq!(bits(&out), want, "len {len}: portable forward");
            assert_eq!(portable, serial, "len {len}: portable forward state");
            #[cfg(target_arch = "x86_64")]
            if let Some(avx2) = Avx2Affine::detect(map) {
                let mut fast = start.clone();
                out.fill(7.0);
                // SAFETY: `detect` returns a map only when this CPU has AVX2.
                unsafe { fast.walk_avx2::<true>(&mut out, avx2) };
                assert_eq!(bits(&out), want, "len {len}: AVX2 forward");
                assert_eq!(fast, serial, "len {len}: AVX2 forward state");
            }

            serial.set_mode(GrngMode::Backward);
            let start = serial.clone();
            let mut want: Vec<u32> =
                (0..len).map(|_| (serial.retrieve_epsilon() as f32).to_bits()).collect();
            want.reverse();
            out.fill(7.0);
            let mut portable = start.clone();
            portable.walk::<false, _>(&mut out, map);
            assert_eq!(bits(&out), want, "len {len}: portable backward");
            assert_eq!(portable, serial, "len {len}: portable backward state");
            #[cfg(target_arch = "x86_64")]
            if let Some(avx2) = Avx2Affine::detect(map) {
                let mut fast = start.clone();
                out.fill(7.0);
                // SAFETY: `detect` returns a map only when this CPU has AVX2.
                unsafe { fast.walk_avx2::<false>(&mut out, avx2) };
                assert_eq!(bits(&out), want, "len {len}: AVX2 backward");
                assert_eq!(fast, serial, "len {len}: AVX2 backward state");
            }
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
