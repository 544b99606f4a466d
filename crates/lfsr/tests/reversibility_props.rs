//! Property-based tests for the reversibility invariants of the LFSR and GRNG.
//!
//! These are the invariants the whole Shift-BNN design rests on: every forward pattern/ε stream
//! must be retrievable, bit-exactly and in reverse order, by shifting backwards — for any width,
//! seed, and interleaving of forward/backward phases.

use bnn_lfsr::taps::supported_widths;
use bnn_lfsr::{Grng, GrngBank, GrngMode, Lfsr};
use proptest::prelude::*;

fn arb_width() -> impl Strategy<Value = usize> {
    prop::sample::select(supported_widths())
}

fn arb_seed() -> impl Strategy<Value = u64> {
    // Force the lowest bit so the seed stays non-zero after masking to any register width.
    (1u64..u64::MAX).prop_map(|s| s | 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Forward `n` steps followed by backward `n` steps restores the exact register state.
    #[test]
    fn forward_backward_identity(width in arb_width(), seed in arb_seed(), steps in 0usize..2000) {
        let mut lfsr = Lfsr::with_maximal_taps(width, seed).unwrap();
        let original = lfsr.clone();
        lfsr.step_forward_by(steps);
        lfsr.step_backward_by(steps);
        prop_assert_eq!(lfsr.state_words(), original.state_words());
        prop_assert_eq!(lfsr.position(), 0);
    }

    /// The backward pattern sequence is exactly the reversed forward pattern sequence.
    #[test]
    fn backward_patterns_reverse_forward_patterns(width in arb_width(), seed in arb_seed(), steps in 1usize..300) {
        let mut lfsr = Lfsr::with_maximal_taps(width, seed).unwrap();
        let mut forward_patterns = Vec::with_capacity(steps);
        for _ in 0..steps {
            lfsr.step_forward();
            forward_patterns.push(lfsr.pattern());
        }
        // Walking backwards visits the same patterns in reverse order *before* each back-step.
        for expected in forward_patterns.iter().rev() {
            prop_assert_eq!(&lfsr.pattern(), expected);
            lfsr.step_backward();
        }
    }

    /// The GRNG's ε retrieval is the bit-exact reverse of generation, for any width and count.
    #[test]
    fn grng_retrieval_is_exact(width in arb_width(), seed in arb_seed(), count in 1usize..512) {
        let mut grng = Grng::new(width, seed).unwrap();
        let forward = grng.generate(count);
        grng.set_mode(GrngMode::Backward);
        let retrieved = grng.retrieve(count);
        let reversed: Vec<f64> = forward.into_iter().rev().collect();
        prop_assert_eq!(retrieved, reversed);
    }

    /// The incremental pop-count never drifts from a full recount, across arbitrary
    /// interleavings of forward and backward bursts (as happens across FW/BW/GC stage
    /// boundaries of consecutive training iterations).
    #[test]
    fn incremental_sum_never_drifts(seed in arb_seed(), bursts in prop::collection::vec((prop::bool::ANY, 1usize..64), 1..20)) {
        let mut grng = Grng::shift_bnn_default(seed).unwrap();
        let mut generated: i64 = 0;
        for (forward, len) in bursts {
            if forward || generated == 0 {
                grng.set_mode(GrngMode::Forward);
                grng.generate(len);
                generated += len as i64;
            } else {
                let take = (len as i64).min(generated) as usize;
                grng.set_mode(GrngMode::Backward);
                grng.retrieve(take);
                generated -= take as i64;
            }
            prop_assert_eq!(grng.current_sum(), grng.lfsr().popcount());
        }
    }

    /// The word-parallel block calls (`fill_epsilon`, `fill_retrieved`, `retrieve`,
    /// `skip_forward`) stay in lockstep with a bit-serial twin driven one ε at a time, across
    /// random interleavings and block sizes that straddle the 64-step batch.
    #[test]
    fn word_parallel_blocks_track_a_bit_serial_twin(
        width in arb_width(),
        seed in arb_seed(),
        blocks in prop::collection::vec((0u8..4, 0usize..200), 1..16),
    ) {
        let mut fast = Grng::new(width, seed).unwrap();
        let mut serial = fast.clone();
        for (kind, len) in blocks {
            match kind {
                0 => {
                    fast.set_mode(GrngMode::Forward);
                    serial.set_mode(GrngMode::Forward);
                    let mut got = vec![0.0f32; len];
                    fast.fill_epsilon(&mut got);
                    for g in &got {
                        prop_assert_eq!(g.to_bits(), (serial.next_epsilon() as f32).to_bits());
                    }
                }
                1 => {
                    fast.set_mode(GrngMode::Backward);
                    serial.set_mode(GrngMode::Backward);
                    let mut got = vec![0.0f32; len];
                    fast.fill_retrieved(&mut got);
                    for g in got.iter().rev() {
                        prop_assert_eq!(g.to_bits(), (serial.retrieve_epsilon() as f32).to_bits());
                    }
                }
                2 => {
                    fast.set_mode(GrngMode::Backward);
                    serial.set_mode(GrngMode::Backward);
                    for g in fast.retrieve(len) {
                        prop_assert_eq!(g.to_bits(), serial.retrieve_epsilon().to_bits());
                    }
                }
                _ => {
                    fast.set_mode(GrngMode::Forward);
                    serial.set_mode(GrngMode::Forward);
                    fast.skip_forward(len);
                    for _ in 0..len {
                        serial.next_epsilon();
                    }
                }
            }
            prop_assert_eq!(fast.lfsr().state_words(), serial.lfsr().state_words());
            prop_assert_eq!(fast.lfsr().position(), serial.lfsr().position());
            prop_assert_eq!(fast.current_sum(), serial.current_sum());
            prop_assert_eq!(fast.outstanding(), serial.outstanding());
        }
    }

    /// Banks round-trip per-slice streams regardless of slice count.
    #[test]
    fn bank_round_trip(count in 1usize..16, seed in arb_seed(), per_slice in 1usize..64) {
        let mut bank = GrngBank::new(count, 64, seed).unwrap();
        let mut forward = vec![Vec::new(); count];
        for _ in 0..per_slice {
            for (i, eps) in bank.generate_all().into_iter().enumerate() {
                forward[i].push(eps);
            }
        }
        bank.set_mode(GrngMode::Backward);
        for step in (0..per_slice).rev() {
            for (i, eps) in bank.retrieve_all().into_iter().enumerate() {
                prop_assert_eq!(eps, forward[i][step]);
            }
        }
    }

    /// A forward step never changes the pop-count by more than one, which bounds how fast ε can
    /// move — the property the incremental "bit update" adder relies on.
    #[test]
    fn popcount_changes_by_at_most_one(width in arb_width(), seed in arb_seed(), steps in 1usize..500) {
        let mut lfsr = Lfsr::with_maximal_taps(width, seed).unwrap();
        let mut prev = lfsr.popcount() as i64;
        for _ in 0..steps {
            lfsr.step_forward();
            let cur = lfsr.popcount() as i64;
            prop_assert!((cur - prev).abs() <= 1);
            prev = cur;
        }
    }
}
