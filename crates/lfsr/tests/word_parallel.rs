//! Pins the word-parallel ε generation (`Grng::fill_epsilon`, built on
//! `Lfsr::step_forward64`) and retrieval (`Grng::fill_retrieved` / `Grng::retrieve`, built on
//! `Lfsr::step_backward64`) against the bit-serial paths for **every** supported LFSR width —
//! the same stream, the same register trajectory, and full reversibility afterwards.

use bnn_lfsr::taps::supported_widths;
use bnn_lfsr::{Grng, GrngMode, Lfsr};

/// Block lengths straddling the 64-step batch boundary.
const LENGTHS: &[usize] = &[1, 63, 64, 65, 128, 257];

#[test]
fn fill_epsilon_matches_bit_serial_stream_for_all_supported_widths() {
    for width in supported_widths() {
        for &len in LENGTHS {
            let mut fast = Grng::new(width, 0xACE1).unwrap();
            let mut serial = Grng::new(width, 0xACE1).unwrap();
            let mut got = vec![0.0f32; len];
            fast.fill_epsilon(&mut got);
            for (i, g) in got.iter().enumerate() {
                let want = serial.next_epsilon() as f32;
                assert_eq!(
                    g.to_bits(),
                    want.to_bits(),
                    "width {width}, len {len}, index {i}: {g} vs {want}"
                );
            }
            // The register trajectory itself must agree, not just the emitted stream.
            assert_eq!(
                fast.lfsr().state_words(),
                serial.lfsr().state_words(),
                "width {width}, len {len}: register state diverged"
            );
            assert_eq!(fast.current_sum(), serial.current_sum());
            assert_eq!(fast.outstanding(), serial.outstanding());
        }
    }
}

#[test]
fn default_shift_bnn_register_takes_the_word_parallel_path() {
    // The whole point of the batching: the production 256-bit register qualifies.
    let lfsr = Lfsr::shift_bnn_default(7).unwrap();
    assert!(lfsr.supports_batch64());
    // The 64-bit ablation width has a tap below 64 and must not (it would corrupt feedback).
    let lfsr = Lfsr::with_maximal_taps(64, 7).unwrap();
    assert!(!lfsr.supports_batch64());
}

#[test]
fn step_forward64_equals_sixty_four_single_steps() {
    for width in supported_widths() {
        let mut batched = Lfsr::with_maximal_taps(width, 0xBEEF).unwrap();
        if !batched.supports_batch64() {
            continue;
        }
        let mut serial = batched.clone();
        batched.step_forward64();
        serial.step_forward_by(64);
        assert_eq!(batched.state_words(), serial.state_words(), "width {width}");
        assert_eq!(batched.position(), serial.position());
    }
}

#[test]
fn step_backward64_equals_sixty_four_single_steps_from_any_position() {
    let mut capable = 0;
    for width in supported_widths() {
        let start = Lfsr::with_maximal_taps(width, 0xBEEF).unwrap();
        if !start.supports_batch64() {
            continue;
        }
        capable += 1;
        // Positions before the seed (negative) and after it, on and off 64-step alignment.
        for offset in [-300i64, -64, -1, 0, 1, 63, 64, 65, 1000] {
            let mut batched = start.clone();
            if offset >= 0 {
                batched.step_forward_by(offset as usize);
            } else {
                batched.step_backward_by(offset.unsigned_abs() as usize);
            }
            let mut serial = batched.clone();
            let head_bits = batched.state_words()[0];
            let (entering, leaving) = batched.step_backward64();
            let mut want_entering = 0u64;
            for j in 0..64 {
                serial.step_backward();
                want_entering |= u64::from(serial.register(width)) << j;
            }
            assert_eq!(batched.state_words(), serial.state_words(), "width {width} @ {offset}");
            assert_eq!(batched.position(), serial.position());
            assert_eq!(batched.position(), offset - 64);
            assert_eq!(entering, want_entering, "width {width} @ {offset}: recovered tail bits");
            assert_eq!(leaving, head_bits, "width {width} @ {offset}: dropped head bits");
        }
    }
    assert!(capable >= 3, "the 128-, 192- and 256-bit registers batch");
}

#[test]
fn fill_retrieved_and_retrieve_match_bit_serial_stream_for_all_supported_widths() {
    for width in supported_widths() {
        for &len in LENGTHS {
            // Generate a little more than the block so the walk starts mid-stream, then
            // retrieve the block three ways.
            let mut serial = Grng::new(width, 0xACE1).unwrap();
            serial.generate(len + 5);
            let (mut filled, mut vec_path) = (serial.clone(), serial.clone());
            for g in [&mut serial, &mut filled, &mut vec_path] {
                g.set_mode(GrngMode::Backward);
            }
            let want: Vec<f64> = (0..len).map(|_| serial.retrieve_epsilon()).collect();
            let mut got = vec![0.0f32; len];
            filled.fill_retrieved(&mut got);
            let got_vec = vec_path.retrieve(len);
            for (i, w) in want.iter().enumerate() {
                assert_eq!(got_vec[i].to_bits(), w.to_bits(), "width {width}, len {len}, [{i}]");
                // `fill_retrieved` writes in generation order, the reverse of retrieval.
                let g = got[len - 1 - i];
                assert_eq!(g.to_bits(), (*w as f32).to_bits(), "width {width}, len {len}, [{i}]");
            }
            for fast in [&filled, &vec_path] {
                assert_eq!(
                    fast.lfsr().state_words(),
                    serial.lfsr().state_words(),
                    "width {width}, len {len}: register state diverged"
                );
                assert_eq!(fast.lfsr().position(), serial.lfsr().position());
                assert_eq!(fast.current_sum(), serial.current_sum());
                assert_eq!(fast.outstanding(), serial.outstanding());
            }
        }
    }
}

#[test]
fn word_parallel_generation_remains_fully_reversible() {
    // ε generated via the batch must be retrievable by backward shifting, exactly like the
    // bit-serial path — the paper's reversibility property is representation-independent.
    let mut grng = Grng::shift_bnn_default(42).unwrap();
    let mut forward = vec![0.0f32; 200];
    grng.fill_epsilon(&mut forward);
    grng.set_mode(GrngMode::Backward);
    let mut retrieved = vec![0.0f32; 200];
    grng.fill_retrieved(&mut retrieved);
    assert_eq!(forward, retrieved, "fill_retrieved must return the block in generation order");
    assert_eq!(grng.outstanding(), 0);
    assert_eq!(grng.current_sum(), grng.initial_sum());
}

#[test]
fn reseeding_reproduces_a_fresh_generator_without_reallocation() {
    let mut reused = Grng::shift_bnn_default(1).unwrap();
    let mut scratch = vec![0.0f32; 100];
    reused.fill_epsilon(&mut scratch);
    reused.reseed_shift_bnn(99);
    let mut fresh = Grng::shift_bnn_default(99).unwrap();
    let mut a = vec![0.0f32; 100];
    let mut b = vec![0.0f32; 100];
    reused.fill_epsilon(&mut a);
    fresh.fill_epsilon(&mut b);
    assert_eq!(a, b, "reseeded generator must replay the fresh generator's stream");

    let mut reused = Grng::new(16, 3).unwrap();
    reused.generate(10);
    reused.reseed_plain(5).unwrap();
    let mut fresh = Grng::new(16, 5).unwrap();
    assert_eq!(reused.generate(20), fresh.generate(20));
    assert!(reused.reseed_plain(0).is_err(), "zero seeds stay rejected");
}

#[test]
fn skip_forward_lands_in_the_bit_serial_state() {
    for width in supported_widths() {
        for &n in &[0usize, 1, 63, 64, 100, 257] {
            let mut skipped = Grng::new(width, 0x1D).unwrap();
            let mut stepped = Grng::new(width, 0x1D).unwrap();
            skipped.skip_forward(n);
            for _ in 0..n {
                stepped.next_epsilon();
            }
            assert_eq!(
                skipped.lfsr().state_words(),
                stepped.lfsr().state_words(),
                "width {width}, n {n}"
            );
            assert_eq!(skipped.current_sum(), stepped.current_sum());
            assert_eq!(skipped.outstanding(), stepped.outstanding());
        }
    }
}

#[test]
fn generate_delegates_to_the_same_word_parallel_core() {
    let mut a = Grng::shift_bnn_default(1234).unwrap();
    let mut b = Grng::shift_bnn_default(1234).unwrap();
    let via_vec = a.generate(150);
    let mut via_fill = vec![0.0f32; 150];
    b.fill_epsilon(&mut via_fill);
    for (x, y) in via_vec.iter().zip(&via_fill) {
        assert_eq!((*x as f32).to_bits(), y.to_bits());
    }
}
