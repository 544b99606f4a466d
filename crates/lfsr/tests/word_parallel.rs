//! Pins the word-parallel ε generation (`Grng::fill_epsilon` / `Grng::generate`, built on
//! `Lfsr::step_forward64`) and retrieval (`Grng::fill_retrieved` / `Grng::retrieve`, built on
//! `Lfsr::step_backward64`) against the bit-serial paths for **every** supported LFSR width —
//! the same stream, the same register trajectory, and full reversibility afterwards — plus
//! the `k`-step batches against `k` single steps and the pop-count → ε table the fills read
//! against the formula it caches.

use bnn_lfsr::taps::supported_widths;
use bnn_lfsr::{profile, Grng, GrngMode, Lfsr};

/// Block lengths past 130 straddling 64-step batch boundaries, plus the B-LeNet proxy's
/// per-layer ε blocks (162, 864, 9,216 and 192 weights; the first two end in a batch of
/// fewer than 64 steps, 34 and 32).
const LENGTHS: &[usize] = &[162, 192, 257, 864, 9216];

/// The widths whose registers take the word-parallel batches.
const BATCH_WIDTHS: [usize; 3] = [128, 192, 256];

/// Every block length from 1 to 130 (each batch size 1..=64 ends a block at least once),
/// then [`LENGTHS`].
fn lengths() -> impl Iterator<Item = usize> {
    (1..=130).chain(LENGTHS.iter().copied())
}

/// A register of `width` moved `offset` single steps from its seed (negative: backward).
fn lfsr_at(width: usize, offset: i64) -> Lfsr {
    let mut lfsr = Lfsr::with_maximal_taps(width, 0xBEEF).unwrap();
    if offset >= 0 {
        lfsr.step_forward_by(offset as usize);
    } else {
        lfsr.step_backward_by(offset.unsigned_abs() as usize);
    }
    lfsr
}

#[test]
fn epsilon_table_holds_the_formula_for_every_reachable_pop_count() {
    for width in supported_widths() {
        let grng = Grng::new(width, 0xACE1).unwrap();
        let table = grng.epsilon_table();
        assert_eq!(table.len(), width + 1, "width {width}: one entry per pop-count 0..=n");
        // A maximal-length register visits every non-zero pattern: pop-counts 1..=n.
        for sum in 1..=width as u32 {
            let want = grng.epsilon_from_sum(sum);
            let got = table[sum as usize];
            assert_eq!(got.to_bits(), want.to_bits(), "width {width}, pop-count {sum}");
            assert_eq!((got as f32).to_bits(), (want as f32).to_bits(), "width {width}, {sum}");
        }
        // Built once per width and shared, never per generator.
        let other = Grng::new(width, 0xBEEF).unwrap();
        assert!(std::ptr::eq(table, other.epsilon_table()), "width {width}: one shared table");
    }
}

#[test]
fn fill_epsilon_matches_bit_serial_stream_for_all_supported_widths() {
    for width in supported_widths() {
        for len in lengths() {
            let mut fast = Grng::new(width, 0xACE1).unwrap();
            let mut serial = fast.clone();
            let mut vec_path = fast.clone();
            let mut got = vec![0.0f32; len];
            fast.fill_epsilon(&mut got);
            let got_vec = vec_path.generate(len);
            for (i, (g, g_vec)) in got.iter().zip(&got_vec).enumerate() {
                let want = serial.next_epsilon();
                assert_eq!(g_vec.to_bits(), want.to_bits(), "width {width}, len {len}, [{i}]");
                let want = want as f32;
                assert_eq!(
                    g.to_bits(),
                    want.to_bits(),
                    "width {width}, len {len}, index {i}: {g} vs {want}"
                );
            }
            // The register trajectory itself must agree, not just the emitted stream.
            for fast in [&fast, &vec_path] {
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
fn default_shift_bnn_register_takes_the_word_parallel_path() {
    // The whole point of the batching: the production 256-bit register qualifies.
    let lfsr = Lfsr::shift_bnn_default(7).unwrap();
    assert!(lfsr.supports_batch64());
    // The 64-bit ablation width has a tap below 64 and must not (it would corrupt feedback).
    let lfsr = Lfsr::with_maximal_taps(64, 7).unwrap();
    assert!(!lfsr.supports_batch64());
    // The batch tests below cover every batch-capable width of the tap table.
    let capable: Vec<usize> = supported_widths()
        .into_iter()
        .filter(|&w| Lfsr::with_maximal_taps(w, 1).unwrap().supports_batch64())
        .collect();
    assert_eq!(capable, BATCH_WIDTHS);
}

/// Positions before the seed (negative) and after it, on and off 64-step alignment.
const OFFSETS: [i64; 9] = [-300, -64, -1, 0, 1, 63, 64, 65, 1000];

#[test]
fn step_forward64_equals_k_single_steps() {
    for width in BATCH_WIDTHS {
        for offset in OFFSETS {
            let start = lfsr_at(width, offset);
            assert!(start.supports_batch64(), "width {width}");
            for k in 1..=64usize {
                let at = format!("width {width} @ {offset}, k {k}");
                let (mut batched, mut serial) = (start.clone(), start.clone());
                let (entering, leaving) = batched.step_forward64(k);
                let (mut want_entering, mut want_leaving) = (0u64, 0u64);
                for j in 0..k {
                    want_leaving |= u64::from(serial.step_forward()) << (63 - j);
                    want_entering |= u64::from(serial.register(1)) << (63 - j);
                }
                assert_eq!(entering, want_entering, "{at}: feedback bits");
                assert_eq!(leaving, want_leaving, "{at}: dropped tail bits");
                assert_eq!(batched.state_words(), serial.state_words(), "{at}: state");
                assert_eq!(batched.position(), serial.position(), "{at}");
                assert_eq!(batched.position(), offset + k as i64, "{at}");
            }
        }
    }
}

#[test]
fn step_backward64_equals_k_single_steps_from_any_position() {
    for width in BATCH_WIDTHS {
        for offset in OFFSETS {
            let start = lfsr_at(width, offset);
            assert!(start.supports_batch64(), "width {width}");
            for k in 1..=64usize {
                let at = format!("width {width} @ {offset}, k {k}");
                let (mut batched, mut serial) = (start.clone(), start.clone());
                let (entering, leaving) = batched.step_backward64(k);
                let (mut want_entering, mut want_leaving) = (0u64, 0u64);
                for j in 0..k {
                    want_leaving |= u64::from(serial.step_backward()) << j;
                    want_entering |= u64::from(serial.register(width)) << j;
                }
                assert_eq!(entering, want_entering, "{at}: recovered tail bits");
                assert_eq!(leaving, want_leaving, "{at}: dropped head bits");
                assert_eq!(batched.state_words(), serial.state_words(), "{at}: state");
                assert_eq!(batched.position(), serial.position(), "{at}");
                assert_eq!(batched.position(), offset - k as i64, "{at}");
            }
        }
    }
}

#[test]
fn fill_retrieved_and_retrieve_match_bit_serial_stream_for_all_supported_widths() {
    for width in supported_widths() {
        for len in lengths() {
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
        for &n in &[0usize, 1, 63, 64, 65, 100, 130, 257] {
            let mut skipped = Grng::new(width, 0x1D).unwrap();
            let mut stepped = Grng::new(width, 0x1D).unwrap();
            // Skipped values are not emitted, so the thread's ε counter must not move, on
            // batch-capable widths and bit-serial ones alike.
            let emitted = profile::epsilon_values();
            skipped.skip_forward(n);
            assert_eq!(profile::epsilon_values(), emitted, "width {width}, n {n}: counted");
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
