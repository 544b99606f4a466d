//! Pins the word-parallel ε generation (`Grng::fill_epsilon` / `Grng::generate`), retrieval
//! (`Grng::fill_retrieved` / `Grng::retrieve`) and fast-forward (`Grng::skip_forward`)
//! against the bit-serial paths for **every** supported LFSR width and a custom-tap register
//! — the same stream, the same register trajectory, and full reversibility afterwards —
//! plus the pop-count → ε table the fills read against the formula it caches. (The batch
//! steps themselves are pinned against single steps by `lfsr.rs`'s unit tests.)

use bnn_lfsr::taps::supported_widths;
use bnn_lfsr::{profile, Grng, GrngMode, Lfsr};

/// Block lengths past 130 straddling 64-step batch boundaries, plus the B-LeNet proxy's
/// per-layer ε blocks (162, 864, 9,216 and 192 weights; the first two end in a batch of
/// fewer than 64 steps, 34 and 32).
const LENGTHS: &[usize] = &[162, 192, 257, 864, 9216];

/// Every block length from 1 to 130 (each batch size 1..=64 ends a block at least once),
/// then [`LENGTHS`].
fn lengths() -> impl Iterator<Item = usize> {
    (1..=130).chain(LENGTHS.iter().copied())
}

/// Every register the fills must handle, seeded with `seed`: a maximal-length register of
/// each supported width, and a 256-bit register with custom taps `{100, 256}` — the default
/// register's width without its taps, which steps bit-serially.
fn registers(seed: u64) -> Vec<(String, Grng)> {
    let custom = Grng::from_lfsr(Lfsr::new(256, &[100, 256], &[seed]).unwrap());
    supported_widths()
        .into_iter()
        .map(|width| (format!("width {width}"), Grng::new(width, seed).unwrap()))
        .chain([("custom taps {100, 256}".to_string(), custom)])
        .collect()
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
    for (name, start) in registers(0xACE1) {
        for len in lengths() {
            let mut fast = start.clone();
            let mut serial = fast.clone();
            let mut vec_path = fast.clone();
            let mut got = vec![0.0f32; len];
            fast.fill_epsilon(&mut got);
            let got_vec = vec_path.generate(len);
            for (i, (g, g_vec)) in got.iter().zip(&got_vec).enumerate() {
                let want = serial.next_epsilon();
                assert_eq!(g_vec.to_bits(), want.to_bits(), "{name}, len {len}, [{i}]");
                let want = want as f32;
                assert_eq!(
                    g.to_bits(),
                    want.to_bits(),
                    "{name}, len {len}, index {i}: {g} vs {want}"
                );
            }
            // The register trajectory itself must agree, not just the emitted stream.
            for fast in [&fast, &vec_path] {
                assert_eq!(
                    fast.lfsr().state_words(),
                    serial.lfsr().state_words(),
                    "{name}, len {len}: register state diverged"
                );
                assert_eq!(fast.lfsr().position(), serial.lfsr().position());
                assert_eq!(fast.current_sum(), serial.current_sum());
                assert_eq!(fast.outstanding(), serial.outstanding());
            }
        }
    }
}

#[test]
fn fill_retrieved_and_retrieve_match_bit_serial_stream_for_all_supported_widths() {
    for (name, start) in registers(0xACE1) {
        for len in lengths() {
            // Generate 1000 values more than the block, then retrieve the block three ways,
            // so the walk stops 1000 steps past the seed: from a one-word seed the first ~230
            // feedback bits of a wide register are zero, and a rewind over them cannot show
            // a wrong batch.
            let mut serial = start.clone();
            serial.generate(len + 1000);
            let (mut filled, mut vec_path) = (serial.clone(), serial.clone());
            for g in [&mut serial, &mut filled, &mut vec_path] {
                g.set_mode(GrngMode::Backward);
            }
            let want: Vec<f64> = (0..len).map(|_| serial.retrieve_epsilon()).collect();
            let mut got = vec![0.0f32; len];
            filled.fill_retrieved(&mut got);
            let got_vec = vec_path.retrieve(len);
            for (i, w) in want.iter().enumerate() {
                assert_eq!(got_vec[i].to_bits(), w.to_bits(), "{name}, len {len}, [{i}]");
                // `fill_retrieved` writes in generation order, the reverse of retrieval.
                let g = got[len - 1 - i];
                assert_eq!(g.to_bits(), (*w as f32).to_bits(), "{name}, len {len}, [{i}]");
            }
            for fast in [&filled, &vec_path] {
                assert_eq!(
                    fast.lfsr().state_words(),
                    serial.lfsr().state_words(),
                    "{name}, len {len}: register state diverged"
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
    for (name, start) in registers(0x1D) {
        for &n in &[0usize, 1, 63, 64, 65, 100, 130, 257] {
            let mut skipped = start.clone();
            let mut stepped = start.clone();
            // Skipped values are not emitted, so the thread's ε counter must not move, on
            // batch-capable widths and bit-serial ones alike.
            let emitted = profile::epsilon_values();
            skipped.skip_forward(n);
            assert_eq!(profile::epsilon_values(), emitted, "{name}, n {n}: counted");
            for _ in 0..n {
                stepped.next_epsilon();
            }
            assert_eq!(skipped.lfsr().state_words(), stepped.lfsr().state_words(), "{name}, n {n}");
            assert_eq!(skipped.lfsr().position(), stepped.lfsr().position(), "{name}, n {n}");
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
