//! Times the training step of the paper's B-MLP (784-400-400-400-10) at S = 8 with
//! LFSR-retrieved ε, one example per step, and prints the median and minimum step time with
//! an FNV-1a digest of every step's loss bits (equal digests mean equal training outputs).
//!
//! Run with: `cargo run --release --example bmlp_step -- 80` (the step count; default 25,
//! after three untimed warm-up steps). To compare two builds, copy this file into each
//! checkout and run them in alternation.

use bnn_tensor::init::splitmix_tensor;
use bnn_train::network::Network;
use bnn_train::trainer::{Trainer, TrainerConfig};
use bnn_train::variational::BayesConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const WARM_UP: usize = 3;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let steps: usize = match std::env::args().nth(1) {
        Some(arg) => arg.parse()?,
        None => 25,
    };
    let mut rng = StdRng::seed_from_u64(11);
    let network = Network::bayes_mlp(784, &[400, 400, 400], 10, BayesConfig::default(), &mut rng);
    let mut trainer = Trainer::new(network, TrainerConfig::default())?;
    let image = splitmix_tensor(5, &[784]);
    let (mut times_ms, mut digest) = (Vec::with_capacity(steps), 0xcbf2_9ce4_8422_2325u64);
    for step in 0..WARM_UP + steps {
        let start = Instant::now();
        let metrics = trainer.train_example(&image, step % 10)?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if step >= WARM_UP {
            times_ms.push(ms);
        }
        for byte in metrics.total_loss.to_bits().to_le_bytes() {
            digest = (digest ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    if times_ms.is_empty() {
        return Err("give at least one timed step".into());
    }
    times_ms.sort_by(f64::total_cmp);
    println!(
        "median_ms {:.3} min_ms {:.3} loss_digest {digest:016x}",
        times_ms[times_ms.len() / 2],
        times_ms[0]
    );
    Ok(())
}
