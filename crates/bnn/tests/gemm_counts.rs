//! GEMM work of the B-LeNet proxy (3×12×12 input, 3 classes), read from the
//! `bnn_tensor::profile` counters. The first layer's input gradient is never read, so a
//! training step runs five conv GEMMs per sample instead of six (48 calls and 1,306,368 MACs
//! per `S = 8` step before the skip). Serving runs forward GEMMs only and keeps its counts.

use bnn_tensor::init::splitmix_tensor;
use bnn_tensor::profile;
use bnn_train::{BayesConfig, EpsilonSource, LfsrForward, Network, Trainer, TrainerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn proxy(seed: u64) -> Network {
    let mut rng = StdRng::seed_from_u64(seed);
    Network::bayes_lenet(&[3, 12, 12], 3, BayesConfig::default(), &mut rng)
}

/// This thread's GEMM calls and MACs (all tiers) spent by `work`.
fn gemm_work(work: impl FnOnce()) -> (u64, u64) {
    let totals = || (profile::gemm_calls().iter().sum(), profile::gemm_macs().iter().sum());
    let (calls, macs): (u64, u64) = totals();
    work();
    let (calls_after, macs_after) = totals();
    (calls_after - calls, macs_after - macs)
}

#[test]
fn a_proxy_training_step_skips_the_first_layers_input_gradient() {
    let config = TrainerConfig { samples: 8, ..TrainerConfig::default() };
    let mut trainer = Trainer::new(proxy(1), config).unwrap();
    let image = splitmix_tensor(5, &[3, 12, 12]);
    for _ in 0..2 {
        let work = gemm_work(|| {
            trainer.train_example(&image, 1).unwrap();
        });
        assert_eq!(work, (40, 1_119_744));
    }
}

#[test]
fn a_fused_proxy_request_keeps_its_gemm_work() {
    let mut network = proxy(2);
    let mut sources: Vec<Box<dyn EpsilonSource>> = (0..16)
        .map(|s| Box::new(LfsrForward::new(100 + s).unwrap()) as Box<dyn EpsilonSource>)
        .collect();
    let input = splitmix_tensor(6, &[3, 12, 12]);
    let work = gemm_work(|| {
        network.predictive_fused(&input, &mut sources).unwrap();
    });
    assert_eq!(work, (32, 870_912));
}
