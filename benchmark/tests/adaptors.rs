//! The span adaptors must not change a single output bit: training losses and serving
//! responses through `TimedLayer` / `TimedEps` equal the plain library's, on the per-sample
//! and the fused path, with recording on.

use bnn_serve::{mix_seed, EngineSpec, InferResponse, ModelSpec, ServeReplica, WorkloadSpec};
use bnn_tensor::Tensor;
use bnn_train::data::SyntheticDataset;
use bnn_train::{
    BayesConfig, EpsilonSource, EpsilonStrategy, LfsrForward, Network, Predictive, Trainer,
    TrainerConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use shift_bnn_benchmark::timed::{timed_network, TimedEps};
use shift_bnn_benchmark::trace;

fn losses(network: Network, strategy: EpsilonStrategy, fused: bool, steps: usize) -> Vec<u32> {
    let data = SyntheticDataset::generate(&[1, 8, 8], 3, 2, 0.5, 7);
    let config = TrainerConfig { samples: 3, learning_rate: 0.05, strategy, seed: 11 };
    let mut trainer = Trainer::new(network, config).unwrap();
    trainer.set_fused_forward(fused);
    (0..steps)
        .map(|i| {
            let (image, label) = data.example(i % data.len());
            trainer.train_example(image, label).unwrap().total_loss.to_bits()
        })
        .collect()
}

fn lenet() -> Network {
    Network::bayes_lenet(&[1, 8, 8], 3, BayesConfig::default(), &mut StdRng::seed_from_u64(3))
}

#[test]
fn timed_training_is_bit_identical_on_both_forward_paths() {
    for strategy in [EpsilonStrategy::LfsrRetrieve, EpsilonStrategy::StoreReplay] {
        for fused in [false, true] {
            let plain = losses(lenet(), strategy, fused, 6);
            trace::set_enabled(true);
            let timed = losses(timed_network(&lenet(), true), strategy, fused, 6);
            trace::set_enabled(false);
            let recording = trace::take();
            assert_eq!(plain, timed, "{strategy:?}, fused {fused}");
            assert!(recording.spans.iter().any(|s| s.name == "bnn.L0.fw"));
            assert!(recording.spans.iter().any(|s| s.name == "bnn.update"));
            if !fused {
                // The per-sample walk hands each layer the trainer's source, which the layer
                // wraps; 3 samples × (2 conv + 2 linear) blocks per step, each way.
                assert_eq!(recording.counts.eps_retrieved, 6 * 3 * lenet().epsilon_count() as u64);
                assert_eq!(recording.counts.eps_generated, recording.counts.eps_retrieved);
            }
        }
    }
}

fn response(predictive: &Predictive, id: u64) -> InferResponse {
    InferResponse {
        id,
        samples: predictive.samples,
        mean: predictive.mean.data().to_vec(),
        variance: predictive.variance.data().to_vec(),
        entropy: predictive.entropy,
    }
}

fn bits(r: &InferResponse) -> (Vec<u32>, Vec<u32>, u32) {
    let b = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect();
    (b(&r.mean), b(&r.variance), r.entropy.to_bits())
}

#[test]
fn timed_serving_is_bit_identical_on_both_paths() {
    for model in [ModelSpec::lenet(5), ModelSpec::mlp(5)] {
        let trace = WorkloadSpec::uniform(6, 10, 4, 9).generate(&model);
        for fused in [false, true] {
            let mut replica =
                ServeReplica::build(&EngineSpec::new(model.clone()).fused_sampling(fused));
            let mut network = timed_network(&model.build(), false);
            let mut sources: Vec<Box<dyn EpsilonSource>> = (0..4)
                .map(|_| Box::new(TimedEps(Box::new(LfsrForward::new(0).unwrap()))) as _)
                .collect();
            let mut predictive = Predictive {
                mean: Tensor::zeros(&[0]),
                variance: Tensor::zeros(&[0]),
                entropy: 0.0,
                samples: 0,
            };
            let mut expected =
                InferResponse { id: 0, samples: 0, mean: vec![], variance: vec![], entropy: 0.0 };
            trace::set_enabled(true);
            for request in &trace {
                replica.answer_into(request, &mut expected);
                for (s, source) in sources.iter_mut().enumerate() {
                    source.reseed(mix_seed(request.seed, s as u64));
                }
                trace::op(|| {
                    if fused {
                        network.predictive_fused_into(&request.input, &mut sources, &mut predictive)
                    } else {
                        network.predictive_into(&request.input, &mut sources, &mut predictive)
                    }
                })
                .unwrap();
                assert_eq!(bits(&response(&predictive, request.id)), bits(&expected));
            }
            trace::set_enabled(false);
            let recording = trace::take();
            let per_request = 4 * model.epsilon_count() as u64;
            assert_eq!(recording.counts.eps_generated, trace.len() as u64 * per_request);
            assert!(recording.spans.iter().any(|s| s.name == "lfsr.generate"));
        }
    }
}
