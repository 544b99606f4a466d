//! Train → save → resume → serve → hot-swap: the checkpoint-store lifecycle in one file.
//!
//! 1. Train a small Bayesian LeNet for a few steps and capture a **training checkpoint**
//!    (posterior + step count + every GRNG register) — then prove the resume is bit-exact by
//!    comparing one more step against an uninterrupted run.
//! 2. Publish v1 to a [`ModelRegistry`] (atomic, monotonically versioned), keep training,
//!    publish v2.
//! 3. Serve the registry-loaded v1 with the batched Monte-Carlo engine, then **hot-swap** to
//!    v2 mid-trace: the old version drains, the new version answers from a deterministic tick
//!    boundary onward, and no request is dropped.
//!
//! Run with: `cargo run --example train_save_serve`

use bnn_obs::NullRecorder;
use bnn_serve::{BatchPolicy, EngineSpec, InferenceEngine, VersionSwap, WorkloadSpec};
use bnn_store::{Checkpoint, ModelRegistry};
use bnn_train::data::SyntheticDataset;
use bnn_train::network::Network;
use bnn_train::trainer::{Trainer, TrainerConfig};
use bnn_train::variational::BayesConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

const INPUT: [usize; 3] = [1, 8, 8];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. Train, checkpoint, resume bit-exactly ----------------------------------------------
    let dataset = SyntheticDataset::generate(&INPUT, 3, 4, 0.2, 11);
    let mut rng = StdRng::seed_from_u64(5);
    let network = Network::bayes_lenet(&INPUT, 3, BayesConfig::default(), &mut rng);
    let mut trainer = Trainer::new(
        network,
        TrainerConfig { samples: 3, learning_rate: 0.05, ..TrainerConfig::default() },
    )?;
    trainer.train_epoch(&dataset)?;

    let v1 = Checkpoint::from_trainer(&trainer);
    let bytes = v1.to_bytes();
    println!(
        "checkpoint after {} steps: {} bytes, digest {} (posterior + trainer state)",
        trainer.steps(),
        bytes.len(),
        v1.digest()
    );

    // Resuming from the serialized bytes replays the uninterrupted run exactly.
    let mut resumed = Checkpoint::from_bytes(&bytes)?.resume_trainer()?;
    let (image, label) = dataset.example(0);
    let uninterrupted_step = trainer.train_example(image, label)?;
    let resumed_step = resumed.train_example(image, label)?;
    assert_eq!(uninterrupted_step, resumed_step);
    println!(
        "resume is bit-exact: next-step loss {:.6} from both the live and the reloaded trainer",
        resumed_step.total_loss
    );

    // --- 2. Publish two versions to the registry ----------------------------------------------
    let root = std::path::Path::new("target/tmp/train_save_serve-registry");
    let _ = std::fs::remove_dir_all(root);
    let registry = ModelRegistry::open(root)?;
    let version_1 = registry.publish("blenet", &v1)?;
    trainer.train_epoch(&dataset)?; // keep training → a new posterior
    let version_2 = registry.publish("blenet", &Checkpoint::from_trainer(&trainer))?;
    println!(
        "published blenet v{version_1} and v{version_2} to {} (atomic, immutable)",
        root.display()
    );

    // --- 3. Serve v1, hot-swap to v2 mid-trace ------------------------------------------------
    let (_, v1_source) = registry.serve_source("blenet", Some(version_1), INPUT.to_vec())?;
    let (_, v2_source) = registry.serve_source("blenet", Some(version_2), INPUT.to_vec())?;
    let trace = WorkloadSpec::uniform(16, 4, 4, 21).generate_for_shape(&INPUT);
    let policy = BatchPolicy { max_batch: 4, max_wait_ticks: 8 };
    let engine = InferenceEngine::build(EngineSpec::new(v1_source).policy(policy).workers(2));
    let swaps = [VersionSwap { at_tick: 70, source: v2_source }];
    let report = engine.run_traced(&trace, &swaps, &mut NullRecorder);
    let boundary = report.batches.iter().find(|b| b.version == 1).expect("swap lands");
    println!(
        "served {} requests across the swap: v1 drained {} batch(es), v2 answered from tick {} \
         (requested at 70) — no request dropped",
        report.responses.len(),
        report.batches.iter().filter(|b| b.version == 0).count(),
        boundary.start_tick
    );
    Ok(())
}
