//! Figure/table computations as pure views over one shared design-space sweep.
//!
//! Before the sweep engine existed, every `fig*`/`table*` binary re-walked its own slice of the
//! evaluation grid with hand-rolled loops. Now the computation of each figure lives here as a
//! function from a [`SweepReport`] (or, for the training-based artifacts, from the sweep
//! engine's worker pool) to a plain data struct; the binaries only *render*, and the golden
//! conformance suite (`tests/golden_figures.rs`) asserts on the same structs — so the numbers
//! in `EXPERIMENTS.md` can no longer drift silently.

use bnn_arch::resource::ResourceUsage;
use bnn_arch::resource::{accelerator_usage, component_usage, spu_usage, SpuComponent};
use bnn_models::ModelKind;
use bnn_tensor::Precision;
use bnn_train::data::SyntheticDataset;
use bnn_train::network::Network;
use bnn_train::trainer::{EpochMetrics, EpsilonStrategy, Trainer, TrainerConfig};
use bnn_train::variational::BayesConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use shift_bnn::compare::geometric_mean;
use shift_bnn::designs::DesignKind;
use shift_bnn::pool;
use shift_bnn::scalability::{ScalabilityPoint, FIG13_SAMPLE_COUNTS};
use shift_bnn::sweep::SweepReport;

/// The sample counts of Fig. 2's BNN-vs-DNN comparison.
pub const FIG02_SAMPLE_COUNTS: [usize; 5] = [1, 8, 16, 24, 32];

/// The sample count Figs. 3, 10, 11, 12 and 14 are evaluated at.
pub const HEADLINE_SAMPLES: usize = 16;

/// The three models Fig. 13 sweeps.
pub const FIG13_MODELS: [ModelKind; 3] = [ModelKind::Mlp, ModelKind::LeNet, ModelKind::Vgg16];

fn headline_value(values: &[(DesignKind, f64)], design: DesignKind) -> f64 {
    values.iter().find(|(d, _)| *d == design).map(|(_, v)| *v).expect("design present")
}

/// One Fig. 2 row: BNN cost at `samples` normalized to the DNN counterpart.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig02Row {
    /// `"<DNN> / <BNN>"` label.
    pub label: String,
    /// Monte-Carlo sample count of the BNN run.
    pub samples: usize,
    /// DRAM-byte ratio BNN / DNN.
    pub transfer: f64,
    /// Energy ratio BNN / DNN.
    pub energy: f64,
    /// Latency ratio BNN / DNN.
    pub latency: f64,
}

/// Fig. 2: BNN training cost normalized to the DNN counterpart on MN-Acc.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig02 {
    /// One row per (model, S).
    pub rows: Vec<Fig02Row>,
    /// `(S, average transfer ratio)` for the paper's S = 8 and S = 32 headlines.
    pub average_transfer: Vec<(usize, f64)>,
}

/// Computes Fig. 2 from the shared sweep.
pub fn fig02(sweep: &SweepReport) -> Fig02 {
    let mut rows = Vec::new();
    for kind in ModelKind::all() {
        let dnn = sweep.evaluation(DesignKind::MnAcc, &kind.dnn().name, 1);
        for &s in &FIG02_SAMPLE_COUNTS {
            let bnn = sweep.evaluation(DesignKind::MnAcc, kind.paper_name(), s);
            rows.push(Fig02Row {
                label: format!("{} / {}", kind.dnn().name, kind.paper_name()),
                samples: s,
                transfer: bnn.report.dram_bytes as f64 / dnn.report.dram_bytes as f64,
                energy: bnn.energy_mj() / dnn.energy_mj(),
                latency: bnn.latency_s() / dnn.latency_s(),
            });
        }
    }
    let average_transfer = [8usize, 32]
        .iter()
        .map(|&s| {
            let ratios: Vec<f64> =
                rows.iter().filter(|r| r.samples == s).map(|r| r.transfer).collect();
            (s, ratios.iter().sum::<f64>() / ratios.len() as f64)
        })
        .collect();
    Fig02 { rows, average_transfer }
}

/// Fig. 3: the operand breakdown of baseline off-chip traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig03 {
    /// `(model, weights fraction, ε fraction, feature fraction)` per model.
    pub rows: Vec<(String, f64, f64, f64)>,
    /// Average ε share across the five models.
    pub average_epsilon: f64,
}

/// Computes Fig. 3 from the shared sweep.
pub fn fig03(sweep: &SweepReport) -> Fig03 {
    let rows: Vec<(String, f64, f64, f64)> = ModelKind::all()
        .iter()
        .map(|kind| {
            let report =
                sweep.evaluation(DesignKind::MnAcc, kind.paper_name(), HEADLINE_SAMPLES).report;
            let (w, e, f) = report.dram_traffic.fractions();
            (kind.paper_name().to_string(), w, e, f)
        })
        .collect();
    let average_epsilon = rows.iter().map(|r| r.2).sum::<f64>() / rows.len() as f64;
    Fig03 { rows, average_epsilon }
}

/// Per-design values of one model row in a four-design figure.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignRow {
    /// Paper model name.
    pub model: String,
    /// Value for MN-Acc.
    pub mn: f64,
    /// Value for MNShift-Acc.
    pub mnshift: f64,
    /// Value for RC-Acc.
    pub rc: f64,
    /// Value for Shift-BNN.
    pub shift: f64,
}

/// Fig. 10: normalized energy (MN-Acc = 1.0) plus the three headline reductions.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig10 {
    /// One row per model.
    pub rows: Vec<DesignRow>,
    /// Geometric-mean fractional reduction of Shift-BNN vs RC-Acc.
    pub reduction_vs_rc: f64,
    /// Geometric-mean fractional reduction of Shift-BNN vs MN-Acc.
    pub reduction_vs_mn: f64,
    /// Geometric-mean fractional reduction of Shift-BNN vs MNShift-Acc.
    pub reduction_vs_mnshift: f64,
}

/// Computes Fig. 10 from the shared sweep.
pub fn fig10(sweep: &SweepReport) -> Fig10 {
    let mut rows = Vec::new();
    let (mut vs_rc, mut vs_mn, mut vs_mnshift) = (Vec::new(), Vec::new(), Vec::new());
    for kind in ModelKind::all() {
        let cmp = sweep.comparison(kind.paper_name(), HEADLINE_SAMPLES);
        let normalized = cmp.normalized_energy(DesignKind::MnAcc);
        let value = |d| headline_value(&normalized, d);
        rows.push(DesignRow {
            model: kind.paper_name().to_string(),
            mn: value(DesignKind::MnAcc),
            mnshift: value(DesignKind::MnShiftAcc),
            rc: value(DesignKind::RcAcc),
            shift: value(DesignKind::ShiftBnn),
        });
        vs_rc.push(value(DesignKind::ShiftBnn) / value(DesignKind::RcAcc));
        vs_mn.push(value(DesignKind::ShiftBnn) / value(DesignKind::MnAcc));
        vs_mnshift.push(value(DesignKind::ShiftBnn) / value(DesignKind::MnShiftAcc));
    }
    Fig10 {
        rows,
        reduction_vs_rc: 1.0 - geometric_mean(&vs_rc),
        reduction_vs_mn: 1.0 - geometric_mean(&vs_mn),
        reduction_vs_mnshift: 1.0 - geometric_mean(&vs_mnshift),
    }
}

/// Fig. 11: speedup over MN-Acc plus the Shift-BNN-vs-RC-Acc headline.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig11 {
    /// One row per model.
    pub rows: Vec<DesignRow>,
    /// Geometric-mean speedup of Shift-BNN over RC-Acc.
    pub shift_over_rc: f64,
}

/// Computes Fig. 11 from the shared sweep.
pub fn fig11(sweep: &SweepReport) -> Fig11 {
    let mut rows = Vec::new();
    let mut shift_over_rc = Vec::new();
    for kind in ModelKind::all() {
        let cmp = sweep.comparison(kind.paper_name(), HEADLINE_SAMPLES);
        let speedups = cmp.speedup_over(DesignKind::MnAcc);
        let value = |d| headline_value(&speedups, d);
        rows.push(DesignRow {
            model: kind.paper_name().to_string(),
            mn: value(DesignKind::MnAcc),
            mnshift: value(DesignKind::MnShiftAcc),
            rc: value(DesignKind::RcAcc),
            shift: value(DesignKind::ShiftBnn),
        });
        shift_over_rc.push(value(DesignKind::ShiftBnn) / value(DesignKind::RcAcc));
    }
    Fig11 { rows, shift_over_rc: geometric_mean(&shift_over_rc) }
}

/// One Fig. 12 row: the four designs plus the GPU, normalized to MN-Acc.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig12Row {
    /// The four-design values.
    pub designs: DesignRow,
    /// The GPU comparison point.
    pub gpu: f64,
}

/// Fig. 12: normalized energy efficiency (GOPS/W) and the three headline ratios.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig12 {
    /// One row per model.
    pub rows: Vec<Fig12Row>,
    /// Geometric-mean Shift-BNN / RC-Acc efficiency ratio.
    pub shift_vs_rc: f64,
    /// Geometric-mean Shift-BNN / MN-Acc efficiency ratio.
    pub shift_vs_mn: f64,
    /// Geometric-mean Shift-BNN / GPU efficiency ratio.
    pub shift_vs_gpu: f64,
}

/// Computes Fig. 12 from the shared sweep (the GPU roofline point is evaluated directly — it
/// is not one of the grid's accelerator designs).
pub fn fig12(sweep: &SweepReport) -> Fig12 {
    let mut rows = Vec::new();
    let (mut vs_rc, mut vs_mn, mut vs_gpu) = (Vec::new(), Vec::new(), Vec::new());
    for kind in ModelKind::all() {
        let model = kind.bnn();
        let cmp = sweep.comparison(kind.paper_name(), HEADLINE_SAMPLES);
        let eff = cmp.normalized_efficiency(DesignKind::MnAcc);
        let value = |d| headline_value(&eff, d);
        let gpu = cmp.gpu_normalized_efficiency(&model, DesignKind::MnAcc);
        rows.push(Fig12Row {
            designs: DesignRow {
                model: kind.paper_name().to_string(),
                mn: value(DesignKind::MnAcc),
                mnshift: value(DesignKind::MnShiftAcc),
                rc: value(DesignKind::RcAcc),
                shift: value(DesignKind::ShiftBnn),
            },
            gpu,
        });
        vs_rc.push(value(DesignKind::ShiftBnn) / value(DesignKind::RcAcc));
        vs_mn.push(value(DesignKind::ShiftBnn) / value(DesignKind::MnAcc));
        vs_gpu.push(value(DesignKind::ShiftBnn) / gpu);
    }
    Fig12 {
        rows,
        shift_vs_rc: geometric_mean(&vs_rc),
        shift_vs_mn: geometric_mean(&vs_mn),
        shift_vs_gpu: geometric_mean(&vs_gpu),
    }
}

/// Fig. 13: the scalability points of the three swept models.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig13 {
    /// `(model, points at each S of FIG13_SAMPLE_COUNTS)`.
    pub models: Vec<(ModelKind, Vec<ScalabilityPoint>)>,
}

/// Computes Fig. 13 from the shared sweep.
pub fn fig13(sweep: &SweepReport) -> Fig13 {
    let models = FIG13_MODELS
        .iter()
        .map(|&kind| (kind, sweep.scalability(kind.paper_name(), &FIG13_SAMPLE_COUNTS)))
        .collect();
    Fig13 { models }
}

/// One Fig. 14 access row with the baseline's operand breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig14AccessRow {
    /// The normalized DRAM-access counts.
    pub designs: DesignRow,
    /// MN-Acc's `(weights, ε, features)` traffic fractions.
    pub baseline_fractions: (f64, f64, f64),
}

/// Fig. 14: normalized DRAM accesses (top) and memory footprint (bottom).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig14 {
    /// Top half: DRAM accesses normalized to MN-Acc.
    pub access_rows: Vec<Fig14AccessRow>,
    /// Bottom half: memory footprint normalized to MN-Acc.
    pub footprint_rows: Vec<DesignRow>,
    /// Average fractional footprint reduction of Shift-BNN.
    pub average_footprint_reduction: f64,
}

/// Computes Fig. 14 from the shared sweep.
pub fn fig14(sweep: &SweepReport) -> Fig14 {
    let mut access_rows = Vec::new();
    let mut footprint_rows = Vec::new();
    let mut footprint_savings = Vec::new();
    for kind in ModelKind::all() {
        let cmp = sweep.comparison(kind.paper_name(), HEADLINE_SAMPLES);
        let accesses = cmp.normalized_dram_accesses(DesignKind::MnAcc);
        let footprints = cmp.normalized_footprint(DesignKind::MnAcc);
        let access = |d| headline_value(&accesses, d);
        let footprint = |d| headline_value(&footprints, d);
        let label = format!("{}-{}", kind.paper_name(), HEADLINE_SAMPLES);
        access_rows.push(Fig14AccessRow {
            designs: DesignRow {
                model: label.clone(),
                mn: access(DesignKind::MnAcc),
                mnshift: access(DesignKind::MnShiftAcc),
                rc: access(DesignKind::RcAcc),
                shift: access(DesignKind::ShiftBnn),
            },
            baseline_fractions: cmp.of(DesignKind::MnAcc).report.dram_traffic.fractions(),
        });
        footprint_rows.push(DesignRow {
            model: label,
            mn: footprint(DesignKind::MnAcc),
            mnshift: footprint(DesignKind::MnShiftAcc),
            rc: footprint(DesignKind::RcAcc),
            shift: footprint(DesignKind::ShiftBnn),
        });
        footprint_savings.push(1.0 - footprint(DesignKind::ShiftBnn));
    }
    let average_footprint_reduction =
        footprint_savings.iter().sum::<f64>() / footprint_savings.len() as f64;
    Fig14 { access_rows, footprint_rows, average_footprint_reduction }
}

/// Table 2: the FPGA resource model's per-component, per-SPU and whole-accelerator usage.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2 {
    /// `(component name, usage)` per SPU component.
    pub components: Vec<(String, ResourceUsage)>,
    /// One-SPU totals.
    pub spu: ResourceUsage,
    /// 16-SPU + control totals.
    pub accelerator: ResourceUsage,
}

/// Computes Table 2 for the Shift-BNN design.
pub fn table2() -> Table2 {
    let config = DesignKind::ShiftBnn.config();
    let components = SpuComponent::all()
        .iter()
        .map(|&c| (c.name().to_string(), component_usage(c, &config)))
        .collect();
    Table2 { components, spu: spu_usage(&config), accelerator: accelerator_usage(&config) }
}

/// One epoch of the Fig. 9 training-equivalence run.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig09Row {
    /// Epoch number (1-based).
    pub epoch: usize,
    /// Mean training loss of the store-and-replay baseline.
    pub loss_baseline: f32,
    /// Mean training loss of the LFSR-retrieval (Shift-BNN) path.
    pub loss_shift: f32,
    /// Validation accuracy of the baseline.
    pub acc_baseline: f64,
    /// Validation accuracy of the Shift-BNN path.
    pub acc_shift: f64,
}

/// Fig. 9: the two training arms, epoch by epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig09 {
    /// Per-epoch metrics of both arms.
    pub rows: Vec<Fig09Row>,
    /// Whether every epoch's loss and accuracy were bit-identical across the arms.
    pub identical: bool,
    /// ε values the baseline stored off-chip.
    pub baseline_stored: u64,
    /// ε values the Shift-BNN path stored (zero by construction).
    pub shift_stored: u64,
}

fn fig09_arm(strategy: EpsilonStrategy, epochs: usize) -> (Vec<(EpochMetrics, f64)>, u64) {
    let mut rng = StdRng::seed_from_u64(2021);
    let config = BayesConfig { kl_weight: 1e-4, ..BayesConfig::default() }
        .with_precision(Precision::PAPER_16BIT);
    let network = Network::bayes_lenet(&[3, 16, 16], 4, config, &mut rng);
    let mut trainer =
        Trainer::new(network, TrainerConfig { samples: 4, learning_rate: 0.05, strategy, seed: 7 })
            .expect("trainer construction");
    // High per-example noise keeps the task from being trivially separable, so the curve has a
    // visible learning phase like the paper's Fig. 9.
    let dataset = SyntheticDataset::generate(&[3, 16, 16], 4, 20, 1.6, 31);
    let (train, val) = dataset.split(0.75);
    let mut metrics = Vec::with_capacity(epochs);
    for _ in 0..epochs {
        let m = trainer.train_epoch(&train).expect("train epoch");
        let acc = trainer.evaluate(&val).expect("evaluate");
        metrics.push((m, acc));
    }
    (metrics, trainer.stored_epsilons())
}

/// Runs the Fig. 9 equivalence experiment for `epochs` epochs; the two arms execute in
/// parallel on the sweep engine's worker pool.
pub fn fig09(epochs: usize) -> Fig09 {
    let strategies = [EpsilonStrategy::StoreReplay, EpsilonStrategy::LfsrRetrieve];
    let mut arms = pool::run_indexed(2, 2, |i| fig09_arm(strategies[i], epochs));
    let (shift_metrics, shift_stored) = arms.pop().expect("shift arm");
    let (baseline_metrics, baseline_stored) = arms.pop().expect("baseline arm");
    let mut identical = true;
    let rows = baseline_metrics
        .iter()
        .zip(&shift_metrics)
        .enumerate()
        .map(|(i, (&(mb, ab), &(ms, asft)))| {
            identical &= mb == ms && (ab - asft).abs() < f64::EPSILON;
            Fig09Row {
                epoch: i + 1,
                loss_baseline: mb.mean_loss,
                loss_shift: ms.mean_loss,
                acc_baseline: ab,
                acc_shift: asft,
            }
        })
        .collect();
    Fig09 { rows, identical, baseline_stored, shift_stored }
}

/// One scaled-down model family of the Table 1 precision study.
pub struct Table1Family {
    /// Display name.
    pub name: &'static str,
    /// Dataset label.
    pub dataset_name: &'static str,
    /// Whether the family trains the convolutional (LeNet-style) network.
    pub conv: bool,
    /// Input shape.
    pub input: Vec<usize>,
    /// Class count.
    pub classes: usize,
    /// Training epochs.
    pub epochs: usize,
}

/// The five scaled-down families of Table 1.
pub fn table1_families() -> Vec<Table1Family> {
    vec![
        Table1Family {
            name: "B-MLP",
            dataset_name: "MNIST (synthetic)",
            conv: false,
            input: vec![64],
            classes: 4,
            epochs: 14,
        },
        Table1Family {
            name: "B-LeNet",
            dataset_name: "CIFAR-10 (synthetic)",
            conv: true,
            input: vec![3, 12, 12],
            classes: 3,
            epochs: 12,
        },
        Table1Family {
            name: "B-AlexNet (reduced)",
            dataset_name: "ImageNet (synthetic)",
            conv: true,
            input: vec![3, 12, 12],
            classes: 3,
            epochs: 12,
        },
        Table1Family {
            name: "B-VGG (reduced)",
            dataset_name: "ImageNet (synthetic)",
            conv: true,
            input: vec![3, 12, 12],
            classes: 3,
            epochs: 12,
        },
        Table1Family {
            name: "B-ResNet (reduced)",
            dataset_name: "ImageNet (synthetic)",
            conv: true,
            input: vec![3, 12, 12],
            classes: 3,
            epochs: 12,
        },
    ]
}

/// The three precisions of Table 1's columns, with their display labels.
pub fn table1_precisions() -> [(&'static str, Precision); 3] {
    [
        ("8-bit", Precision::PAPER_8BIT),
        ("16-bit", Precision::PAPER_16BIT),
        ("32-bit", Precision::Fp32),
    ]
}

/// Trains one Table 1 cell and returns its validation accuracy, or `None` on divergence.
pub fn table1_cell(family: &Table1Family, precision: Precision, seed: u64) -> Option<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let config =
        BayesConfig { kl_weight: 5e-4, ..BayesConfig::default() }.with_precision(precision);
    let network = if family.conv {
        let shape = [family.input[0], family.input[1], family.input[2]];
        Network::bayes_lenet(&shape, family.classes, config, &mut rng)
    } else {
        Network::bayes_mlp(family.input[0], &[48, 32], family.classes, config, &mut rng)
    };
    let dataset = SyntheticDataset::generate(&family.input, family.classes, 20, 1.1, seed ^ 0xD00D);
    let (train, val) = dataset.split(0.8);
    let mut trainer = Trainer::new(
        network,
        TrainerConfig {
            samples: 2,
            learning_rate: 0.06,
            strategy: EpsilonStrategy::LfsrRetrieve,
            seed,
        },
    )
    .ok()?;
    for _ in 0..family.epochs {
        match trainer.train_epoch(&train) {
            Ok(metrics) if metrics.mean_loss.is_finite() => {}
            _ => return None,
        }
    }
    trainer.evaluate(&val).ok().filter(|a| a.is_finite())
}

/// One Table 1 row: a family's accuracy at the three precisions (`None` = diverged/NaN).
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Family display name.
    pub network: String,
    /// Dataset label.
    pub dataset: String,
    /// Accuracy at 8, 16 and 32 bits.
    pub accuracies: [Option<f64>; 3],
}

/// Table 1: every (family × precision) training cell, executed in parallel on the worker pool.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1 {
    /// One row per family.
    pub rows: Vec<Table1Row>,
}

/// Runs the Table 1 precision study. The 15 independent training cells are scheduled on the
/// sweep engine's work-stealing pool; each cell re-derives its own seeds, so the results are
/// identical to the old serial loop.
pub fn table1() -> Table1 {
    let families = table1_families();
    let precisions = table1_precisions();
    let cells =
        pool::run_indexed(families.len() * precisions.len(), pool::default_workers(), |i| {
            let family = &families[i / precisions.len()];
            let (_, precision) = precisions[i % precisions.len()];
            table1_cell(family, precision, 100 + (i / precisions.len()) as u64)
        });
    let rows = families
        .iter()
        .enumerate()
        .map(|(f, family)| Table1Row {
            network: family.name.to_string(),
            dataset: family.dataset_name.to_string(),
            accuracies: [cells[f * 3], cells[f * 3 + 1], cells[f * 3 + 2]],
        })
        .collect();
    Table1 { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnn_arch::EnergyModel;
    use shift_bnn::sweep::{run_sweep, SweepGrid};

    fn sweep() -> SweepReport {
        run_sweep(&SweepGrid::paper_figures(), pool::default_workers(), &EnergyModel::default())
    }

    #[test]
    fn figure_views_cover_every_model_row() {
        let sweep = sweep();
        assert_eq!(fig02(&sweep).rows.len(), 5 * FIG02_SAMPLE_COUNTS.len());
        assert_eq!(fig03(&sweep).rows.len(), 5);
        assert_eq!(fig10(&sweep).rows.len(), 5);
        assert_eq!(fig11(&sweep).rows.len(), 5);
        assert_eq!(fig12(&sweep).rows.len(), 5);
        assert_eq!(fig13(&sweep).models.len(), 3);
        let f14 = fig14(&sweep);
        assert_eq!(f14.access_rows.len(), 5);
        assert_eq!(f14.footprint_rows.len(), 5);
    }

    #[test]
    fn headline_trends_match_the_paper() {
        let sweep = sweep();
        let f10 = fig10(&sweep);
        assert!(f10.reduction_vs_rc > 0.5 && f10.reduction_vs_rc < 0.9);
        assert!(fig11(&sweep).shift_over_rc > 1.0);
        let f12 = fig12(&sweep);
        assert!(f12.shift_vs_rc > 1.0 && f12.shift_vs_gpu > 1.0);
        assert!(fig14(&sweep).average_footprint_reduction > 0.5);
    }

    #[test]
    fn table2_totals_are_component_sums() {
        let t2 = table2();
        let lut: u64 = t2.components.iter().map(|(_, u)| u.lut).sum();
        assert_eq!(lut, t2.spu.lut);
        assert!(t2.accelerator.lut > 16 * t2.spu.lut, "control logic adds LUTs");
    }
}
