//! Multi-design, multi-model comparisons — the data behind Figs. 10, 11, 12 and 14.

use crate::designs::DesignKind;
use crate::evaluate::{evaluate_gpu, evaluate_with, DesignEvaluation};
use crate::pool::default_workers;
use crate::sweep::{run_sweep, SweepGrid, SweepPrecision};
use bnn_arch::EnergyModel;
use bnn_models::ModelConfig;

/// Evaluations of every requested design on one model/workload.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignComparison {
    /// Model name.
    pub model: String,
    /// Sample count `S`.
    pub samples: usize,
    /// One evaluation per design, in the order requested.
    pub evaluations: Vec<DesignEvaluation>,
}

impl DesignComparison {
    /// Runs `model` on every design in `designs` with `samples` samples.
    pub fn run(model: &ModelConfig, samples: usize, designs: &[DesignKind]) -> Self {
        Self::run_with(model, samples, designs, &EnergyModel::default())
    }

    /// Same as [`run`](Self::run) with an explicit energy model.
    pub fn run_with(
        model: &ModelConfig,
        samples: usize,
        designs: &[DesignKind],
        energy: &EnergyModel,
    ) -> Self {
        let evaluations =
            designs.iter().map(|&d| evaluate_with(d, model, samples, energy)).collect();
        Self { model: model.name.clone(), samples, evaluations }
    }

    /// The evaluation of a specific design.
    ///
    /// # Panics
    ///
    /// Panics if the design was not part of the comparison.
    pub fn of(&self, design: DesignKind) -> &DesignEvaluation {
        self.evaluations
            .iter()
            .find(|e| e.design == design)
            .unwrap_or_else(|| panic!("design {} not evaluated", design.name()))
    }

    /// Energy of every design normalized to `baseline` (baseline = 1.0). Fig. 10's metric.
    pub fn normalized_energy(&self, baseline: DesignKind) -> Vec<(DesignKind, f64)> {
        let base = self.of(baseline).energy_mj();
        self.evaluations.iter().map(|e| (e.design, e.energy_mj() / base)).collect()
    }

    /// Speedup of every design over `baseline`. Fig. 11's metric.
    pub fn speedup_over(&self, baseline: DesignKind) -> Vec<(DesignKind, f64)> {
        let base = self.of(baseline).latency_s();
        self.evaluations.iter().map(|e| (e.design, base / e.latency_s())).collect()
    }

    /// Energy efficiency (GOPS/W) of every design, normalized to `baseline`. Fig. 12's metric.
    pub fn normalized_efficiency(&self, baseline: DesignKind) -> Vec<(DesignKind, f64)> {
        let base = self.of(baseline).gops_per_watt();
        self.evaluations.iter().map(|e| (e.design, e.gops_per_watt() / base)).collect()
    }

    /// DRAM accesses of every design normalized to `baseline`, plus the per-operand fractions.
    /// Fig. 14's metric.
    pub fn normalized_dram_accesses(&self, baseline: DesignKind) -> Vec<(DesignKind, f64)> {
        let base = self.of(baseline).dram_accesses() as f64;
        self.evaluations.iter().map(|e| (e.design, e.dram_accesses() as f64 / base)).collect()
    }

    /// Memory footprint of every design normalized to `baseline`.
    pub fn normalized_footprint(&self, baseline: DesignKind) -> Vec<(DesignKind, f64)> {
        let base = self.of(baseline).footprint_bytes() as f64;
        self.evaluations.iter().map(|e| (e.design, e.footprint_bytes() as f64 / base)).collect()
    }

    /// The GPU's energy efficiency normalized to `baseline`'s (the extra bar in Fig. 12).
    pub fn gpu_normalized_efficiency(&self, model: &ModelConfig, baseline: DesignKind) -> f64 {
        let (gpu, report) = evaluate_gpu(model, self.samples);
        report.gops_per_watt(gpu.sustained_power_w) / self.of(baseline).gops_per_watt()
    }
}

/// Convenience: compares all four designs on a list of models and returns one comparison per
/// model.
///
/// Runs the (model × design) grid through the sweep engine, so the evaluations execute on the
/// work-stealing pool instead of serially; results are identical to per-model
/// [`DesignComparison::run`] calls (the sweep orders records by grid index, not completion).
pub fn compare_all_designs(models: &[ModelConfig], samples: usize) -> Vec<DesignComparison> {
    let grid = SweepGrid {
        designs: DesignKind::all().to_vec(),
        models: models.to_vec(),
        sample_counts: vec![samples],
        precisions: vec![SweepPrecision::Bits16],
    };
    let report = run_sweep(&grid, default_workers(), &EnergyModel::default());
    models.iter().map(|m| report.comparison(&m.name, samples)).collect()
}

/// Geometric-mean helper used for "average across models" statements.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-300).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnn_models::ModelKind;

    #[test]
    fn normalization_sets_baseline_to_one() {
        let cmp = DesignComparison::run(&ModelKind::LeNet.bnn(), 16, &DesignKind::all());
        let energy = cmp.normalized_energy(DesignKind::MnAcc);
        let baseline = energy.iter().find(|(d, _)| *d == DesignKind::MnAcc).unwrap();
        assert!((baseline.1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shift_bnn_wins_every_headline_metric() {
        for kind in [ModelKind::Mlp, ModelKind::LeNet, ModelKind::Vgg16] {
            let cmp = DesignComparison::run(&kind.bnn(), 16, &DesignKind::all());
            let energy = cmp.normalized_energy(DesignKind::RcAcc);
            let shift_energy = energy.iter().find(|(d, _)| *d == DesignKind::ShiftBnn).unwrap().1;
            assert!(shift_energy < 1.0, "{}: energy {shift_energy}", kind.paper_name());
            let speedup = cmp.speedup_over(DesignKind::RcAcc);
            let shift_speed = speedup.iter().find(|(d, _)| *d == DesignKind::ShiftBnn).unwrap().1;
            assert!(shift_speed >= 1.0, "{}: speedup {shift_speed}", kind.paper_name());
            let eff = cmp.normalized_efficiency(DesignKind::RcAcc);
            let shift_eff = eff.iter().find(|(d, _)| *d == DesignKind::ShiftBnn).unwrap().1;
            assert!(shift_eff > 1.0, "{}: efficiency {shift_eff}", kind.paper_name());
        }
    }

    #[test]
    fn shift_bnn_consumes_less_energy_than_mnshift_acc() {
        // The design-space-exploration result the paper quantifies as a 39% average gap: both
        // designs eliminate ε traffic, but the MN mapping pays for duplicated adder trees and
        // poorer feature-map reuse.
        let mut ratios = Vec::new();
        for kind in ModelKind::all() {
            let cmp = DesignComparison::run(&kind.bnn(), 16, &DesignKind::all());
            let shift = cmp.of(DesignKind::ShiftBnn).energy_mj();
            let mnshift = cmp.of(DesignKind::MnShiftAcc).energy_mj();
            assert!(shift < mnshift, "{}: {shift} vs {mnshift}", kind.paper_name());
            ratios.push(shift / mnshift);
        }
        let avg_reduction = 1.0 - geometric_mean(&ratios);
        assert!(avg_reduction > 0.15, "average reduction vs MNShift-Acc {avg_reduction}");
    }

    #[test]
    fn fc_dominated_models_gain_the_most_speedup() {
        // The paper: B-MLP gains up to 2.6x while conv-dominated B-VGG gains ~1.2x.
        let mlp = DesignComparison::run(&ModelKind::Mlp.bnn(), 16, &DesignKind::all());
        let vgg = DesignComparison::run(&ModelKind::Vgg16.bnn(), 16, &DesignKind::all());
        let s_mlp = mlp.speedup_over(DesignKind::RcAcc);
        let s_vgg = vgg.speedup_over(DesignKind::RcAcc);
        let mlp_speed = s_mlp.iter().find(|(d, _)| *d == DesignKind::ShiftBnn).unwrap().1;
        let vgg_speed = s_vgg.iter().find(|(d, _)| *d == DesignKind::ShiftBnn).unwrap().1;
        assert!(mlp_speed > vgg_speed, "MLP {mlp_speed} vs VGG {vgg_speed}");
    }

    #[test]
    fn shift_bnn_outperforms_the_gpu_in_energy_efficiency() {
        let model = ModelKind::LeNet.bnn();
        let cmp = DesignComparison::run(&model, 16, &DesignKind::all());
        let gpu_eff = cmp.gpu_normalized_efficiency(&model, DesignKind::ShiftBnn);
        assert!(gpu_eff < 1.0, "GPU relative efficiency {gpu_eff}");
    }

    #[test]
    fn compare_all_designs_covers_every_model() {
        let models: Vec<_> = ModelKind::all().iter().map(|k| k.bnn()).collect();
        let cmps = compare_all_designs(&models, 8);
        assert_eq!(cmps.len(), 5);
        assert!(cmps.iter().all(|c| c.evaluations.len() == 4));
    }

    #[test]
    fn geometric_mean_of_identical_values_is_the_value() {
        assert!((geometric_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "not evaluated")]
    fn missing_design_panics() {
        let cmp = DesignComparison::run(&ModelKind::Mlp.bnn(), 4, &[DesignKind::RcAcc]);
        cmp.of(DesignKind::ShiftBnn);
    }
}
