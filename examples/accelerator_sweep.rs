//! Accelerator sweep: evaluate every paper model on every accelerator design across a range of
//! Monte-Carlo sample counts and print energy, latency, DRAM traffic and efficiency — the
//! exploration a system designer would run before choosing a deployment point.
//!
//! The whole grid executes as one `shift_bnn::sweep` run on the work-stealing pool; the table
//! below is just a rendering of the resulting `SweepReport`.
//!
//! Run with: `cargo run --release --example accelerator_sweep`

use bnn_arch::EnergyModel;
use bnn_models::{paper_bnns, ModelKind};
use shift_bnn::designs::DesignKind;
use shift_bnn::pool;
use shift_bnn::sweep::{run_sweep, SweepGrid, SweepPrecision};

fn main() {
    let sample_counts = vec![8usize, 16, 32];
    let grid = SweepGrid {
        designs: DesignKind::all().to_vec(),
        models: paper_bnns(),
        sample_counts: sample_counts.clone(),
        precisions: vec![SweepPrecision::Bits16],
    };
    let report = run_sweep(&grid, pool::default_workers(), &EnergyModel::default());

    println!(
        "{:<12} {:>4} {:>12} {:>14} {:>14} {:>16} {:>14}",
        "model", "S", "design", "energy (mJ)", "latency (ms)", "DRAM (MValues)", "GOPS/W"
    );
    for kind in ModelKind::all() {
        for &samples in &sample_counts {
            let comparison = report.comparison(kind.paper_name(), samples);
            for evaluation in &comparison.evaluations {
                println!(
                    "{:<12} {:>4} {:>12} {:>14.2} {:>14.3} {:>16.1} {:>14.1}",
                    kind.paper_name(),
                    samples,
                    evaluation.design.name(),
                    evaluation.energy_mj(),
                    evaluation.latency_s() * 1e3,
                    evaluation.dram_accesses() as f64 / 1e6,
                    evaluation.gops_per_watt()
                );
            }
        }
        println!();
    }

    // Summarize the design-space takeaway the paper draws: RC + LFSR reversion is the sweet spot.
    let cmp = report.comparison(ModelKind::LeNet.paper_name(), 16);
    let best = cmp
        .evaluations
        .iter()
        .min_by(|a, b| a.energy_mj().partial_cmp(&b.energy_mj()).unwrap())
        .unwrap();
    println!(
        "lowest-energy design for B-LeNet at S=16: {} ({:.1} mJ)",
        best.design.name(),
        best.energy_mj()
    );
}
