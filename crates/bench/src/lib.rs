//! Shared helpers for the figure/table binaries of the Shift-BNN benchmark harness.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper's evaluation section
//! and prints it as an aligned text table; `EXPERIMENTS.md` records the paper-reported values
//! next to the values these binaries produce.
//!
//! The figure *computations* live in [`views`] as pure functions over one shared design-space
//! sweep ([`shift_bnn::sweep`]); the binaries render those views, and `tests/golden_figures.rs`
//! pins their key scalars against checked-in golden values. The serving benchmark's grid and
//! deterministic summary live in [`serve_views`], the cluster-serving benchmark (routing ×
//! arrival grid plus the plan-only stress arm) in [`cluster_views`], the fault-injection
//! chaos benchmark (fault scenarios × arrivals with failover and the degradation ladder)
//! in [`chaos_views`], the traced-replay observability benchmark (span
//! assembly, stage attribution, metrics digests) in [`obs_views`], the checkpoint-store
//! benchmark (train → publish → serve → hot-swap) in [`store_views`], and the numeric-tree
//! comparison behind the CI bench-regression gate in [`regression`].

//! The hot-path kernel microbenchmarks (`hot_bench`) live in [`hot`], and the allocation
//! counter enforcing the zero-allocation steady state in [`alloc`]. The benchmark binaries
//! read their flags, run their 1-vs-N-worker identity pass and write their two files
//! through [`harness`].

pub mod alloc;
pub mod chaos_views;
pub mod cluster_views;
pub mod harness;
pub mod hot;
pub mod moment_views;
pub mod obs_views;
pub mod regression;
pub mod serve_views;
pub mod store_views;
pub mod views;

/// Prints an aligned text table with a title, a header row and data rows.
///
/// # Examples
///
/// ```
/// shift_bnn_bench::print_table(
///     "Demo",
///     &["model", "value"],
///     &[vec!["B-LeNet".to_string(), "1.00".to_string()]],
/// );
/// ```
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{:>width$}", h, width = widths[i]))
        .collect();
    println!("{}", header_line.join("  "));
    println!("{}", "-".repeat(header_line.join("  ").len()));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(0)))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Formats a ratio with two decimal places and a trailing `x`.
pub fn ratio(value: f64) -> String {
    format!("{value:.2}x")
}

/// Formats a fraction as a percentage with one decimal place.
pub fn percent(value: f64) -> String {
    format!("{:.1}%", value * 100.0)
}

/// Formats a float with the given number of decimals.
pub fn num(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(ratio(1.5), "1.50x");
        assert_eq!(percent(0.756), "75.6%");
        assert_eq!(num(1.23456, 3), "1.235");
    }

    #[test]
    fn print_table_does_not_panic_on_ragged_rows() {
        print_table(
            "t",
            &["a", "b"],
            &[vec!["1".into()], vec!["1".into(), "2".into(), "3".into()]],
        );
    }
}
