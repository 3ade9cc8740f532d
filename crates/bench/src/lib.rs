//! Shared harness utilities for the `reproduce` driver.
//!
//! Every function in [`figures`] regenerates one figure or table of the
//! paper (`reproduce --list` prints the index) by building the
//! corresponding workloads from the `polybench` crate, scheduling them with
//! daisy and the baselines, and printing the same rows/series the paper
//! reports. Absolute numbers come from the analytical machine model, so
//! only the *shape* (ratios, ordering, crossovers) is comparable with the
//! paper. [`workloads`] holds the named cache workloads the simulator's
//! differential suites and paper-size gates share.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod figures;
pub mod workloads;

use daisy::{DaisyConfig, DaisyScheduler};
use loop_ir::program::Program;
use machine::{CostModel, MachineConfig};
use polybench::{all_benchmarks, Dataset};

/// Number of threads used for the multi-threaded comparisons (the paper's
/// machine has 12 cores).
pub const THREADS: usize = 12;

/// Geometric mean of a sequence of positive values.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-300).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Prints a simple aligned table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&headers.iter().map(|h| h.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Builds a daisy scheduler whose database is seeded from the (normalized)
/// A variants of all 15 benchmarks, the setup of §4.1.
pub fn daisy_seeded_from_a_variants(dataset: Dataset, config: DaisyConfig) -> DaisyScheduler {
    let mut scheduler = DaisyScheduler::new(config);
    let a_variants: Vec<Program> = all_benchmarks().iter().map(|b| (b.a)(dataset)).collect();
    scheduler.seed_from_programs(&a_variants);
    scheduler
}

/// The multi-threaded cost model used by the figure harnesses.
pub fn paper_machine_model(threads: usize) -> CostModel {
    CostModel::new(MachineConfig::xeon_e5_2680v3(), threads)
}

/// Formats a runtime ratio the way the figures report it (relative runtime,
/// lower is better), with `X` marking inapplicable configurations.
pub fn ratio(value: Option<f64>, baseline: f64) -> String {
    match value {
        Some(v) if baseline > 0.0 => format!("{:.2}", v / baseline),
        _ => "X".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_of_ratios() {
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 0.0);
    }

    #[test]
    fn ratio_formatting() {
        assert_eq!(ratio(Some(2.0), 1.0), "2.00");
        assert_eq!(ratio(None, 1.0), "X");
        assert_eq!(ratio(Some(1.0), 0.0), "X");
    }

    #[test]
    fn seeded_scheduler_has_database_entries() {
        let scheduler = daisy_seeded_from_a_variants(Dataset::Mini, DaisyConfig::default());
        assert!(!scheduler.database().is_empty());
    }

    #[test]
    fn table_printer_does_not_panic() {
        print_table(
            "test",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }
}
