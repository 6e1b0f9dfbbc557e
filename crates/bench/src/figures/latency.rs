//! Shared latency/SLO output helpers of the serving subcommands.
//!
//! `se serve` (single instance, metric/value rows) and `se cluster` (one
//! row per accelerator lane) report the same quantities — latency
//! percentiles in milliseconds and deadline-miss accounting — through the
//! helpers here, so the two outputs use one percentile definition
//! (`se_obs::analyze::percentile`, nearest-rank), one cycle→time
//! conversion, and one formatting, and stay directly comparable.

/// The percentiles every serving report prints.
pub const REPORT_PERCENTILES: [f64; 3] = [50.0, 95.0, 99.0];

/// Cycles at `frequency_hz` expressed in milliseconds.
pub fn ms(frequency_hz: f64, cycles: f64) -> f64 {
    cycles / frequency_hz * 1e3
}

/// The [`REPORT_PERCENTILES`] of `latencies` formatted in milliseconds
/// (`{:.4}`), in order — the p50/p95/p99 cells of both serving reports.
/// An empty sample (nothing completed) renders as `-`, never as a
/// fake `0.0000`.
pub fn percentile_cells(latencies: &[u64], frequency_hz: f64) -> [String; 3] {
    REPORT_PERCENTILES.map(|p| match se_obs::analyze::percentile(latencies, p) {
        Some(cycles) => format!("{:.4}", ms(frequency_hz, cycles as f64)),
        None => "-".to_string(),
    })
}

/// A `--deadline-us` value converted to a cycle budget at `frequency_hz`
/// (`None` passes through: best effort).
pub fn deadline_cycles(deadline_us: Option<f64>, frequency_hz: f64) -> Option<u64> {
    deadline_us.map(|us| (us * 1e-6 * frequency_hz).round() as u64)
}

/// The deadline-miss cells `(missed, miss %)`: counts against `completed`
/// when a deadline is set, `n/a` otherwise.
pub fn miss_cells(misses: Option<u64>, completed: usize) -> (String, String) {
    match misses {
        None => ("n/a".to_string(), "n/a".to_string()),
        Some(m) => (
            m.to_string(),
            format!(
                "{:.1}",
                if completed == 0 { 0.0 } else { 100.0 * m as f64 / completed as f64 }
            ),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_format_shared_quantities() {
        assert_eq!(ms(1e9, 2_000_000.0), 2.0);
        let cells = percentile_cells(&[1_000_000, 2_000_000, 3_000_000, 4_000_000], 1e9);
        assert_eq!(cells, ["2.0000".to_string(), "4.0000".to_string(), "4.0000".to_string()]);
        let empty = percentile_cells(&[], 1e9);
        assert_eq!(empty, ["-".to_string(), "-".to_string(), "-".to_string()]);
        assert_eq!(deadline_cycles(Some(500.0), 1e9), Some(500_000));
        assert_eq!(deadline_cycles(None, 1e9), None);
        assert_eq!(miss_cells(None, 10), ("n/a".into(), "n/a".into()));
        assert_eq!(miss_cells(Some(3), 12), ("3".into(), "25.0".into()));
        assert_eq!(miss_cells(Some(0), 0), ("0".into(), "0.0".into()));
    }
}
