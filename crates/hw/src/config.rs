//! Accelerator configuration (the Table V resources plus feature toggles
//! for the ablation studies).

use crate::{HwError, Result};

/// SmartExchange accelerator configuration.
///
/// Defaults reproduce Table V: `dimM = 64` PE slices, `dimC = 16` PE lines
/// per slice, `dimF = 8` MACs per line (8 K bit-serial lanes total), a
/// 512 KB input GB (32 × 16 KB banks), 4 KB output GB (2 × 2 KB), 4 KB
/// weight buffer per slice (2 × 2 KB), and 8-bit precision at 1 GHz.
///
/// The feature toggles (`bit_serial`, `index_select`, `compact_dedicated`)
/// exist for the paper's component-contribution ablation (Section V-B) and
/// the compact-model dedicated-design ablation (Fig. 15).
#[derive(Debug, Clone, PartialEq)]
pub struct SeAcceleratorConfig {
    /// PE slices (output channels in parallel).
    pub dim_m: usize,
    /// PE lines per slice (input channels in parallel).
    pub dim_c: usize,
    /// MACs per PE line (adjacent output pixels in parallel).
    pub dim_f: usize,
    /// Input global buffer: bank count.
    pub input_gb_banks: usize,
    /// Input global buffer: bank size in KB.
    pub input_gb_bank_kb: f64,
    /// Output global buffer: bank count.
    pub output_gb_banks: usize,
    /// Output global buffer: bank size in KB.
    pub output_gb_bank_kb: f64,
    /// Weight buffer banks per PE slice.
    pub weight_buf_banks: usize,
    /// Weight buffer bank size in KB.
    pub weight_buf_bank_kb: f64,
    /// DRAM bandwidth in bytes per cycle (64 B/cycle at 1 GHz = 64 GB/s;
    /// the paper's latency results presuppose sufficient DRAM bandwidth).
    pub dram_bytes_per_cycle: f64,
    /// Clock frequency in Hz (1 GHz).
    pub frequency_hz: f64,
    /// Bit-serial multipliers exploiting Booth-encoded activation bits
    /// (`false` degrades to one cycle per multiply for the ablation).
    pub bit_serial: bool,
    /// Use the 4-bit Booth encoder in front of the serial lanes; with
    /// `false` the lanes process plain essential (non-zero) bits — the
    /// Bit-pragmatic configuration.
    pub booth_encoder: bool,
    /// Index selector skipping zero coefficient/activation row pairs.
    pub index_select: bool,
    /// The dedicated dataflow for depth-wise CONV and squeeze-excite/FC
    /// layers (Section IV-B "support for compact models", ablated in
    /// Fig. 15).
    pub compact_dedicated: bool,
    /// Output-row sampling for large sweeps: simulate every `row_sample`-th
    /// output row exactly and scale the totals (`1` = exact, the default;
    /// validated against the golden model at 1).
    pub row_sample: usize,
}

impl Default for SeAcceleratorConfig {
    fn default() -> Self {
        SeAcceleratorConfig {
            dim_m: 64,
            dim_c: 16,
            dim_f: 8,
            input_gb_banks: 32,
            input_gb_bank_kb: 16.0,
            output_gb_banks: 2,
            output_gb_bank_kb: 2.0,
            weight_buf_banks: 2,
            weight_buf_bank_kb: 2.0,
            dram_bytes_per_cycle: 64.0,
            frequency_hz: 1e9,
            bit_serial: true,
            booth_encoder: true,
            index_select: true,
            compact_dedicated: true,
            row_sample: 1,
        }
    }
}

impl SeAcceleratorConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::InvalidConfig`] for zero-sized arrays/buffers or a
    /// bandwidth, frequency or buffer size that is not finite and positive.
    pub fn validate(&self) -> Result<()> {
        let positive = |x: f64| x.is_finite() && x > 0.0;
        if self.dim_m == 0 || self.dim_c == 0 || self.dim_f == 0 {
            return Err(HwError::InvalidConfig {
                reason: "PE array dimensions must be positive".into(),
            });
        }
        if self.input_gb_banks == 0
            || self.output_gb_banks == 0
            || self.weight_buf_banks == 0
            || !positive(self.input_gb_bank_kb)
            || !positive(self.output_gb_bank_kb)
            || !positive(self.weight_buf_bank_kb)
        {
            return Err(HwError::InvalidConfig { reason: "buffers must be non-empty".into() });
        }
        if !positive(self.dram_bytes_per_cycle) || !positive(self.frequency_hz) {
            return Err(HwError::InvalidConfig {
                reason: "bandwidth and frequency must be finite and positive".into(),
            });
        }
        if self.row_sample == 0 {
            return Err(HwError::InvalidConfig { reason: "row_sample must be at least 1".into() });
        }
        Ok(())
    }

    /// Total input-GB capacity in bytes.
    pub fn input_gb_bytes(&self) -> f64 {
        self.input_gb_banks as f64 * self.input_gb_bank_kb * 1024.0
    }

    /// Total multiplier lanes (`dimM × dimC × dimF`); with `bit_serial`
    /// these are the 8 K bit-serial lanes equivalent to 1 K 8-bit
    /// multipliers.
    pub fn total_lanes(&self) -> usize {
        self.dim_m * self.dim_c * self.dim_f
    }

    /// Disables every sparsity feature (the "similar baseline accelerator"
    /// of the Section V-B component ablation, with non-bit-serial MACs and
    /// an equal-resource 16×8×8 array).
    pub fn ablation_dense_baseline() -> Self {
        SeAcceleratorConfig {
            dim_m: 16,
            dim_c: 8,
            dim_f: 8,
            bit_serial: false,
            index_select: false,
            compact_dedicated: false,
            ..SeAcceleratorConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table5() {
        let c = SeAcceleratorConfig::default();
        assert_eq!((c.dim_m, c.dim_c, c.dim_f), (64, 16, 8));
        assert_eq!(c.total_lanes(), 8192); // 8K bit-serial multipliers
        assert!((c.input_gb_bytes() - 512.0 * 1024.0).abs() < 1e-9);
        c.validate().unwrap();
    }

    #[test]
    fn equal_resource_equivalence() {
        // 8K bit-serial lanes == 1K 8-bit multipliers (8 lanes per mult).
        let c = SeAcceleratorConfig::default();
        assert_eq!(c.total_lanes() / 8, 1024);
        // Ablation baseline: 16*8*8 = 1K non-bit-serial MACs.
        let b = SeAcceleratorConfig::ablation_dense_baseline();
        assert_eq!(b.total_lanes(), 1024);
        assert!(!b.bit_serial);
    }

    #[test]
    fn validation_rejects_degenerate() {
        let c = SeAcceleratorConfig { dim_m: 0, ..Default::default() };
        assert!(c.validate().is_err());
        let c = SeAcceleratorConfig { dram_bytes_per_cycle: 0.0, ..Default::default() };
        assert!(c.validate().is_err());
        let c = SeAcceleratorConfig { input_gb_bank_kb: -1.0, ..Default::default() };
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_non_finite_and_non_positive_resources() {
        type Field = fn(&mut SeAcceleratorConfig) -> &mut f64;
        let fields: [(&str, Field); 5] = [
            ("input_gb_bank_kb", |c| &mut c.input_gb_bank_kb),
            ("output_gb_bank_kb", |c| &mut c.output_gb_bank_kb),
            ("weight_buf_bank_kb", |c| &mut c.weight_buf_bank_kb),
            ("dram_bytes_per_cycle", |c| &mut c.dram_bytes_per_cycle),
            ("frequency_hz", |c| &mut c.frequency_hz),
        ];
        for (name, field) in fields {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0] {
                let mut c = SeAcceleratorConfig::default();
                *field(&mut c) = bad;
                assert!(c.validate().is_err(), "{name} = {bad} must be rejected");
            }
        }
    }
}
