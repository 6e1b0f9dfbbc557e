//! Bit-pragmatic (MICRO'17): bit-level activation sparsity.
//!
//! Pragmatic replaces parallel multipliers with serial lanes that process
//! only the *essential* (non-zero) bits of each activation, with dense
//! 8-bit weights. Architecturally this is the same lane geometry as the
//! SmartExchange PE array (the equalised 8 K bit-serial lanes of Table V),
//! so the model *reuses the validated SmartExchange engine* configured
//! with: dense weights, plain essential bits (no 4-bit Booth encoder), no
//! index selector, and no rebuild engines.

use se_hw::sim::SeAccelerator;
use se_hw::{Accelerator, HwError, LayerResult, Result, SeAcceleratorConfig};
use se_ir::{LayerTrace, WeightData};

/// The Bit-pragmatic baseline accelerator.
#[derive(Debug, Clone, PartialEq)]
pub struct BitPragmatic {
    engine: SeAccelerator,
}

impl BitPragmatic {
    /// Creates the accelerator with the equalised Table V lane budget.
    ///
    /// # Errors
    ///
    /// Returns a configuration error for invalid resources.
    pub fn new(base: SeAcceleratorConfig) -> Result<Self> {
        let cfg = SeAcceleratorConfig {
            bit_serial: true,
            booth_encoder: false,
            index_select: false,
            compact_dedicated: false,
            ..base
        };
        Ok(BitPragmatic { engine: SeAccelerator::new(cfg)? })
    }

    /// The underlying engine configuration.
    pub fn config(&self) -> &SeAcceleratorConfig {
        self.engine.config()
    }
}

impl Default for BitPragmatic {
    fn default() -> Self {
        BitPragmatic::new(SeAcceleratorConfig::default()).expect("static config is valid")
    }
}

impl Accelerator for BitPragmatic {
    fn name(&self) -> &str {
        "Bit-pragmatic"
    }

    fn dram_bytes_per_cycle(&self) -> f64 {
        self.engine.dram_bytes_per_cycle()
    }

    fn process_layer(&self, trace: &LayerTrace) -> Result<LayerResult> {
        if !matches!(trace.weights(), WeightData::Dense(_)) {
            return Err(HwError::UnsupportedTrace {
                reason: format!(
                    "Bit-pragmatic processes dense weights; layer {} is SE-compressed",
                    trace.desc().name()
                ),
            });
        }
        self.engine.process_layer(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use se_ir::{LayerDesc, LayerKind, QuantTensor};
    use se_tensor::rng;

    fn trace(act_scale: f32, seed: u64) -> LayerTrace {
        let desc = LayerDesc::new(
            "c",
            LayerKind::Conv2d { in_channels: 4, out_channels: 8, kernel: 3, stride: 1, padding: 1 },
            (8, 8),
        );
        let mut r = rng::seeded(seed);
        let w = rng::kaiming_tensor(&mut r, &[8, 4, 3, 3], 36);
        let a = rng::normal_tensor(&mut r, &[4, 8, 8], 1.0).map(|v| v.abs() * act_scale);
        LayerTrace::new(
            desc,
            WeightData::Dense(QuantTensor::quantize(&w, 8).unwrap()),
            QuantTensor::quantize(&a, 8).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn processes_dense_traces() {
        let r = BitPragmatic::default().process_layer(&trace(1.0, 1)).unwrap();
        assert!(r.compute_cycles > 0);
        assert_eq!(r.ops.rebuild_shift_adds, 0);
        assert_eq!(r.mem.dram_weight_bytes, 8 * 4 * 9);
    }

    #[test]
    fn dense_batch_accounting_amortizes_weight_fetch() {
        let bp = BitPragmatic::default();
        let t = trace(1.0, 4);
        let one = bp.process_layer(&t).unwrap();
        let b = one.amortized_over_batch(4, bp.dram_bytes_per_cycle());
        assert_eq!(b.mem.dram_weight_bytes, one.mem.dram_weight_bytes);
        assert_eq!(b.mem.dram_input_bytes, 4 * one.mem.dram_input_bytes);
        assert_eq!(b.ops.pe_lane_cycles, 4 * one.ops.pe_lane_cycles);
    }

    #[test]
    fn rejects_se_traces() {
        let t = trace(1.0, 2);
        let desc = t.desc().clone();
        let cfg = se_core::SeConfig::default().with_max_iterations(3).unwrap();
        let mut r = rng::seeded(3);
        let w = rng::kaiming_tensor(&mut r, &[8, 4, 3, 3], 36);
        let parts = se_core::layer::compress_layer(&desc, &w, &cfg).unwrap();
        let se_t = LayerTrace::new(desc, WeightData::Se(parts), t.input().clone()).unwrap();
        assert!(BitPragmatic::default().process_layer(&se_t).is_err());
    }

    #[test]
    fn no_booth_encoder_costs_more_than_booth() {
        // The same dense trace through the SE engine with Booth enabled
        // must not be slower than Pragmatic's plain-bits lanes.
        let t = trace(1.0, 4);
        let prag = BitPragmatic::default().process_layer(&t).unwrap();
        let booth_cfg = SeAcceleratorConfig {
            index_select: false,
            compact_dedicated: false,
            ..SeAcceleratorConfig::default()
        };
        let booth = SeAccelerator::new(booth_cfg).unwrap().process_layer(&t).unwrap();
        assert!(booth.compute_cycles <= prag.compute_cycles);
    }
}
