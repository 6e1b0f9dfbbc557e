//! DianNao (ASPLOS'14): the classical dense DNN accelerator baseline.
//!
//! Design considerations per Table IV: dense models, no sparsity support.
//! The NFU processes `Tn × Tn` neuron/synapse tiles; with the equalised 1 K
//! multipliers the layer's compute time is MAC-throughput-bound. All
//! weights and activations move at 8 bits; zeros are fetched and multiplied
//! like any other value — which is exactly why the sparsity-aware designs
//! (and SmartExchange) beat it.

use crate::common::{dense_stats, BaselineConfig};
use se_hw::{Accelerator, LayerResult, MemCounters, Result};
use se_ir::LayerTrace;

/// The DianNao baseline accelerator.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DianNao {
    cfg: BaselineConfig,
}

impl DianNao {
    /// Creates the accelerator.
    ///
    /// # Errors
    ///
    /// Returns a configuration error for invalid resources.
    pub fn new(cfg: BaselineConfig) -> Result<Self> {
        cfg.validate()?;
        Ok(DianNao { cfg })
    }

    /// The configuration in use.
    pub fn config(&self) -> &BaselineConfig {
        &self.cfg
    }
}

impl Accelerator for DianNao {
    fn name(&self) -> &str {
        "DianNao"
    }

    fn dram_bytes_per_cycle(&self) -> f64 {
        self.cfg.dram_bytes_per_cycle
    }

    fn process_layer(&self, trace: &LayerTrace) -> Result<LayerResult> {
        let s = dense_stats(trace)?;
        let mults = self.cfg.multipliers as u64;
        let compute_cycles = s.macs.div_ceil(mults);

        let m_tiles = (s.m as u64).div_ceil(16); // Tn = 16 output-neuron tiles
        let dram_input = self.cfg.input_dram_bytes(s.inputs, m_tiles);
        let mem = MemCounters {
            dram_input_bytes: dram_input,
            dram_output_bytes: s.outputs,
            dram_weight_bytes: s.weights,
            dram_index_bytes: 0,
            input_gb_read_bytes: s.macs / 16, // NBin broadcast across Tn outputs
            input_gb_write_bytes: dram_input,
            output_gb_read_bytes: 0,
            output_gb_write_bytes: s.outputs,
            weight_gb_read_bytes: s.macs, // one synapse byte per MAC from SB
            weight_gb_write_bytes: s.weights,
            rf_bytes: 0,
        };
        Ok(self.cfg.layer_result(trace.desc().name(), compute_cycles, mem, s.macs, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use se_ir::{LayerDesc, LayerKind, QuantTensor, WeightData};
    use se_tensor::{rng, Tensor};

    fn trace(c: usize, m: usize, hw: usize, seed: u64) -> LayerTrace {
        let desc = LayerDesc::new(
            "c",
            LayerKind::Conv2d { in_channels: c, out_channels: m, kernel: 3, stride: 1, padding: 1 },
            (hw, hw),
        );
        let mut r = rng::seeded(seed);
        let w = rng::kaiming_tensor(&mut r, &[m, c, 3, 3], c * 9);
        let a = rng::normal_tensor(&mut r, &[c, hw, hw], 1.0).map(f32::abs);
        LayerTrace::new(
            desc,
            WeightData::Dense(QuantTensor::quantize(&w, 8).unwrap()),
            QuantTensor::quantize(&a, 8).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn cycles_are_throughput_bound() {
        let t = trace(8, 16, 16, 1);
        let d = DianNao::default();
        let r = d.process_layer(&t).unwrap();
        let macs = t.desc().macs().unwrap();
        assert_eq!(r.compute_cycles, macs.div_ceil(1024));
        assert_eq!(r.ops.macs, macs);
    }

    #[test]
    fn dense_weights_fully_fetched() {
        let t = trace(4, 8, 8, 2);
        let r = DianNao::default().process_layer(&t).unwrap();
        assert_eq!(r.mem.dram_weight_bytes, 8 * 4 * 9);
        assert_eq!(r.mem.dram_index_bytes, 0);
    }

    #[test]
    fn dense_batch_accounting_amortizes_weight_fetch() {
        let t = trace(8, 16, 16, 4);
        let d = DianNao::default();
        let one = d.process_layer(&t).unwrap();
        let b = one.amortized_over_batch(8, d.dram_bytes_per_cycle());
        // Dense weights fetched once per batch; activations per image.
        assert_eq!(b.mem.dram_weight_bytes, one.mem.dram_weight_bytes);
        assert_eq!(b.mem.dram_input_bytes, 8 * one.mem.dram_input_bytes);
        assert_eq!(b.ops.macs, 8 * one.ops.macs);
        assert_eq!(b.compute_cycles, 8 * one.compute_cycles);
        assert!(b.mem.dram_total_bytes() < 8 * one.mem.dram_total_bytes());
    }

    #[test]
    fn sparsity_does_not_help_diannao() {
        // Same geometry, one trace with many zero weights: identical cycles.
        let t_dense = trace(4, 8, 8, 3);
        let desc = t_dense.desc().clone();
        let zeros = Tensor::zeros(&[8, 4, 3, 3]);
        let t_zero = LayerTrace::new(
            desc,
            WeightData::Dense(QuantTensor::quantize(&zeros, 8).unwrap()),
            t_dense.input().clone(),
        )
        .unwrap();
        let d = DianNao::default();
        assert_eq!(
            d.process_layer(&t_dense).unwrap().compute_cycles,
            d.process_layer(&t_zero).unwrap().compute_cycles
        );
    }
}
