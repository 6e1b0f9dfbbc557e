//! SCNN (ISCA'17): unstructured weight sparsity + activation sparsity.
//!
//! SCNN's PT-IS-CP dataflow multiplies every non-zero weight by every
//! non-zero activation of the same input channel (all such cartesian
//! products contribute to some output in a convolution), scattering partial
//! products through a crossbar into accumulator banks. Both weights and
//! activations travel compressed. Bank conflicts in the crossbar cost a
//! calibrated contention factor (the original paper reports sustained
//! utilisation well below peak; we use 1.25).
//!
//! Per the paper's protocol, SCNN does not process FC or squeeze-excite
//! layers (it is a CONV-only design), and those traces are rejected.

use crate::common::{dense_stats, BaselineConfig};
use se_hw::{Accelerator, HwError, LayerResult, MemCounters, Result};
use se_ir::{LayerKind, LayerTrace};

/// Crossbar/accumulator-bank contention factor (calibrated constant).
const CONTENTION: f64 = 1.25;

/// The SCNN baseline accelerator.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Scnn {
    cfg: BaselineConfig,
}

impl Scnn {
    /// Creates the accelerator.
    ///
    /// # Errors
    ///
    /// Returns a configuration error for invalid resources.
    pub fn new(cfg: BaselineConfig) -> Result<Self> {
        cfg.validate()?;
        Ok(Scnn { cfg })
    }

    /// The configuration in use.
    pub fn config(&self) -> &BaselineConfig {
        &self.cfg
    }
}

impl Accelerator for Scnn {
    fn name(&self) -> &str {
        "SCNN"
    }

    fn dram_bytes_per_cycle(&self) -> f64 {
        self.cfg.dram_bytes_per_cycle
    }

    fn process_layer(&self, trace: &LayerTrace) -> Result<LayerResult> {
        match trace.desc().kind() {
            LayerKind::Linear { .. } | LayerKind::SqueezeExcite { .. } => {
                return Err(HwError::UnsupportedTrace {
                    reason: format!(
                        "SCNN is designed for CONV layers; layer {} is {:?}",
                        trace.desc().name(),
                        trace.desc().kind()
                    ),
                });
            }
            LayerKind::Conv2d { .. } | LayerKind::DepthwiseConv2d { .. } => {}
        }
        let s = dense_stats(trace)?;

        // Useful multiplications: per input channel, every non-zero weight
        // pairs with every non-zero activation of that channel.
        let mut products: u64 = 0;
        for ci in 0..s.c {
            // Depth-wise layers pair channel c's kernel with channel c's map.
            let w_nnz = if s.c == 1 && s.channel_w_nnz.len() == 1 {
                s.channel_w_nnz[0]
            } else {
                s.channel_w_nnz[ci]
            };
            products += w_nnz * s.channel_a_nnz[ci.min(s.channel_a_nnz.len() - 1)];
        }

        let mults = self.cfg.multipliers as u64;
        let compute_cycles = ((products as f64 * CONTENTION) / mults as f64).ceil() as u64;

        // Compressed tensors: 8-bit value + 4-bit coordinate per non-zero.
        let weight_bytes = s.weight_nnz + (s.weight_nnz * 4).div_ceil(8);
        let act_bytes = s.input_nnz + (s.input_nnz * 4).div_ceil(8);
        let dram_input = self.cfg.input_dram_bytes(act_bytes, 1);
        let mem = MemCounters {
            dram_input_bytes: dram_input,
            dram_output_bytes: s.outputs,
            dram_weight_bytes: s.weight_nnz,
            dram_index_bytes: (s.weight_nnz * 4).div_ceil(8),
            input_gb_read_bytes: products / 4, // input reuse across the 4x4 mult array
            input_gb_write_bytes: dram_input,
            // Every partial product crosses the crossbar into an
            // accumulator bank (read-modify-write) — SCNN's structural
            // overhead for output-space scattering.
            output_gb_read_bytes: products,
            output_gb_write_bytes: products + s.outputs,
            weight_gb_read_bytes: products / 4,
            weight_gb_write_bytes: weight_bytes,
            rf_bytes: 0,
        };
        // Coordinate decode: one compare per non-zero weight and activation.
        let index_compares = s.weight_nnz + s.input_nnz;
        Ok(self.cfg.layer_result(
            trace.desc().name(),
            compute_cycles,
            mem,
            products,
            index_compares,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use se_ir::{LayerDesc, QuantTensor, WeightData};
    use se_tensor::{rng, Tensor};

    fn trace(w_keep: f32, a_keep: f32, seed: u64) -> LayerTrace {
        let desc = LayerDesc::new(
            "c",
            LayerKind::Conv2d { in_channels: 4, out_channels: 8, kernel: 3, stride: 1, padding: 1 },
            (8, 8),
        );
        let mut r = rng::seeded(seed);
        let w = rng::kaiming_tensor(&mut r, &[8, 4, 3, 3], 36).map(|v| {
            if v.abs() < (1.0 - w_keep) * 0.2 {
                0.0
            } else {
                v
            }
        });
        let a = rng::normal_tensor(&mut r, &[4, 8, 8], 1.0).map(|v| {
            if v < (1.0 - a_keep) {
                0.0
            } else {
                v
            }
        });
        LayerTrace::new(
            desc,
            WeightData::Dense(QuantTensor::quantize(&w, 8).unwrap()),
            QuantTensor::quantize(&a, 8).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn both_sparsities_reduce_cycles() {
        let scnn = Scnn::default();
        let dense = scnn.process_layer(&trace(1.0, 1.0, 1)).unwrap();
        let w_sparse = scnn.process_layer(&trace(0.3, 1.0, 1)).unwrap();
        let both = scnn.process_layer(&trace(0.3, 0.4, 1)).unwrap();
        assert!(w_sparse.compute_cycles < dense.compute_cycles);
        assert!(both.compute_cycles < w_sparse.compute_cycles);
    }

    #[test]
    fn activations_travel_compressed() {
        let scnn = Scnn::default();
        let dense = scnn.process_layer(&trace(1.0, 1.0, 2)).unwrap();
        let sparse = scnn.process_layer(&trace(1.0, 0.3, 2)).unwrap();
        assert!(sparse.mem.dram_input_bytes < dense.mem.dram_input_bytes);
    }

    #[test]
    fn dense_batch_accounting_amortizes_weight_fetch() {
        let scnn = Scnn::default();
        let t = trace(0.6, 0.5, 3);
        let one = scnn.process_layer(&t).unwrap();
        let b = one.amortized_over_batch(4, scnn.dram_bytes_per_cycle());
        // Compressed weights and their coordinates fetched once per batch.
        assert_eq!(b.mem.dram_weight_bytes, one.mem.dram_weight_bytes);
        assert_eq!(b.mem.dram_index_bytes, one.mem.dram_index_bytes);
        assert_eq!(b.mem.dram_input_bytes, 4 * one.mem.dram_input_bytes);
        assert_eq!(b.ops.macs, 4 * one.ops.macs);
    }

    #[test]
    fn fc_layers_rejected() {
        let desc =
            LayerDesc::new("fc", LayerKind::Linear { in_features: 8, out_features: 4 }, (1, 1));
        let t = LayerTrace::new(
            desc,
            WeightData::Dense(QuantTensor::quantize(&Tensor::zeros(&[4, 8]), 8).unwrap()),
            QuantTensor::quantize(&Tensor::full(&[8], 1.0), 8).unwrap(),
        )
        .unwrap();
        assert!(matches!(Scnn::default().process_layer(&t), Err(HwError::UnsupportedTrace { .. })));
    }
}
