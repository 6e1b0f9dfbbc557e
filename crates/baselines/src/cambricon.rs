//! Cambricon-X (MICRO'16): unstructured weight sparsity.
//!
//! 16 PEs each hold one output filter's non-zero weights and an indexing
//! unit that selects the matching activations; PEs run in lockstep per
//! output position, so the step time is governed by the PE with the most
//! non-zeros — the load imbalance that unstructured sparsity causes and
//! that the paper's *vector-wise* sparsity avoids. Weights travel
//! compressed (8-bit value + 4-bit step index); activations travel dense
//! and are selected on chip.

use crate::common::{dense_stats, BaselineConfig};
use se_hw::{Accelerator, LayerResult, MemCounters, Result};
use se_ir::LayerTrace;

/// Per-PE multiplier lanes in the original design.
const LANES_PER_PE: u64 = 16;
/// Parallel PEs (16 PEs × 16 lanes × 4 replicas = the equalised 1 K lanes).
const PES: u64 = 16;
/// Replication factor to reach the equalised multiplier budget.
const REPLICAS: u64 = 4;

/// The Cambricon-X baseline accelerator.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CambriconX {
    cfg: BaselineConfig,
}

impl CambriconX {
    /// Creates the accelerator.
    ///
    /// # Errors
    ///
    /// Returns a configuration error for invalid resources.
    pub fn new(cfg: BaselineConfig) -> Result<Self> {
        cfg.validate()?;
        Ok(CambriconX { cfg })
    }

    /// The configuration in use.
    pub fn config(&self) -> &BaselineConfig {
        &self.cfg
    }
}

impl Accelerator for CambriconX {
    fn name(&self) -> &str {
        "Cambricon-X"
    }

    fn dram_bytes_per_cycle(&self) -> f64 {
        self.cfg.dram_bytes_per_cycle
    }

    fn process_layer(&self, trace: &LayerTrace) -> Result<LayerResult> {
        let s = dense_stats(trace)?;

        // Filters are distributed over PES×REPLICAS parallel filter slots;
        // each slot processes its filter's non-zeros at LANES_PER_PE per
        // cycle, lockstepped per output position within a PE group. Narrow
        // layers fold the spare slots across output positions.
        let slots = PES * REPLICAS;
        let spatial_fold = (slots / (s.m as u64).max(1)).max(1);
        let mut compute_cycles = 0u64;
        for group in s.filter_nnz.chunks(slots as usize) {
            let worst = group.iter().copied().max().unwrap_or(0);
            compute_cycles +=
                worst.div_ceil(LANES_PER_PE) * (s.spatial_out as u64).div_ceil(spatial_fold);
        }

        // Compressed weights: 8-bit value + 4-bit step index per non-zero.
        let weight_bytes = s.weight_nnz;
        let index_bytes = (s.weight_nnz * 4).div_ceil(8);
        let m_tiles = (s.m as u64).div_ceil(slots);
        let dram_input = self.cfg.input_dram_bytes(s.inputs, m_tiles);

        let effective_macs: u64 = s.weight_nnz * s.spatial_out as u64;
        let mem = MemCounters {
            dram_input_bytes: dram_input,
            dram_output_bytes: s.outputs,
            dram_weight_bytes: weight_bytes,
            dram_index_bytes: index_bytes,
            input_gb_read_bytes: effective_macs / LANES_PER_PE,
            input_gb_write_bytes: dram_input,
            output_gb_read_bytes: 0,
            output_gb_write_bytes: s.outputs,
            weight_gb_read_bytes: effective_macs + index_bytes,
            weight_gb_write_bytes: weight_bytes + index_bytes,
            rf_bytes: 0,
        };
        // The indexing unit examines every weight position once per output
        // position to steer activations.
        let index_compares = s.weights * s.spatial_out as u64 / LANES_PER_PE.max(1);
        Ok(self.cfg.layer_result(
            trace.desc().name(),
            compute_cycles,
            mem,
            effective_macs,
            index_compares,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use se_ir::{LayerDesc, LayerKind, QuantTensor, WeightData};
    use se_tensor::{rng, Tensor};

    fn trace_with_sparsity(keep: f32, seed: u64) -> LayerTrace {
        let desc = LayerDesc::new(
            "c",
            LayerKind::Conv2d {
                in_channels: 8,
                out_channels: 16,
                kernel: 3,
                stride: 1,
                padding: 1,
            },
            (8, 8),
        );
        let mut r = rng::seeded(seed);
        let mut w = rng::kaiming_tensor(&mut r, &[16, 8, 3, 3], 72);
        // Magnitude-prune to the requested density.
        let n = w.len();
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by(|&a, &b| w.data()[a].abs().partial_cmp(&w.data()[b].abs()).unwrap());
        for &i in idx.iter().take(((1.0 - keep) * n as f32) as usize) {
            w.data_mut()[i] = 0.0;
        }
        let a = rng::normal_tensor(&mut r, &[8, 8, 8], 1.0).map(f32::abs);
        LayerTrace::new(
            desc,
            WeightData::Dense(QuantTensor::quantize(&w, 8).unwrap()),
            QuantTensor::quantize(&a, 8).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn weight_sparsity_cuts_cycles_and_traffic() {
        let cx = CambriconX::default();
        let dense = cx.process_layer(&trace_with_sparsity(1.0, 1)).unwrap();
        let sparse = cx.process_layer(&trace_with_sparsity(0.25, 1)).unwrap();
        assert!(sparse.compute_cycles < dense.compute_cycles);
        assert!(sparse.mem.dram_weight_bytes < dense.mem.dram_weight_bytes);
        assert!(sparse.mem.dram_index_bytes > 0);
    }

    #[test]
    fn dense_batch_accounting_amortizes_weight_fetch() {
        let cx = CambriconX::default();
        let t = trace_with_sparsity(0.5, 2);
        let one = cx.process_layer(&t).unwrap();
        let b = one.amortized_over_batch(4, cx.dram_bytes_per_cycle());
        assert_eq!(b.mem.dram_weight_bytes, one.mem.dram_weight_bytes);
        assert_eq!(b.mem.dram_index_bytes, one.mem.dram_index_bytes);
        assert_eq!(b.mem.dram_input_bytes, 4 * one.mem.dram_input_bytes);
        assert_eq!(b.compute_cycles, 4 * one.compute_cycles);
    }

    #[test]
    fn lockstep_imbalance_costs_cycles() {
        // One filter dense, the rest empty: the worst PE dominates.
        let desc = LayerDesc::new(
            "c",
            LayerKind::Conv2d { in_channels: 2, out_channels: 4, kernel: 3, stride: 1, padding: 1 },
            (4, 4),
        );
        let mut w = Tensor::zeros(&[4, 2, 3, 3]);
        for i in 0..18 {
            w.data_mut()[i] = 1.0; // filter 0 fully dense
        }
        let a = Tensor::full(&[2, 4, 4], 1.0);
        let t = LayerTrace::new(
            desc,
            WeightData::Dense(QuantTensor::quantize(&w, 8).unwrap()),
            QuantTensor::quantize(&a, 8).unwrap(),
        )
        .unwrap();
        let r = CambriconX::default().process_layer(&t).unwrap();
        // 18 nnz in the worst filter -> ceil(18/16) = 2 cycles per output
        // position; 4 filters over 64 slots fold the 16 positions 16-way.
        assert_eq!(r.compute_cycles, 2);
    }

    #[test]
    fn zero_weight_layer_is_free_compute() {
        let desc = LayerDesc::new(
            "c",
            LayerKind::Conv2d { in_channels: 1, out_channels: 1, kernel: 3, stride: 1, padding: 1 },
            (4, 4),
        );
        let t = LayerTrace::new(
            desc,
            WeightData::Dense(QuantTensor::quantize(&Tensor::zeros(&[1, 1, 3, 3]), 8).unwrap()),
            QuantTensor::quantize(&Tensor::full(&[1, 4, 4], 1.0), 8).unwrap(),
        )
        .unwrap();
        let r = CambriconX::default().process_layer(&t).unwrap();
        assert_eq!(r.compute_cycles, 0);
        assert_eq!(r.mem.dram_weight_bytes, 0);
    }
}
