//! Access/operation counters and per-layer / per-run results.

use crate::energy::{EnergyBreakdown, EnergyModel};
use crate::residency::fetch_cycles;
use crate::SeAcceleratorConfig;

/// Byte-granular memory access counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemCounters {
    /// DRAM bytes read for input activations.
    pub dram_input_bytes: u64,
    /// DRAM bytes written for output activations.
    pub dram_output_bytes: u64,
    /// DRAM bytes read for weights (compressed bytes for SE).
    pub dram_weight_bytes: u64,
    /// DRAM bytes read for sparsity indices.
    pub dram_index_bytes: u64,
    /// Input GB bytes read.
    pub input_gb_read_bytes: u64,
    /// Input GB bytes written.
    pub input_gb_write_bytes: u64,
    /// Output GB bytes read.
    pub output_gb_read_bytes: u64,
    /// Output GB bytes written.
    pub output_gb_write_bytes: u64,
    /// Weight-buffer bytes read.
    pub weight_gb_read_bytes: u64,
    /// Weight-buffer bytes written.
    pub weight_gb_write_bytes: u64,
    /// Register-file bytes accessed (basis RF, FIFO, pipeline registers).
    pub rf_bytes: u64,
}

impl MemCounters {
    /// Total DRAM traffic in bytes (the quantity normalised in Fig. 11).
    pub fn dram_total_bytes(&self) -> u64 {
        self.dram_input_bytes
            + self.dram_output_bytes
            + self.dram_weight_bytes
            + self.dram_index_bytes
    }

    /// Accumulates another counter set into this one.
    pub fn accumulate(&mut self, o: &MemCounters) {
        self.dram_input_bytes += o.dram_input_bytes;
        self.dram_output_bytes += o.dram_output_bytes;
        self.dram_weight_bytes += o.dram_weight_bytes;
        self.dram_index_bytes += o.dram_index_bytes;
        self.input_gb_read_bytes += o.input_gb_read_bytes;
        self.input_gb_write_bytes += o.input_gb_write_bytes;
        self.output_gb_read_bytes += o.output_gb_read_bytes;
        self.output_gb_write_bytes += o.output_gb_write_bytes;
        self.weight_gb_read_bytes += o.weight_gb_read_bytes;
        self.weight_gb_write_bytes += o.weight_gb_write_bytes;
        self.rf_bytes += o.rf_bytes;
    }

    /// The weight-side DRAM bytes of these counters (compressed weights or
    /// dense synapses plus sparsity indices) — the footprint a model switch
    /// must re-fetch and a weight buffer must hold to keep the layer
    /// resident (see [`crate::residency`]).
    pub fn weight_fetch_bytes(&self) -> u64 {
        self.dram_weight_bytes + self.dram_index_bytes
    }

    /// These counters with the layer's weights already resident on chip:
    /// the weight and index DRAM fetches and the weight-buffer fill are
    /// dropped (they were paid when the model was loaded — see
    /// [`crate::residency`]), while every recurring term — activation
    /// traffic, weight-buffer *reads* feeding the PEs, and the rebuild
    /// register-file traffic that reconstructs rows from the resident
    /// compressed form — is kept unchanged.
    pub fn with_weights_resident(&self) -> MemCounters {
        MemCounters { dram_weight_bytes: 0, dram_index_bytes: 0, weight_gb_write_bytes: 0, ..*self }
    }

    /// Memory traffic for processing `batch` images of this layer
    /// back-to-back with the weights held resident across the batch.
    ///
    /// Weight-side traffic is charged **once per batch**: the compressed
    /// weight and index DRAM fetches, the weight-buffer fill, and the
    /// rebuild-engine register-file traffic (basis reads + rebuilt-row
    /// registration) — this is the amortization the paper's batch-size-1
    /// protocol leaves on the table. Activation-side traffic — input/output
    /// DRAM, global-buffer movement, and the per-pass weight-buffer
    /// *reads* that feed the PE array — scales with the batch size.
    ///
    /// `batch = 1` returns the counters unchanged.
    pub fn amortized_over_batch(&self, batch: u64) -> MemCounters {
        let n = batch.max(1);
        MemCounters {
            dram_input_bytes: self.dram_input_bytes * n,
            dram_output_bytes: self.dram_output_bytes * n,
            dram_weight_bytes: self.dram_weight_bytes,
            dram_index_bytes: self.dram_index_bytes,
            input_gb_read_bytes: self.input_gb_read_bytes * n,
            input_gb_write_bytes: self.input_gb_write_bytes * n,
            output_gb_read_bytes: self.output_gb_read_bytes * n,
            output_gb_write_bytes: self.output_gb_write_bytes * n,
            weight_gb_read_bytes: self.weight_gb_read_bytes * n,
            weight_gb_write_bytes: self.weight_gb_write_bytes,
            rf_bytes: self.rf_bytes,
        }
    }
}

/// Arithmetic operation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCounters {
    /// Bit-serial digit-cycles executed across all lanes (PE energy when
    /// bit-serial), or full multiplies when not.
    pub pe_lane_cycles: u64,
    /// Products accumulated (adder-tree / accumulator adds).
    pub accumulator_adds: u64,
    /// Shift-and-add operations in the rebuild engines.
    pub rebuild_shift_adds: u64,
    /// Index-selector comparisons.
    pub index_compares: u64,
    /// Full 8-bit MAC operations (used by non-bit-serial datapaths).
    pub macs: u64,
    /// Lane-cycles spent idle (allocated but not switching); couples
    /// latency to energy via [`EnergyModel::lane_idle_pj`].
    pub idle_lane_cycles: u64,
}

impl OpCounters {
    /// Accumulates another counter set into this one.
    pub fn accumulate(&mut self, o: &OpCounters) {
        self.pe_lane_cycles += o.pe_lane_cycles;
        self.accumulator_adds += o.accumulator_adds;
        self.rebuild_shift_adds += o.rebuild_shift_adds;
        self.index_compares += o.index_compares;
        self.macs += o.macs;
        self.idle_lane_cycles += o.idle_lane_cycles;
    }

    /// Operation counts for processing `batch` images back-to-back with
    /// the weights held resident: the rebuild engine runs **once per
    /// batch** (rebuilt coefficient rows stay registered across images of
    /// the same layer), while the data-path work — multiplications,
    /// accumulations, index-selector compares, idle lane-cycles — scales
    /// with the batch size. `batch = 1` returns the counters unchanged.
    pub fn amortized_over_batch(&self, batch: u64) -> OpCounters {
        let n = batch.max(1);
        OpCounters {
            pe_lane_cycles: self.pe_lane_cycles * n,
            accumulator_adds: self.accumulator_adds * n,
            rebuild_shift_adds: self.rebuild_shift_adds,
            index_compares: self.index_compares * n,
            macs: self.macs * n,
            idle_lane_cycles: self.idle_lane_cycles * n,
        }
    }

    /// These counters with `idle_lane_cycles` set to the lane-cycles of
    /// `compute_cycles` on `lanes` lanes that neither switched
    /// (`pe_lane_cycles`) nor multiplied (`macs`).
    pub fn with_idle_lanes(self, compute_cycles: u64, lanes: u64) -> OpCounters {
        let busy = self.pe_lane_cycles + self.macs;
        OpCounters { idle_lane_cycles: (compute_cycles * lanes).saturating_sub(busy), ..self }
    }
}

/// One layer's simulation outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerResult {
    /// Layer name (from the trace descriptor).
    pub name: String,
    /// Compute cycles (PE array busy time).
    pub compute_cycles: u64,
    /// DRAM transfer cycles at the configured bandwidth.
    pub dram_cycles: u64,
    /// Layer latency in cycles: compute and DRAM overlap via double
    /// buffering, so the layer takes the maximum of the two.
    pub total_cycles: u64,
    /// Memory access counters.
    pub mem: MemCounters,
    /// Operation counters.
    pub ops: OpCounters,
}

impl LayerResult {
    /// A layer's result from its compute time and counters: the DRAM time
    /// moves `mem`'s DRAM bytes at `dram_bytes_per_cycle`
    /// ([`fetch_cycles`]), and compute and DRAM overlap through double
    /// buffering, so the layer takes the maximum of the two.
    pub fn new(
        name: &str,
        compute_cycles: u64,
        mem: MemCounters,
        ops: OpCounters,
        dram_bytes_per_cycle: f64,
    ) -> LayerResult {
        let dram_cycles = fetch_cycles(mem.dram_total_bytes(), dram_bytes_per_cycle);
        LayerResult {
            name: name.to_string(),
            compute_cycles,
            dram_cycles,
            total_cycles: compute_cycles.max(dram_cycles),
            mem,
            ops,
        }
    }

    /// The result of processing `batch` images of this layer back-to-back
    /// with the weights held resident: weight-side DRAM traffic and the
    /// rebuild work are charged once per batch (see
    /// [`MemCounters::amortized_over_batch`] /
    /// [`OpCounters::amortized_over_batch`]), compute scales with the batch
    /// size, and the DRAM transfer time is re-derived from the amortized
    /// traffic at `dram_bytes_per_cycle` (the accelerator's configured
    /// bandwidth — see `Accelerator::dram_bytes_per_cycle`). Compute and
    /// DRAM still overlap through double buffering, now across the whole
    /// batch, so the batched layer takes the maximum of the two.
    ///
    /// `batch = 1` reproduces `self` exactly, bit for bit.
    pub fn amortized_over_batch(&self, batch: u64, dram_bytes_per_cycle: f64) -> LayerResult {
        let n = batch.max(1);
        LayerResult::new(
            &self.name,
            self.compute_cycles * n,
            self.mem.amortized_over_batch(n),
            self.ops.amortized_over_batch(n),
            dram_bytes_per_cycle,
        )
    }

    /// This (possibly batched) layer result with its weights already
    /// resident on chip: weight-side DRAM traffic and the buffer fill are
    /// dropped ([`MemCounters::with_weights_resident`]) and the DRAM
    /// transfer time is re-derived from the remaining traffic, so a
    /// resident batch's latency is `max(compute, activation DRAM)`. The
    /// rebuild work stays charged — on SmartExchange it reruns each batch
    /// from the resident compressed form. Used with
    /// [`crate::residency::TieredStore`], which decides when a model is
    /// resident and what a switch costs.
    pub fn with_weights_resident(&self, dram_bytes_per_cycle: f64) -> LayerResult {
        let mem = self.mem.with_weights_resident();
        LayerResult::new(&self.name, self.compute_cycles, mem, self.ops, dram_bytes_per_cycle)
    }

    /// Converts counters into the per-component energy breakdown.
    pub fn energy(&self, model: &EnergyModel, cfg: &SeAcceleratorConfig) -> EnergyBreakdown {
        let input_sram = model.sram_pj_per_byte(cfg.input_gb_bank_kb);
        let output_sram = model.sram_pj_per_byte(cfg.output_gb_bank_kb);
        let weight_sram = model.sram_pj_per_byte(cfg.weight_buf_bank_kb);
        EnergyBreakdown {
            dram_input: self.mem.dram_input_bytes as f64 * model.dram_pj_per_byte,
            dram_output: self.mem.dram_output_bytes as f64 * model.dram_pj_per_byte,
            dram_weight: self.mem.dram_weight_bytes as f64 * model.dram_pj_per_byte,
            dram_index: self.mem.dram_index_bytes as f64 * model.dram_pj_per_byte,
            input_gb_read: self.mem.input_gb_read_bytes as f64 * input_sram,
            input_gb_write: self.mem.input_gb_write_bytes as f64 * input_sram,
            output_gb_read: self.mem.output_gb_read_bytes as f64 * output_sram,
            output_gb_write: self.mem.output_gb_write_bytes as f64 * output_sram,
            weight_gb_read: self.mem.weight_gb_read_bytes as f64 * weight_sram,
            weight_gb_write: self.mem.weight_gb_write_bytes as f64 * weight_sram,
            pe: self.ops.pe_lane_cycles as f64 * model.bit_serial_cycle_pj
                + self.ops.macs as f64 * model.mac_pj
                + self.ops.idle_lane_cycles as f64 * model.lane_idle_pj,
            accumulator: self.ops.accumulator_adds as f64 * model.add_pj,
            re: self.ops.rebuild_shift_adds as f64 * model.shift_add_pj
                + self.mem.rf_bytes as f64 * model.rf_pj_per_byte,
            index_selector: self.ops.index_compares as f64 * model.index_compare_pj,
        }
    }
}

/// A whole-network simulation outcome.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunResult {
    /// Per-layer results in processing order.
    pub layers: Vec<LayerResult>,
}

impl RunResult {
    /// Total latency in cycles.
    pub fn total_cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.total_cycles).sum()
    }

    /// Total latency in milliseconds at the configured frequency.
    pub fn latency_ms(&self, cfg: &SeAcceleratorConfig) -> f64 {
        self.total_cycles() as f64 / cfg.frequency_hz * 1e3
    }

    /// Aggregated memory counters.
    pub fn mem_totals(&self) -> MemCounters {
        let mut m = MemCounters::default();
        for l in &self.layers {
            m.accumulate(&l.mem);
        }
        m
    }

    /// Aggregated energy breakdown.
    pub fn energy(&self, model: &EnergyModel, cfg: &SeAcceleratorConfig) -> EnergyBreakdown {
        let mut e = EnergyBreakdown::default();
        for l in &self.layers {
            e.accumulate(&l.energy(model, cfg));
        }
        e
    }

    /// Total energy in millijoules.
    pub fn energy_mj(&self, model: &EnergyModel, cfg: &SeAcceleratorConfig) -> f64 {
        self.energy(model, cfg).total() * 1e-12 * 1e3
    }

    /// The run's whole-model weight footprint in bytes: the weight + index
    /// DRAM traffic of one image, which every design fetches exactly once
    /// per image — so it is also what a model switch re-fetches and what a
    /// weight buffer must hold to keep the model resident (see
    /// [`crate::residency`]).
    pub fn weight_footprint_bytes(&self) -> u64 {
        self.mem_totals().weight_fetch_bytes()
    }

    /// The whole run with every layer's weights already resident —
    /// [`LayerResult::with_weights_resident`] applied per layer. Combined
    /// with [`RunResult::amortized_over_batch`] this yields the execution
    /// model of a batch on a model that stayed resident across batches.
    pub fn with_weights_resident(&self, dram_bytes_per_cycle: f64) -> RunResult {
        RunResult {
            layers: self
                .layers
                .iter()
                .map(|l| l.with_weights_resident(dram_bytes_per_cycle))
                .collect(),
        }
    }

    /// The whole network processed as `batch` images back-to-back,
    /// layer by layer: each layer's weights are fetched (and its rebuild
    /// run) once per batch while per-image compute and activation traffic
    /// scale — [`LayerResult::amortized_over_batch`] applied to every
    /// layer. `batch = 1` reproduces `self` exactly.
    pub fn amortized_over_batch(&self, batch: u64, dram_bytes_per_cycle: f64) -> RunResult {
        RunResult {
            layers: self
                .layers
                .iter()
                .map(|l| l.amortized_over_batch(batch, dram_bytes_per_cycle))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(cycles: u64, dram_in: u64) -> LayerResult {
        LayerResult {
            name: "l".into(),
            compute_cycles: cycles,
            dram_cycles: 0,
            total_cycles: cycles,
            mem: MemCounters { dram_input_bytes: dram_in, ..Default::default() },
            ops: OpCounters { pe_lane_cycles: 10, ..Default::default() },
        }
    }

    #[test]
    fn run_totals_sum_layers() {
        let run = RunResult { layers: vec![layer(100, 5), layer(200, 7)] };
        assert_eq!(run.total_cycles(), 300);
        assert_eq!(run.mem_totals().dram_input_bytes, 12);
        let cfg = SeAcceleratorConfig::default();
        assert!((run.latency_ms(&cfg) - 300.0 / 1e9 * 1e3).abs() < 1e-15);
    }

    #[test]
    fn energy_uses_unit_costs() {
        let model = EnergyModel::default();
        let cfg = SeAcceleratorConfig::default();
        let l = layer(1, 10);
        let e = l.energy(&model, &cfg);
        assert!((e.dram_input - 1000.0).abs() < 1e-9); // 10 B x 100 pJ
        assert!((e.pe - 10.0 * 0.030).abs() < 1e-9);
        assert_eq!(e.dram_weight, 0.0);
    }

    #[test]
    fn batch_amortization_charges_weights_once() {
        let l = LayerResult {
            name: "l".into(),
            compute_cycles: 10,
            dram_cycles: 2,
            total_cycles: 10,
            mem: MemCounters {
                dram_input_bytes: 30,
                dram_output_bytes: 20,
                dram_weight_bytes: 50,
                dram_index_bytes: 7,
                input_gb_read_bytes: 4,
                input_gb_write_bytes: 30,
                output_gb_read_bytes: 1,
                output_gb_write_bytes: 20,
                weight_gb_read_bytes: 9,
                weight_gb_write_bytes: 57,
                rf_bytes: 11,
            },
            ops: OpCounters {
                pe_lane_cycles: 5,
                accumulator_adds: 6,
                rebuild_shift_adds: 8,
                index_compares: 3,
                macs: 0,
                idle_lane_cycles: 2,
            },
        };
        let b = l.amortized_over_batch(4, 64.0);
        // Activation-side scales with the batch...
        assert_eq!(b.mem.dram_input_bytes, 120);
        assert_eq!(b.mem.dram_output_bytes, 80);
        assert_eq!(b.mem.input_gb_read_bytes, 16);
        assert_eq!(b.mem.weight_gb_read_bytes, 36);
        assert_eq!(b.ops.pe_lane_cycles, 20);
        assert_eq!(b.ops.index_compares, 12);
        assert_eq!(b.compute_cycles, 40);
        // ...weight-side and rebuild are charged once per batch.
        assert_eq!(b.mem.dram_weight_bytes, 50);
        assert_eq!(b.mem.dram_index_bytes, 7);
        assert_eq!(b.mem.weight_gb_write_bytes, 57);
        assert_eq!(b.mem.rf_bytes, 11);
        assert_eq!(b.ops.rebuild_shift_adds, 8);
        // DRAM time re-derived from the amortized traffic.
        assert_eq!(b.dram_cycles, (b.mem.dram_total_bytes() as f64 / 64.0).ceil() as u64);
        assert_eq!(b.total_cycles, b.compute_cycles.max(b.dram_cycles));
    }

    #[test]
    fn batch_of_one_is_the_identity() {
        let cfg = SeAcceleratorConfig::default();
        let l = layer(100, 640);
        let mut expect = l.clone();
        // `layer()` fabricates dram_cycles = 0; the amortized result
        // re-derives it from the counters, as every accelerator does.
        expect.dram_cycles =
            (expect.mem.dram_total_bytes() as f64 / cfg.dram_bytes_per_cycle).ceil() as u64;
        assert_eq!(l.amortized_over_batch(1, cfg.dram_bytes_per_cycle), expect);
        assert_eq!(l.amortized_over_batch(0, cfg.dram_bytes_per_cycle), expect, "0 clamps to 1");
        let run = RunResult { layers: vec![layer(1, 2), layer(3, 4)] };
        let amortized = run.amortized_over_batch(1, cfg.dram_bytes_per_cycle);
        assert_eq!(amortized.layers.len(), 2);
        assert_eq!(amortized.layers[0].compute_cycles, 1);
    }

    #[test]
    fn resident_weights_drop_only_the_weight_side() {
        let l = LayerResult {
            name: "l".into(),
            compute_cycles: 10,
            dram_cycles: 2,
            total_cycles: 10,
            mem: MemCounters {
                dram_input_bytes: 30,
                dram_output_bytes: 20,
                dram_weight_bytes: 500,
                dram_index_bytes: 7,
                input_gb_read_bytes: 4,
                input_gb_write_bytes: 30,
                output_gb_read_bytes: 1,
                output_gb_write_bytes: 20,
                weight_gb_read_bytes: 9,
                weight_gb_write_bytes: 57,
                rf_bytes: 11,
            },
            ops: OpCounters { rebuild_shift_adds: 8, ..Default::default() },
        };
        assert_eq!(l.mem.weight_fetch_bytes(), 507);
        let r = l.with_weights_resident(1.0);
        assert_eq!(r.mem.dram_weight_bytes, 0);
        assert_eq!(r.mem.dram_index_bytes, 0);
        assert_eq!(r.mem.weight_gb_write_bytes, 0);
        // Recurring terms survive: activations, weight-buffer reads, and
        // the rebuild RF/shift-add work from the resident compressed form.
        assert_eq!(r.mem.dram_input_bytes, 30);
        assert_eq!(r.mem.weight_gb_read_bytes, 9);
        assert_eq!(r.mem.rf_bytes, 11);
        assert_eq!(r.ops.rebuild_shift_adds, 8);
        // DRAM time re-derived from the activation-only traffic.
        assert_eq!(r.dram_cycles, 50);
        assert_eq!(r.total_cycles, 50);

        let run = RunResult { layers: vec![l.clone(), l] };
        assert_eq!(run.weight_footprint_bytes(), 2 * 507);
        let resident = run.with_weights_resident(1.0);
        assert_eq!(resident.weight_footprint_bytes(), 0);
        assert_eq!(resident.layers.len(), 2);
        // Resident-batch composition: amortize, then drop the weight side.
        let batched = run.amortized_over_batch(4, 64.0).with_weights_resident(64.0);
        assert_eq!(batched.mem_totals().dram_input_bytes, 2 * 30 * 4);
        assert_eq!(batched.weight_footprint_bytes(), 0);
    }

    #[test]
    fn counters_accumulate() {
        let mut a = MemCounters::default();
        a.accumulate(&MemCounters { dram_weight_bytes: 3, rf_bytes: 2, ..Default::default() });
        a.accumulate(&MemCounters { dram_weight_bytes: 4, ..Default::default() });
        assert_eq!(a.dram_weight_bytes, 7);
        assert_eq!(a.dram_total_bytes(), 7);
        let mut o = OpCounters::default();
        o.accumulate(&OpCounters { macs: 5, ..Default::default() });
        assert_eq!(o.macs, 5);
    }
}
