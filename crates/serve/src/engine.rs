//! The batch engine: per-image simulation fan-out plus weight-fetch
//! amortization across batch sizes.
//!
//! A batch of N images of the same layer runs the data path N times but
//! fetches (and, on SmartExchange, rebuilds) the weights once, so a batched
//! result is a pure function of the per-image [`LayerResult`] and the batch
//! size — `se_hw`'s `amortized_over_batch` accounting. The engine therefore
//! simulates each trace **once per image** on the deterministic
//! `(layer, accelerator)` grid of [`se_core::pipeline`] and derives every
//! requested batch size from that single pass. This keeps a whole batch-size sweep as
//! cheap as one per-image simulation and, by construction, bit-identical
//! for every worker count. The engine is also the single five-lane
//! dispatch ([`BatchEngine::simulate_lane`]) behind `se_bench::runner`'s
//! one simulation queue, which runs all five lanes for the comparison
//! figures and the SmartExchange lane alone for the energy breakdown and
//! the serving profiles; [`BatchEngine::fold_lanes`] folds its rows.

use crate::{BoxError, Result};
use se_baselines::{BaselineConfig, BitPragmatic, CambriconX, DianNao, Scnn};
use se_core::pipeline;
use se_hw::sim::SeAccelerator;
use se_hw::{Accelerator, HwError, LayerResult, RunResult, SeAcceleratorConfig};
use se_models::traces::TracePair;

/// Names of the five accelerators in presentation order (matches
/// `se_bench::runner::ACCEL_NAMES`).
pub const ACCEL_NAMES: [&str; 5] =
    ["DianNao", "SCNN", "Cambricon-X", "Bit-pragmatic", "SmartExchange"];

/// Index of the SmartExchange lane in [`ACCEL_NAMES`]-ordered arrays.
pub const SE_LANE: usize = 4;

/// The five accelerator instances behind the serving subsystem and the
/// comparison figures.
#[derive(Debug, Clone)]
pub struct BatchEngine {
    diannao: DianNao,
    scnn: Scnn,
    cambricon: CambriconX,
    pragmatic: BitPragmatic,
    se: SeAccelerator,
}

impl BatchEngine {
    /// Creates the engine with the given accelerator configurations.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation failures.
    pub fn new(se_cfg: SeAcceleratorConfig, baseline_cfg: BaselineConfig) -> Result<Self> {
        Ok(BatchEngine {
            diannao: DianNao::new(baseline_cfg.clone()).map_err(BoxError::from)?,
            scnn: Scnn::new(baseline_cfg.clone()).map_err(BoxError::from)?,
            cambricon: CambriconX::new(baseline_cfg).map_err(BoxError::from)?,
            pragmatic: BitPragmatic::new(se_cfg.clone()).map_err(BoxError::from)?,
            se: SeAccelerator::new(se_cfg).map_err(BoxError::from)?,
        })
    }

    /// The accelerator behind `lane` (indexed like [`ACCEL_NAMES`]).
    ///
    /// # Panics
    ///
    /// Panics on `lane >= 5`.
    pub fn accelerator(&self, lane: usize) -> &dyn Accelerator {
        match lane {
            0 => &self.diannao,
            1 => &self.scnn,
            2 => &self.cambricon,
            3 => &self.pragmatic,
            SE_LANE => &self.se,
            other => panic!("lane {other} out of range (5 accelerators)"),
        }
    }

    /// One `(layer, accelerator)` grid job: a pure function of the trace
    /// pair, so grid scheduling can never leak into results. `Ok(None)`
    /// marks a design that cannot run the layer (`UnsupportedTrace`, e.g.
    /// SCNN on squeeze-excite); real failures propagate. The SmartExchange
    /// lane consumes the compressed trace and supports every layer, so all
    /// its errors propagate.
    ///
    /// # Errors
    ///
    /// Propagates unexpected simulator failures.
    pub fn simulate_lane(
        &self,
        pair: &TracePair,
        lane: usize,
    ) -> se_hw::Result<Option<LayerResult>> {
        if lane == SE_LANE {
            return self.se.process_layer(&pair.se).map(Some);
        }
        match self.accelerator(lane).process_layer(&pair.dense) {
            Ok(layer) => Ok(Some(layer)),
            Err(HwError::UnsupportedTrace { .. }) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Simulates the pairs through all five accelerators once per image on
    /// the `(layer, accelerator)` grid. A design that cannot run a layer
    /// turns its whole lane to `None`. Every grid job runs even on a lane
    /// already known dead: skipping mid-grid would make job purity depend
    /// on completion order.
    ///
    /// # Errors
    ///
    /// Propagates unexpected simulator failures.
    pub fn per_image_comparison(
        &self,
        pairs: &[TracePair],
        workers: usize,
    ) -> Result<[Option<RunResult>; 5]> {
        let grid = pipeline::try_run_grid(
            pairs.iter().map(Ok),
            ACCEL_NAMES.len(),
            workers,
            |_, pair, lane| self.simulate_lane(pair, lane),
        )
        .map_err(BoxError::from)?;
        Ok(Self::fold_lanes(grid))
    }

    /// Folds per-pair grid rows (one result per lane, `N` lanes, pairs in
    /// network order) into one run per lane — the five
    /// [`BatchEngine::simulate_lane`] lanes, or any other lane set on the
    /// same grid. A lane that cannot run some layer is `None` for the
    /// whole run.
    ///
    /// # Panics
    ///
    /// Panics on a row with more than `N` results.
    pub fn fold_lanes<const N: usize>(
        rows: impl IntoIterator<Item = Vec<Option<LayerResult>>>,
    ) -> [Option<RunResult>; N] {
        let mut runs: [Option<RunResult>; N] = std::array::from_fn(|_| Some(RunResult::default()));
        for per_pair in rows {
            for (lane, result) in per_pair.into_iter().enumerate() {
                match result {
                    Some(layer) => {
                        if let Some(run) = runs[lane].as_mut() {
                            run.layers.push(layer);
                        }
                    }
                    None => runs[lane] = None,
                }
            }
        }
        runs
    }

    /// The batched result for `lane`: `per_image` (one image through that
    /// lane) re-accounted for a batch of `batch` images with the weights
    /// held resident — weight-side DRAM and rebuild work once per batch,
    /// activation traffic and compute per image, DRAM transfer time
    /// re-derived at the lane's configured bandwidth. `batch = 1`
    /// reproduces `per_image` exactly.
    pub fn batched(&self, lane: usize, per_image: &RunResult, batch: usize) -> RunResult {
        per_image.amortized_over_batch(batch as u64, self.accelerator(lane).dram_bytes_per_cycle())
    }

    /// Batch-latency table for `lane`: `table[k - 1]` is the total cycle
    /// count of a batch of `k` images, for `k` in `1..=max_batch` — the
    /// streamed execution model of the serving front. Derived from one
    /// per-image pass, so the whole table costs no extra simulation.
    pub fn latency_table(&self, lane: usize, per_image: &RunResult, max_batch: usize) -> Vec<u64> {
        (1..=max_batch.max(1)).map(|k| self.batched(lane, per_image, k).total_cycles()).collect()
    }

    /// [`BatchEngine::latency_table`] with the model's weights already
    /// resident on chip: the per-batch weight fetch and buffer fill are
    /// dropped (`RunResult::with_weights_resident`) — the execution model
    /// of a batch on a model that stayed resident across batches. The
    /// one-time load a switch pays instead is
    /// `se_hw::residency::fetch_cycles` of
    /// [`RunResult::weight_footprint_bytes`].
    pub fn resident_latency_table(
        &self,
        lane: usize,
        per_image: &RunResult,
        max_batch: usize,
    ) -> Vec<u64> {
        let bw = self.accelerator(lane).dram_bytes_per_cycle();
        (1..=max_batch.max(1))
            .map(|k| self.batched(lane, per_image, k).with_weights_resident(bw).total_cycles())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use se_ir::{Dataset, LayerDesc, LayerKind, NetworkDesc};
    use se_models::traces::{trace_pairs, TraceOptions};

    fn tiny() -> NetworkDesc {
        let conv = |name: &str, ci: usize, co: usize| {
            LayerDesc::new(
                name,
                LayerKind::Conv2d {
                    in_channels: ci,
                    out_channels: co,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                },
                (8, 8),
            )
        };
        NetworkDesc::new(
            "tiny",
            Dataset::Cifar10,
            vec![
                conv("c1", 3, 8),
                conv("c2", 8, 8),
                LayerDesc::new("se1", LayerKind::SqueezeExcite { channels: 8, reduced: 2 }, (8, 8)),
            ],
        )
        .unwrap()
    }

    fn engine() -> BatchEngine {
        BatchEngine::new(SeAcceleratorConfig::default(), BaselineConfig::default()).unwrap()
    }

    #[test]
    fn per_image_results_are_worker_count_invariant() {
        let pairs = trace_pairs(&tiny(), &TraceOptions::fast()).unwrap();
        let e = engine();
        let serial = e.per_image_comparison(&pairs, 1).unwrap();
        assert!(serial[1].is_none(), "SCNN lane drops on squeeze-excite");
        assert!(serial[SE_LANE].is_some());
        for workers in [2usize, 4, 8] {
            assert_eq!(e.per_image_comparison(&pairs, workers).unwrap(), serial);
        }
    }

    #[test]
    fn batch_one_is_the_per_image_result() {
        let pairs = trace_pairs(&tiny(), &TraceOptions::fast()).unwrap();
        let e = engine();
        let per_image = e.per_image_comparison(&pairs, 2).unwrap()[SE_LANE].clone().unwrap();
        assert_eq!(e.batched(SE_LANE, &per_image, 1), per_image);
        assert_eq!(e.latency_table(SE_LANE, &per_image, 3)[0], per_image.total_cycles());
    }

    #[test]
    fn growing_batches_amortize_weight_dram_per_image() {
        let pairs = trace_pairs(&tiny(), &TraceOptions::fast()).unwrap();
        let e = engine();
        let per_image = e.per_image_comparison(&pairs, 2).unwrap()[SE_LANE].clone().unwrap();
        let weight_per_image = |n: usize| {
            let m = e.batched(SE_LANE, &per_image, n).mem_totals();
            (m.dram_weight_bytes + m.dram_index_bytes) as f64 / n as f64
        };
        assert!(weight_per_image(4) < weight_per_image(1));
        assert!(weight_per_image(16) < weight_per_image(4));
    }

    #[test]
    fn lane_bandwidths_come_from_their_configs() {
        let e = engine();
        for lane in 0..5 {
            assert!(e.accelerator(lane).dram_bytes_per_cycle() > 0.0, "lane {lane}");
        }
        assert_eq!(
            e.accelerator(SE_LANE).dram_bytes_per_cycle(),
            SeAcceleratorConfig::default().dram_bytes_per_cycle
        );
    }
}
