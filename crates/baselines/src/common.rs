//! Shared baseline resources and trace statistics.
//!
//! [`BaselineConfig`] holds the equalised Table V resources and the two
//! rules every dense baseline shares: input refetch and the layer result on
//! a multiplier datapath. [`dense_stats`] is the one read of a dense trace
//! the DianNao, SCNN and Cambricon-X models make: a single pass over the
//! weights counts each filter's and each input channel's non-zeros at
//! once, and a single pass over the activations counts each channel's,
//! both in byte-wide lanes with no per-element division. A baseline job
//! therefore costs about two scans of its trace.

use se_hw::{HwError, LayerResult, MemCounters, OpCounters, Result};
use se_ir::{LayerKind, LayerTrace, QuantTensor, WeightData};

/// Equalised baseline resources (Table V): the same total on-chip SRAM as
/// the SmartExchange accelerator and 1 K 8-bit multipliers.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineConfig {
    /// 8-bit multipliers (1024 for all non-bit-serial baselines).
    pub multipliers: usize,
    /// Total on-chip SRAM in bytes (772 KB, matching the SE configuration).
    pub sram_bytes: f64,
    /// Fraction of SRAM dedicated to input activations (drives refetch).
    pub input_share: f64,
    /// DRAM bandwidth in bytes per cycle.
    pub dram_bytes_per_cycle: f64,
    /// Clock frequency in Hz.
    pub frequency_hz: f64,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            multipliers: 1024,
            sram_bytes: 772.0 * 1024.0,
            input_share: 0.5,
            dram_bytes_per_cycle: 64.0,
            frequency_hz: 1e9,
        }
    }
}

impl BaselineConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::InvalidConfig`] for no multipliers, an SRAM size,
    /// bandwidth or frequency that is not finite and positive, or an input
    /// share outside `[0, 1]`.
    pub fn validate(&self) -> Result<()> {
        let positive = |x: f64| x.is_finite() && x > 0.0;
        if self.multipliers == 0
            || !positive(self.sram_bytes)
            || !(0.0..=1.0).contains(&self.input_share)
            || !positive(self.dram_bytes_per_cycle)
            || !positive(self.frequency_hz)
        {
            return Err(HwError::InvalidConfig {
                reason: "baseline resources must be finite and positive".into(),
            });
        }
        Ok(())
    }

    /// DRAM input traffic with the shared refetch rule: one pass when the
    /// input fits its SRAM share, one pass per output tile otherwise.
    pub fn input_dram_bytes(&self, input_bytes: u64, output_tiles: u64) -> u64 {
        if (input_bytes as f64) <= self.sram_bytes * self.input_share {
            input_bytes
        } else {
            input_bytes * output_tiles.max(1)
        }
    }

    /// A layer's result on the multiplier datapath: `macs` products, each
    /// accumulated once, with every multiplier not multiplying idle for
    /// the rest of `compute_cycles`.
    pub fn layer_result(
        &self,
        name: &str,
        compute_cycles: u64,
        mem: MemCounters,
        macs: u64,
        index_compares: u64,
    ) -> LayerResult {
        let ops = OpCounters { macs, accumulator_adds: macs, index_compares, ..Default::default() }
            .with_idle_lanes(compute_cycles, self.multipliers as u64);
        LayerResult::new(name, compute_cycles, mem, ops, self.dram_bytes_per_cycle)
    }
}

// Residency note: every baseline charges its (dense, CSR-compressed, or
// nnz-packed) weight DRAM exactly once per image, so a run's per-image
// weight + index DRAM traffic (`se_hw::RunResult::weight_footprint_bytes`)
// doubles as the design's weight-buffer residency footprint — what a model
// switch re-fetches and what a buffer must hold to keep the model resident
// (see `se_hw::residency`). The dense counterpart of the SmartExchange
// lane's compressed footprint; the invariant is pinned by tests below and
// per design.

/// Dense layer statistics every baseline consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseLayerStats {
    /// Output channels / neurons (`M`).
    pub m: usize,
    /// Input channels / features (`C`).
    pub c: usize,
    /// Kernel side (1 for FC).
    pub kernel: usize,
    /// Output spatial positions (`E × F`; 1 for FC).
    pub spatial_out: usize,
    /// Total MACs of the dense layer.
    pub macs: u64,
    /// Total weights.
    pub weights: u64,
    /// Non-zero weights.
    pub weight_nnz: u64,
    /// Non-zero weights per output filter.
    pub filter_nnz: Vec<u64>,
    /// Non-zero weights per input channel.
    pub channel_w_nnz: Vec<u64>,
    /// Non-zero activations per input channel.
    pub channel_a_nnz: Vec<u64>,
    /// Total input elements.
    pub inputs: u64,
    /// Total non-zero input elements.
    pub input_nnz: u64,
    /// Total output elements.
    pub outputs: u64,
}

/// Extracts dense statistics from a trace (baselines require
/// [`WeightData::Dense`]), in one pass over the weights and one over the
/// activations.
///
/// The weights are `M` filters of equal length. A weight's input channel is
/// its `R × S` block of the filter on the conv layout `(M, C, R, S)`, and
/// its column on every other layout, counted only when the column is below
/// `C` (so a depth-wise filter, whose `C` is 1, counts only its first tap).
///
/// # Errors
///
/// Returns [`HwError::UnsupportedTrace`] for SE-form weights or dense
/// weights of another size than the layer's parameter count, and
/// propagates invalid layer geometry.
pub fn dense_stats(trace: &LayerTrace) -> Result<DenseLayerStats> {
    let desc = trace.desc();
    let WeightData::Dense(qw) = trace.weights() else {
        return Err(HwError::UnsupportedTrace {
            reason: format!(
                "baseline accelerators process dense weights; layer {} is SE-compressed",
                desc.name()
            ),
        });
    };
    if qw.len() as u64 != desc.kind().params() {
        return Err(HwError::UnsupportedTrace {
            reason: format!(
                "layer {} carries {} dense weights where {} are expected",
                desc.name(),
                qw.len(),
                desc.kind().params()
            ),
        });
    }
    let (m, c, kernel) = match *desc.kind() {
        LayerKind::Conv2d { in_channels, out_channels, kernel, .. } => {
            (out_channels, in_channels, kernel)
        }
        LayerKind::DepthwiseConv2d { channels, kernel, .. } => (channels, 1, kernel),
        LayerKind::Linear { in_features, out_features } => (out_features, in_features, 1),
        LayerKind::SqueezeExcite { channels, reduced } => (2 * reduced, channels, 1),
    };
    let (e, f) = desc.output_hw()?;
    let spatial_out = match desc.kind() {
        LayerKind::Linear { .. } => 1,
        _ => e * f,
    };
    // Weights per input channel within a filter.
    let per_channel = match desc.kind() {
        LayerKind::Conv2d { .. } => kernel * kernel,
        _ => 1,
    };
    let per_filter = qw.len() / m.max(1);
    let mut filter_nnz = vec![0u64; m];
    let mut channel_w_nnz = vec![0u64; c];
    if per_filter > 0 {
        for (nnz, filter) in filter_nnz.iter_mut().zip(qw.data().chunks_exact(per_filter)) {
            *nnz = if per_channel == 1 {
                for (n, &x) in channel_w_nnz.iter_mut().zip(filter) {
                    *n += u64::from(x != 0);
                }
                nonzeros(filter)
            } else {
                let blocks = filter.chunks_exact(per_channel).zip(channel_w_nnz.iter_mut());
                blocks
                    .map(|(block, n)| {
                        let k = nonzeros(block);
                        *n += k;
                        k
                    })
                    .sum()
            };
        }
    }
    let weight_nnz = filter_nnz.iter().sum();

    let channel_a_nnz = channel_activation_nnz(trace.input(), c);
    let input_nnz = channel_a_nnz.iter().sum();

    Ok(DenseLayerStats {
        m,
        c,
        kernel,
        spatial_out,
        macs: desc.macs()?,
        weights: qw.len() as u64,
        weight_nnz,
        filter_nnz,
        channel_w_nnz,
        channel_a_nnz,
        inputs: desc.input_elems(),
        input_nnz,
        outputs: desc.output_elems()?,
    })
}

/// Non-zero codes in `codes`, counted in byte-wide lanes (it vectorizes)
/// over runs short enough not to overflow them.
fn nonzeros(codes: &[i8]) -> u64 {
    let run = |run: &[i8]| run.iter().fold(0u8, |n, &x| n + u8::from(x != 0));
    codes.chunks(usize::from(u8::MAX)).map(|r| u64::from(run(r))).sum()
}

/// Non-zero activations of each of `channels` equal slices of `q`.
fn channel_activation_nnz(q: &QuantTensor, channels: usize) -> Vec<u64> {
    let per = q.len() / channels.max(1);
    (0..channels)
        .map(|ci| {
            let lo = ci * per;
            let hi = ((ci + 1) * per).min(q.len());
            nonzeros(&q.data()[lo..hi])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use se_ir::LayerDesc;
    use se_tensor::Tensor;

    fn trace() -> LayerTrace {
        let desc = LayerDesc::new(
            "c",
            LayerKind::Conv2d { in_channels: 2, out_channels: 2, kernel: 3, stride: 1, padding: 1 },
            (4, 4),
        );
        let mut w = Tensor::zeros(&[2, 2, 3, 3]);
        // Filter 0: 3 non-zeros in channel 0; filter 1: 1 non-zero in channel 1.
        w.set(&[0, 0, 0, 0], 1.0);
        w.set(&[0, 0, 1, 1], -0.5);
        w.set(&[0, 0, 2, 2], 0.25);
        w.set(&[1, 1, 1, 1], 0.125);
        let qw = QuantTensor::quantize(&w, 8).unwrap();
        let mut a = Tensor::zeros(&[2, 4, 4]);
        a.set(&[0, 0, 0], 1.0);
        a.set(&[1, 2, 2], 1.0);
        a.set(&[1, 3, 3], 0.5);
        let qa = QuantTensor::quantize(&a, 8).unwrap();
        LayerTrace::new(desc, WeightData::Dense(qw), qa).unwrap()
    }

    #[test]
    fn residency_footprint_is_the_per_image_weight_dram() {
        use se_hw::{LayerResult, MemCounters, OpCounters, RunResult};
        let layer = |w: u64, i: u64| LayerResult {
            name: "l".into(),
            compute_cycles: 1,
            dram_cycles: 1,
            total_cycles: 1,
            mem: MemCounters { dram_weight_bytes: w, dram_index_bytes: i, ..Default::default() },
            ops: OpCounters::default(),
        };
        let run = RunResult { layers: vec![layer(100, 7), layer(50, 3)] };
        assert_eq!(run.weight_footprint_bytes(), 160);
        // Batching charges the footprint once per batch, so the residency
        // footprint — what a switch must re-fetch — is batch-invariant.
        let batched = run.amortized_over_batch(8, 64.0);
        assert_eq!(batched.weight_footprint_bytes(), 160);
    }

    #[test]
    fn stats_count_nonzeros() {
        let s = dense_stats(&trace()).unwrap();
        assert_eq!(s.weight_nnz, 4);
        assert_eq!(s.filter_nnz, vec![3, 1]);
        assert_eq!(s.channel_w_nnz, vec![3, 1]);
        assert_eq!(s.channel_a_nnz, vec![1, 2]);
        assert_eq!(s.macs, 2 * 16 * 2 * 9);
        assert_eq!(s.spatial_out, 16);
    }

    #[test]
    fn refetch_rule() {
        let cfg = BaselineConfig::default();
        assert_eq!(cfg.input_dram_bytes(1000, 4), 1000);
        let big = (cfg.sram_bytes * cfg.input_share) as u64 + 1;
        assert_eq!(cfg.input_dram_bytes(big, 4), big * 4);
    }

    #[test]
    fn validation() {
        BaselineConfig::default().validate().unwrap();
        let c = BaselineConfig { multipliers: 0, ..Default::default() };
        assert!(c.validate().is_err());
        let c = BaselineConfig { input_share: 2.0, ..Default::default() };
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_non_finite_and_non_positive_resources() {
        type Field = fn(&mut BaselineConfig) -> &mut f64;
        let fields: [(&str, Field); 4] = [
            ("sram_bytes", |c| &mut c.sram_bytes),
            ("input_share", |c| &mut c.input_share),
            ("dram_bytes_per_cycle", |c| &mut c.dram_bytes_per_cycle),
            ("frequency_hz", |c| &mut c.frequency_hz),
        ];
        for (name, field) in fields {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0] {
                let mut c = BaselineConfig::default();
                *field(&mut c) = bad;
                // An input share of 0 (no SRAM for inputs) is valid.
                if name == "input_share" && bad == 0.0 {
                    c.validate().unwrap();
                    continue;
                }
                assert!(c.validate().is_err(), "{name} = {bad} must be rejected");
            }
        }
    }

    #[test]
    fn rejects_se_traces() {
        use se_ir::{Po2Set, SeLayer, SeLayout, SeSlice};
        use se_tensor::Mat;
        let desc = LayerDesc::new(
            "c",
            LayerKind::Conv2d { in_channels: 1, out_channels: 1, kernel: 3, stride: 1, padding: 1 },
            (4, 4),
        );
        let po2 = Po2Set::default();
        let sl = SeSlice::new(Mat::zeros(3, 3), Mat::identity(3), &po2).unwrap();
        let layer = SeLayer::new(
            SeLayout::ConvPerFilter {
                out_channels: 1,
                in_channels: 1,
                kernel: 3,
                slices_per_filter: 1,
            },
            po2,
            vec![sl],
        )
        .unwrap();
        let qa = QuantTensor::quantize(&Tensor::zeros(&[1, 4, 4]), 8).unwrap();
        let t = LayerTrace::new(desc, WeightData::Se(vec![layer]), qa).unwrap();
        assert!(dense_stats(&t).is_err());
    }
}
