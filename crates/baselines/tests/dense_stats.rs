//! `dense_stats` against a flat reference: the per-(filter, channel) and
//! per-element loops it replaced, run on random layers of every kind —
//! CONV with `k = 1` and `k > 1`, depth-wise, FC and squeeze-excite
//! (whose `M = 2·reduced` filters of `C = channels` columns exercise the
//! column rule and its `ci < C` guard) — with pruned filters, zero
//! activation channels and sparse codes.

use proptest::prelude::*;
use se_baselines::common::{dense_stats, DenseLayerStats};
use se_ir::{LayerDesc, LayerKind, LayerTrace, QuantTensor, WeightData};

/// The statistics as the flat loops computed them: a filter's non-zeros
/// from its slice, a conv weight's channel from its `(filter, channel)`
/// block, any other weight's channel from its flat index modulo the filter
/// length.
fn flat_stats(trace: &LayerTrace) -> DenseLayerStats {
    let desc = trace.desc();
    let WeightData::Dense(qw) = trace.weights() else { unreachable!("dense traces only") };
    let (m, c, kernel) = match *desc.kind() {
        LayerKind::Conv2d { in_channels, out_channels, kernel, .. } => {
            (out_channels, in_channels, kernel)
        }
        LayerKind::DepthwiseConv2d { channels, kernel, .. } => (channels, 1, kernel),
        LayerKind::Linear { in_features, out_features } => (out_features, in_features, 1),
        LayerKind::SqueezeExcite { channels, reduced } => (2 * reduced, channels, 1),
    };
    let (e, f) = desc.output_hw().unwrap();
    let spatial_out = match desc.kind() {
        LayerKind::Linear { .. } => 1,
        _ => e * f,
    };
    let per_filter = qw.len() / m.max(1);
    let mut filter_nnz = Vec::with_capacity(m);
    for fi in 0..m {
        let nz =
            qw.data()[fi * per_filter..(fi + 1) * per_filter].iter().filter(|&&x| x != 0).count();
        filter_nnz.push(nz as u64);
    }
    let mut channel_w_nnz = vec![0u64; c];
    match desc.kind() {
        LayerKind::Conv2d { .. } => {
            let per_chan = kernel * kernel;
            for fi in 0..m {
                for (ci, n) in channel_w_nnz.iter_mut().enumerate() {
                    let base = fi * per_filter + ci * per_chan;
                    *n +=
                        qw.data()[base..base + per_chan].iter().filter(|&&x| x != 0).count() as u64;
                }
            }
        }
        _ => {
            for (i, &x) in qw.data().iter().enumerate() {
                if x != 0 {
                    let ci = i % per_filter.max(1);
                    if ci < c {
                        channel_w_nnz[ci] += 1;
                    }
                }
            }
        }
    }
    let q = trace.input();
    let per = q.len() / c.max(1);
    let channel_a_nnz: Vec<u64> = (0..c)
        .map(|ci| {
            let hi = ((ci + 1) * per).min(q.len());
            q.data()[ci * per..hi].iter().filter(|&&x| x != 0).count() as u64
        })
        .collect();
    DenseLayerStats {
        m,
        c,
        kernel,
        spatial_out,
        macs: desc.macs().unwrap(),
        weights: qw.len() as u64,
        weight_nnz: filter_nnz.iter().sum(),
        filter_nnz,
        channel_w_nnz,
        input_nnz: channel_a_nnz.iter().sum(),
        channel_a_nnz,
        inputs: desc.input_elems(),
        outputs: desc.output_elems().unwrap(),
    }
}

/// Draws from one case's generator.
struct Draw(TestRng);

impl Draw {
    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        (lo..hi + 1).sample(&mut self.0)
    }

    /// `n` codes in runs of `run`: a run is all zero one time in four (a
    /// pruned filter or a dead channel), a code zero one time in two.
    fn codes(&mut self, n: usize, run: usize) -> Vec<i8> {
        let mut codes = Vec::with_capacity(n);
        while codes.len() < n {
            let dead = self.range(1, 4) == 1;
            for _ in 0..run.max(1).min(n - codes.len()) {
                let zero = dead || self.range(1, 2) == 1;
                codes.push(if zero { 0 } else { (self.range(0, 254) as i16 - 127) as i8 });
            }
        }
        codes
    }
}

/// A random dense trace of `kind` (0: CONV `k > 1`, 1: 1×1 CONV,
/// 2: depth-wise, 3: FC, 4: squeeze-excite).
fn trace(d: &mut Draw, kind: usize) -> LayerTrace {
    let hw = d.range(3, 8);
    let (kind, input_shape) = match kind {
        0 | 1 => {
            let kernel = if kind == 0 { d.range(2, 3) } else { 1 };
            let (c, m) = (d.range(1, 9), d.range(1, 12));
            let kind = LayerKind::Conv2d {
                in_channels: c,
                out_channels: m,
                kernel,
                stride: d.range(1, 2),
                padding: kernel / 2,
            };
            (kind, vec![c, hw, hw])
        }
        2 => {
            let c = d.range(1, 12);
            let kind = LayerKind::DepthwiseConv2d {
                channels: c,
                kernel: 3,
                stride: d.range(1, 2),
                padding: 1,
            };
            (kind, vec![c, hw, hw])
        }
        3 => {
            let c = d.range(1, 40);
            (LayerKind::Linear { in_features: c, out_features: d.range(1, 20) }, vec![c])
        }
        _ => {
            let channels = d.range(1, 16);
            (LayerKind::SqueezeExcite { channels, reduced: d.range(1, 6) }, vec![channels, hw, hw])
        }
    };
    let hw = if input_shape.len() == 1 { 1 } else { hw };
    let desc = LayerDesc::new("layer", kind, (hw, hw));
    let shape = desc.weight_shape();
    let run = *shape.last().unwrap();
    let weights = d.codes(shape.iter().product(), run);
    let w = QuantTensor::from_parts(shape, weights, 0.01, 8).unwrap();
    let inputs = input_shape.iter().product();
    let a = QuantTensor::from_parts(input_shape, d.codes(inputs, hw), 0.05, 8).unwrap();
    LayerTrace::new(desc, WeightData::Dense(w), a).unwrap()
}

fn matches_flat(seed: u64, kind: usize) -> Result<(), TestCaseError> {
    let t = trace(&mut Draw(TestRng::new(seed)), kind);
    prop_assert_eq!(dense_stats(&t).unwrap(), flat_stats(&t));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn conv_stats_match_flat_loops(seed in any::<u64>()) {
        matches_flat(seed, 0)?;
    }

    #[test]
    fn pointwise_stats_match_flat_loops(seed in any::<u64>()) {
        matches_flat(seed, 1)?;
    }

    #[test]
    fn depthwise_stats_match_flat_loops(seed in any::<u64>()) {
        matches_flat(seed, 2)?;
    }

    #[test]
    fn linear_stats_match_flat_loops(seed in any::<u64>()) {
        matches_flat(seed, 3)?;
    }

    #[test]
    fn squeeze_excite_stats_match_flat_loops(seed in any::<u64>()) {
        matches_flat(seed, 4)?;
    }
}

#[test]
fn weights_of_another_size_are_rejected() {
    let desc = LayerDesc::new("fc", LayerKind::Linear { in_features: 4, out_features: 3 }, (1, 1));
    let w = QuantTensor::from_parts(vec![11], vec![1; 11], 0.01, 8).unwrap();
    let a = QuantTensor::from_parts(vec![4], vec![1; 4], 0.05, 8).unwrap();
    let t = LayerTrace::new(desc, WeightData::Dense(w), a).unwrap();
    assert!(dense_stats(&t).is_err());
}
