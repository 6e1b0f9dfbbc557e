//! Applying the SmartExchange algorithm to DNN layers (Section III-C).
//!
//! * **CONV, `R = S > 1`** — each of the `M` filters is reshaped to a
//!   `(C·R) × S` matrix and decomposed independently (parallelised along the
//!   output-channel axis, as the paper notes); matrices with many rows are
//!   sliced along the first dimension.
//! * **CONV, `R = S = 1`** — reshaped to `(M, C)` and treated as FC.
//! * **FC** — every weight row (length `C`, zero-padded to a multiple of
//!   `S`) is reshaped to a `(C/S) × S` matrix and decomposed.
//! * **Depth-wise CONV** — per-channel `R × S` kernels decompose as
//!   single-channel filters.
//! * **Squeeze-and-excite** — its two FC matrices are compressed with the
//!   FC rule.

use crate::{algorithm, sparsify, CoreError, Result, SeConfig};
use se_ir::{LayerDesc, LayerKind, SeLayer, SeLayout, SeSlice};
use se_tensor::linalg::LstsqWorkspace;
use se_tensor::{Mat, Tensor};

/// Splits `total` rows into chunks of at most `max_rows`, returning the
/// chunk boundaries (deterministic, near-equal sizes).
fn chunk_bounds(total: usize, max_rows: usize) -> Vec<(usize, usize)> {
    let chunks = total.div_ceil(max_rows).max(1);
    let base = total.div_ceil(chunks);
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    while start < total {
        let end = (start + base).min(total);
        out.push((start, end));
        start = end;
    }
    out
}

/// Decomposes one reshaped unit (a filter matrix or FC row matrix),
/// slicing it into row chunks and applying an optional per-row forced-zero
/// mask (from channel pruning).
fn decompose_unit(
    unit: &Mat,
    cfg: &SeConfig,
    forced_rows: Option<&[bool]>,
) -> Result<Vec<SeSlice>> {
    let bounds = chunk_bounds(unit.rows(), cfg.max_unit_rows());
    let mut slices = Vec::with_capacity(bounds.len());
    for &(r0, r1) in &bounds {
        let mut chunk = unit.row_slice(r0, r1);
        // Pre-zero channel-pruned rows so the group structure is respected
        // even when chunk boundaries split a channel.
        if let Some(mask) = forced_rows {
            for (i, row) in (r0..r1).enumerate() {
                if mask[row] {
                    chunk.row_mut(i).fill(0.0);
                }
            }
        }
        let slice = decompose_chunk(&chunk, cfg, forced_rows.map(|m| &m[r0..r1]))?;
        slices.push(slice);
    }
    Ok(slices)
}

/// Decomposes a chunk whose `forced` rows (from channel pruning) must end
/// up zero. The chunk is decomposed without a channel mask, since
/// `decompose_with_channel_mask` groups rows by `cols` and a chunk
/// boundary can split a channel. Then any forced row the fit refilled is
/// re-zeroed, and `B` is refitted once.
fn decompose_chunk(chunk: &Mat, cfg: &SeConfig, forced: Option<&[bool]>) -> Result<SeSlice> {
    let mut d = algorithm::decompose_with_channel_mask(chunk, cfg, None)?;
    if let Some(mask) = forced {
        let mut touched = false;
        for (i, &z) in mask.iter().enumerate() {
            if z && d.ce.row(i).iter().any(|&x| x != 0.0) {
                d.ce.row_mut(i).fill(0.0);
                touched = true;
            }
        }
        if touched {
            let mut lstsq = LstsqWorkspace::default();
            algorithm::fit_basis(&mut lstsq, &d.ce, chunk, cfg.ridge(), &mut d.basis)?;
        }
    }
    d.into_se_slice(cfg.po2())
}

/// Runs `f` over `0..units` on the [`crate::pipeline`] work queue,
/// returning per-unit results in order (lowest-index error on failure).
/// The thread budget comes from the caller (derived from
/// [`SeConfig::parallelism`], capped at 4 — per-unit work is too small to
/// feed more), so a network-level pipeline running many layer jobs
/// concurrently can force this inner level inline instead of
/// oversubscribing the machine (see [`crate::pipeline::try_run_nested`]).
/// Results are bit-identical for every budget: units are independent and
/// reassembled in unit order.
fn parallel_units<T, F>(units: usize, budget: usize, f: F) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    let indices: Vec<usize> = (0..units).collect();
    crate::pipeline::try_run_ordered(&indices, budget.clamp(1, 4), |_, &u| f(u))
}

/// Compresses a standard CONV weight tensor `(M, C, R, S)` with `R = S > 1`.
///
/// # Errors
///
/// Returns [`CoreError::InvalidWeights`] for non-4-D or non-square-kernel
/// weights, and propagates decomposition failures.
pub fn compress_conv(w: &Tensor, cfg: &SeConfig) -> Result<SeLayer> {
    let shape = w.shape();
    if shape.len() != 4 || shape[2] != shape[3] || shape[2] < 2 {
        return Err(CoreError::InvalidWeights {
            reason: format!("expected (M,C,R,S) with R=S>1, found {shape:?}"),
        });
    }
    let (m, c, k) = (shape[0], shape[1], shape[2]);
    let unit_rows = c * k;
    let slices_per_filter = chunk_bounds(unit_rows, cfg.max_unit_rows()).len();

    let per_filter = parallel_units(m, cfg.parallelism(), |fi| {
        let data = &w.data()[fi * unit_rows * k..(fi + 1) * unit_rows * k];
        let unit = Mat::from_vec(data.to_vec(), unit_rows, k)?;
        // Channel pruning: one group of R rows per input channel.
        let forced = cfg.channel_prune_threshold().map(|t| {
            let mask = sparsify::channel_mask(&unit, k, t);
            let mut rows = vec![false; unit_rows];
            for (ch, &keep) in mask.iter().enumerate() {
                if !keep {
                    for r in &mut rows[ch * k..(ch + 1) * k] {
                        *r = true;
                    }
                }
            }
            rows
        });
        decompose_unit(&unit, cfg, forced.as_deref())
    })?;

    let layout =
        SeLayout::ConvPerFilter { out_channels: m, in_channels: c, kernel: k, slices_per_filter };
    Ok(SeLayer::new(layout, *cfg.po2(), per_filter.into_iter().flatten().collect())?)
}

/// Compresses a depth-wise CONV weight tensor `(C, R, S)` (one kernel per
/// channel, decomposed as `C` single-channel filters).
///
/// # Errors
///
/// Returns [`CoreError::InvalidWeights`] for non-3-D or non-square kernels.
pub fn compress_depthwise(w: &Tensor, cfg: &SeConfig) -> Result<SeLayer> {
    let shape = w.shape();
    if shape.len() != 3 || shape[1] != shape[2] || shape[1] < 2 {
        return Err(CoreError::InvalidWeights {
            reason: format!("expected (C,R,S) with R=S>1, found {shape:?}"),
        });
    }
    let (c, k) = (shape[0], shape[1]);
    let per_channel = parallel_units(c, cfg.parallelism(), |ci| {
        let data = &w.data()[ci * k * k..(ci + 1) * k * k];
        let unit = Mat::from_vec(data.to_vec(), k, k)?;
        decompose_unit(&unit, cfg, None)
    })?;
    let layout = SeLayout::ConvPerFilter {
        out_channels: c,
        in_channels: 1,
        kernel: k,
        slices_per_filter: 1,
    };
    Ok(SeLayer::new(layout, *cfg.po2(), per_channel.into_iter().flatten().collect())?)
}

/// Compresses an FC weight matrix `(M, C)` (also used for 1×1 CONV).
///
/// Each row is zero-padded to a multiple of `cfg.fc_width()` and reshaped to
/// a `(C_pad / S) × S` matrix before decomposition.
///
/// # Errors
///
/// Returns [`CoreError::InvalidWeights`] for empty matrices.
pub fn compress_fc(w: &Mat, cfg: &SeConfig) -> Result<SeLayer> {
    if w.is_empty() {
        return Err(CoreError::InvalidWeights { reason: "empty FC weight matrix".into() });
    }
    let (m, c) = (w.rows(), w.cols());
    let s = cfg.fc_width();
    let padded = c.div_ceil(s) * s;
    let unit_rows = padded / s;
    let slices_per_row = chunk_bounds(unit_rows, cfg.max_unit_rows()).len();

    let per_row = parallel_units(m, cfg.parallelism(), |ri| {
        let mut data = w.row(ri).to_vec();
        data.resize(padded, 0.0);
        let unit = Mat::from_vec(data, unit_rows, s)?;
        decompose_unit(&unit, cfg, None)
    })?;

    let layout = SeLayout::FcPerRow { out_features: m, in_features: c, width: s, slices_per_row };
    Ok(SeLayer::new(layout, *cfg.po2(), per_row.into_iter().flatten().collect())?)
}

/// Compresses a layer's weight tensor according to its descriptor,
/// returning one [`SeLayer`] per weight matrix (two for squeeze-excite).
///
/// Weight tensor conventions per [`LayerKind`]:
/// `(M, C, R, S)` for CONV, `(C, R, S)` for depth-wise, `(M, C)` for FC,
/// and `(2, channels, reduced)` for squeeze-excite (block 0 is the squeeze
/// FC transposed, block 1 the excite FC).
///
/// # Errors
///
/// Returns [`CoreError::InvalidWeights`] if the tensor does not match the
/// descriptor, and propagates decomposition failures.
pub fn compress_layer(desc: &LayerDesc, w: &Tensor, cfg: &SeConfig) -> Result<Vec<SeLayer>> {
    let expect = desc.weight_shape();
    if w.shape() != expect.as_slice() {
        return Err(CoreError::InvalidWeights {
            reason: format!(
                "layer {}: weights {:?} do not match descriptor shape {expect:?}",
                desc.name(),
                w.shape()
            ),
        });
    }
    match *desc.kind() {
        LayerKind::Conv2d { kernel, in_channels, out_channels, .. } => {
            if kernel == 1 {
                let mat = Mat::from_vec(w.data().to_vec(), out_channels, in_channels)?;
                Ok(vec![compress_fc(&mat, cfg)?])
            } else {
                Ok(vec![compress_conv(w, cfg)?])
            }
        }
        LayerKind::DepthwiseConv2d { .. } => Ok(vec![compress_depthwise(w, cfg)?]),
        LayerKind::Linear { in_features, out_features } => {
            let mat = Mat::from_vec(w.data().to_vec(), out_features, in_features)?;
            Ok(vec![compress_fc(&mat, cfg)?])
        }
        LayerKind::SqueezeExcite { channels, reduced } => {
            let block = channels * reduced;
            // Block 0 holds the squeeze FC as (channels, reduced) = W1ᵀ.
            let squeeze_t = Mat::from_vec(w.data()[..block].to_vec(), channels, reduced)?;
            let squeeze = squeeze_t.transpose(); // (reduced, channels)
            let excite = Mat::from_vec(w.data()[block..].to_vec(), channels, reduced)?;
            Ok(vec![compress_fc(&squeeze, cfg)?, compress_fc(&excite, cfg)?])
        }
    }
}

/// Rebuilds a layer's dense weight tensor from its compressed form,
/// inverting [`compress_layer`]'s conventions.
///
/// # Errors
///
/// Returns [`CoreError::InvalidWeights`] if the compressed parts do not
/// match the descriptor.
pub fn reconstruct_layer(desc: &LayerDesc, parts: &[SeLayer]) -> Result<Tensor> {
    let check_parts = |n: usize| -> Result<()> {
        if parts.len() != n {
            return Err(CoreError::InvalidWeights {
                reason: format!(
                    "layer {}: expected {n} compressed part(s), found {}",
                    desc.name(),
                    parts.len()
                ),
            });
        }
        Ok(())
    };
    match *desc.kind() {
        LayerKind::Conv2d { kernel, in_channels, out_channels, .. } => {
            check_parts(1)?;
            let t = parts[0].reconstruct_weights()?;
            if kernel == 1 {
                Ok(t.reshape(&[out_channels, in_channels, 1, 1])?)
            } else {
                Ok(t)
            }
        }
        LayerKind::DepthwiseConv2d { channels, kernel, .. } => {
            check_parts(1)?;
            let t = parts[0].reconstruct_weights()?;
            Ok(t.reshape(&[channels, kernel, kernel])?)
        }
        LayerKind::Linear { .. } => {
            check_parts(1)?;
            parts[0].reconstruct_weights().map_err(CoreError::from)
        }
        LayerKind::SqueezeExcite { channels, reduced } => {
            check_parts(2)?;
            let squeeze = parts[0].reconstruct_weights()?.to_mat()?; // (reduced, channels)
            let excite = parts[1].reconstruct_weights()?; // (channels, reduced)
            let mut data = squeeze.transpose().into_vec();
            data.extend_from_slice(excite.data());
            Ok(Tensor::from_vec(data, &[2, channels, reduced])?)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VectorSparsity;
    use se_tensor::rng;

    fn cfg() -> SeConfig {
        SeConfig::default().with_max_iterations(8).unwrap()
    }

    fn rel_err(a: &Tensor, b: &Tensor) -> f32 {
        let d = a.sub(b).unwrap().norm();
        d / a.norm().max(1e-12)
    }

    #[test]
    fn chunk_bounds_cover_everything() {
        assert_eq!(chunk_bounds(10, 4), vec![(0, 4), (4, 8), (8, 10)]);
        assert_eq!(chunk_bounds(8, 4), vec![(0, 4), (4, 8)]);
        assert_eq!(chunk_bounds(3, 100), vec![(0, 3)]);
        // Near-equal chunks rather than one tiny remainder.
        assert_eq!(chunk_bounds(9, 4), vec![(0, 3), (3, 6), (6, 9)]);
    }

    #[test]
    fn conv_compress_reconstruct_is_close() {
        let mut r = rng::seeded(31);
        let w = rng::kaiming_tensor(&mut r, &[8, 4, 3, 3], 4 * 9);
        let c = cfg().with_vector_sparsity(VectorSparsity::None).unwrap();
        let se = compress_conv(&w, &c).unwrap();
        let recon = se.reconstruct_weights().unwrap();
        assert_eq!(recon.shape(), w.shape());
        let err = rel_err(&w, &recon);
        assert!(err < 0.3, "relative error {err}");
    }

    #[test]
    fn conv_slicing_respects_max_rows() {
        let mut r = rng::seeded(37);
        let w = rng::kaiming_tensor(&mut r, &[2, 16, 3, 3], 16 * 9);
        let c = cfg().with_max_unit_rows(16).unwrap(); // 48 rows/filter -> 3 slices
        let se = compress_conv(&w, &c).unwrap();
        match se.layout() {
            SeLayout::ConvPerFilter { slices_per_filter, .. } => {
                assert_eq!(*slices_per_filter, 3)
            }
            other => panic!("unexpected layout {other:?}"),
        }
        assert_eq!(se.slices().len(), 6);
        assert!(se.slices().iter().all(|s| s.rows() <= 16));
        let recon = se.reconstruct_weights().unwrap();
        assert_eq!(recon.shape(), w.shape());
    }

    #[test]
    fn fc_compress_handles_padding() {
        let mut r = rng::seeded(41);
        let w = rng::normal_mat(&mut r, 4, 10, 0.1); // 10 not divisible by 3
        let se = compress_fc(&w, &cfg()).unwrap();
        let recon = se.reconstruct_weights().unwrap();
        assert_eq!(recon.shape(), &[4, 10]);
        let werr = rel_err(&Tensor::from(w), &recon);
        assert!(werr < 0.45, "relative error {werr}");
    }

    #[test]
    fn depthwise_compress_roundtrip() {
        let mut r = rng::seeded(43);
        let w = rng::kaiming_tensor(&mut r, &[6, 3, 3], 9);
        let c = cfg().with_vector_sparsity(VectorSparsity::None).unwrap();
        let se = compress_depthwise(&w, &c).unwrap();
        let recon = se.reconstruct_weights().unwrap();
        assert_eq!(recon.shape(), &[6, 1, 3, 3]);
        // Repack through reconstruct_layer instead for the (C,R,S) shape.
        let desc = LayerDesc::new(
            "dw",
            LayerKind::DepthwiseConv2d { channels: 6, kernel: 3, stride: 1, padding: 1 },
            (8, 8),
        );
        let repacked = reconstruct_layer(&desc, &[se]).unwrap();
        assert_eq!(repacked.shape(), &[6, 3, 3]);
        let err = rel_err(&w, &repacked);
        assert!(err < 0.35, "relative error {err}");
    }

    #[test]
    fn pointwise_conv_goes_through_fc_path() {
        let mut r = rng::seeded(47);
        let desc = LayerDesc::new(
            "pw",
            LayerKind::Conv2d { in_channels: 9, out_channels: 4, kernel: 1, stride: 1, padding: 0 },
            (8, 8),
        );
        let w = rng::kaiming_tensor(&mut r, &[4, 9, 1, 1], 9);
        let parts = compress_layer(&desc, &w, &cfg()).unwrap();
        assert_eq!(parts.len(), 1);
        assert!(matches!(parts[0].layout(), SeLayout::FcPerRow { .. }));
        let recon = reconstruct_layer(&desc, &parts).unwrap();
        assert_eq!(recon.shape(), &[4, 9, 1, 1]);
    }

    #[test]
    fn squeeze_excite_produces_two_parts() {
        let mut r = rng::seeded(53);
        let desc =
            LayerDesc::new("se", LayerKind::SqueezeExcite { channels: 12, reduced: 3 }, (8, 8));
        let w = rng::kaiming_tensor(&mut r, &[2, 12, 3], 12);
        let parts = compress_layer(&desc, &w, &cfg()).unwrap();
        assert_eq!(parts.len(), 2);
        let recon = reconstruct_layer(&desc, &parts).unwrap();
        assert_eq!(recon.shape(), &[2, 12, 3]);
        let err = rel_err(&w, &recon);
        assert!(err < 0.5, "relative error {err}");
    }

    #[test]
    fn compress_layer_validates_shape() {
        let desc = LayerDesc::new(
            "c",
            LayerKind::Conv2d { in_channels: 3, out_channels: 8, kernel: 3, stride: 1, padding: 1 },
            (8, 8),
        );
        let wrong = Tensor::zeros(&[8, 3, 5, 5]);
        assert!(matches!(
            compress_layer(&desc, &wrong, &cfg()),
            Err(CoreError::InvalidWeights { .. })
        ));
    }

    #[test]
    fn channel_pruning_zeroes_weak_channels() {
        let mut r = rng::seeded(59);
        // Build a conv filter where channel 1 is ~100x weaker.
        let mut w = rng::kaiming_tensor(&mut r, &[1, 3, 3, 3], 27);
        for kr in 0..3 {
            for ks in 0..3 {
                let v = w.at(&[0, 1, kr, ks]) * 0.001;
                w.set(&[0, 1, kr, ks], v);
            }
        }
        let c = cfg().with_channel_prune(Some(0.2)).unwrap();
        let se = compress_conv(&w, &c).unwrap();
        let recon = se.reconstruct_weights().unwrap();
        for kr in 0..3 {
            for ks in 0..3 {
                assert_eq!(recon.at(&[0, 1, kr, ks]), 0.0, "pruned channel must stay zero");
            }
        }
    }

    #[test]
    fn reconstruct_layer_part_count_checked() {
        let desc =
            LayerDesc::new("fc", LayerKind::Linear { in_features: 6, out_features: 2 }, (1, 1));
        assert!(matches!(reconstruct_layer(&desc, &[]), Err(CoreError::InvalidWeights { .. })));
    }

    #[test]
    fn vector_sparsity_visible_in_layout_stats() {
        let mut r = rng::seeded(61);
        let w = rng::kaiming_tensor(&mut r, &[4, 8, 3, 3], 72);
        let c = cfg().with_vector_sparsity(VectorSparsity::KeepFraction(0.5)).unwrap();
        let se = compress_conv(&w, &c).unwrap();
        assert!(se.vector_sparsity() >= 0.45, "sparsity {}", se.vector_sparsity());
    }
}
