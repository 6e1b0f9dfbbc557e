//! SmartExchange on trainable `se-nn` models, for the accuracy
//! experiments: layer descriptors of a model's weighted layers, the
//! compress-and-reconstruct projection used during re-training, and
//! storage reports of a compressed model.

use crate::{ModelError, Result};
use se_core::SeConfig;
use se_ir::{LayerDesc, LayerKind};
use se_nn::model::Sequential;
use se_tensor::Tensor;

/// Descriptors for the weighted layers of a trainable model, in layer
/// order, paired with the model-layer index. Spatial input sizes are
/// derived by propagating `input_shape` through the stack.
///
/// # Errors
///
/// Propagates forward-shape failures.
pub fn weighted_layer_descs(
    model: &Sequential,
    input_shape: &[usize],
) -> Result<Vec<(usize, LayerDesc)>> {
    let zero = Tensor::zeros(input_shape);
    let (_, inputs) = model.forward_capturing(&zero).map_err(ModelError::from)?;
    let mut out = Vec::new();
    for (i, layer) in model.layers().iter().enumerate() {
        let Some(w) = layer.weights() else { continue };
        let in_shape = inputs[i].shape();
        let desc = if let Some(geom) = layer.conv_geom() {
            LayerDesc::new(
                format!("layer{i}"),
                LayerKind::Conv2d {
                    in_channels: geom.in_channels,
                    out_channels: geom.out_channels,
                    kernel: geom.kernel_h,
                    stride: geom.stride,
                    padding: geom.padding,
                },
                (in_shape[1], in_shape[2]),
            )
        } else {
            LayerDesc::new(
                format!("layer{i}"),
                LayerKind::Linear { in_features: w.shape()[1], out_features: w.shape()[0] },
                (1, 1),
            )
        };
        out.push((i, desc));
    }
    Ok(out)
}

/// The SmartExchange projection used during re-training: every weighted
/// layer is compressed and immediately reconstructed in place, so the model
/// carries exactly the weights the accelerator would rebuild from
/// `{Ce, B}`.
///
/// # Errors
///
/// Propagates compression failures.
pub fn se_projection(model: &mut Sequential, input_shape: &[usize], cfg: &SeConfig) -> Result<()> {
    let descs = weighted_layer_descs(model, input_shape)?;
    for (i, desc) in descs {
        let w = model.layers()[i].weights().expect("desc built from weighted layer").clone();
        let parts = se_core::layer::compress_layer(&desc, &w, cfg)?;
        let recon = se_core::layer::reconstruct_layer(&desc, &parts)?;
        *model.layers_mut()[i].weights_mut().expect("weighted layer") = recon;
    }
    Ok(())
}

/// Compresses a trainable model's weights and reports the resulting
/// storage, without mutating the model.
///
/// # Errors
///
/// Propagates compression failures.
pub fn compress_trainable(
    model: &Sequential,
    input_shape: &[usize],
    cfg: &SeConfig,
) -> Result<se_core::network::CompressedNetwork> {
    let (layer_of, descs): (Vec<usize>, Vec<LayerDesc>) =
        weighted_layer_descs(model, input_shape)?.into_iter().unzip();
    Ok(se_core::network::compress_network(&descs, cfg, |j, _| {
        Ok(model.layers()[layer_of[j]].weights().expect("weighted layer"))
    })?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use se_core::VectorSparsity;
    use se_nn::layers::Layer;
    use se_nn::{data, train};

    /// A small VGG-style CNN for `32×32×3` inputs: three conv stages and
    /// a classifier head.
    fn vgg_small(classes: usize, seed: u64) -> Sequential {
        Sequential::new(vec![
            Layer::conv2d(3, 16, 3, 1, 1, seed).unwrap(),
            Layer::relu(),
            Layer::max_pool(2), // 16x16
            Layer::conv2d(16, 32, 3, 1, 1, seed + 1).unwrap(),
            Layer::relu(),
            Layer::max_pool(2), // 8x8
            Layer::conv2d(32, 64, 3, 1, 1, seed + 2).unwrap(),
            Layer::relu(),
            Layer::max_pool(2), // 4x4
            Layer::flatten(),
            Layer::linear(64 * 4 * 4, classes, seed + 3).unwrap(),
        ])
    }

    /// A compact CNN with 1×1 and strided 3×3 stages for `32×32×3` inputs.
    fn compact_small(classes: usize, seed: u64) -> Sequential {
        Sequential::new(vec![
            Layer::conv2d(3, 16, 3, 2, 1, seed).unwrap(), // 16x16
            Layer::relu(),
            Layer::conv2d(16, 32, 1, 1, 0, seed + 1).unwrap(),
            Layer::relu(),
            Layer::conv2d(32, 32, 3, 2, 1, seed + 2).unwrap(), // 8x8
            Layer::relu(),
            Layer::conv2d(32, 64, 1, 1, 0, seed + 3).unwrap(),
            Layer::relu(),
            Layer::global_avg_pool(),
            Layer::linear(64, classes, seed + 4).unwrap(),
        ])
    }

    #[test]
    fn weighted_descs_track_shapes() {
        let m = vgg_small(10, 1);
        let descs = weighted_layer_descs(&m, &[3, 32, 32]).unwrap();
        assert_eq!(descs.len(), 4);
        // Second conv sees the pooled 16x16 map.
        assert_eq!(descs[1].1.input_hw(), (16, 16));
        assert_eq!(descs[3].1.kind(), &LayerKind::Linear { in_features: 1024, out_features: 10 });
    }

    #[test]
    fn projection_preserves_function_approximately() {
        let ds = data::gaussian_clusters(3, &[3, 8, 8], 8, 0.2, 11).unwrap();
        let mut m = Sequential::new(vec![
            Layer::conv2d(3, 8, 3, 1, 1, 40).unwrap(),
            Layer::relu(),
            Layer::global_avg_pool(),
            Layer::linear(8, 3, 41).unwrap(),
        ]);
        let cfg = train::TrainConfig::default().with_epochs(10).with_lr(0.05);
        train::train(&mut m, &ds, &cfg).unwrap();
        let acc_before = train::evaluate(&m, &ds).unwrap();
        let se_cfg = SeConfig::default()
            .with_max_iterations(8)
            .unwrap()
            .with_vector_sparsity(VectorSparsity::Threshold(1e-3))
            .unwrap();
        se_projection(&mut m, &[3, 8, 8], &se_cfg).unwrap();
        let acc_after = train::evaluate(&m, &ds).unwrap();
        assert!(
            acc_after >= acc_before - 0.35,
            "projection destroyed the model: {acc_before} -> {acc_after}"
        );
    }

    #[test]
    fn retraining_recovers_projection_loss() {
        let ds = data::gaussian_clusters(2, &[3, 8, 8], 12, 0.25, 13).unwrap();
        let mut m = compact_small(2, 50);
        let cfg = train::TrainConfig::default().with_epochs(6).with_lr(0.04);
        train::train(&mut m, &ds, &cfg).unwrap();
        let se_cfg = SeConfig::default().with_max_iterations(5).unwrap();
        let report = train::retrain_with_projection(&mut m, &ds, &cfg, |model| {
            se_projection(model, &[3, 8, 8], &se_cfg)
                .map_err(|e| se_nn::NnError::InvalidLayer { reason: e.to_string() })
        })
        .unwrap();
        assert!(report.final_accuracy > 0.7, "accuracy {}", report.final_accuracy);
    }

    #[test]
    fn compress_trainable_reports_storage() {
        let m = vgg_small(10, 3);
        let cfg = SeConfig::default().with_max_iterations(4).unwrap();
        let net = compress_trainable(&m, &[3, 32, 32], &cfg).unwrap();
        assert_eq!(net.reports.len(), 4);
        assert!(net.compression_rate() > 4.0);
    }
}
