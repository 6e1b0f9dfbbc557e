//! Fig. 8: accuracy vs model size — SmartExchange against pruning-alone and
//! quantization-alone baselines.
//!
//! The paper compares against Network-Slimming/ThiNet (structured pruning)
//! and S8/FP8/WAGEUBN/DoReFa (quantization) on ImageNet/CIFAR-10; those
//! training runs are the gate (DESIGN.md), so every method here compresses
//! the *same* trained model on the same synthetic task, each with the same
//! number of recovery epochs — preserving the trade-off ordering the figure
//! demonstrates: SmartExchange reaches quantization-level model sizes at
//! pruning-level accuracies.

use crate::args::Flags;
use crate::{table, Result};
use se_core::{baselines, SeConfig, VectorSparsity};
use se_ir::Po2Set;
use se_models::trainable;
use se_nn::model::Sequential;
use se_nn::{data, train};
use std::io::Write;

/// The shape of one input image of the synthetic task.
const INPUT_SHAPE: [usize; 3] = [1, 28, 28];

/// The untrained base model every method compresses.
fn base_model(seed: u64) -> Result<Sequential> {
    Ok(Sequential::new(vec![
        se_nn::layers::Layer::conv2d(1, 6, 3, 2, 1, 1000 + seed)?,
        se_nn::layers::Layer::relu(),
        se_nn::layers::Layer::max_pool(2),
        se_nn::layers::Layer::flatten(),
        se_nn::layers::Layer::linear(6 * 7 * 7, 10, 1001 + seed)?,
    ]))
}

/// Bits of a model's weight tensors at `bits_per_weight`, plus
/// `bits_per_nonzero` for each non-zero weight.
fn weight_bits(model: &Sequential, bits_per_weight: u64, bits_per_nonzero: u64) -> u64 {
    model
        .weight_tensors()
        .map(|t| {
            let nnz = t.data().iter().filter(|&&x| x != 0.0).count() as u64;
            t.len() as u64 * bits_per_weight + nnz * bits_per_nonzero
        })
        .sum()
}

/// One compression method of the figure: how it projects a model's
/// weights, which also fixes how its storage is counted.
enum Method {
    /// Algorithm 1 on every weighted layer, stored as its compressed network.
    SmartExchange(SeConfig),
    /// Keep the largest-magnitude fraction of every tensor: FP32 survivors
    /// plus a 1-bit occupancy mask.
    MagnitudePrune(f32),
    /// Keep a fraction of each CONV layer's filters: FP32 survivors.
    ChannelPrune(f32),
    /// Uniform quantization of every weight to this many bits.
    Uniform(u32),
    /// Power-of-2 quantization to [`Po2Set::default`]'s codes.
    Po2,
}

impl Method {
    /// Projects every weighted layer of `model` onto the method's format.
    fn project(&self, model: &mut Sequential) -> Result<()> {
        if let Method::SmartExchange(cfg) = self {
            return Ok(trainable::se_projection(model, &INPUT_SHAPE, cfg)?);
        }
        for layer in model.layers_mut() {
            let is_conv = layer.conv_geom().is_some();
            let Some(w) = layer.weights_mut() else { continue };
            let projected = match self {
                Method::SmartExchange(_) => unreachable!("projected above"),
                Method::MagnitudePrune(keep) => baselines::magnitude_prune(w, *keep)?,
                Method::ChannelPrune(_) if !is_conv => continue,
                Method::ChannelPrune(keep) => baselines::channel_prune(w, *keep)?,
                Method::Uniform(bits) => baselines::uniform_quantize(w, *bits)?,
                Method::Po2 => baselines::po2_quantize(w, &Po2Set::default())?,
            };
            *w = projected.weights;
        }
        Ok(())
    }

    /// Storage bits of a model this method projected.
    fn storage_bits(&self, model: &Sequential) -> Result<u64> {
        Ok(match self {
            Method::SmartExchange(cfg) => trainable::compress_trainable(model, &INPUT_SHAPE, cfg)?
                .total_storage()
                .total_bits(),
            Method::MagnitudePrune(_) => weight_bits(model, 1, 32),
            Method::ChannelPrune(_) => weight_bits(model, 0, 32),
            Method::Uniform(bits) => weight_bits(model, u64::from(*bits), 0),
            Method::Po2 => weight_bits(model, u64::from(Po2Set::default().code_bits()), 0),
        })
    }
}

/// Runs the accuracy-vs-size comparison on the synthetic task.
///
/// # Errors
///
/// Propagates training, compression, and I/O failures.
pub fn run(flags: &Flags, out: &mut dyn Write) -> Result<()> {
    let ds = data::procedural_digits(if flags.fast { 8 } else { 16 }, 77 + flags.seed)?;
    let epochs = if flags.fast { 5 } else { 8 };

    se_core::se_info!("training the base model...");
    let mut base = base_model(flags.seed)?;
    let cfg =
        train::TrainConfig::default().with_epochs(2 * epochs).with_lr(0.05).with_batch_size(4);
    train::train(&mut base, &ds, &cfg)?;
    let base_acc = train::evaluate(&base, &ds)?;
    let base_mb = weight_bits(&base, 32, 0) as f64 / 8.0 / 1024.0 / 1024.0;

    let recover =
        train::TrainConfig::default().with_epochs(epochs).with_lr(0.02).with_batch_size(4);
    let mut rows = Vec::new();
    rows.push(vec![
        "FP32 baseline".into(),
        format!("{base_mb:.3}"),
        format!("{:.1}%", base_acc * 100.0),
    ]);

    let se_cfg = SeConfig::default()
        .with_max_iterations(5)?
        .with_vector_sparsity(VectorSparsity::RelativeThreshold(0.5))?;
    let aggressive = se_cfg.clone().with_vector_sparsity(VectorSparsity::KeepFraction(0.3))?;
    let methods = [
        ("SmartExchange", Method::SmartExchange(se_cfg)),
        ("SmartExchange (aggressive)", Method::SmartExchange(aggressive)),
        ("magnitude prune 30% (Han-style)", Method::MagnitudePrune(0.30)),
        ("channel prune 50% (ThiNet-style)", Method::ChannelPrune(0.5)),
        ("uniform 8-bit (S8-style)", Method::Uniform(8)),
        ("uniform 2-bit (DoReFa-style)", Method::Uniform(2)),
        ("power-of-2 4-bit ([40]-style)", Method::Po2),
    ];

    for (name, method) in methods {
        se_core::se_info!("  {name}...");
        let mut model = base.clone();
        let report = train::retrain_with_projection(&mut model, &ds, &recover, |m| {
            method.project(m).map_err(|e| se_nn::NnError::InvalidLayer { reason: e.to_string() })
        })?;
        let bits = method.storage_bits(&model)?;
        rows.push(vec![
            name.to_string(),
            format!("{:.3}", bits as f64 / 8.0 / 1024.0 / 1024.0),
            format!("{:.1}%", report.final_accuracy * 100.0),
        ]);
    }
    writeln!(out, "Fig. 8 (synthetic task): accuracy vs model size\n")?;
    writeln!(out, "{}", table::render(&["method", "size (MB)", "accuracy"], &rows))?;
    writeln!(
        out,
        "paper shape: SmartExchange matches the pruning methods' accuracy at\n\
         the quantization methods' model size (e.g. +2.66% accuracy over\n\
         DoReFa at comparable size on ResNet50/ImageNet)."
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each method's size column follows its storage format, and
    /// SmartExchange stores the model below 8-bit quantization (the
    /// figure's point).
    #[test]
    fn storage_follows_each_methods_format() {
        let base = base_model(0).unwrap();
        let weights: u64 = base.weight_tensors().map(|t| t.len() as u64).sum();
        let bits = |method: &Method| {
            let mut model = base.clone();
            method.project(&mut model).unwrap();
            method.storage_bits(&model).unwrap()
        };
        assert_eq!(bits(&Method::Uniform(8)), 8 * weights);
        assert_eq!(bits(&Method::Uniform(2)), 2 * weights);
        assert_eq!(bits(&Method::Po2), 4 * weights);
        // 30% of the weights kept at 32 bits, plus the 1-bit mask.
        let pruned = bits(&Method::MagnitudePrune(0.3));
        assert!(pruned.abs_diff(weights + 32 * weights * 3 / 10) <= 32 * 2, "{pruned}");
        // Channel pruning halves the CONV filters; the FC layer stays dense.
        let conv = 6 * 9;
        assert_eq!(bits(&Method::ChannelPrune(0.5)), 32 * (weights - conv / 2));
        let se = SeConfig::default().with_max_iterations(5).unwrap();
        assert!(bits(&Method::SmartExchange(se)) < 8 * weights);
    }
}
