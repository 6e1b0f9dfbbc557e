//! Quickstart: decompose a CONV layer into the SmartExchange form
//! `W ≈ Ce · B`, inspect the storage savings, and rebuild the weights.
//!
//! Run with: `cargo run --release --example quickstart`

use smartexchange::core::{algorithm, layer, SeConfig, VectorSparsity};
use smartexchange::ir::{storage, LayerDesc, LayerKind};
use smartexchange::tensor::rng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 64-filter 3x3 CONV layer with synthetic (Kaiming) weights.
    let desc = LayerDesc::new(
        "conv",
        LayerKind::Conv2d { in_channels: 32, out_channels: 64, kernel: 3, stride: 1, padding: 1 },
        (16, 16),
    );
    let mut r = rng::seeded(42);
    let w = rng::kaiming_tensor(&mut r, &[64, 32, 3, 3], 32 * 9);

    // Decompose with the paper's defaults: 4-bit power-of-2 coefficients,
    // and a vector-sparsity policy keeping the strongest 50% of rows.
    let cfg = SeConfig::default().with_vector_sparsity(VectorSparsity::KeepFraction(0.5))?;
    let parts = layer::compress_layer(&desc, &w, &cfg)?;
    let se = &parts[0];

    let s = storage::se_layer_storage(se);
    println!("original weights : {} params ({} bytes FP32)", desc.params(), desc.params() * 4);
    println!(
        "SmartExchange    : Ce {} bits + B {} bits + index {} bits = {} bytes",
        s.ce_bits,
        s.basis_bits,
        s.index_bits,
        s.total_bits() / 8
    );
    println!(
        "compression rate : {:.1}x   vector sparsity: {:.1}%",
        storage::compression_rate(desc.params(), &s),
        se.vector_sparsity() * 100.0
    );

    // Every coefficient is exactly 0 or ±2^p:
    let all_po2 =
        se.slices().iter().all(|sl| sl.ce_values().data().iter().all(|&x| cfg.po2().contains(x)));
    println!("all coefficients power-of-2: {all_po2}");

    // Rebuild and measure fidelity.
    let rebuilt = layer::reconstruct_layer(&desc, &parts)?;
    let err = w.sub(&rebuilt)?.norm() / w.norm();
    println!("relative reconstruction error: {err:.3}");

    // The per-iteration evolution (Fig. 9 of the paper) for one filter.
    let unit = smartexchange::tensor::Mat::from_vec(w.data()[..96 * 3].to_vec(), 96, 3)?;
    let (_, trace) = algorithm::decompose_traced(&unit, &cfg)?;
    println!("\nevolution of the first filter's decomposition:");
    for rec in trace.records.iter().take(6) {
        println!(
            "  iter {:>2}: error {:.3}  Ce sparsity {:>5.1}%  |B-I| {:.3}",
            rec.iteration,
            rec.recon_error,
            rec.ce_sparsity * 100.0,
            rec.basis_identity_dist
        );
    }
    Ok(())
}
