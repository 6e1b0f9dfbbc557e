//! SmartExchange beyond classification (Section V-A): compress the
//! DeepLabV3+ segmentation model and run its heaviest stages through the
//! accelerator — the workload the paper uses to show the technique is not
//! classification-specific.
//!
//! Run with: `cargo run --release --example segmentation`

use smartexchange::core::{network, SeConfig, VectorSparsity};
use smartexchange::hw::sim::SeAccelerator;
use smartexchange::hw::{Accelerator, EnergyModel, SeAcceleratorConfig};
use smartexchange::ir::storage;
use smartexchange::models::traces::{self, TraceOptions};
use smartexchange::models::{weights, zoo};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = zoo::deeplab_v3plus();
    println!(
        "{} on {}: {} layers, {:.1} M params, {:.1} GMACs at 360x480",
        net.name(),
        net.dataset(),
        net.layers().len(),
        net.total_params() as f64 / 1e6,
        net.total_macs() as f64 / 1e9
    );

    // Compress the ASPP head + decoder (the segmentation-specific part).
    let head: Vec<_> = net
        .layers()
        .iter()
        .filter(|l| l.name().starts_with("aspp") || l.name().starts_with("dec"))
        .cloned()
        .collect();
    println!("\ncompressing the {}-layer ASPP head + decoder...", head.len());
    let cfg = SeConfig::default()
        .with_max_iterations(6)?
        .with_vector_sparsity(VectorSparsity::RelativeThreshold(0.4))?;
    let reports = network::compress_network_reports(&head, &cfg, |d| {
        Ok(weights::synthetic_weights(net.name(), d, 0).expect("synthetic weights"))
    })?;
    let mut total = storage::SeStorage::default();
    let mut params = 0u64;
    for r in &reports {
        total.accumulate(&r.storage);
        params += r.params;
        println!(
            "  {:<14} {:>9} params  CR {:>5.1}x  row sparsity {:>5.1}%  err {:.3}",
            r.name,
            r.params,
            storage::compression_rate(r.params, &r.storage),
            r.vector_sparsity * 100.0,
            r.recon_error
        );
    }
    println!(
        "head total: CR {:.1}x ({:.2} MB -> {:.2} MB)",
        storage::compression_rate(params, &total),
        params as f64 * 4.0 / 1024.0 / 1024.0,
        total.total_megabytes()
    );

    // Simulate the first ASPP conv on the accelerator (dense 360x480-scale
    // feature maps are exactly the memory-bound case SE targets).
    let aspp_index =
        net.layers().iter().position(|l| l.name() == "aspp1").expect("DeepLabV3+ has aspp1");
    let opts = TraceOptions::fast();
    let trace = traces::trace_pair(&net, aspp_index, &opts)?.se;
    let hw = SeAcceleratorConfig { row_sample: 2, ..Default::default() };
    let accel = SeAccelerator::new(hw.clone())?;
    let result = accel.process_layer(&trace)?;
    let e = result.energy(&EnergyModel::default(), &hw);
    println!(
        "\naspp1 (3x3, 2048->256 at 23x30): {} cycles, {:.3} mJ \
         ({:.0}% of it DRAM)",
        result.total_cycles,
        e.total() * 1e-9,
        e.dram_total() / e.total() * 100.0
    );
    Ok(())
}
