//! Run a benchmark network through the SmartExchange accelerator and the
//! DianNao baseline on identical data, comparing energy and latency — a
//! single-model slice of the paper's Figs. 10–12.
//!
//! Run with: `cargo run --release --example accelerate`

use smartexchange::baselines::{BaselineConfig, DianNao};
use smartexchange::hw::sim::SeAccelerator;
use smartexchange::hw::{Accelerator, EnergyModel, RunResult, SeAcceleratorConfig};
use smartexchange::models::traces::{PairStream, TraceOptions};
use smartexchange::models::zoo;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let net = zoo::resnet164();
    println!(
        "{} on {}: {:.2} M params, {:.2} GMACs",
        net.name(),
        net.dataset(),
        net.total_params() as f64 / 1e6,
        net.total_macs() as f64 / 1e9
    );

    let se_cfg = SeAcceleratorConfig::default();
    let se = SeAccelerator::new(se_cfg.clone())?;
    let diannao = DianNao::new(BaselineConfig::default())?;
    let em = EnergyModel::default();

    println!("generating traces and simulating (a minute or two)...");
    let mut se_run = RunResult::default();
    let mut dn_run = RunResult::default();
    // One pair at a time from the network's pair stream, generated four
    // layers at a time: only one chunk of traces is alive at once.
    let opts = TraceOptions::fast();
    let mut pairs = PairStream::open(&net, &opts, None, 4)?;
    while let Some(pair) = pairs.next_pair()? {
        se_run.layers.push(se.process_layer(&pair.se)?);
        dn_run.layers.push(diannao.process_layer(&pair.dense)?);
    }

    let se_energy = se_run.energy_mj(&em, &se_cfg);
    let dn_energy = dn_run.energy_mj(&em, &se_cfg);
    let se_ms = se_run.latency_ms(&se_cfg);
    let dn_ms = dn_run.latency_ms(&se_cfg);
    println!("\n                 SmartExchange      DianNao");
    println!("energy (mJ)    {se_energy:>12.3}  {dn_energy:>12.3}");
    println!("latency (ms)   {se_ms:>12.3}  {dn_ms:>12.3}");
    println!(
        "DRAM (MB)      {:>12.2}  {:>12.2}",
        se_run.mem_totals().dram_total_bytes() as f64 / 1e6,
        dn_run.mem_totals().dram_total_bytes() as f64 / 1e6
    );
    println!(
        "\nSmartExchange: {:.2}x energy efficiency, {:.2}x speedup over DianNao",
        dn_energy / se_energy,
        dn_ms / se_ms
    );
    Ok(())
}
