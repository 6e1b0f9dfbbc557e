//! Section V-B component ablation: the SmartExchange accelerator vs a
//! similar dense baseline accelerator (non-bit-serial, 16×8×8, same
//! resources) on ResNet50, and the contribution of each component.
//!
//! Paper: 3.65× better energy efficiency (DRAM savings split 23.99% from
//! compression, 12.48% from vector-wise sparsity, 36.14% from bit-level
//! sparsity) and 7.41× speedup assuming sufficient DRAM bandwidth.

use crate::args::Flags;
use crate::{table, Result};
use se_hw::sim::SeAccelerator;
use se_hw::{Accelerator, EnergyModel, RunResult, SeAcceleratorConfig};
use se_models::traces::{self, TraceOptions};
use se_models::zoo;
use std::io::Write;

/// Runs the component-ablation ladder.
///
/// # Errors
///
/// Propagates trace, simulation, and I/O failures.
pub fn run(flags: &Flags, out: &mut dyn Write) -> Result<()> {
    let net = zoo::resnet50();
    let opts = TraceOptions::fast().with_seed(flags.seed);
    let em = EnergyModel::default();
    let report_cfg = SeAcceleratorConfig::default();

    let mut sample = SeAcceleratorConfig::default();
    if flags.fast {
        sample.row_sample = 4;
    }

    // The ablation ladder: dense baseline accel -> +compression ->
    // +vector-sparsity skipping -> +bit-serial lanes (full design).
    let steps: Vec<(&str, SeAcceleratorConfig, bool)> = vec![
        (
            "baseline accel, dense weights",
            {
                let mut c = SeAcceleratorConfig::ablation_dense_baseline();
                c.row_sample = sample.row_sample;
                c
            },
            false,
        ),
        (
            "+ SE compression (weights only)",
            {
                let mut c = SeAcceleratorConfig::ablation_dense_baseline();
                c.row_sample = sample.row_sample;
                c
            },
            true,
        ),
        (
            "+ vector-wise sparsity (index select)",
            {
                let mut c = SeAcceleratorConfig::ablation_dense_baseline();
                c.index_select = true;
                c.row_sample = sample.row_sample;
                c
            },
            true,
        ),
        (
            "+ bit-level sparsity (full SmartExchange)",
            SeAcceleratorConfig { row_sample: sample.row_sample, ..Default::default() },
            true,
        ),
    ];

    // One pass over the trace source runs every step on each chunk, so
    // the decomposition is generated (or replayed) once for all four. The
    // steps simulate serially, so a chunk only needs one layer per
    // generation worker, up to four: that bounds the pairs alive at once.
    let accels = steps
        .iter()
        .map(|(_, cfg, _)| SeAccelerator::new(cfg.clone()))
        .collect::<se_hw::Result<Vec<_>>>()?;
    let mut runs = vec![RunResult::default(); steps.len()];
    let chunk = opts.se_config.parallelism().min(4);
    traces::for_each_chunk(&net, &opts, flags.traces_dir.as_deref(), chunk, |pairs| {
        for ((accel, (_, _, use_se)), run) in accels.iter().zip(&steps).zip(&mut runs) {
            for pair in &pairs {
                let trace = if *use_se { &pair.se } else { &pair.dense };
                run.layers.push(accel.process_layer(trace)?);
            }
        }
        Result::Ok(())
    })?;

    writeln!(out, "Section V-B component ablation on ResNet50\n")?;
    let mut rows = Vec::new();
    let mut base: Option<(f64, u64, u64)> = None;
    let mut prev_dram: Option<u64> = None;
    let mut base_dram_total = 0u64;
    for ((name, _, _), r) in steps.iter().zip(runs) {
        let energy = r.energy(&em, &report_cfg).total();
        let cycles = r.total_cycles();
        let dram = r.mem_totals().dram_total_bytes();
        let (e0, c0, d0) = *base.get_or_insert((energy, cycles, dram));
        if base_dram_total == 0 {
            base_dram_total = d0;
        }
        let dram_step_saving = prev_dram
            .map(|p| (p.saturating_sub(dram)) as f64 / base_dram_total as f64 * 100.0)
            .unwrap_or(0.0);
        prev_dram = Some(dram);
        rows.push(vec![
            name.to_string(),
            format!("{:.3}", energy * 1e-9),
            format!("{:.2}x", e0 / energy),
            format!("{:.2}x", c0 as f64 / cycles as f64),
            format!("{:.1}%", dram as f64 / d0 as f64 * 100.0),
            format!("{dram_step_saving:.1}%"),
        ]);
    }
    writeln!(
        out,
        "{}",
        table::render(
            &[
                "configuration",
                "energy (mJ)",
                "energy eff",
                "speedup",
                "DRAM vs baseline",
                "DRAM saved by step",
            ],
            &rows,
        )
    )?;
    writeln!(
        out,
        "paper: full design reaches 3.65x energy efficiency and 7.41x speedup over\n\
         the baseline accelerator; DRAM savings split 24.0% / 12.5% / 36.1% across\n\
         compression / vector-wise / bit-level steps."
    )?;
    Ok(())
}
