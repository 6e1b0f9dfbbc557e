//! Fig. 13: energy breakdown of the SmartExchange accelerator on seven
//! models — (a) CONV + squeeze-excite layers only, (b) all layers
//! (FC included).
//!
//! Paper's observations: DRAM access energy is dominated by input/output
//! activations for most models; weight DRAM energy still dominates for
//! very large models (VGG19/CIFAR-10, ResNet50/ImageNet); RE < 0.78% and
//! index selector < 0.05% of the total.

use crate::args::Flags;
use crate::{cli, runner, table, Result};
use se_hw::{EnergyModel, RunResult, SeAcceleratorConfig};
use std::io::Write;

fn run_model(net: &se_ir::NetworkDesc, include_fc: bool, flags: &Flags) -> Result<RunResult> {
    // `runner_options` already uses the fast trace profile with the
    // requested seed; `--fast` additionally samples output rows.
    let mut opts = flags.runner_options()?;
    if include_fc {
        opts.traces = opts.traces.with_fc_layers();
    }
    runner::run_se_model(net, &opts, flags.traces_dir.as_deref())
}

/// Runs both halves of the figure (`--traces-dir` artifacts for half (b)
/// must be built with `se trace build --with-fc`).
///
/// # Errors
///
/// Propagates sweep and I/O failures.
pub fn run(flags: &Flags, out: &mut dyn Write) -> Result<()> {
    let models = cli::selected_models(flags);
    let em = EnergyModel::default();
    let cfg = SeAcceleratorConfig::default();

    for (title, include_fc) in
        [("(a) CONV + squeeze-excite layers", false), ("(b) all layers (FC included)", true)]
    {
        writeln!(out, "Fig. 13 {title}: SmartExchange energy breakdown (% of total)\n")?;
        let mut rows = Vec::new();
        for net in &models {
            se_core::se_info!("  {} {title}...", net.name());
            let run = run_model(net, include_fc, flags)?;
            let e = run.energy(&em, &cfg);
            let total = e.total();
            let mut row = vec![net.name().to_string(), format!("{:.3}", total * 1e-9)];
            for (_, v) in e.components() {
                row.push(format!("{:.1}", v / total * 100.0));
            }
            rows.push(row);
        }
        let mut headers: Vec<&str> = vec!["model", "total mJ"];
        headers.extend([
            "DRAM in", "DRAM out", "DRAM wgt", "DRAM idx", "inGB rd", "inGB wr", "outGB rd",
            "outGB wr", "wGB rd", "wGB wr", "PE", "Accum", "RE", "IdxSel",
        ]);
        writeln!(out, "{}", table::render(&headers, &rows))?;
    }
    writeln!(
        out,
        "paper shape checks: activation DRAM dominates for most models;\n\
         weight DRAM dominates for the very large models; RE < ~1%,\n\
         index selector < ~0.1%."
    )?;
    Ok(())
}
