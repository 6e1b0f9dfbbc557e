//! Fig. 15: energy and latency of MobileNetV2 depth-wise CONV layers with
//! and without the dedicated compact-model design (Section IV-B).
//!
//! Paper: the dedicated dataflow cuts layer energy by 6.4–28.8% and layer
//! latency by 38.3–65.7% on the selected depth-wise layers.

use crate::args::Flags;
use crate::{table, Result};
use se_hw::sim::SeAccelerator;
use se_hw::{Accelerator, EnergyModel, SeAcceleratorConfig};
use se_ir::LayerKind;
use se_models::traces::{self, TraceOptions};
use se_models::zoo;
use std::io::Write;

/// Runs the dedicated-design comparison.
///
/// # Errors
///
/// Propagates trace, simulation, and I/O failures.
pub fn run(flags: &Flags, out: &mut dyn Write) -> Result<()> {
    let net = zoo::mobilenet_v2();
    let em = EnergyModel::default();
    let with_cfg = SeAcceleratorConfig::default();
    let without_cfg = SeAcceleratorConfig { compact_dedicated: false, ..Default::default() };
    let with_accel = SeAccelerator::new(with_cfg.clone())?;
    let without_accel = SeAccelerator::new(without_cfg)?;

    // Four depth-wise layers across the depth of the network (the paper
    // picks layers 5, 20, 23, 38 of its numbering; we take the 2nd, 8th,
    // 10th and 16th depth-wise layers, spanning early to late stages).
    let dw_indices: Vec<usize> = net
        .layers()
        .iter()
        .enumerate()
        .filter(|(_, l)| matches!(l.kind(), LayerKind::DepthwiseConv2d { .. }))
        .map(|(i, _)| i)
        .collect();
    let picks = [1usize, 7, 9, 15];

    writeln!(out, "Fig. 15: MobileNetV2 depth-wise layers, dedicated design on/off\n")?;
    let opts = TraceOptions::fast().with_seed(flags.seed);
    // The four picked layers come from the artifact when `--traces-dir`
    // holds one (decoded once; it covers every depth-wise layer), else
    // each is generated alone: the same bits either way.
    let cached = match flags.traces_dir.as_deref() {
        Some(dir) => traces::cached_trace_pairs(&net, &opts, dir)?,
        None => None,
    };
    let mut rows = Vec::new();
    for &p in &picks {
        let li = dw_indices[p.min(dw_indices.len() - 1)];
        let pair = match cached.as_ref().and_then(|c| c.iter().find(|p| p.layer_index == li)) {
            Some(pair) => pair.clone(),
            None => traces::trace_pair(&net, li, &opts)?,
        };
        let with = with_accel.process_layer(&pair.se)?;
        let without = without_accel.process_layer(&pair.se)?;
        let e_with = with.energy(&em, &with_cfg).total();
        let e_without = without.energy(&em, &with_cfg).total();
        rows.push(vec![
            net.layers()[li].name().to_string(),
            format!("{}", with.total_cycles),
            format!("{}", without.total_cycles),
            format!(
                "{:.1}%",
                (1.0 - with.total_cycles as f64 / without.total_cycles as f64) * 100.0
            ),
            format!("{:.1}%", (1.0 - e_with / e_without) * 100.0),
        ]);
    }
    writeln!(
        out,
        "{}",
        table::render(
            &["layer", "cycles (dedicated)", "cycles (w/o)", "latency saved", "energy saved"],
            &rows,
        )
    )?;
    writeln!(out, "paper: latency saved 38.3-65.7%, energy saved 6.4-28.8%.")?;
    Ok(())
}
