//! Section V-B component ablation: the SmartExchange accelerator vs a
//! similar dense baseline accelerator (non-bit-serial, 16×8×8, same
//! resources) on ResNet50, and the contribution of each component.
//!
//! Paper: 3.65× better energy efficiency (DRAM savings split 23.99% from
//! compression, 12.48% from vector-wise sparsity, 36.14% from bit-level
//! sparsity) and 7.41× speedup assuming sufficient DRAM bandwidth.

use crate::args::Flags;
use crate::runner::{self, RunnerOptions};
use crate::{table, Result};
use se_hw::sim::SeAccelerator;
use se_hw::{Accelerator, EnergyModel, RunResult, SeAcceleratorConfig};
use se_ir::NetworkDesc;
use se_models::zoo;
use std::io::Write;
use std::path::Path;

/// The ablation ladder: dense baseline accel -> +compression ->
/// +vector-sparsity skipping -> +bit-serial lanes (full design). Each step
/// is its accelerator configuration (output rows sampled like
/// `row_sample`) and whether it consumes the compressed trace.
fn steps(row_sample: usize) -> [(&'static str, SeAcceleratorConfig, bool); 4] {
    let dense =
        SeAcceleratorConfig { row_sample, ..SeAcceleratorConfig::ablation_dense_baseline() };
    [
        ("baseline accel, dense weights", dense.clone(), false),
        ("+ SE compression (weights only)", dense.clone(), true),
        (
            "+ vector-wise sparsity (index select)",
            SeAcceleratorConfig { index_select: true, ..dense },
            true,
        ),
        (
            "+ bit-level sparsity (full SmartExchange)",
            SeAcceleratorConfig { row_sample, ..Default::default() },
            true,
        ),
    ]
}

/// Runs `net` through every step of the ladder as the four lanes of the
/// runner's one simulation queue, so the decomposition is generated (or
/// replayed) once for all four.
fn ladder(
    net: &NetworkDesc,
    opts: &RunnerOptions,
    traces_dir: Option<&Path>,
) -> Result<[RunResult; 4]> {
    let steps = steps(opts.se_cfg.row_sample);
    let accels = steps
        .iter()
        .map(|(_, cfg, _)| SeAccelerator::new(cfg.clone()))
        .collect::<se_hw::Result<Vec<_>>>()?;
    let runs = runner::run_queued(std::slice::from_ref(net), opts, traces_dir, |pair, step| {
        let trace = if steps[step].2 { &pair.se } else { &pair.dense };
        accels[step].process_layer(trace).map(Some)
    })
    .map_err(|(_, e)| e)?
    .remove(0);
    Ok(runs.map(|run| run.expect("every step runs every layer")))
}

/// Runs the component-ablation ladder.
///
/// # Errors
///
/// Propagates trace, simulation, and I/O failures.
pub fn run(flags: &Flags, out: &mut dyn Write) -> Result<()> {
    let opts = flags.runner_options()?;
    let em = EnergyModel::default();
    let report_cfg = SeAcceleratorConfig::default();
    let runs = ladder(&zoo::resnet50(), &opts, flags.traces_dir.as_deref())?;

    writeln!(out, "Section V-B component ablation on ResNet50\n")?;
    let mut rows = Vec::new();
    let mut base: Option<(f64, u64, u64)> = None;
    let mut prev_dram: Option<u64> = None;
    let mut base_dram_total = 0u64;
    for ((name, _, _), r) in steps(opts.se_cfg.row_sample).into_iter().zip(runs) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use se_ir::{Dataset, LayerDesc, LayerKind};
    use se_models::traces;

    fn net() -> NetworkDesc {
        let conv = |name: &str, ci: usize, co: usize| {
            LayerDesc::new(
                name,
                LayerKind::Conv2d {
                    in_channels: ci,
                    out_channels: co,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                },
                (8, 8),
            )
        };
        let layers = vec![
            conv("c1", 3, 8),
            conv("c2", 8, 8),
            LayerDesc::new("se1", LayerKind::SqueezeExcite { channels: 8, reduced: 2 }, (8, 8)),
            conv("c3", 8, 8),
            conv("c4", 8, 4),
        ];
        NetworkDesc::new("ladder", Dataset::Cifar10, layers).unwrap()
    }

    #[test]
    fn the_ladder_on_the_queue_matches_a_serial_loop_at_every_worker_count() {
        let net = net();
        let dir = std::env::temp_dir().join(format!("se-ablation-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = RunnerOptions::fast().with_parallelism(1).unwrap();
        // The reference: each step's accelerator over every pair in turn.
        let pairs = traces::trace_pairs(&net, &opts.traces).unwrap();
        let serial: Vec<RunResult> = steps(opts.se_cfg.row_sample)
            .iter()
            .map(|(_, cfg, use_se)| {
                let accel = SeAccelerator::new(cfg.clone()).unwrap();
                let layers = pairs.iter().map(|p| if *use_se { &p.se } else { &p.dense });
                RunResult { layers: layers.map(|t| accel.process_layer(t).unwrap()).collect() }
            })
            .collect();
        traces::build_trace_file(&net, &opts.traces, &dir).unwrap();
        for workers in [1usize, 2, 4] {
            let opts = RunnerOptions::fast().with_parallelism(workers).unwrap();
            for traces_dir in [None, Some(dir.as_path())] {
                let runs = ladder(&net, &opts, traces_dir).unwrap();
                assert_eq!(runs.as_slice(), serial, "workers {workers} {traces_dir:?}");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
