//! `se batch` — the fixed batch-size sweep: how per-image DRAM traffic,
//! energy, and latency fall as the weight fetch (and, on SmartExchange,
//! the basis + coefficient rebuild) is amortized across a batch.
//!
//! The paper's accelerator evaluation is batch-size-1; this sweep
//! quantifies the serving-side win it leaves on the table. Each model is
//! simulated **once per image** (replaying `--traces-dir` artifacts when
//! present) and every batch size is derived from that single pass by
//! `se_serve`'s batch engine, so `--batch-sizes 1,4,16` costs one
//! simulation and batch = 1 reproduces the single-image protocol of
//! `se fig10`/`fig11`/`fig12` exactly.

use crate::args::Flags;
use crate::runner::{self, RunnerOptions};
use crate::{cli, table, Result};
use se_hw::{EnergyModel, RunResult, SeAcceleratorConfig};
use se_ir::NetworkDesc;
use se_models::traces::{PairStream, TracePair};
use se_serve::{BatchEngine, ACCEL_NAMES, SE_LANE};
use std::io::Write;

/// Default sweep when `--batch-sizes` is absent.
pub const DEFAULT_BATCH_SIZES: [usize; 5] = [1, 2, 4, 8, 16];

/// Runs the sweep on the paper's accelerator-benchmark model set.
///
/// # Errors
///
/// Propagates trace, simulation, and I/O failures.
pub fn run(flags: &Flags, out: &mut dyn Write) -> Result<()> {
    run_with_models(flags, &cli::selected_models(flags), out)
}

/// Every trace pair of one model at once, from the one trace source
/// ([`PairStream`]): replayed from a `--traces-dir` artifact when a
/// matching one exists, generated otherwise (bit-identical either way).
/// For callers that need the whole network in memory, such as the
/// `perfbench` layer harness.
///
/// # Errors
///
/// Propagates trace generation and artifact failures.
pub fn pairs_for(net: &NetworkDesc, flags: &Flags, opts: &RunnerOptions) -> Result<Vec<TracePair>> {
    let dir = flags.traces_dir.as_deref();
    Ok(PairStream::open(net, &opts.traces, dir, usize::MAX)?.next_chunk(usize::MAX)?)
}

/// [`run`] on an explicit model set (the testable core).
///
/// # Errors
///
/// Propagates trace, simulation, and I/O failures.
pub fn run_with_models(flags: &Flags, models: &[NetworkDesc], out: &mut dyn Write) -> Result<()> {
    let opts = flags.runner_options()?;
    let sizes: Vec<usize> =
        flags.batch_sizes.clone().unwrap_or_else(|| DEFAULT_BATCH_SIZES.to_vec());
    let em = EnergyModel::default();
    let ecfg = SeAcceleratorConfig::default();
    let engine = BatchEngine::new(opts.se_cfg.clone(), opts.baseline_cfg.clone())?;
    writeln!(out, "se batch: weight-fetch amortization across batch sizes\n")?;
    for net in models {
        se_core::se_info!("  batching {} x{:?}...", net.name(), sizes);
        let runs =
            runner::compare_queued(std::slice::from_ref(net), &opts, flags.traces_dir.as_deref())
                .map_err(|(_, e)| e)?
                .remove(0)
                .runs;
        let se = runs[SE_LANE].as_ref().expect("SmartExchange supports every layer");

        // Per-image SmartExchange cost vs batch size.
        let mut rows = Vec::new();
        for &n in &sizes {
            let b = engine.batched(SE_LANE, se, n);
            let m = b.mem_totals();
            let nf = n as f64;
            rows.push(vec![
                n.to_string(),
                format!("{:.1}", weight_dram_per_image(&b, n)),
                format!("{:.1}", m.dram_total_bytes() as f64 / nf),
                format!("{:.4}", b.energy_mj(&em, &ecfg) / nf),
                format!("{:.1}", b.total_cycles() as f64 / nf),
                format!("{:.1}", nf * ecfg.frequency_hz / b.total_cycles() as f64),
            ]);
        }
        writeln!(out, "{}: SmartExchange per-image cost vs batch size", net.name())?;
        writeln!(
            out,
            "{}",
            table::render(
                &["batch", "wgt DRAM B/img", "DRAM B/img", "mJ/img", "cycles/img", "img/s"],
                &rows,
            )
        )?;

        // Energy per image across all five accelerators: the dense designs
        // re-fetch far more weight bytes per image, so batching closes more
        // of their gap — the communication-for-computation trade viewed
        // from the serving side.
        let mut rows = Vec::new();
        for &n in &sizes {
            let mut row = vec![n.to_string()];
            for (lane, run) in runs.iter().enumerate() {
                row.push(match run {
                    Some(r) => {
                        format!(
                            "{:.4}",
                            engine.batched(lane, r, n).energy_mj(&em, &ecfg) / n as f64
                        )
                    }
                    None => "n/a".to_string(),
                });
            }
            rows.push(row);
        }
        let headers: Vec<&str> = std::iter::once("batch").chain(ACCEL_NAMES).collect();
        writeln!(out, "{}: energy per image (mJ) across accelerators", net.name())?;
        writeln!(out, "{}", table::render(&headers, &rows))?;
    }
    writeln!(
        out,
        "batch = 1 reproduces the single-image protocol exactly; weight DRAM/img\n\
         decays as 1/batch toward the activation-traffic floor."
    )?;
    Ok(())
}

/// Per-image weight-side DRAM bytes of one batched run (used by tests and
/// the serving report).
pub fn weight_dram_per_image(batched: &RunResult, batch: usize) -> f64 {
    let m = batched.mem_totals();
    (m.dram_weight_bytes + m.dram_index_bytes) as f64 / batch as f64
}
