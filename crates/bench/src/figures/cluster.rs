//! `se cluster` — sharded multi-instance serving with SLO-aware routing
//! and weight-residency-aware mixed-model placement.
//!
//! N accelerator instances (`--instances`) sit behind one open-loop
//! request stream that interleaves the selected models per request
//! (`--models a,b`), carries per-request deadlines (`--deadline-us`), and
//! is routed by `--router` (round-robin / join-shortest-queue /
//! model-affinity). With `--buffer-kb` each instance models a finite
//! weight buffer: a model switch re-fetches the whole weight footprint
//! (LRU eviction), while a resident model serves batch after batch
//! without touching weight DRAM. With `--tiers` the flat buffer becomes
//! a tiered store (weight buffer <-> DRAM <-> SSD): eviction demotes to
//! the next tier down instead of dropping, and a promotion charges the
//! serialized transfer through every tier it crosses — per-tier traffic
//! prints on its own gated lines. The same stream is replayed against all
//! five accelerator lanes, so the table reads as a head-to-head: the
//! SmartExchange lane's compressed footprint fits where the dense
//! footprints thrash, showing up as fewer weight fetches and higher
//! goodput at equal buffer size.
//!
//! Per-image simulation replays `--traces-dir` artifacts when present.
//! The five lanes then run as independent jobs on up to
//! `--sim-parallelism` workers (`SE_PARALLELISM` by default), each lane
//! a serial discrete-event loop with its own event sink; rows, churn and
//! tier lines and recorded streams are assembled in lane order, so the
//! whole report and both exports are **bit-identical for every worker
//! count** given the same flags (`docs/SERVING.md`).

use crate::args::Flags;
use crate::figures::latency;
use crate::obs_export::Recording;
use crate::{cli, runner, table, Result};
use se_hw::{RunResult, SeAcceleratorConfig};
use se_ir::NetworkDesc;
use se_obs::EventKind;
use se_serve::cluster::{ClusterReport, ClusterSpec, ModelService, RouterPolicy};
use se_serve::workload::{self, ArrivalPattern};
use se_serve::{BatchEngine, ACCEL_NAMES, SE_LANE};
use std::io::Write;

/// Runs the cluster simulation on the selected benchmark models.
///
/// # Errors
///
/// Propagates trace, simulation, policy, and I/O failures.
pub fn run(flags: &Flags, out: &mut dyn Write) -> Result<()> {
    run_with_models(flags, &cli::selected_models(flags), out)
}

/// [`run`] on an explicit model set (the testable core: bit-identity
/// across worker counts and the SE-vs-dense residency comparison are
/// asserted on small networks).
///
/// # Errors
///
/// Propagates trace, simulation, policy, and I/O failures.
pub fn run_with_models(flags: &Flags, models: &[NetworkDesc], out: &mut dyn Write) -> Result<()> {
    if models.is_empty() {
        return Err("se cluster needs at least one model (check --models)".into());
    }
    let opts = flags.runner_options()?;
    let freq = SeAcceleratorConfig::default().frequency_hz;
    let spec = ClusterSpec {
        instances: flags.instances.unwrap_or(4),
        router: flags.router_policy()?.unwrap_or(RouterPolicy::JoinShortestQueue),
        policy: flags.batch_policy(freq)?,
        buffer_bytes: flags.buffer_bytes(),
        tiers: flags.tier_specs()?,
        faults: flags.fault_plan(freq)?,
    };
    spec.faults.validate(spec.instances)?;
    let pattern = flags.arrival_pattern()?.ok_or(
        "se cluster is open-loop (expected --arrival uniform|burst); the closed loop is se serve's",
    )?;
    let requests = flags.requests.unwrap_or(256);
    let deadline = latency::deadline_cycles(flags.deadline_us, freq);
    let engine = BatchEngine::new(opts.se_cfg.clone(), opts.baseline_cfg.clone())?;

    // One per-image comparison pass over every model; every lane's
    // service profile and every batch size derive from it.
    se_core::se_info!("  clustering {} model(s)...", models.len());
    let per_model: Vec<[Option<RunResult>; 5]> =
        runner::compare_queued(models, &opts, flags.traces_dir.as_deref())
            .map_err(|(_, e)| e)?
            .into_iter()
            .map(|c| c.runs)
            .collect();

    writeln!(
        out,
        "se cluster: sharded serving across {} instance(s), router {}\n",
        spec.instances,
        spec.router.name()
    )?;
    writeln!(
        out,
        "policy: max batch {}, max wait {} cycles, queue cap {}/instance; {} requests, {}",
        spec.policy.max_batch,
        spec.policy.max_wait,
        spec.policy.queue_cap,
        requests,
        match pattern {
            ArrivalPattern::Uniform => "uniform arrivals".to_string(),
            ArrivalPattern::Burst { size } => format!("bursts of {size}"),
        }
    )?;
    writeln!(
        out,
        "slo: {}; weight buffer: {}",
        match deadline {
            Some(d) => format!("deadline {d} cycles/request (EDF batch formation)"),
            None => "best effort (no deadlines)".to_string(),
        },
        match (&spec.tiers, spec.buffer_bytes) {
            (Some(tiers), _) => {
                let stack: Vec<String> = tiers
                    .iter()
                    .map(|t| {
                        format!(
                            "{} {:.0} KB @ {} B/cyc",
                            t.name,
                            t.capacity_bytes as f64 / 1024.0,
                            t.bytes_per_cycle
                        )
                    })
                    .collect();
                format!("tiered store/instance ({})", stack.join(" <-> "))
            }
            (None, Some(b)) => format!("{:.0} KB/instance (LRU residency)", b as f64 / 1024.0),
            (None, None) => "unmodeled (weights streamed per batch)".to_string(),
        }
    )?;
    // Fault-free runs print nothing here: stdout stays byte-identical to
    // a build without failure injection.
    if !spec.faults.is_empty() {
        let scripted: Vec<String> = spec
            .faults
            .events
            .iter()
            .map(|e| {
                format!(
                    "{} inst {} @ {} cycles",
                    match e.action {
                        se_serve::FaultAction::Kill => "kill",
                        se_serve::FaultAction::Restart => "restart",
                    },
                    e.instance,
                    e.at
                )
            })
            .collect();
        writeln!(
            out,
            "faults: {}; autoscale: {}",
            if scripted.is_empty() { "none scripted".to_string() } else { scripted.join(", ") },
            match &spec.faults.autoscale {
                Some(p) => format!(
                    "spawn above {} waiting/instance, drain below {}",
                    p.spawn_above, p.drain_below
                ),
                None => "off".to_string(),
            }
        )?;
    }
    writeln!(out)?;

    // Per-model weight footprints: what a switch re-fetches on each lane —
    // the quantity the buffer size is chosen against.
    let mut rows = Vec::new();
    for (net, runs) in models.iter().zip(&per_model) {
        let mut row = vec![net.name().to_string()];
        for run in runs {
            row.push(match run {
                Some(r) => format!("{:.1}", r.weight_footprint_bytes() as f64 / 1024.0),
                None => "n/a".to_string(),
            });
        }
        rows.push(row);
    }
    let headers: Vec<&str> = std::iter::once("model").chain(ACCEL_NAMES).collect();
    writeln!(out, "weight footprint per model (KB):")?;
    writeln!(out, "{}", table::render(&headers, &rows))?;

    // The shared request stream: models interleaved per request, rate
    // defaulted to 1.5x the cluster's aggregate SmartExchange service
    // rate (deterministic: derived from the mean batch-1 latency).
    let mean_se_exec1: f64 = per_model
        .iter()
        .map(|runs| {
            runs[SE_LANE].as_ref().expect("SmartExchange supports every layer").total_cycles()
                as f64
        })
        .sum::<f64>()
        / models.len() as f64;
    let rate = flags.rate.unwrap_or_else(|| 1.5 * spec.instances as f64 * freq / mean_se_exec1);
    let stream = workload::request_stream(requests, rate, freq, pattern, models.len(), deadline)?;

    // Replay the same stream against every lane that supports every
    // model, one job per lane on the simulation workers and one recorded
    // stream (trace pid) per lane. Each lane's loop is serial and the
    // results come back in lane order, so the virtual-time streams — and
    // so stdout and the exported bytes — are identical at any worker
    // count.
    let lanes: Vec<usize> = (0..ACCEL_NAMES.len())
        .filter(|&lane| per_model.iter().all(|runs| runs[lane].is_some()))
        .collect();
    let labels: Vec<&str> = lanes.iter().map(|&lane| ACCEL_NAMES[lane]).collect();
    let mut recording = Recording::new(flags);
    let mut outputs = recording
        .run_ordered(&labels, opts.sim_parallelism, |i, sink| {
            let lane = lanes[i];
            let services: Vec<ModelService> = models
                .iter()
                .zip(&per_model)
                .map(|(net, runs)| {
                    let run = runs[lane].as_ref().expect("the lane supports every model");
                    ModelService::from_engine(&engine, lane, net.name(), run, spec.policy.max_batch)
                })
                .collect();
            let report =
                se_serve::cluster::simulate_cluster_run_obs(&stream, &services, &spec, sink)?
                    .report;
            Ok(lane_output(
                ACCEL_NAMES[lane],
                &report,
                &spec,
                deadline.is_some(),
                freq,
                stream.len(),
            ))
        })?
        .into_iter();
    let mut rows = Vec::new();
    let mut churn_lines: Vec<String> = Vec::new();
    let mut tier_lines: Vec<String> = Vec::new();
    for (lane, lane_name) in ACCEL_NAMES.iter().enumerate() {
        if !lanes.contains(&lane) {
            rows.push(
                std::iter::once((*lane_name).to_string())
                    .chain(std::iter::repeat_n("n/a".to_string(), 13))
                    .collect(),
            );
            continue;
        }
        let output = outputs.next().expect("one output per supported lane");
        rows.push(output.row);
        tier_lines.extend(output.tier_lines);
        churn_lines.extend(output.churn_lines);
    }
    writeln!(out, "cluster serving, all lanes on the same request stream:")?;
    writeln!(
        out,
        "{}",
        table::render(
            &[
                "lane",
                "completed",
                "rejected",
                "missed",
                "miss %",
                "goodput img/s",
                "p50 ms",
                "p95 ms",
                "p99 ms",
                "wgt fetches",
                "fetch MB",
                "evictions",
                "rerouted",
                "lost",
            ],
            &rows,
        )
    )?;
    if !tier_lines.is_empty() {
        writeln!(out, "per-tier traffic per lane (top tier first, summed over instances):")?;
        for line in &tier_lines {
            writeln!(out, "{line}")?;
        }
        writeln!(out)?;
    }
    if !churn_lines.is_empty() {
        writeln!(out, "fault timeline and conservation accounting per lane:")?;
        for line in &churn_lines {
            writeln!(out, "{line}")?;
        }
        writeln!(out)?;
    }
    writeln!(
        out,
        "determinism: output is bit-identical for any worker count\n\
         (SE_PARALLELISM / --sim-parallelism) given the same flags."
    )?;
    recording.write()
}

/// One lane's share of the report: its table row and its gated tier and
/// churn lines.
struct LaneOutput {
    row: Vec<String>,
    tier_lines: Vec<String>,
    churn_lines: Vec<String>,
}

/// Renders one lane's run; `submitted` is the stream length the churn
/// accounting line checks conservation against.
fn lane_output(
    lane_name: &str,
    report: &ClusterReport,
    spec: &ClusterSpec,
    deadlines: bool,
    freq: f64,
    submitted: usize,
) -> LaneOutput {
    let (missed, miss_pct) =
        latency::miss_cells(deadlines.then_some(report.misses), report.completed());
    let [p50, p95, p99] = latency::percentile_cells(&report.latencies, freq);
    let row = vec![
        lane_name.to_string(),
        report.completed().to_string(),
        report.rejected.to_string(),
        missed,
        miss_pct,
        format!("{:.1}", report.goodput_per_s(freq)),
        p50,
        p95,
        p99,
        report.residency.fetches.to_string(),
        format!("{:.2}", report.residency.bytes_fetched as f64 / (1024.0 * 1024.0)),
        report.residency.evictions.to_string(),
        report.rerouted.to_string(),
        report.lost.to_string(),
    ];
    // Tier-free runs print nothing here: stdout stays byte-identical to a
    // build without the tiered store. The lane table's columns never
    // change (CI's awk scripts index them by position) — tier traffic
    // goes on its own gated lines.
    let mut tier_lines = Vec::new();
    if let Some(tiers) = &spec.tiers {
        for (t, stats) in tiers.iter().zip(&report.tier_traffic) {
            tier_lines.push(format!(
                "  {}: tier {}: hits {}, promotions {}, demotions {}, evictions {}, \
                 up {:.2} MB, down {:.2} MB",
                lane_name,
                t.name,
                stats.hits,
                stats.promotions,
                stats.demotions,
                stats.evictions,
                stats.bytes_up as f64 / (1024.0 * 1024.0),
                stats.bytes_down as f64 / (1024.0 * 1024.0),
            ));
        }
    }
    let mut churn_lines = Vec::new();
    if !spec.faults.is_empty() {
        for e in &report.events {
            let (word, instance, detail) = match e.kind {
                EventKind::InstanceKilled { instance, in_flight, rerouted, lost } => (
                    "kill",
                    instance,
                    format!(" (in-flight {in_flight}, rerouted {rerouted}, lost {lost})"),
                ),
                EventKind::InstanceRestarted { instance } => ("restart", instance, String::new()),
                EventKind::InstanceSpawned { instance } => ("spawn", instance, String::new()),
                EventKind::InstanceDraining { instance } => ("drain", instance, String::new()),
                _ => continue,
            };
            churn_lines
                .push(format!("  {lane_name}: {word} inst {instance} @ {} cycles{detail}", e.at));
        }
        churn_lines.push(format!(
            "  {}: accounting: {} completed + {} rejected + {} lost == {} submitted ({})",
            lane_name,
            report.completed(),
            report.rejected,
            report.lost,
            submitted,
            if report.conserves(submitted) { "ok" } else { "VIOLATED" }
        ));
    }
    LaneOutput { row, tier_lines, churn_lines }
}
