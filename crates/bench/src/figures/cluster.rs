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
//! Per-image simulation replays `--traces-dir` artifacts when present;
//! the cluster itself is a serial discrete-event loop, so the whole
//! report is **bit-identical for every worker count** given the same
//! flags (`docs/SERVING.md`).

use crate::args::Flags;
use crate::figures::latency;
use crate::{cli, runner, table, Result};
use se_hw::{RunResult, SeAcceleratorConfig};
use se_ir::NetworkDesc;
use se_serve::cluster::{ClusterSpec, ModelService, RouterPolicy};
use se_serve::queue::BatchPolicy;
use se_serve::workload::{self, ArrivalPattern};
use se_serve::{BatchEngine, ACCEL_NAMES, SE_LANE};
use std::io::Write;

/// The cluster scenario derived from the flags.
#[derive(Debug, Clone, PartialEq)]
struct Scenario {
    spec: ClusterSpec,
    requests: usize,
    pattern: ArrivalPattern,
    rate_hz: Option<f64>,
    deadline: Option<u64>,
}

fn scenario(flags: &Flags, frequency_hz: f64) -> Result<Scenario> {
    let max_batch = flags.max_batch.unwrap_or(8);
    let max_wait_us = flags.max_wait_us.unwrap_or(50.0);
    let policy = BatchPolicy {
        max_batch,
        max_wait: (max_wait_us * 1e-6 * frequency_hz).round() as u64,
        queue_cap: flags.queue_cap.unwrap_or(256),
    };
    let router = match flags.router.as_deref() {
        None => RouterPolicy::JoinShortestQueue,
        Some(name) => RouterPolicy::parse(name)
            .ok_or_else(|| format!("unknown router `{name}` (expected rr|jsq|affinity)"))?,
    };
    let pattern = match flags.arrival.as_deref().unwrap_or("uniform") {
        "uniform" => ArrivalPattern::Uniform,
        "burst" => ArrivalPattern::Burst { size: flags.burst.unwrap_or(max_batch) },
        other => {
            return Err(format!(
                "unknown arrival pattern `{other}` for se cluster (expected uniform|burst)"
            )
            .into())
        }
    };
    if flags.concurrency.is_some() {
        return Err("--concurrency is a closed-loop `se serve` flag; se cluster \
                    is open-loop (--rate sets the pressure, --instances the \
                    parallel capacity)"
            .into());
    }
    let spec = ClusterSpec {
        instances: flags.instances.unwrap_or(4),
        router,
        policy,
        buffer_bytes: flags.buffer_kb.map(|kb| (kb * 1024.0).round() as u64),
        tiers: flags.tier_specs()?,
        faults: flags.fault_plan(frequency_hz)?,
    };
    spec.faults.validate(spec.instances)?;
    Ok(Scenario {
        spec,
        requests: flags.requests.unwrap_or(256),
        pattern,
        rate_hz: flags.rate,
        deadline: latency::deadline_cycles(flags.deadline_us, frequency_hz),
    })
}

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
    let sc = scenario(flags, freq)?;
    let engine = BatchEngine::new(opts.se_cfg.clone(), opts.baseline_cfg.clone())?;

    // One per-image comparison pass per model; every lane's service
    // profile and every batch size derive from it.
    let mut per_model: Vec<[Option<RunResult>; 5]> = Vec::with_capacity(models.len());
    for net in models {
        se_core::se_info!("  clustering {}...", net.name());
        per_model.push(runner::compare_model(net, &opts, flags.traces_dir.as_deref())?.runs);
    }

    writeln!(
        out,
        "se cluster: sharded serving across {} instance(s), router {}\n",
        sc.spec.instances,
        sc.spec.router.name()
    )?;
    writeln!(
        out,
        "policy: max batch {}, max wait {} cycles, queue cap {}/instance; {} requests, {}",
        sc.spec.policy.max_batch,
        sc.spec.policy.max_wait,
        sc.spec.policy.queue_cap,
        sc.requests,
        match sc.pattern {
            ArrivalPattern::Uniform => "uniform arrivals".to_string(),
            ArrivalPattern::Burst { size } => format!("bursts of {size}"),
        }
    )?;
    writeln!(
        out,
        "slo: {}; weight buffer: {}",
        match sc.deadline {
            Some(d) => format!("deadline {d} cycles/request (EDF batch formation)"),
            None => "best effort (no deadlines)".to_string(),
        },
        match (&sc.spec.tiers, sc.spec.buffer_bytes) {
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
    if !sc.spec.faults.is_empty() {
        let scripted: Vec<String> = sc
            .spec
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
            match &sc.spec.faults.autoscale {
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
    let rate = sc.rate_hz.unwrap_or_else(|| 1.5 * sc.spec.instances as f64 * freq / mean_se_exec1);
    let stream =
        workload::request_stream(sc.requests, rate, freq, sc.pattern, models.len(), sc.deadline)?;

    // Replay the same stream against every lane. With `--trace-out` /
    // `--metrics-out`, each lane's run additionally narrates its
    // scheduling decisions into a recorder (one trace pid per lane); the
    // virtual-time stream — and so the exported bytes — is identical at
    // any worker count. Untraced runs pass a disabled sink, which builds
    // no events.
    let observing = flags.trace_out.is_some() || flags.metrics_out.is_some();
    let mut obs_streams: Vec<(String, Vec<se_obs::Event>)> = Vec::new();
    let mut rows = Vec::new();
    let mut churn_lines: Vec<String> = Vec::new();
    let mut tier_lines: Vec<String> = Vec::new();
    for (lane, lane_name) in ACCEL_NAMES.iter().enumerate() {
        let services: Option<Vec<ModelService>> = models
            .iter()
            .zip(&per_model)
            .map(|(net, runs)| {
                runs[lane].as_ref().map(|r| {
                    ModelService::from_engine(
                        &engine,
                        lane,
                        net.name(),
                        r,
                        sc.spec.policy.max_batch,
                    )
                })
            })
            .collect();
        let Some(services) = services else {
            rows.push(
                std::iter::once((*lane_name).to_string())
                    .chain(std::iter::repeat_n("n/a".to_string(), 13))
                    .collect(),
            );
            continue;
        };
        let mut recorder = se_obs::Recorder::new();
        let sink: &mut dyn se_obs::EventSink =
            if observing { &mut recorder } else { &mut se_obs::NullSink };
        let report =
            se_serve::cluster::simulate_cluster_run_obs(&stream, &services, &sc.spec, sink)?.report;
        if observing {
            obs_streams.push(((*lane_name).to_string(), recorder.into_events()));
        }
        let (missed, miss_pct) =
            latency::miss_cells(sc.deadline.map(|_| report.misses), report.completed());
        let [p50, p95, p99] = latency::percentile_cells(&report.latencies, freq);
        rows.push(vec![
            (*lane_name).to_string(),
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
        ]);
        // Tier-free runs print nothing here: stdout stays byte-identical
        // to a build without the tiered store. The lane table's columns
        // never change (CI's awk scripts index them by position) — tier
        // traffic goes on its own gated lines.
        if let Some(tiers) = &sc.spec.tiers {
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
        if !sc.spec.faults.is_empty() {
            for e in &report.events {
                churn_lines.push(format!(
                    "  {}: {} inst {} @ {} cycles{}",
                    lane_name,
                    e.kind.tag(),
                    e.instance,
                    e.at,
                    match e.kind {
                        se_serve::ClusterEventKind::Kill { in_flight, rerouted, lost } =>
                            format!(" (in-flight {in_flight}, rerouted {rerouted}, lost {lost})"),
                        _ => String::new(),
                    }
                ));
            }
            churn_lines.push(format!(
                "  {}: accounting: {} completed + {} rejected + {} lost == {} submitted ({})",
                lane_name,
                report.completed(),
                report.rejected,
                report.lost,
                stream.len(),
                if report.conserves(stream.len()) { "ok" } else { "VIOLATED" }
            ));
        }
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
    crate::obs_export::write_observability(
        flags.trace_out.as_deref(),
        flags.metrics_out.as_deref(),
        &obs_streams,
    )?;
    Ok(())
}
