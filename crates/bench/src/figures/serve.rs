//! `se serve` — the request-driven serving simulation: a bounded request
//! queue with a batch aggregator (max-batch-size + max-wait policies) in
//! front of the SmartExchange accelerator, driven by a synthetic arrival
//! workload (uniform / burst / closed-loop).
//!
//! The server is `se cluster`'s front at one instance: round-robin, no
//! residency model (weights are fetched once per batch), no fault plan.
//! The model is simulated once per image (replaying `--traces-dir`
//! artifacts when present); batch execution times come from `se_serve`'s
//! weight-fetch-amortized accounting, and the cluster runs as a serial
//! discrete-event loop — so the whole report is **bit-identical for every
//! worker count** given the same flags (the determinism contract of
//! `docs/SERVING.md`).

use crate::args::Flags;
use crate::figures::latency;
use crate::{cli, runner, table, Result};
use se_hw::{EnergyModel, SeAcceleratorConfig};
use se_ir::NetworkDesc;
use se_serve::cluster::{self, ClusterSpec, ModelService, RouterPolicy};
use se_serve::queue::BatchPolicy;
use se_serve::workload::{self, ArrivalPattern, Request};
use se_serve::{BatchEngine, FaultPlan, SE_LANE};
use std::io::Write;

/// The serving scenario derived from the common flags.
#[derive(Debug, Clone, PartialEq)]
struct Scenario {
    policy: BatchPolicy,
    requests: usize,
    /// `None` = closed loop with `concurrency` clients.
    open_loop: Option<ArrivalPattern>,
    /// Absolute arrival rate; `None` derives 1.5× the model's single-image
    /// service rate (enough pressure to form batches, deterministic).
    rate_hz: Option<f64>,
    concurrency: usize,
    /// Per-request deadline budget in cycles (`None` = best effort).
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
    policy.validate()?;
    let open_loop = match flags.arrival.as_deref().unwrap_or("uniform") {
        "uniform" => Some(ArrivalPattern::Uniform),
        "burst" => Some(ArrivalPattern::Burst { size: flags.burst.unwrap_or(max_batch) }),
        "closed" | "closed-loop" => None,
        other => {
            return Err(format!(
                "unknown arrival pattern `{other}` (expected uniform|burst|closed)"
            )
            .into())
        }
    };
    if open_loop.is_some() && flags.concurrency.is_some() {
        return Err("--concurrency only applies to --arrival closed \
                    (open-loop pressure is --rate)"
            .into());
    }
    Ok(Scenario {
        policy,
        requests: flags.requests.unwrap_or(256),
        open_loop,
        rate_hz: flags.rate,
        concurrency: flags.concurrency.unwrap_or(2 * max_batch),
        deadline: latency::deadline_cycles(flags.deadline_us, frequency_hz),
    })
}

/// Runs the serving simulation on the selected benchmark models.
///
/// # Errors
///
/// Propagates trace, simulation, policy, and I/O failures.
pub fn run(flags: &Flags, out: &mut dyn Write) -> Result<()> {
    run_with_models(flags, &cli::selected_models(flags), out)
}

/// [`run`] on an explicit model set (the testable core: bit-identity
/// across worker counts is asserted on small networks).
///
/// # Errors
///
/// Propagates trace, simulation, policy, and I/O failures.
pub fn run_with_models(flags: &Flags, models: &[NetworkDesc], out: &mut dyn Write) -> Result<()> {
    if flags.has_fault_flags() {
        return Err("fault injection (--kill/--restart/--autoscale) applies to \
                    se cluster; the single-instance se serve queue has no \
                    fault model"
            .into());
    }
    let cluster_only = [
        ("--tiers", flags.tiers.is_some()),
        ("--buffer-kb", flags.buffer_kb.is_some()),
        ("--instances", flags.instances.is_some()),
        ("--router", flags.router.is_some()),
    ];
    if let Some((flag, _)) = cluster_only.iter().find(|(_, set)| *set) {
        return Err(format!(
            "{flag} applies to se cluster; se serve is a single instance with no \
             residency model or routing"
        )
        .into());
    }
    let opts = flags.runner_options()?;
    let freq = SeAcceleratorConfig::default().frequency_hz;
    let sc = scenario(flags, freq)?;
    let spec = ClusterSpec {
        instances: 1,
        router: RouterPolicy::RoundRobin,
        policy: sc.policy.clone(),
        buffer_bytes: None,
        tiers: None,
        faults: FaultPlan::default(),
    };
    let em = EnergyModel::default();
    let ecfg = SeAcceleratorConfig::default();
    writeln!(out, "se serve: batched serving on the SmartExchange accelerator\n")?;
    writeln!(
        out,
        "policy: max batch {}, max wait {} cycles, queue cap {}; {} requests, {}",
        sc.policy.max_batch,
        sc.policy.max_wait,
        sc.policy.queue_cap,
        sc.requests,
        match sc.open_loop {
            Some(ArrivalPattern::Uniform) => "uniform arrivals".to_string(),
            Some(ArrivalPattern::Burst { size }) => format!("bursts of {size}"),
            None => format!("closed loop x{}", sc.concurrency),
        }
    )?;
    writeln!(
        out,
        "slo: {}",
        match sc.deadline {
            Some(d) => format!("deadline {d} cycles/request"),
            None => "best effort (no deadline)".to_string(),
        }
    )?;
    writeln!(out)?;

    // With `--trace-out` / `--metrics-out`, each model's run narrates its
    // scheduling decisions into a recorder (one trace pid per model);
    // untraced runs pass a disabled sink, which builds no events.
    let observing = flags.trace_out.is_some() || flags.metrics_out.is_some();
    let mut obs_streams: Vec<(String, Vec<se_obs::Event>)> = Vec::new();
    for net in models {
        se_core::se_info!("  serving {}...", net.name());
        let per_image = runner::run_se_model(net, &opts, flags.traces_dir.as_deref())?;
        let engine = BatchEngine::new(opts.se_cfg.clone(), opts.baseline_cfg.clone())?;
        let services = [ModelService::from_engine(
            &engine,
            SE_LANE,
            net.name(),
            &per_image,
            spec.policy.max_batch,
        )];

        let mut recorder = se_obs::Recorder::new();
        let sink: &mut dyn se_obs::EventSink =
            if observing { &mut recorder } else { &mut se_obs::NullSink };
        let report = match sc.open_loop {
            Some(pattern) => {
                // Default pressure: 1.5x the single-image service rate —
                // enough to keep the aggregator busy without unbounded
                // queueing at sane max-batch settings.
                let rate =
                    sc.rate_hz.unwrap_or_else(|| 1.5 * freq / services[0].streamed[0] as f64);
                let requests: Vec<Request> =
                    workload::open_loop_arrivals(sc.requests, rate, freq, pattern)?
                        .into_iter()
                        .map(|arrival| Request { model: 0, arrival, deadline: None })
                        .collect();
                cluster::simulate_cluster_run_obs(&requests, &services, &spec, sink)?
            }
            None => {
                cluster::simulate_closed_loop(sc.requests, sc.concurrency, &services, &spec, sink)?
            }
        }
        .report;
        if observing {
            obs_streams.push((net.name().to_string(), recorder.into_events()));
        }

        // Energy and weight-traffic totals from the executed batch mix
        // (`hist[k - 1]` counts the batches of exactly `k` images).
        let mut hist = vec![0u64; spec.policy.max_batch];
        for &k in &report.batch_sizes {
            hist[k - 1] += 1;
        }
        let mut energy_mj = 0.0;
        let mut weight_dram = 0.0;
        for (k, &count) in hist.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let b = engine.batched(SE_LANE, &per_image, k + 1);
            let m = b.mem_totals();
            energy_mj += count as f64 * b.energy_mj(&em, &ecfg);
            weight_dram += count as f64 * (m.dram_weight_bytes + m.dram_index_bytes) as f64;
        }
        let completed = report.completed().max(1) as f64;
        // Every request carries the same relative deadline, so a miss is
        // exactly a latency over the budget.
        let misses =
            sc.deadline.map(|d| report.latencies.iter().filter(|&&l| l > d).count() as u64);
        let mean_batch = match report.batch_sizes.len() {
            0 => 0.0,
            n => report.batch_sizes.iter().sum::<usize>() as f64 / n as f64,
        };
        let (missed, miss_pct) = latency::miss_cells(misses, report.completed());
        let [p50, p95, p99] = latency::percentile_cells(&report.latencies, freq);

        let rows = vec![
            vec!["completed".into(), report.completed().to_string()],
            vec!["rejected".into(), report.rejected.to_string()],
            vec!["batches".into(), report.batch_sizes.len().to_string()],
            vec!["mean batch".into(), format!("{mean_batch:.2}")],
            vec!["throughput img/s".into(), format!("{:.1}", report.throughput_per_s(freq))],
            vec![
                "latency mean ms".into(),
                format!("{:.4}", latency::ms(freq, report.mean_latency())),
            ],
            vec!["latency p50 ms".into(), p50],
            vec!["latency p95 ms".into(), p95],
            vec!["latency p99 ms".into(), p99],
            vec![
                "latency max ms".into(),
                match report.latency_percentile(100.0) {
                    Some(max) => format!("{:.4}", latency::ms(freq, max as f64)),
                    None => "-".to_string(),
                },
            ],
            vec!["deadline missed".into(), missed],
            vec!["miss %".into(), miss_pct],
            vec!["energy mJ/img".into(), format!("{:.4}", energy_mj / completed)],
            vec!["wgt DRAM B/img".into(), format!("{:.1}", weight_dram / completed)],
        ];
        writeln!(out, "{}", net.name())?;
        writeln!(out, "{}", table::render(&["metric", "value"], &rows))?;
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
