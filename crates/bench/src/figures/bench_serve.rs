//! `se bench serve` — wall-clock benchmark of the serving simulation.
//!
//! Sweeps a grid of cluster configurations (instances × router × batch
//! policy × churn × memory model) over a synthetic request stream and
//! times each configuration's run through the serial discrete-event
//! simulation. Every run is checked for request conservation
//! (completed + rejected + lost == submitted); a violation fails the
//! command.
//!
//! Results go to `--bench-out` (default `BENCH_serve.json`) as a
//! machine-readable report (`se_bench::json`); the file is parsed back
//! and schema-checked after writing, so a green exit implies a valid
//! snapshot. Wall-clock numbers vary run to run — the JSON is a perf
//! snapshot, not a determinism surface; only the outcome counts are.

use crate::args::Flags;
use crate::figures::latency;
use crate::json::Json;
use crate::{cli, runner, table, Result};
use se_hw::{RunResult, SeAcceleratorConfig};
use se_ir::NetworkDesc;
use se_serve::cluster::{simulate_cluster_run_obs, ClusterReport, ClusterSpec, ModelService};
use se_serve::queue::BatchPolicy;
use se_serve::workload::{self, ArrivalPattern};
use se_serve::{BatchEngine, FaultAction, FaultEvent, FaultPlan, RouterPolicy, TierSpec, SE_LANE};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Dispatches the `bench` subcommand's action: `serve` runs the sweep,
/// `diff <baseline.json> <candidate.json>` compares two snapshots.
///
/// # Errors
///
/// Fails without a valid action and propagates driver failures.
pub fn run(rest: &[String], flags: &Flags, out: &mut dyn Write) -> Result<()> {
    match crate::args::positionals(rest).split_first() {
        Some((&"serve", _)) => run_with_models(flags, &cli::selected_models(flags), out),
        Some((&"diff", [baseline, candidate])) => {
            run_diff(Path::new(baseline), Path::new(candidate), out)
        }
        Some((&"diff", _)) => Err("usage: se bench diff <baseline.json> <candidate.json>".into()),
        other => Err(format!(
            "usage: se bench <serve|diff> [flags] (got {:?}); see docs/CLI.md",
            other.map_or("no action", |(first, _)| first)
        )
        .into()),
    }
}

/// One benchmarked run of one configuration.
struct Measured {
    wall_ms: f64,
    report: ClusterReport,
}

/// The `se bench serve` driver on an explicit model set (the testable
/// core: the dry-run test sweeps small models and schema-checks the
/// emitted JSON).
///
/// # Errors
///
/// Fails on fault flags, on any request-conservation violation, and
/// propagates trace, simulation, and I/O failures.
pub fn run_with_models(flags: &Flags, models: &[NetworkDesc], out: &mut dyn Write) -> Result<()> {
    if flags.has_fault_flags() {
        return Err("se bench serve scripts its own churn axis (none / kill-restart); \
                    --kill/--restart/--autoscale only apply to se cluster"
            .into());
    }
    if models.is_empty() {
        return Err("se bench serve needs at least one model (check --models)".into());
    }
    let opts = flags.runner_options()?;
    let engine = BatchEngine::new(opts.se_cfg.clone(), opts.baseline_cfg.clone())?;
    let freq = SeAcceleratorConfig::default().frequency_hz;

    // One per-image pass per model; every batch size derives from it.
    let mut per_image: Vec<RunResult> = Vec::with_capacity(models.len());
    for net in models {
        se_core::se_info!("  profiling {}...", net.name());
        per_image.push(runner::run_se_model(net, &opts, flags.traces_dir.as_deref())?);
    }
    let mean_exec1: f64 =
        per_image.iter().map(|r| r.total_cycles() as f64).sum::<f64>() / models.len() as f64;

    // The sweep grid: a flag narrows its axis to the given value.
    let instance_counts = flags.instances.map_or_else(|| vec![1, 4], |n| vec![n]);
    let routers: Vec<RouterPolicy> = match flags.router.as_deref() {
        None => vec![RouterPolicy::RoundRobin, RouterPolicy::JoinShortestQueue],
        Some(name) => vec![RouterPolicy::parse(name)
            .ok_or_else(|| format!("unknown router `{name}` (expected rr|jsq|affinity)"))?],
    };
    let max_batches = flags.max_batch.map_or_else(|| vec![1, 8], |n| vec![n]);
    let host = se_core::SeConfig::default().parallelism();
    let requests = flags.requests.unwrap_or(100_000);
    // Deadlines default on so goodput is a real column (override with
    // --deadline-us; there is no "off" here — best-effort goodput equals
    // throughput and says nothing).
    let deadline = latency::deadline_cycles(flags.deadline_us.or(Some(2000.0)), freq);
    let buffer_bytes = flags.buffer_kb.map(|kb| (kb * 1024.0).round() as u64);
    // The memory axis: every config runs "flat" (the --buffer-kb buffer,
    // possibly unmodeled) and "tiered" (--tiers if given, else a stack
    // derived from the model footprints: a top buffer that fits exactly
    // the largest model, a DRAM tier that fits them all, and a deep SSD
    // origin — the shape where demotions and promotions actually occur).
    let tier_stack: Vec<TierSpec> = match flags.tier_specs()? {
        Some(stack) => stack,
        None => {
            let footprints: Vec<u64> = models
                .iter()
                .zip(&per_image)
                .map(|(net, r)| {
                    ModelService::from_engine(&engine, SE_LANE, net.name(), r, 1).footprint_bytes
                })
                .collect();
            let max_fp = footprints.iter().copied().max().unwrap_or(1);
            let sum_fp: u64 = footprints.iter().sum();
            vec![
                TierSpec::new("buf", max_fp + 1, 16.0),
                TierSpec::new("dram", sum_fp.max(max_fp + 1), 4.0),
                TierSpec::new("ssd", 1 << 40, 1.0),
            ]
        }
    };

    writeln!(out, "se bench serve: wall-clock serving benchmark, {} requests/config\n", requests)?;

    // With `--trace-out` / `--metrics-out`, each config's run narrates its
    // scheduling decisions into a recorder (one trace pid per config).
    let observing = flags.trace_out.is_some() || flags.metrics_out.is_some();
    let mut obs_streams: Vec<(String, Vec<se_obs::Event>)> = Vec::new();
    let mut configs = Vec::new();
    let mut rows = Vec::new();
    for &instances in &instance_counts {
        // Arrival pressure scales with capacity so every instance count
        // sees the same per-instance load.
        let rate = flags.rate.unwrap_or_else(|| 1.5 * instances as f64 * freq / mean_exec1);
        let stream = workload::request_stream(
            requests,
            rate,
            freq,
            ArrivalPattern::Uniform,
            models.len(),
            deadline,
        )?;
        // The churn axis: every multi-instance config is measured healthy
        // ("none") and with one instance killed mid-run and restarted
        // later ("kill-restart") — the wall-clock cost of re-routing and
        // cold-restart re-fetches. Single instances skip churn: killing
        // the only instance measures an outage, not elasticity.
        let last_arrival = stream.last().map_or(0, |r| r.arrival);
        let churns: &[&str] =
            if instances > 1 && last_arrival > 0 { &["none", "kill-restart"] } else { &["none"] };
        for router in &routers {
            for &max_batch in &max_batches {
                for &churn in churns {
                    for memory in ["flat", "tiered"] {
                        let policy = BatchPolicy {
                            max_batch,
                            max_wait: (flags.max_wait_us.unwrap_or(50.0) * 1e-6 * freq).round()
                                as u64,
                            queue_cap: flags.queue_cap.unwrap_or(256),
                        };
                        let faults = match churn {
                            "none" => FaultPlan::default(),
                            _ => FaultPlan {
                                events: vec![
                                    FaultEvent {
                                        at: (last_arrival / 3).max(1),
                                        instance: 0,
                                        action: FaultAction::Kill,
                                    },
                                    FaultEvent {
                                        at: (2 * last_arrival / 3)
                                            .max((last_arrival / 3).max(1) + 1),
                                        instance: 0,
                                        action: FaultAction::Restart,
                                    },
                                ],
                                autoscale: None,
                            },
                        };
                        let spec = ClusterSpec {
                            instances,
                            router: *router,
                            policy,
                            buffer_bytes: if memory == "flat" { buffer_bytes } else { None },
                            tiers: (memory == "tiered").then(|| tier_stack.clone()),
                            faults,
                        };
                        let services: Vec<ModelService> = models
                            .iter()
                            .zip(&per_image)
                            .map(|(net, r)| {
                                ModelService::from_engine(
                                    &engine,
                                    SE_LANE,
                                    net.name(),
                                    r,
                                    max_batch,
                                )
                            })
                            .collect();
                        se_core::se_info!(
                            "  bench: {} instance(s), router {}, max batch {}, churn {}, \
                             memory {}...",
                            instances,
                            router.name(),
                            max_batch,
                            churn,
                            memory
                        );
                        let mut recorder = se_obs::Recorder::new();
                        let sink: &mut dyn se_obs::EventSink =
                            if observing { &mut recorder } else { &mut se_obs::NullSink };
                        let start = Instant::now();
                        let report =
                            simulate_cluster_run_obs(&stream, &services, &spec, sink)?.report;
                        let m = Measured { wall_ms: start.elapsed().as_secs_f64() * 1e3, report };
                        if observing {
                            obs_streams.push((
                                format!(
                                    "inst{} {} b{} {} {}",
                                    instances,
                                    router.name(),
                                    max_batch,
                                    churn,
                                    memory
                                ),
                                recorder.into_events(),
                            ));
                        }
                        if !m.report.conserves(stream.len()) {
                            return Err(format!(
                                "request conservation violated at {} instance(s), router {}, \
                                 max batch {}, churn {}, memory {}: {} completed + {} rejected \
                                 + {} lost != {} submitted",
                                instances,
                                router.name(),
                                max_batch,
                                churn,
                                memory,
                                m.report.completed(),
                                m.report.rejected,
                                m.report.lost,
                                stream.len()
                            )
                            .into());
                        }
                        rows.push(summary_row(
                            instances, router, max_batch, churn, memory, &m, freq,
                        ));
                        configs.push(config_json(
                            instances, router, max_batch, churn, memory, &spec, &m, freq,
                        ));
                    }
                }
            }
        }
    }

    writeln!(
        out,
        "{}",
        table::render(
            &[
                "inst",
                "router",
                "batch",
                "churn",
                "memory",
                "wall ms",
                "req/s",
                "p99 ms",
                "goodput/s",
                "fetch MB",
            ],
            &rows,
        )
    )?;

    let doc = Json::Obj(vec![
        ("bench".into(), Json::Str("serve".into())),
        // v2: churn axis (churn/lost/rerouted/killed_batches per config)
        // and null percentiles for empty latency samples.
        // v3: memory axis ("flat" | "tiered") with per-tier traffic
        // (`tiers`: null for flat, else one entry per tier with spec and
        // hit/promotion/demotion/eviction counters and bytes moved).
        // v4: one runtime — the per-config runtime, worker-count, and
        // outcome-equality fields are gone.
        ("schema_version".into(), Json::Num(4.0)),
        (
            "models".into(),
            Json::Arr(models.iter().map(|m| Json::Str(m.name().to_string())).collect()),
        ),
        ("lane".into(), Json::Str("SmartExchange".into())),
        ("profile".into(), Json::Str(if flags.fast { "fast" } else { "full" }.into())),
        ("frequency_hz".into(), Json::Num(freq)),
        ("requests_per_config".into(), Json::Num(requests as f64)),
        ("host_parallelism".into(), Json::Num(host as f64)),
        ("configs".into(), Json::Arr(configs)),
    ]);
    let path = flags.bench_out.clone().unwrap_or_else(|| "BENCH_serve.json".into());
    let text = doc.render();
    // Self-validate before writing: the committed snapshot must always
    // satisfy the schema the CI dry-run checks.
    validate_report(&Json::parse(&text)?)?;
    std::fs::write(&path, &text)?;
    writeln!(out, "wrote {} ({} configs)", path.display(), doc_configs(&doc))?;
    crate::obs_export::write_observability(
        flags.trace_out.as_deref(),
        flags.metrics_out.as_deref(),
        &obs_streams,
    )?;
    Ok(())
}

fn doc_configs(doc: &Json) -> usize {
    doc.get("configs").and_then(Json::as_array).map_or(0, <[Json]>::len)
}

fn summary_row(
    instances: usize,
    router: &RouterPolicy,
    max_batch: usize,
    churn: &str,
    memory: &str,
    m: &Measured,
    freq: f64,
) -> Vec<String> {
    let report = &m.report;
    vec![
        instances.to_string(),
        router.name().to_string(),
        max_batch.to_string(),
        churn.to_string(),
        memory.to_string(),
        format!("{:.1}", m.wall_ms),
        format!("{:.0}", report.completed() as f64 / (m.wall_ms / 1e3)),
        match report.latency_percentile(99.0) {
            Some(p) => format!("{:.4}", latency::ms(freq, p as f64)),
            None => "-".to_string(),
        },
        format!("{:.1}", report.goodput_per_s(freq)),
        format!("{:.2}", report.residency.bytes_fetched as f64 / (1024.0 * 1024.0)),
    ]
}

#[allow(clippy::too_many_arguments)]
fn config_json(
    instances: usize,
    router: &RouterPolicy,
    max_batch: usize,
    churn: &str,
    memory: &str,
    spec: &ClusterSpec,
    m: &Measured,
    freq: f64,
) -> Json {
    let report = &m.report;
    let wall_s = m.wall_ms / 1e3;
    // An all-rejected/all-lost run has no latency sample: percentiles are
    // null, not a fake 0.
    let pct = |p: f64| {
        report.latency_percentile(p).map_or(Json::Null, |c| Json::Num(latency::ms(freq, c as f64)))
    };
    // Per-tier traffic: the spec's tier stack zipped with the report's
    // accumulated counters (flat configs carry null, not an empty array,
    // so the two memory shapes are unmistakable in the JSON).
    let tiers = match &spec.tiers {
        None => Json::Null,
        Some(stack) => Json::Arr(
            stack
                .iter()
                .zip(&report.tier_traffic)
                .map(|(t, s)| {
                    Json::Obj(vec![
                        ("name".into(), Json::Str(t.name.clone())),
                        ("capacity_bytes".into(), Json::Num(t.capacity_bytes as f64)),
                        ("bytes_per_cycle".into(), Json::Num(t.bytes_per_cycle)),
                        ("hits".into(), Json::Num(s.hits as f64)),
                        ("promotions".into(), Json::Num(s.promotions as f64)),
                        ("demotions".into(), Json::Num(s.demotions as f64)),
                        ("evictions".into(), Json::Num(s.evictions as f64)),
                        ("up_mb".into(), Json::Num(s.bytes_up as f64 / (1024.0 * 1024.0))),
                        ("down_mb".into(), Json::Num(s.bytes_down as f64 / (1024.0 * 1024.0))),
                    ])
                })
                .collect(),
        ),
    };
    Json::Obj(vec![
        ("instances".into(), Json::Num(instances as f64)),
        ("router".into(), Json::Str(router.name().into())),
        ("max_batch".into(), Json::Num(max_batch as f64)),
        ("churn".into(), Json::Str(churn.into())),
        ("memory".into(), Json::Str(memory.into())),
        ("tiers".into(), tiers),
        ("wall_ms".into(), Json::Num(m.wall_ms)),
        ("throughput_rps".into(), Json::Num(report.completed() as f64 / wall_s)),
        ("completed".into(), Json::Num(report.completed() as f64)),
        ("rejected".into(), Json::Num(report.rejected as f64)),
        ("misses".into(), Json::Num(report.misses as f64)),
        ("lost".into(), Json::Num(report.lost as f64)),
        ("rerouted".into(), Json::Num(report.rerouted as f64)),
        ("killed_batches".into(), Json::Num(report.killed_batches as f64)),
        ("goodput_per_s".into(), Json::Num(report.goodput_per_s(freq))),
        ("p50_ms".into(), pct(50.0)),
        ("p95_ms".into(), pct(95.0)),
        ("p99_ms".into(), pct(99.0)),
        ("weight_fetches".into(), Json::Num(report.residency.fetches as f64)),
        ("fetch_mb".into(), Json::Num(report.residency.bytes_fetched as f64 / (1024.0 * 1024.0))),
    ])
}

/// Schema check for a `BENCH_serve.json` document — shared by the driver
/// (self-validation after writing) and the CI dry-run test.
///
/// # Errors
///
/// Describes the first missing or mistyped field.
pub fn validate_report(doc: &Json) -> Result<()> {
    let field = |key: &str| doc.get(key).ok_or_else(|| format!("missing top-level `{key}`"));
    if field("bench")?.as_str() != Some("serve") {
        return Err("`bench` must be \"serve\"".into());
    }
    if field("schema_version")?.as_f64() != Some(4.0) {
        return Err("`schema_version` must be 4".into());
    }
    for key in ["frequency_hz", "requests_per_config", "host_parallelism"] {
        if field(key)?.as_f64().is_none() {
            return Err(format!("`{key}` must be a number").into());
        }
    }
    for key in ["lane", "profile"] {
        if field(key)?.as_str().is_none() {
            return Err(format!("`{key}` must be a string").into());
        }
    }
    let models = field("models")?.as_array().ok_or("`models` must be an array")?;
    if models.is_empty() || models.iter().any(|m| m.as_str().is_none()) {
        return Err("`models` must be a non-empty array of strings".into());
    }
    let configs = field("configs")?.as_array().ok_or("`configs` must be an array")?;
    if configs.is_empty() {
        return Err("`configs` must be non-empty".into());
    }
    for (i, cfg) in configs.iter().enumerate() {
        let field = |key: &str| cfg.get(key).ok_or_else(|| format!("config {i}: missing `{key}`"));
        if field("router")?.as_str().is_none() {
            return Err(format!("config {i}: `router` must be a string").into());
        }
        match field("churn")?.as_str() {
            Some("none" | "kill-restart") => {}
            _ => {
                return Err(
                    format!("config {i}: `churn` must be \"none\" or \"kill-restart\"").into()
                )
            }
        }
        // v3 memory axis: flat configs carry `tiers: null`, tiered ones a
        // non-empty per-tier traffic array.
        let memory = match field("memory")?.as_str() {
            Some(m @ ("flat" | "tiered")) => m,
            _ => return Err(format!("config {i}: `memory` must be \"flat\" or \"tiered\"").into()),
        };
        let tiers = field("tiers")?;
        match (memory, tiers) {
            ("flat", Json::Null) => {}
            ("tiered", Json::Arr(entries)) if !entries.is_empty() => {
                for (k, entry) in entries.iter().enumerate() {
                    let tf = |key: &str| {
                        entry
                            .get(key)
                            .ok_or_else(|| format!("config {i} tier {k}: missing `{key}`"))
                    };
                    if tf("name")?.as_str().is_none() {
                        return Err(format!("config {i} tier {k}: `name` must be a string").into());
                    }
                    for key in [
                        "capacity_bytes",
                        "bytes_per_cycle",
                        "hits",
                        "promotions",
                        "demotions",
                        "evictions",
                        "up_mb",
                        "down_mb",
                    ] {
                        if tf(key)?.as_f64().is_none() {
                            return Err(
                                format!("config {i} tier {k}: `{key}` must be a number").into()
                            );
                        }
                    }
                }
            }
            _ => {
                return Err(format!(
                    "config {i}: `tiers` must be null for flat memory and a non-empty \
                     array for tiered memory"
                )
                .into())
            }
        }
        for key in [
            "instances",
            "max_batch",
            "wall_ms",
            "throughput_rps",
            "completed",
            "rejected",
            "misses",
            "lost",
            "rerouted",
            "killed_batches",
            "goodput_per_s",
            "weight_fetches",
            "fetch_mb",
        ] {
            if field(key)?.as_f64().is_none() {
                return Err(format!("config {i}: `{key}` must be a number").into());
            }
        }
        for key in ["p50_ms", "p95_ms", "p99_ms"] {
            let v = field(key)?;
            if v.as_f64().is_none() && *v != Json::Null {
                return Err(format!("config {i}: `{key}` must be a number or null").into());
            }
        }
    }
    Ok(())
}

/// The identity of one config within a snapshot: every sweep axis — the
/// join key of `se bench diff`.
fn config_key(cfg: &Json) -> String {
    let s = |key: &str| cfg.get(key).and_then(Json::as_str).unwrap_or("?").to_string();
    let n = |key: &str| {
        cfg.get(key).map_or("null".to_string(), |v| {
            v.as_f64().map_or("null".to_string(), |x| format!("{x}"))
        })
    };
    format!(
        "inst={} router={} batch={} churn={} memory={}",
        n("instances"),
        s("router"),
        n("max_batch"),
        s("churn"),
        s("memory"),
    )
}

/// `se bench diff <baseline.json> <candidate.json>` — the bench-snapshot
/// regression check. Both files must pass the current schema (a drifted
/// `schema_version` or a missing field fails right there), the two
/// snapshots must cover the same config set, and no config's throughput
/// may swing by more than 2x in either direction. Wall-clock noise stays
/// well inside that band; a structural slowdown does not.
///
/// # Errors
///
/// Fails loudly on unreadable/unparsable files, schema drift, config-set
/// drift, and any >2x throughput swing (all violations are listed).
pub fn run_diff(baseline: &Path, candidate: &Path, out: &mut dyn Write) -> Result<()> {
    let load = |path: &Path| -> Result<Json> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        validate_report(&doc).map_err(|e| format!("{}: schema drift: {e}", path.display()))?;
        Ok(doc)
    };
    let base = load(baseline)?;
    let cand = load(candidate)?;
    let throughputs = |doc: &Json| -> Vec<(String, f64)> {
        doc.get("configs")
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .map(|cfg| {
                (config_key(cfg), cfg.get("throughput_rps").and_then(Json::as_f64).unwrap_or(0.0))
            })
            .collect()
    };
    let base_cfgs = throughputs(&base);
    let cand_cfgs = throughputs(&cand);

    let mut violations: Vec<String> = Vec::new();
    for (key, _) in &base_cfgs {
        if !cand_cfgs.iter().any(|(k, _)| k == key) {
            violations.push(format!("config dropped from candidate: {key}"));
        }
    }
    for (key, _) in &cand_cfgs {
        if !base_cfgs.iter().any(|(k, _)| k == key) {
            violations.push(format!("config absent from baseline: {key}"));
        }
    }

    writeln!(
        out,
        "se bench diff: {} (baseline) vs {} (candidate)\n",
        baseline.display(),
        candidate.display()
    )?;
    let mut rows = Vec::new();
    for (key, base_rps) in &base_cfgs {
        let Some((_, cand_rps)) = cand_cfgs.iter().find(|(k, _)| k == key) else { continue };
        let ratio = if *base_rps > 0.0 { cand_rps / base_rps } else { f64::INFINITY };
        let ok = (0.5..=2.0).contains(&ratio);
        if !ok {
            violations.push(format!(
                "throughput swing {ratio:.2}x at {key}: {base_rps:.0} -> {cand_rps:.0} req/s"
            ));
        }
        rows.push(vec![
            key.clone(),
            format!("{base_rps:.0}"),
            format!("{cand_rps:.0}"),
            if ratio.is_finite() {
                format!("{:+.1}%", (ratio - 1.0) * 100.0)
            } else {
                "inf".into()
            },
            format!("{ratio:.2}"),
            if ok { "ok".into() } else { "SWING".into() },
        ]);
    }
    // The per-config delta table prints on success too: snapshot drift is
    // visible in CI logs well before it trips the 2x gate.
    writeln!(
        out,
        "{}",
        table::render(
            &["config", "baseline req/s", "candidate req/s", "delta", "ratio", "verdict"],
            &rows
        )
    )?;

    if violations.is_empty() {
        writeln!(out, "ok: {} config(s) compared, all within 2x", rows.len())?;
        return Ok(());
    }
    for v in &violations {
        writeln!(out, "FAIL: {v}")?;
    }
    Err(format!(
        "bench snapshot regression: {} violation(s) between {} and {}",
        violations.len(),
        baseline.display(),
        candidate.display()
    )
    .into())
}
