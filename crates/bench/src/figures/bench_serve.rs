//! `se bench serve` — wall-clock benchmark of the serving simulation.
//!
//! Sweeps a grid of cluster configurations (instances × router × batch
//! policy × churn × memory model) over a synthetic request stream and
//! times each configuration's run through the serial discrete-event
//! simulation, as the median of five runs. Every run is checked for
//! request conservation (completed + rejected + lost == submitted); a
//! violation fails the command.
//!
//! Results go to `--bench-out` (default `BENCH_serve.json`) as a
//! machine-readable report (`se_bench::json`); the written file is read
//! back and schema-checked, so a green exit implies a valid snapshot.
//! Wall-clock numbers vary run to run — the JSON is a perf snapshot, not
//! a determinism surface; only the outcome counts are.
//!
//! One config is one `ConfigRow`, declared once: the driver builds it
//! from the run, prints its table cells and writes it; `se bench diff`
//! reads it back through the same declaration, which is the schema check.

use crate::args::Flags;
use crate::figures::latency;
use crate::json::{json_record, mistyped, Field, Json};
use crate::obs_export::Recording;
use crate::{cli, runner, table, Result};
use se_hw::{RunResult, SeAcceleratorConfig};
use se_ir::NetworkDesc;
use se_obs::{EventSink, NullSink};
use se_serve::cluster::{simulate_cluster_run_obs, ClusterReport, ClusterSpec, ModelService};
use se_serve::queue::BatchPolicy;
use se_serve::workload::{self, ArrivalPattern};
use se_serve::{BatchEngine, FaultAction, FaultEvent, FaultPlan, RouterPolicy, TierSpec, SE_LANE};
use std::collections::{HashMap, HashSet};
use std::fmt;
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

/// Runs timed per config; the config's wall clock is their median. One run
/// takes 8–31 ms at CI's size, too close to host noise to read alone.
const TIMED_RUNS: usize = 5;

/// What `tiers` must hold: flat configs carry null and tiered ones a
/// non-empty array, so the two memory shapes are unmistakable.
const TIERS: &str = "null for flat memory and a non-empty array for tiered memory";

impl Field for Option<Vec<TierRow>> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, |t| Json::Arr(t.iter().map(TierRow::to_json).collect()))
    }
    fn from_json(at: &str, key: &str, v: &Json) -> Result<Option<Vec<TierRow>>> {
        match v {
            Json::Null => Ok(None),
            Json::Arr(tiers) if !tiers.is_empty() => {
                let tier = |(k, t)| TierRow::read(&format!("{at} tier {k}"), t);
                tiers.iter().enumerate().map(tier).collect::<Result<_>>().map(Some)
            }
            _ => Err(mistyped(at, key, TIERS)),
        }
    }
}

json_record! {
    /// One tier's spec and accumulated traffic in a tiered config.
    struct TierRow {
        name: String, capacity_bytes: f64, bytes_per_cycle: f64,
        hits: f64, promotions: f64, demotions: f64, evictions: f64, up_mb: f64, down_mb: f64,
    }
}

json_record! {
    /// One config of the sweep: its five axes, which display as its trace
    /// label `inst{n} {router} b{k} {churn} {memory}`, and what its run
    /// measured, each number the `f64` the file holds.
    #[derive(Default)]
    struct ConfigRow {
        instances: f64, router: String, max_batch: f64, churn: String, memory: String,
        tiers: Option<Vec<TierRow>>,
        wall_ms: f64, throughput_rps: f64,
        completed: f64, rejected: f64, misses: f64, lost: f64, rerouted: f64, killed_batches: f64,
        goodput_per_s: f64, p50_ms: Option<f64>, p95_ms: Option<f64>, p99_ms: Option<f64>,
        weight_fetches: f64, fetch_mb: f64,
    }
}

impl ConfigRow {
    /// Reads config `i` of a snapshot: [`ConfigRow::read`] plus the axis
    /// values the sweep can produce, and `tiers` matching `memory`.
    fn from_json(i: usize, v: &Json) -> Result<ConfigRow> {
        let at = format!("config {i}");
        let row = ConfigRow::read(&at, v)?;
        if !["none", "kill-restart"].contains(&row.churn.as_str()) {
            return Err(mistyped(&at, "churn", "\"none\" or \"kill-restart\""));
        }
        if !["flat", "tiered"].contains(&row.memory.as_str()) {
            return Err(mistyped(&at, "memory", "\"flat\" or \"tiered\""));
        }
        if row.tiers.is_some() != (row.memory == "tiered") {
            return Err(mistyped(&at, "tiers", TIERS));
        }
        Ok(row)
    }

    /// This config's row once `spec`'s run is measured: it took `wall_ms`
    /// (the median) and produced `report`.
    fn measured(self, spec: &ClusterSpec, wall_ms: f64, report: &ClusterReport, freq: f64) -> Self {
        let pct = |p: f64| report.latency_percentile(p).map(|c| latency::ms(freq, c as f64));
        let mb = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
        let tiers = spec.tiers.as_ref().map(|stack| {
            let traffic = stack.iter().zip(&report.tier_traffic);
            traffic
                .map(|(t, s)| TierRow {
                    name: t.name.clone(),
                    capacity_bytes: t.capacity_bytes as f64,
                    bytes_per_cycle: t.bytes_per_cycle,
                    hits: s.hits as f64,
                    promotions: s.promotions as f64,
                    demotions: s.demotions as f64,
                    evictions: s.evictions as f64,
                    up_mb: mb(s.bytes_up),
                    down_mb: mb(s.bytes_down),
                })
                .collect()
        });
        ConfigRow {
            tiers,
            wall_ms,
            throughput_rps: report.completed() as f64 / (wall_ms / 1e3),
            completed: report.completed() as f64,
            rejected: report.rejected as f64,
            misses: report.misses as f64,
            lost: report.lost as f64,
            rerouted: report.rerouted as f64,
            killed_batches: report.killed_batches as f64,
            goodput_per_s: report.goodput_per_s(freq),
            p50_ms: pct(50.0),
            p95_ms: pct(95.0),
            p99_ms: pct(99.0),
            weight_fetches: report.residency.fetches as f64,
            fetch_mb: mb(report.residency.bytes_fetched),
            ..self
        }
    }

    /// The identity of a config within a snapshot, every sweep axis: the
    /// join key of `se bench diff`.
    fn key(&self) -> String {
        let ConfigRow { instances, router, max_batch, churn, memory, .. } = self;
        format!("inst={instances} router={router} batch={max_batch} churn={churn} memory={memory}")
    }

    /// The row's cells in the driver's printed table.
    fn cells(&self) -> Vec<String> {
        vec![
            self.instances.to_string(),
            self.router.clone(),
            self.max_batch.to_string(),
            self.churn.clone(),
            self.memory.clone(),
            format!("{:.1}", self.wall_ms),
            format!("{:.0}", self.throughput_rps),
            self.p99_ms.map_or_else(|| "-".to_string(), |p| format!("{p:.4}")),
            format!("{:.1}", self.goodput_per_s),
            format!("{:.2}", self.fetch_mb),
        ]
    }
}

impl fmt::Display for ConfigRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ConfigRow { instances, router, max_batch, churn, memory, .. } = self;
        write!(f, "inst{instances} {router} b{max_batch} {churn} {memory}")
    }
}

/// The churn axis's fault plan: instance 0 killed a third of the way
/// through the stream and restarted at two thirds.
fn kill_restart(last_arrival: u64) -> FaultPlan {
    let kill = (last_arrival / 3).max(1);
    let restart = (2 * last_arrival / 3).max(kill + 1);
    let event = |at, action| FaultEvent { at, instance: 0, action };
    FaultPlan {
        events: vec![event(kill, FaultAction::Kill), event(restart, FaultAction::Restart)],
        autoscale: None,
    }
}

/// The `se bench serve` driver on an explicit model set (the testable
/// core: the dry-run test sweeps small models and schema-checks the
/// emitted JSON).
///
/// # Errors
///
/// Fails on fault and arrival-shape flags, on any request-conservation
/// violation, and propagates trace, simulation, and I/O failures.
pub fn run_with_models(flags: &Flags, models: &[NetworkDesc], out: &mut dyn Write) -> Result<()> {
    if flags.has_fault_flags() {
        return Err("se bench serve scripts its own churn axis (none / kill-restart); \
                    --kill/--restart/--autoscale only apply to se cluster"
            .into());
    }
    let shape_flags = [
        ("--arrival", flags.arrival.is_some()),
        ("--burst", flags.burst.is_some()),
        ("--concurrency", flags.concurrency.is_some()),
    ];
    if let Some((flag, _)) = shape_flags.iter().find(|(_, set)| *set) {
        return Err(format!(
            "{flag} does not apply to se bench serve: every config runs uniform \
             open-loop arrivals (--rate sets the pressure)"
        )
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
    let services = |max_batch: usize| -> Vec<ModelService> {
        models
            .iter()
            .zip(&per_image)
            .map(|(net, r)| ModelService::from_engine(&engine, SE_LANE, net.name(), r, max_batch))
            .collect()
    };

    // The sweep grid: a flag narrows its axis to the given value.
    let instance_counts = flags.instances.map_or_else(|| vec![1, 4], |n| vec![n]);
    let routers = flags.router_policy()?.map_or_else(
        || vec![RouterPolicy::RoundRobin, RouterPolicy::JoinShortestQueue],
        |r| vec![r],
    );
    let max_batches = flags.max_batch.map_or_else(|| vec![1, 8], |n| vec![n]);
    let policy = flags.batch_policy(freq)?;
    let host = se_core::SeConfig::default().parallelism();
    let requests = flags.requests.unwrap_or(100_000);
    // Deadlines default on so goodput is a real column (override with
    // --deadline-us; there is no "off" here — best-effort goodput equals
    // throughput and says nothing).
    let deadline = latency::deadline_cycles(flags.deadline_us.or(Some(2000.0)), freq);
    // The memory axis: every config runs "flat" (the --buffer-kb buffer,
    // possibly unmodeled) and "tiered" (--tiers if given, else a stack
    // derived from the model footprints: a top buffer that fits exactly
    // the largest model, a DRAM tier that fits them all, and a deep SSD
    // origin — the shape where demotions and promotions actually occur).
    let tier_stack: Vec<TierSpec> = match flags.tier_specs()? {
        Some(stack) => stack,
        None => {
            let footprints: Vec<u64> = services(1).iter().map(|s| s.footprint_bytes).collect();
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

    // The grid's configs, each with its spec, its stream (one per
    // instance count) and its service tables (one set per batch cap), the
    // last two as indices into `streams` and `tables`. A config's row
    // holds its axes until its run is measured.
    let tables: Vec<Vec<ModelService>> = max_batches.iter().map(|&b| services(b)).collect();
    let mut streams = Vec::new();
    let mut grid: Vec<(ConfigRow, ClusterSpec, usize, usize)> = Vec::new();
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
        // and with one instance killed mid-run and restarted later — the
        // wall-clock cost of re-routing and cold-restart re-fetches.
        // Single instances skip churn: killing the only instance measures
        // an outage, not elasticity.
        let last_arrival = stream.last().map_or(0, |r| r.arrival);
        let churns: &[&str] =
            if instances > 1 && last_arrival > 0 { &["none", "kill-restart"] } else { &["none"] };
        for &router in &routers {
            for (table, &max_batch) in max_batches.iter().enumerate() {
                for &churn in churns {
                    for memory in ["flat", "tiered"] {
                        let spec = ClusterSpec {
                            instances,
                            router,
                            policy: BatchPolicy { max_batch, ..policy.clone() },
                            buffer_bytes: flags.buffer_bytes().filter(|_| memory == "flat"),
                            tiers: (memory == "tiered").then(|| tier_stack.clone()),
                            faults: match churn {
                                "none" => FaultPlan::default(),
                                _ => kill_restart(last_arrival),
                            },
                        };
                        let row = ConfigRow {
                            instances: instances as f64,
                            router: router.name().to_string(),
                            max_batch: max_batch as f64,
                            churn: churn.to_string(),
                            memory: memory.to_string(),
                            ..ConfigRow::default()
                        };
                        grid.push((row, spec, streams.len(), table));
                    }
                }
            }
        }
        streams.push(stream);
    }

    // The clock times one config's simulation alone.
    let timed = |i: usize, sink: &mut dyn EventSink| -> Result<(f64, ClusterReport)> {
        let (_, spec, stream, table) = &grid[i];
        let start = Instant::now();
        let report = simulate_cluster_run_obs(&streams[*stream], &tables[*table], spec, sink)?;
        Ok((start.elapsed().as_secs_f64() * 1e3, report.report))
    };
    // One job and one recorded stream (trace pid) per config, on one
    // worker: each config's wall clock must time its simulation alone,
    // with no other config competing for the cores. This first sweep
    // records into each config's sink; the later sweeps run into a
    // `NullSink` and only add wall-clock samples (the runs are
    // deterministic). Whole sweeps, not back-to-back runs of one config,
    // so that a slow spell of the host lands on one sample of many
    // configs rather than on every sample of a few.
    let labels: Vec<&ConfigRow> = grid.iter().map(|(row, ..)| row).collect();
    let mut recording = Recording::new(flags);
    let first = recording.run_ordered(&labels, 1, |i, sink| {
        let (config, _, stream, _) = &grid[i];
        se_core::se_info!("  bench: {config}...");
        let (ms, report) = timed(i, sink)?;
        let submitted = streams[*stream].len();
        if !report.conserves(submitted) {
            return Err(format!(
                "request conservation violated at {config}: {} completed + {} rejected + {} \
                 lost != {submitted} submitted",
                report.completed(),
                report.rejected,
                report.lost,
            )
            .into());
        }
        Ok((ms, report))
    })?;
    let mut walls: Vec<Vec<f64>> = first.iter().map(|&(ms, _)| vec![ms]).collect();
    for _ in 1..TIMED_RUNS {
        for (i, samples) in walls.iter_mut().enumerate() {
            samples.push(timed(i, &mut NullSink)?.0);
        }
    }
    let rows: Vec<ConfigRow> = grid
        .into_iter()
        .zip(first)
        .zip(walls)
        .map(|(((row, spec, ..), (_, report)), mut samples)| {
            samples.sort_by(f64::total_cmp);
            row.measured(&spec, samples[TIMED_RUNS / 2], &report, freq)
        })
        .collect();

    let cells: Vec<Vec<String>> = rows.iter().map(ConfigRow::cells).collect();
    let header: Vec<&str> =
        "inst,router,batch,churn,memory,wall ms,req/s,p99 ms,goodput/s,fetch MB"
            .split(',')
            .collect();
    writeln!(out, "{}", table::render(&header, &cells))?;

    let doc = Json::Obj(vec![
        ("bench".into(), Json::Str("serve".into())),
        // v2: churn axis; v3: memory axis with per-tier traffic; v4: one
        // runtime (no per-config runtime, worker-count or outcome fields).
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
        ("configs".into(), Json::Arr(rows.iter().map(ConfigRow::to_json).collect())),
    ]);
    let path = flags.bench_out.clone().unwrap_or_else(|| "BENCH_serve.json".into());
    std::fs::write(&path, doc.render())?;
    // Read the file back as `se bench diff` does: a written snapshot must
    // always pass the check the diff applies.
    Snapshot::parse(&path.display().to_string(), &std::fs::read_to_string(&path)?)?;
    writeln!(out, "wrote {} ({} configs)", path.display(), rows.len())?;
    recording.write()
}

/// Decodes a `BENCH_serve.json` document: checks the header and reads
/// every config as a [`ConfigRow`].
///
/// # Errors
///
/// Describes the first missing or mistyped field.
fn decode(doc: &Json) -> Result<Vec<ConfigRow>> {
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
    configs.iter().enumerate().map(|(i, cfg)| ConfigRow::from_json(i, cfg)).collect()
}

/// Schema check for a `BENCH_serve.json` document: [`Snapshot::parse`]'s
/// decoder without the repeated-config check.
///
/// # Errors
///
/// Describes the first missing or mistyped field.
pub fn validate_report(doc: &Json) -> Result<()> {
    decode(doc).map(drop)
}

/// One snapshot as `se bench diff` reads it: every config's decoded row
/// under its key, in file order.
pub struct Snapshot {
    label: String,
    rows: Vec<(String, ConfigRow)>,
}

impl Snapshot {
    /// Parses and schema-checks snapshot `text`, named `label` in errors.
    ///
    /// # Errors
    ///
    /// Unparsable JSON, schema drift, or a config key that appears twice
    /// (a diff could not tell which of the two to compare).
    pub fn parse(label: &str, text: &str) -> Result<Snapshot> {
        let doc = Json::parse(text).map_err(|e| format!("{label}: {e}"))?;
        let rows = decode(&doc).map_err(|e| format!("{label}: schema drift: {e}"))?;
        let mut seen = HashSet::with_capacity(rows.len());
        let keyed = |row: ConfigRow| {
            let key = row.key();
            if !seen.insert(key.clone()) {
                return Err(format!("{label}: config repeated: {key}"));
            }
            Ok((key, row))
        };
        let rows = rows.into_iter().map(keyed).collect::<std::result::Result<_, _>>()?;
        Ok(Snapshot { label: label.to_string(), rows })
    }
}

/// `se bench diff <baseline.json> <candidate.json>` — the bench-snapshot
/// regression check: reads both files as [`Snapshot`]s and compares them
/// with [`diff_snapshots`].
///
/// # Errors
///
/// Fails loudly on unreadable files and on everything
/// [`Snapshot::parse`] and [`diff_snapshots`] reject.
pub fn run_diff(baseline: &Path, candidate: &Path, out: &mut dyn Write) -> Result<()> {
    let load = |path: &Path| -> Result<Snapshot> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Snapshot::parse(&path.display().to_string(), &text)
    };
    diff_snapshots(&load(baseline)?, &load(candidate)?, out)
}

/// Compares two snapshots config by config: they must cover the same
/// config set, and no config's throughput may swing by more than 2x in
/// either direction. Wall-clock noise stays well inside that band; a
/// structural slowdown does not. Configs are matched by key, so the
/// check is linear in the number of configs.
///
/// # Errors
///
/// Config-set drift and any >2x throughput swing (all violations are
/// listed).
pub fn diff_snapshots(base: &Snapshot, cand: &Snapshot, out: &mut dyn Write) -> Result<()> {
    let base_keys: HashSet<&str> = base.rows.iter().map(|(key, _)| key.as_str()).collect();
    let cand_rps: HashMap<&str, f64> =
        cand.rows.iter().map(|(key, row)| (key.as_str(), row.throughput_rps)).collect();

    let mut violations: Vec<String> = Vec::new();
    for (key, _) in &base.rows {
        if !cand_rps.contains_key(key.as_str()) {
            violations.push(format!("config dropped from candidate: {key}"));
        }
    }
    for (key, _) in &cand.rows {
        if !base_keys.contains(key.as_str()) {
            violations.push(format!("config absent from baseline: {key}"));
        }
    }

    writeln!(out, "se bench diff: {} (baseline) vs {} (candidate)\n", base.label, cand.label)?;
    let mut rows = Vec::new();
    for (key, row) in &base.rows {
        let Some(&cand_rps) = cand_rps.get(key.as_str()) else { continue };
        let base_rps = row.throughput_rps;
        let ratio = if base_rps > 0.0 { cand_rps / base_rps } else { f64::INFINITY };
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
        base.label,
        cand.label
    )
    .into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshots_decode_into_rows_that_rerender_byte_identically() {
        let golden = include_str!("../../tests/fixtures/bench_serve_golden.json");
        let committed = include_str!("../../../../BENCH_serve.json");
        for text in [golden, committed] {
            let mut doc = Json::parse(text).unwrap();
            let rows = decode(&doc).unwrap();
            let Json::Obj(fields) = &mut doc else { panic!("snapshot is an object") };
            let slot = fields.iter_mut().find(|(k, _)| k == "configs").unwrap();
            slot.1 = Json::Arr(rows.iter().map(ConfigRow::to_json).collect());
            assert_eq!(doc.render(), text);
        }
    }
}
