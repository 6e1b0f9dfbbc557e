//! Traced in-process run of one perfbench workload.
//!
//! ```text
//! perfbench-layers <cold|replay|serve|observe> [--out DIR] [--cli-stdout FILE] -- <se args...>
//! ```
//!
//! The arguments after `--` are exactly those the untraced run passed to
//! the `se` binary, parsed with the CLI's own flag parser. This program
//! does the same work by calling each layer's public functions directly,
//! timing every call from outside (no spans inside the program), then
//! checks that it reproduced what the CLI printed or wrote (`fidelity`).
//! It prints one JSON object: the workload's per-layer metrics, the
//! traced wall time, the share of it covered by spans, and the fidelity
//! verdict (`"ok"` or the first mismatch).

use se_bench::args::Flags;
use se_bench::json::Json;
use se_bench::runner::{self, ModelComparison};
use se_bench::{cli, figures, Result};
use se_hw::schedule::ScheduleKey;
use se_hw::{RunResult, SeAcceleratorConfig};
use se_ir::{LayerTrace, QuantTensor, WeightData};
use se_models::traces::{self, TracePair};
use se_serve::cluster::{ClusterSpec, ModelService, RouterPolicy};
use se_serve::queue::BatchPolicy;
use se_serve::workload::{self, ArrivalPattern};
use se_serve::{BatchEngine, ACCEL_NAMES, SE_LANE};
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Metric-name suffix of each lane, indexed like [`ACCEL_NAMES`].
const LANE_KEYS: [&str; 5] = ["diannao", "scnn", "cambricon_x", "bit_pragmatic", "smartexchange"];

/// Flat, non-overlapping spans of one traced pass, in call order.
#[derive(Default)]
struct Tracer {
    spans: Vec<(String, f64)>,
}

impl Tracer {
    /// Runs `f` inside a span named `name`.
    fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = f();
        self.spans.push((name.to_string(), start.elapsed().as_secs_f64()));
        value
    }

    /// Every duration (seconds) recorded under `name`.
    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|(n, _)| n == name).map(|&(_, d)| d).collect()
    }

    /// Duration (seconds) of the latest span.
    fn last(&self) -> f64 {
        self.spans.last().map_or(0.0, |&(_, d)| d)
    }

    /// Total seconds recorded under `name`.
    fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Total milliseconds recorded under `name`.
    fn ms(&self, name: &str) -> f64 {
        self.total(name) * 1e3
    }

    /// Total seconds recorded under every name starting with `prefix`.
    fn total_prefix(&self, prefix: &str) -> f64 {
        self.spans.iter().filter(|(n, _)| n.starts_with(prefix)).map(|&(_, d)| d).sum()
    }

    /// Seconds covered by all spans.
    fn covered(&self) -> f64 {
        self.spans.iter().map(|&(_, d)| d).sum()
    }
}

/// Nearest-rank percentile of `xs` (`p` in 0..=100); 0 for an empty set.
fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// One traced pass: its spans, the CLI output it must reproduce, and the
/// first fidelity mismatch found.
#[derive(Default)]
struct Pass {
    tr: Tracer,
    /// Text the CLI must have printed; checked against `--cli-stdout`
    /// after the pass, outside the traced wall.
    expected: Vec<String>,
    mismatch: Option<String>,
}

impl Pass {
    /// Records a fidelity mismatch (the first one is reported).
    fn mismatch(&mut self, what: String) {
        self.mismatch.get_or_insert(what);
    }
}

type Metrics = BTreeMap<String, f64>;

struct Args {
    workload: String,
    out: Option<PathBuf>,
    cli_stdout: Option<PathBuf>,
    se_args: Vec<String>,
}

fn parse_args() -> Result<Args> {
    let mut it = std::env::args().skip(1);
    let workload = it.next().ok_or("usage: perfbench-layers <workload> [opts] -- <se args>")?;
    let (mut out, mut cli_stdout) = (None, None);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out = Some(PathBuf::from(it.next().ok_or("--out needs a value")?)),
            "--cli-stdout" => {
                cli_stdout = Some(PathBuf::from(it.next().ok_or("--cli-stdout needs a value")?));
            }
            "--" => break,
            other => return Err(format!("unknown option {other:?}").into()),
        }
    }
    Ok(Args { workload, out, cli_stdout, se_args: it.collect() })
}

fn main() -> Result<()> {
    let args = parse_args()?;
    let flags = Flags::from_args(args.se_args.iter().cloned());
    let mut p = Pass::default();
    let start = Instant::now();
    let metrics = match args.workload.as_str() {
        "cold" => {
            let out = args.out.as_deref().ok_or("cold needs --out")?;
            cold(&flags, out, &mut p)?
        }
        "replay" => replay(&flags, &mut p)?,
        "serve" => serve(&flags, &mut p)?,
        "observe" => {
            let out = args.out.as_deref().ok_or("observe needs --out")?;
            observe(&flags, out, &mut p)?
        }
        other => return Err(format!("unknown workload {other:?}").into()),
    };
    let wall = start.elapsed().as_secs_f64();
    // The CLI-side half of each fidelity check runs after the pass, so it
    // is outside the traced wall.
    if let Some(path) = args.cli_stdout.as_deref() {
        let stdout =
            std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let stdout = squeeze(&stdout);
        for line in std::mem::take(&mut p.expected) {
            if !stdout.contains(&squeeze(&line)) {
                p.mismatch(format!("CLI stdout lacks {line:?}"));
            }
        }
    }
    let doc = Json::Obj(vec![
        (
            "metrics".to_string(),
            Json::Obj(metrics.into_iter().map(|(k, v)| (k, Json::Num(v))).collect()),
        ),
        ("wall_s".to_string(), Json::Num(wall)),
        ("coverage".to_string(), Json::Num(p.tr.covered() / wall)),
        ("fidelity".to_string(), Json::Str(p.mismatch.unwrap_or_else(|| "ok".to_string()))),
    ]);
    print!("{}", doc.render());
    Ok(())
}

/// `se trace build`: every eligible layer generated serially with each
/// generation step timed, the parallel trace stream timed on the same
/// network for its efficiency, then encode and write. Fidelity: the pairs
/// equal the stream's, and the written artifact equals the CLI's byte for
/// byte.
fn cold(flags: &Flags, out: &Path, p: &mut Pass) -> Result<Metrics> {
    let cli_dir = flags.traces_dir.as_deref().ok_or("cold needs --traces-dir in the se args")?;
    let opts = flags.runner_options()?.traces;
    let serial_cfg = opts.se_config.clone().with_parallelism(1)?;
    let workers = opts.se_config.parallelism();
    let seed = opts.base_seed;
    let (mut weights, mut encoded_bytes, mut busy) = (0u64, 0u64, 0.0);
    for net in &cli::selected_models(flags) {
        let before = p.tr.covered();
        let mut pairs = Vec::new();
        for (i, desc) in net.layers().iter().enumerate() {
            if opts.conv_like_only && !desc.kind().is_conv_like() {
                continue;
            }
            let w = p.tr.time("se_models.synthetic_weights", || {
                se_models::weights::synthetic_weights(net.name(), desc, seed)
            })?;
            let qw = p.tr.time("se_ir.quantize", || QuantTensor::quantize(&w, 8))?;
            let act = p.tr.time("se_models.synthetic_activation", || {
                se_models::activations::synthetic_activation(net, i, seed)
            })?;
            let qa = p.tr.time("se_ir.quantize", || QuantTensor::quantize(&act, 8))?;
            let parts = p.tr.time("se_core.compress_layer", || {
                se_core::layer::compress_layer(desc, &w, &serial_cfg)
            })?;
            weights += w.len() as u64;
            let pair = p.tr.time("se_ir.layer_trace", || -> Result<TracePair> {
                let dense = LayerTrace::new(desc.clone(), WeightData::Dense(qw), qa.clone())?;
                let se = LayerTrace::new(desc.clone(), WeightData::Se(parts), qa)?;
                Ok(TracePair { layer_index: i, dense, se })
            })?;
            pairs.push(pair);
        }
        busy += p.tr.covered() - before;
        let streamed = p.tr.time("se_core.trace_stream", || traces::trace_pairs(net, &opts))?;
        if streamed != pairs {
            p.mismatch(format!("{}: serial pairs differ from the stream's", net.name()));
        }
        let bytes = p.tr.time("se_models.encode_trace_pairs", || {
            traces::encode_trace_pairs(net.name(), traces::options_digest(&opts), &pairs)
        })?;
        encoded_bytes += bytes.len() as u64;
        let path = p.tr.time("se_models.write_trace_file", || {
            traces::write_trace_file(out, net, &opts, &pairs)
        })?;
        let cli_path = cli_dir.join(traces::trace_file_name(net.name(), &opts));
        let cli_bytes =
            std::fs::read(&cli_path).map_err(|e| format!("{}: {e}", cli_path.display()))?;
        if cli_bytes != bytes || std::fs::read(&path)? != cli_bytes {
            p.mismatch(format!("{}: artifact differs from the CLI's", cli_path.display()));
        }
    }
    let compress = p.tr.durations("se_core.compress_layer");
    let compress_s = p.tr.total("se_core.compress_layer");
    let encode_s = p.tr.total("se_models.encode_trace_pairs");
    Ok(BTreeMap::from([
        ("se_core.compress_layer.ms".into(), compress_s * 1e3),
        ("se_core.compress_layer.calls".into(), compress.len() as f64),
        ("se_core.compress_layer.p50_ms".into(), percentile(&compress, 50.0) * 1e3),
        ("se_core.compress_layer.p95_ms".into(), percentile(&compress, 95.0) * 1e3),
        ("se_core.compress_layer.ns_per_weight".into(), compress_s * 1e9 / weights as f64),
        ("se_models.synthetic_weights.ms".into(), p.tr.ms("se_models.synthetic_weights")),
        ("se_models.synthetic_activation.ms".into(), p.tr.ms("se_models.synthetic_activation")),
        ("se_ir.quantize.ms".into(), p.tr.ms("se_ir.quantize")),
        (
            "se_core.trace_stream.efficiency".into(),
            busy / (p.tr.total("se_core.trace_stream") * workers as f64),
        ),
        ("se_models.encode_trace_pairs.ms".into(), encode_s * 1e3),
        ("se_models.encode_trace_pairs.mb_per_s".into(), encoded_bytes as f64 / 1e6 / encode_s),
        ("se_models.write_trace_file.ms".into(), p.tr.ms("se_models.write_trace_file")),
    ]))
}

/// `se compare --traces-dir`: read and decode each artifact, run the
/// parallel comparison grid as the CLI does, then every `(layer, lane)`
/// job serially with its own span. Fidelity: the serial lanes equal the
/// grid's, and the rendered Fig. 10/11/12 tables equal the CLI's.
fn replay(flags: &Flags, p: &mut Pass) -> Result<Metrics> {
    let dir = flags.traces_dir.as_deref().ok_or("replay needs --traces-dir in the se args")?;
    let opts = flags.runner_options()?;
    let engine = BatchEngine::new(opts.se_cfg.clone(), opts.baseline_cfg.clone())?;
    let mut comparisons = Vec::new();
    let (mut file_bytes, mut unsupported) = (0u64, 0u64);
    let mut schedules = HashSet::new();
    for net in &cli::selected_models(flags) {
        let path = dir.join(traces::trace_file_name(net.name(), &opts.traces));
        let bytes = p.tr.time("se_models.read", || std::fs::read(&path))?;
        file_bytes += bytes.len() as u64;
        let file =
            p.tr.time("se_models.decode_trace_pairs", || traces::decode_trace_pairs(&bytes))?;
        if file.net_name != net.name() || file.digest != traces::options_digest(&opts.traces) {
            p.mismatch(format!("{}: artifact is for other options", path.display()));
        }
        let grid = p.tr.time("se_bench.compare_pairs", || {
            runner::compare_pairs(net.name(), &file.pairs, &opts)
        })?;
        let mut runs: [Option<RunResult>; 5] = std::array::from_fn(|_| Some(RunResult::default()));
        for pair in &file.pairs {
            schedules.insert(ScheduleKey::for_config(pair.se.desc(), &opts.se_cfg));
            for (lane, run) in runs.iter_mut().enumerate() {
                let layer = p.tr.time(&format!("sim.{}", LANE_KEYS[lane]), || {
                    engine.simulate_lane(pair, lane)
                })?;
                match layer {
                    Some(layer) => {
                        if let Some(run) = run.as_mut() {
                            run.layers.push(layer);
                        }
                    }
                    None => {
                        unsupported += 1;
                        *run = None;
                    }
                }
            }
        }
        if runs != grid.runs {
            p.mismatch(format!("{}: serial lanes differ from the grid", net.name()));
        }
        comparisons.push(ModelComparison { model: grid.model, runs });
    }
    type Series = fn(&ModelComparison) -> [Option<f64>; 5];
    let views: [(&str, Series); 3] = [
        ("Fig. 10: normalized energy efficiency (over DianNao)", figures::fig10::energy_efficiency),
        ("Fig. 11: normalized DRAM accesses (over SmartExchange)", figures::fig11::dram_accesses),
        ("Fig. 12: normalized speedup (over DianNao)", figures::fig12::speedup),
    ];
    for (title, values) in views {
        p.expected.push(format!("{title}\n\n{}\n", cli::normalized_view(&comparisons, values)));
    }
    let se = p.tr.durations("sim.smartexchange");
    let lanes_busy = p.tr.total_prefix("sim.");
    let decode_s = p.tr.total("se_models.decode_trace_pairs");
    let mut m = BTreeMap::from([
        ("se_models.read.ms".into(), p.tr.ms("se_models.read")),
        ("se_models.decode_trace_pairs.ms".into(), decode_s * 1e3),
        ("se_models.decode_trace_pairs.mb_per_s".into(), file_bytes as f64 / 1e6 / decode_s),
        ("se_hw.sim.se.ms".into(), se.iter().sum::<f64>() * 1e3),
        ("se_hw.sim.se.p50_us".into(), percentile(&se, 50.0) * 1e6),
        ("se_hw.sim.se.p95_us".into(), percentile(&se, 95.0) * 1e6),
        ("se_hw.sim.se.jobs".into(), se.len() as f64),
        ("se_baselines.unsupported_jobs".into(), unsupported as f64),
        ("se_hw.schedule.entries".into(), schedules.len() as f64),
        ("se_bench.compare_pairs.ms".into(), p.tr.ms("se_bench.compare_pairs")),
        (
            "se_bench.compare_pairs.efficiency".into(),
            lanes_busy / (p.tr.total("se_bench.compare_pairs") * opts.sim_parallelism as f64),
        ),
    ]);
    for key in &LANE_KEYS[..SE_LANE] {
        m.insert(format!("se_baselines.{key}.ms"), p.tr.ms(&format!("sim.{key}")));
    }
    Ok(m)
}

/// The `se cluster` scenario, built from the flags exactly as the CLI
/// builds it: per-model service profiles on every lane and the shared
/// request stream. `None` services mark a lane that cannot run a model.
struct Cluster {
    spec: ClusterSpec,
    stream: Vec<se_serve::Request>,
    services: Vec<Option<Vec<ModelService>>>,
    deadline: Option<u64>,
}

fn cluster(flags: &Flags, tr: &mut Tracer) -> Result<Cluster> {
    let opts = flags.runner_options()?;
    let freq = SeAcceleratorConfig::default().frequency_hz;
    let max_batch = flags.max_batch.unwrap_or(8);
    let router = match flags.router.as_deref() {
        None => RouterPolicy::JoinShortestQueue,
        Some(name) => RouterPolicy::parse(name).ok_or_else(|| format!("unknown router {name}"))?,
    };
    let spec = ClusterSpec {
        instances: flags.instances.unwrap_or(4),
        router,
        policy: BatchPolicy {
            max_batch,
            max_wait: (flags.max_wait_us.unwrap_or(50.0) * 1e-6 * freq).round() as u64,
            queue_cap: flags.queue_cap.unwrap_or(256),
        },
        buffer_bytes: flags.buffer_kb.map(|kb| (kb * 1024.0).round() as u64),
        tiers: flags.tier_specs()?,
        faults: flags.fault_plan(freq)?,
    };
    spec.faults.validate(spec.instances)?;
    let deadline = figures::latency::deadline_cycles(flags.deadline_us, freq);
    let engine = BatchEngine::new(opts.se_cfg.clone(), opts.baseline_cfg.clone())?;
    let models = cli::selected_models(flags);
    let mut per_model = Vec::new();
    for net in &models {
        let pairs =
            tr.time("se_bench.pairs_for", || figures::batch::pairs_for(net, flags, &opts))?;
        per_model.push(tr.time("se_serve.per_image_comparison", || {
            engine.per_image_comparison(&pairs, opts.sim_parallelism)
        })?);
    }
    let mean_se: f64 = per_model
        .iter()
        .map(|runs| runs[SE_LANE].as_ref().map_or(0.0, |r| r.total_cycles() as f64))
        .sum::<f64>()
        / models.len() as f64;
    let rate = flags.rate.unwrap_or(1.5 * spec.instances as f64 * freq / mean_se);
    let stream = tr.time("se_serve.request_stream", || {
        workload::request_stream(
            flags.requests.unwrap_or(256),
            rate,
            freq,
            ArrivalPattern::Uniform,
            models.len(),
            deadline,
        )
    })?;
    let services = tr.time("se_serve.model_service", || {
        (0..ACCEL_NAMES.len())
            .map(|lane| {
                models
                    .iter()
                    .zip(&per_model)
                    .map(|(net, runs)| {
                        runs[lane].as_ref().map(|r| {
                            ModelService::from_engine(&engine, lane, net.name(), r, max_batch)
                        })
                    })
                    .collect()
            })
            .collect()
    });
    Ok(Cluster { spec, stream, services, deadline })
}

/// The CLI's lane-table row for one report (`se cluster`'s columns).
fn lane_row(lane: usize, c: &Cluster, r: &se_serve::ClusterReport) -> String {
    let freq = SeAcceleratorConfig::default().frequency_hz;
    let (missed, miss_pct) =
        figures::latency::miss_cells(c.deadline.map(|_| r.misses), r.completed());
    let [p50, p95, p99] = figures::latency::percentile_cells(&r.latencies, freq);
    [
        ACCEL_NAMES[lane].to_string(),
        r.completed().to_string(),
        r.rejected.to_string(),
        missed,
        miss_pct,
        format!("{:.1}", r.goodput_per_s(freq)),
        p50,
        p95,
        p99,
        r.residency.fetches.to_string(),
        format!("{:.2}", r.residency.bytes_fetched as f64 / (1024.0 * 1024.0)),
        r.residency.evictions.to_string(),
        r.rerouted.to_string(),
        r.lost.to_string(),
    ]
    .join(" ")
}

/// Whitespace-normalized lines of `text` (table columns are padded).
fn squeeze(text: &str) -> String {
    text.lines()
        .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect::<Vec<_>>()
        .join("\n")
}

/// `se cluster`: per-model comparison passes, the request stream, then
/// each lane's cluster simulation in its own span. Fidelity: every lane
/// row equals the CLI's and every lane conserves its requests.
fn serve(flags: &Flags, p: &mut Pass) -> Result<Metrics> {
    let c = cluster(flags, &mut p.tr)?;
    let (mut batches, mut requests) = (0u64, 0u64);
    for (lane, services) in c.services.iter().enumerate() {
        let Some(services) = services else { continue };
        let report = p.tr.time(&format!("cluster.{}", LANE_KEYS[lane]), || {
            se_serve::cluster::simulate_cluster(&c.stream, services, &c.spec)
        })?;
        if !report.conserves(c.stream.len()) {
            p.mismatch(format!("{}: requests not conserved", ACCEL_NAMES[lane]));
        }
        batches += report.batch_sizes.len() as u64 + report.killed_batches;
        requests += c.stream.len() as u64;
        p.expected.push(lane_row(lane, &c, &report));
    }
    let sim_s = p.tr.total_prefix("cluster.");
    let mut m = BTreeMap::from([
        ("se_serve.per_image_comparison.ms".into(), p.tr.ms("se_serve.per_image_comparison")),
        ("se_serve.request_stream.ms".into(), p.tr.ms("se_serve.request_stream")),
        ("se_serve.simulate_cluster.ns_per_request".into(), sim_s * 1e9 / requests as f64),
        ("se_serve.simulate_cluster.batches".into(), batches as f64),
        ("se_serve.simulate_cluster.requests".into(), requests as f64),
    ]);
    for key in LANE_KEYS {
        m.insert(format!("se_serve.simulate_cluster.{key}.ms"), p.tr.ms(&format!("cluster.{key}")));
    }
    Ok(m)
}

/// Repetitions of each lane's untraced and traced cluster run; the
/// per-event emission cost is the difference of their medians.
const EMIT_REPS: usize = 5;

/// `se cluster --trace-out` then `se obs summarize|attribute`: each lane
/// run untraced and traced (the difference is emission), the Chrome
/// export rendered and written, then read back, parsed, decoded and
/// analyzed. Fidelity: the export equals the CLI's file byte for byte and
/// the analysis totals equal what `se obs` printed.
fn observe(flags: &Flags, out: &Path, p: &mut Pass) -> Result<Metrics> {
    let cli_trace = flags.trace_out.as_deref().ok_or("observe needs --trace-out in the se args")?;
    let c = cluster(flags, &mut p.tr)?;
    let mut streams: Vec<(String, Vec<se_obs::Event>)> = Vec::new();
    let (mut plain, mut traced) = (0.0, 0.0);
    for (lane, services) in c.services.iter().enumerate() {
        let Some(services) = services else { continue };
        let (mut plain_s, mut traced_s, mut events) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..EMIT_REPS {
            let report = p.tr.time("se_serve.simulate_cluster", || {
                se_serve::cluster::simulate_cluster(&c.stream, services, &c.spec)
            })?;
            plain_s.push(p.tr.last());
            let mut recorder = se_obs::Recorder::new();
            let run = p.tr.time("se_obs.emit", || {
                se_serve::cluster::simulate_cluster_run_obs(
                    &c.stream,
                    services,
                    &c.spec,
                    &mut recorder,
                )
            })?;
            traced_s.push(p.tr.last());
            if run.report != report {
                p.mismatch(format!("{}: traced report differs", ACCEL_NAMES[lane]));
            }
            events = recorder.into_events();
        }
        plain += percentile(&plain_s, 50.0);
        traced += percentile(&traced_s, 50.0);
        streams.push((ACCEL_NAMES[lane].to_string(), events));
    }
    let n_events: usize = streams.iter().map(|(_, e)| e.len()).sum();
    let views: Vec<(String, &[se_obs::Event])> =
        streams.iter().map(|(l, e)| (l.clone(), e.as_slice())).collect();
    let rendered =
        p.tr.time("se_bench.chrome_trace", || se_bench::obs_export::chrome_trace(&views).render());
    std::fs::create_dir_all(out)?;
    let path = out.join("trace.json");
    p.tr.time("se_bench.write_export", || se_bench::obs_export::write_export(&path, &rendered))?;
    let text = p.tr.time("se_bench.read_trace", || std::fs::read_to_string(&path))?;
    let doc = p.tr.time("se_bench.json_parse", || Json::parse(&text))?;
    let decoded = p.tr.time("se_bench.events_from_chrome_trace", || {
        se_bench::obs_export::events_from_chrome_trace(&doc)
    })?;
    if decoded != streams {
        p.mismatch("decoded event streams differ from the recorded ones".to_string());
    }
    if std::fs::read(cli_trace)? != rendered.as_bytes() {
        p.mismatch(format!("{}: differs from the in-process export", cli_trace.display()));
    }
    let freq = SeAcceleratorConfig::default().frequency_hz;
    let window = ((flags.window_us.unwrap_or(200.0) * 1e-6 * freq).round() as u64).max(1);
    let mut misses = 0usize;
    for (label, events) in &decoded {
        let a = p.tr.time("se_obs.analyze", || se_obs::analyze::analyze(events, window));
        let ranked = p.tr.time("se_obs.ranked_miss_causes", || a.ranked_miss_causes());
        misses += ranked.len();
        let t = &a.totals;
        p.expected.push(format!(
            "stream {label}: {} submitted = {} served + {} rejected + {} lost \
             (conservation ok; windows fold to totals)",
            t.submitted, t.served, t.rejected, t.lost
        ));
        p.expected
            .push(format!("  {} missed + {} lost of {} submitted", t.missed, t.lost, t.submitted));
    }
    if misses == 0 {
        p.mismatch("no SLO misses to attribute: the scenario lost its point".to_string());
    }
    let parse_s = p.tr.total("se_bench.json_parse");
    let analyze_s = p.tr.total("se_obs.analyze");
    Ok(BTreeMap::from([
        ("se_obs.emit.ns_per_event".into(), (traced - plain) * 1e9 / n_events as f64),
        ("se_obs.events".into(), n_events as f64),
        ("se_bench.chrome_trace.ms".into(), p.tr.ms("se_bench.chrome_trace")),
        ("se_bench.chrome_trace.bytes_per_event".into(), rendered.len() as f64 / n_events as f64),
        ("se_bench.json_parse.ms".into(), parse_s * 1e3),
        ("se_bench.json_parse.mb_per_s".into(), text.len() as f64 / 1e6 / parse_s),
        (
            "se_bench.events_from_chrome_trace.ms".into(),
            p.tr.ms("se_bench.events_from_chrome_trace"),
        ),
        ("se_obs.analyze.ms".into(), analyze_s * 1e3),
        ("se_obs.analyze.ns_per_event".into(), analyze_s * 1e9 / n_events as f64),
        ("se_obs.ranked_miss_causes.ms".into(), p.tr.ms("se_obs.ranked_miss_causes")),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(percentile(&xs, 95.0), 5.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn tracer_totals_spans_by_name_and_prefix() {
        let mut tr = Tracer {
            spans: vec![("sim.se".into(), 1.0), ("sim.scnn".into(), 2.0), ("read".into(), 0.5)],
        };
        assert_eq!(tr.total("sim.se"), 1.0);
        assert_eq!(tr.total_prefix("sim."), 3.0);
        assert_eq!(tr.covered(), 3.5);
        assert_eq!(tr.last(), 0.5);
        assert_eq!(tr.time("read", || 7), 7);
        assert_eq!(tr.durations("read").len(), 2);
    }

    #[test]
    fn squeeze_collapses_table_padding() {
        assert_eq!(squeeze("  DianNao     1   2\n  x  y "), "DianNao 1 2\nx y");
    }
}
