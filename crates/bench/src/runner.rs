//! The five-accelerator comparison runner behind Figs. 10–13.
//!
//! For every model, traces are generated layer by layer (one set of
//! synthetic weights and activations); the four baselines consume the dense
//! form and the SmartExchange accelerator the compressed form, exactly the
//! paper's equal-footing protocol. FC layers are excluded (Figs. 10–12
//! exclude them for fairness to SCNN) unless requested; SCNN skips models
//! containing squeeze-excite layers (EfficientNet-B0), as in the paper.
//!
//! # Two-level parallelism
//!
//! Both halves of a sweep run on the deterministic work queue of
//! [`se_core::pipeline`]:
//!
//! 1. **Trace source**: each model's pairs come from a
//!    [`PairStream`]: read a pair at a time from a persisted artifact, or
//!    generated (the SmartExchange decomposition per layer) a few layers
//!    at a time on `RunnerOptions::traces.se_config.parallelism()`
//!    workers.
//! 2. **Simulation**: one queue (`run_queued`) runs every sweep: its
//!    `RunnerOptions::sim_parallelism` workers drain a `(layer, lane)`
//!    grid over consecutive models that have an artifact, pulling the next
//!    pair from the open artifact as the queue runs low, so decoding
//!    overlaps simulation and only the pairs in flight are alive; a
//!    generated model's chunks each go through the grid in turn. The lanes
//!    are the caller's: [`compare_models`] runs the five accelerators of
//!    the serving subsystem's [`BatchEngine`] (the single five-lane
//!    dispatch, [`BatchEngine::simulate_lane`]), [`run_se_model`] its
//!    SmartExchange lane alone, and `se ablation` its four accelerator
//!    steps. [`BatchEngine::fold_lanes`] folds each model's rows.
//!
//! Results are reassembled in network order at both levels, so a
//! comparison sweep is **bit-identical for every worker count** at either
//! level (enforced by tests). Every job is a pure function of its trace,
//! with no state shared between jobs, which is what makes the guarantee
//! hold. Each simulator builds a layer's tiling/cycle skeleton per layer
//! (see [`se_hw::schedule`] for why it is not memoized).
//!
//! Every entry point takes an optional persisted-trace directory: a model
//! with an artifact there replays it instead of regenerating its traces,
//! bit-identically.

use crate::{BoxError, Result};
use se_baselines::BaselineConfig;
use se_core::pipeline;
use se_hw::{EnergyModel, LayerResult, RunResult, SeAcceleratorConfig};
use se_ir::NetworkDesc;
use se_models::traces::{PairStream, TraceOptions, TracePair};
use se_serve::{BatchEngine, SE_LANE};
use std::path::Path;

/// Names of the five accelerators in presentation order (shared with the
/// serving subsystem, which hosts the single five-lane dispatch).
pub use se_serve::ACCEL_NAMES;

/// One model's results across the five accelerators (`None` where the
/// design cannot run the model, e.g. SCNN on EfficientNet-B0).
#[derive(Debug, Clone)]
pub struct ModelComparison {
    /// Model name.
    pub model: String,
    /// Results indexed like [`ACCEL_NAMES`].
    pub runs: [Option<RunResult>; 5],
}

impl ModelComparison {
    /// Total energy in mJ per accelerator (None where unsupported).
    pub fn energies_mj(&self, em: &EnergyModel, cfg: &SeAcceleratorConfig) -> [Option<f64>; 5] {
        let mut out = [None; 5];
        for (i, run) in self.runs.iter().enumerate() {
            out[i] = run.as_ref().map(|r| r.energy_mj(em, cfg));
        }
        out
    }

    /// Total latency in cycles per accelerator.
    pub fn cycles(&self) -> [Option<u64>; 5] {
        let mut out = [None; 5];
        for (i, run) in self.runs.iter().enumerate() {
            out[i] = run.as_ref().map(RunResult::total_cycles);
        }
        out
    }

    /// Total DRAM bytes per accelerator.
    pub fn dram_bytes(&self) -> [Option<u64>; 5] {
        let mut out = [None; 5];
        for (i, run) in self.runs.iter().enumerate() {
            out[i] = run.as_ref().map(|r| r.mem_totals().dram_total_bytes());
        }
        out
    }
}

/// Options for a comparison sweep.
#[derive(Debug, Clone)]
pub struct RunnerOptions {
    /// Trace generation options (seed, SE config, FC inclusion).
    pub traces: TraceOptions,
    /// SmartExchange accelerator configuration.
    pub se_cfg: SeAcceleratorConfig,
    /// Baseline resources.
    pub baseline_cfg: BaselineConfig,
    /// Worker threads draining the `(layer, accelerator)` simulation grid,
    /// and `se cluster`'s lane jobs (results are bit-identical for every
    /// value). Defaults to the trace generator's worker count.
    pub sim_parallelism: usize,
}

impl Default for RunnerOptions {
    fn default() -> Self {
        let traces = TraceOptions::fast();
        let sim_parallelism = traces.se_config.parallelism();
        RunnerOptions {
            traces,
            se_cfg: SeAcceleratorConfig::default(),
            baseline_cfg: BaselineConfig::default(),
            sim_parallelism,
        }
    }
}

impl RunnerOptions {
    /// The `--fast` profile: sampled output rows (`se_cfg.row_sample = 4`).
    /// The traces are [`TraceOptions::fast`] either way; `table2`, `table3`
    /// and `postproc` cut their decomposition iterations under `--fast`
    /// themselves.
    pub fn fast() -> Self {
        let mut o = RunnerOptions::default();
        o.se_cfg.row_sample = 4;
        o
    }

    /// Sets the worker-thread count for **both** levels — trace generation
    /// and the simulation grid (results are bit-identical for every value).
    ///
    /// # Errors
    ///
    /// Propagates the configuration error for `n == 0`.
    pub fn with_parallelism(mut self, n: usize) -> Result<Self> {
        self.traces.se_config = self.traces.se_config.with_parallelism(n)?;
        self.sim_parallelism = n;
        Ok(self)
    }

    /// Sets the worker-thread count for the simulation grid alone, leaving
    /// trace generation untouched.
    ///
    /// # Errors
    ///
    /// Rejects `n == 0`.
    pub fn with_sim_parallelism(mut self, n: usize) -> Result<Self> {
        if n == 0 {
            return Err("sim parallelism must be at least 1".into());
        }
        self.sim_parallelism = n;
        Ok(self)
    }
}

/// Runs pre-generated trace pairs through all five accelerators on the
/// simulation grid ([`BatchEngine::per_image_comparison`]) —
/// [`compare_models`] without the trace-source half; results are
/// bit-identical to it on the same pairs.
///
/// # Errors
///
/// Propagates unexpected simulator errors.
pub fn compare_pairs(
    model: &str,
    pairs: &[TracePair],
    opts: &RunnerOptions,
) -> Result<ModelComparison> {
    let engine = BatchEngine::new(opts.se_cfg.clone(), opts.baseline_cfg.clone())?;
    let runs = engine.per_image_comparison(pairs, opts.sim_parallelism)?;
    Ok(ModelComparison { model: model.to_string(), runs })
}

/// Runs one model through the SmartExchange lane alone on the one
/// simulation queue — the engine behind the energy-breakdown figures and
/// the serving profiles; bit-identical to that lane of [`compare_models`].
///
/// # Errors
///
/// As [`compare_models`], without the model's name.
pub fn run_se_model(
    net: &NetworkDesc,
    opts: &RunnerOptions,
    traces_dir: Option<&Path>,
) -> Result<RunResult> {
    let engine = BatchEngine::new(opts.se_cfg.clone(), opts.baseline_cfg.clone())?;
    let [se] = run_queued(std::slice::from_ref(net), opts, traces_dir, |pair, _| {
        engine.simulate_lane(pair, SE_LANE)
    })
    .map_err(|(_, e)| e)?
    .remove(0);
    Ok(se.expect("SmartExchange supports every layer"))
}

/// Runs a set of models through all five accelerators
/// ([`BatchEngine::simulate_lane`]) on the one simulation queue, replaying
/// the artifacts in `traces_dir` (built by `se trace build`)
/// bit-identically. A lane that cannot run some layer is `None` for the
/// model.
///
/// # Errors
///
/// The failure a serial model-by-model run reports, naming the failing
/// model: the first model, in order, that fails; within it, a decode
/// failure anywhere in its artifact before any simulator failure, and
/// otherwise the failure of the lowest `(layer, accelerator)` job.
/// `UnsupportedTrace` is a `None` lane, not a failure; a corrupt or
/// mismatched artifact is an error, not a miss. Completed models' work is
/// discarded with it — a sweep is all-or-nothing.
pub fn compare_models(
    models: &[NetworkDesc],
    opts: &RunnerOptions,
    traces_dir: Option<&Path>,
) -> Result<Vec<ModelComparison>> {
    compare_queued(models, opts, traces_dir)
        .map_err(|(model, e)| format!("model {} failed: {e}", models[model].name()).into())
}

/// [`compare_models`] with its failure left as the failing model's index
/// and that model's own error, which `se cluster` and `se batch` report
/// as it is.
pub(crate) fn compare_queued(
    models: &[NetworkDesc],
    opts: &RunnerOptions,
    traces_dir: Option<&Path>,
) -> std::result::Result<Vec<ModelComparison>, (usize, BoxError)> {
    let engine =
        BatchEngine::new(opts.se_cfg.clone(), opts.baseline_cfg.clone()).map_err(|e| (0, e))?;
    let runs = run_queued(models, opts, traces_dir, |pair, lane| engine.simulate_lane(pair, lane))?;
    let named = models.iter().zip(runs);
    Ok(named.map(|(net, runs)| ModelComparison { model: net.name().to_string(), runs }).collect())
}

/// The one simulation queue behind every sweep: runs each model's pairs
/// through `N` lanes (`lane(pair, l)` for `l < N`; `Ok(None)` where the
/// lane cannot run the layer) and folds each model's rows into one run
/// per lane ([`BatchEngine::fold_lanes`]).
///
/// Consecutive models with an artifact in `traces_dir` (built by
/// `se trace build`, matching the network and `opts.traces`) share one
/// [`pipeline::try_run_grid`] queue: its `opts.sim_parallelism` workers
/// take `(pair, lane)` jobs from every such model in order, and the next
/// pair is read from the open artifact as the queue runs low, so decoding
/// overlaps simulation and only the pairs in flight are alive. A model
/// without an artifact is generated a few layers at a time,
/// each chunk simulated before the next is generated: generation is
/// parallel itself, and a grid drawing on it would take cores from it at
/// every chunk's last layer.
///
/// # Errors
///
/// The index of the first model, in order, that fails, with its error:
/// a decode failure anywhere in its artifact before any lane failure, and
/// otherwise the failure of the lowest `(layer, lane)` job.
pub(crate) fn run_queued<const N: usize>(
    models: &[NetworkDesc],
    opts: &RunnerOptions,
    traces_dir: Option<&Path>,
    lane: impl Fn(&TracePair, usize) -> se_hw::Result<Option<LayerResult>> + Sync,
) -> std::result::Result<Vec<[Option<RunResult>; N]>, (usize, BoxError)> {
    // Generated pairs per chunk: enough jobs for every worker, and at
    // least four layers for generation to spread over its own workers.
    let chunk = 4.max(opts.sim_parallelism.div_ceil(N));
    let grid = |pairs: &mut dyn Iterator<Item = _>| {
        pipeline::try_run_grid(pairs, N, opts.sim_parallelism, |_, item, l| {
            let (model, pair): &(usize, TracePair) = item;
            lane(pair, l).map_err(|e| (*model, BoxError::from(e)))
        })
    };
    let mut source = ModelPairs {
        models,
        opts: &opts.traces,
        dir: traces_dir,
        chunk,
        stream: None,
        counts: Vec::new(),
    };
    let mut out = Vec::with_capacity(models.len());
    loop {
        let rows = match grid(&mut source) {
            Ok(rows) => rows,
            Err((model, e)) => return Err((model, source.decode_failure_first(model, e))),
        };
        let mut rows = rows.into_iter();
        let queued = source.counts.len() - usize::from(source.generating());
        for &count in &source.counts[out.len()..queued] {
            out.push(BatchEngine::fold_lanes(rows.by_ref().take(count)));
        }
        let Some(mut stream) = source.take_generating() else { break };
        let model = out.len();
        let mut rows = Vec::new();
        loop {
            let pairs = stream.next_chunk(chunk).map_err(|e| (model, e.into()))?;
            if pairs.is_empty() {
                break;
            }
            rows.extend(grid(&mut pairs.into_iter().map(|pair| Ok((model, pair))))?);
        }
        out.push(BatchEngine::fold_lanes(rows));
    }
    Ok(out)
}

/// The source of the one queue: the pairs of consecutive models with an
/// artifact, in order, each tagged with its model's index, counting the
/// pairs of each model as they are read. It ends at a model without an
/// artifact, holding that model's stream, and resumes after it. Its errors
/// carry the index of the model that failed.
struct ModelPairs<'a> {
    models: &'a [NetworkDesc],
    opts: &'a TraceOptions,
    dir: Option<&'a Path>,
    chunk: usize,
    /// The stream of the last model in `counts`, until it is spent.
    stream: Option<PairStream<'a>>,
    /// Pairs read per model, for the models reached so far.
    counts: Vec<usize>,
}

impl<'a> ModelPairs<'a> {
    /// Whether the source stopped at a model it generates.
    fn generating(&self) -> bool {
        self.stream.as_ref().is_some_and(|s| !s.is_cached())
    }

    /// The stream of the model the source stopped at, to be generated
    /// chunk by chunk outside the queue.
    fn take_generating(&mut self) -> Option<PairStream<'a>> {
        if self.generating() {
            self.stream.take()
        } else {
            None
        }
    }

    /// The error to report for the failure `e` of `model`: a simulator
    /// failure in a model whose artifact is still open (a source failure
    /// closes it) gives way to a decode failure later in that file.
    fn decode_failure_first(&mut self, model: usize, e: BoxError) -> BoxError {
        match self.stream.as_mut() {
            Some(stream) if self.counts.len() == model + 1 => {
                stream.finish().err().map_or(e, BoxError::from)
            }
            _ => e,
        }
    }
}

impl Iterator for ModelPairs<'_> {
    type Item = std::result::Result<(usize, TracePair), (usize, BoxError)>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.stream.is_none() {
                let model = self.counts.len();
                let net = self.models.get(model)?;
                self.counts.push(0);
                match PairStream::open(net, self.opts, self.dir, self.chunk) {
                    Ok(stream) => self.stream = Some(stream),
                    Err(e) => return Some(Err((model, e.into()))),
                }
            }
            if self.generating() {
                return None;
            }
            let model = self.counts.len() - 1;
            let stream = self.stream.as_mut().expect("opened above");
            match stream.next_pair() {
                Ok(Some(pair)) => {
                    self.counts[model] += 1;
                    return Some(Ok((model, pair)));
                }
                Ok(None) => self.stream = None,
                Err(e) => {
                    self.stream = None;
                    return Some(Err((model, e.into())));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use se_ir::{Dataset, LayerDesc, LayerKind};

    /// One model through the comparison queue.
    fn compare_model(
        net: &NetworkDesc,
        opts: &RunnerOptions,
        traces_dir: Option<&Path>,
    ) -> Result<ModelComparison> {
        compare_models(std::slice::from_ref(net), opts, traces_dir).map(|mut c| c.remove(0))
    }

    fn tiny() -> NetworkDesc {
        NetworkDesc::new(
            "tiny",
            Dataset::Cifar10,
            vec![
                LayerDesc::new(
                    "c1",
                    LayerKind::Conv2d {
                        in_channels: 3,
                        out_channels: 8,
                        kernel: 3,
                        stride: 1,
                        padding: 1,
                    },
                    (8, 8),
                ),
                LayerDesc::new("se1", LayerKind::SqueezeExcite { channels: 8, reduced: 2 }, (8, 8)),
            ],
        )
        .unwrap()
    }

    /// Repeated geometries plus a squeeze-excite layer (to exercise the
    /// SCNN `None` lane).
    fn multi_geometry() -> NetworkDesc {
        let conv = |name: &str, ci: usize, co: usize, hw: usize| {
            LayerDesc::new(
                name,
                LayerKind::Conv2d {
                    in_channels: ci,
                    out_channels: co,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                },
                (hw, hw),
            )
        };
        NetworkDesc::new(
            "multi",
            Dataset::Cifar10,
            vec![
                conv("a1", 3, 8, 8),
                conv("b1", 8, 8, 8),
                conv("b2", 8, 8, 8),
                LayerDesc::new("se1", LayerKind::SqueezeExcite { channels: 8, reduced: 2 }, (8, 8)),
                conv("b3", 8, 8, 8),
                conv("c1", 8, 4, 8),
            ],
        )
        .unwrap()
    }

    #[test]
    fn scnn_drops_squeeze_excite_models() {
        let cmp = compare_model(&tiny(), &RunnerOptions::default(), None).unwrap();
        assert!(cmp.runs[0].is_some(), "DianNao runs");
        assert!(cmp.runs[1].is_none(), "SCNN cannot run squeeze-excite");
        assert!(cmp.runs[4].is_some(), "SmartExchange runs");
        let e = cmp.energies_mj(&EnergyModel::default(), &SeAcceleratorConfig::default());
        assert!(e[0].unwrap() > 0.0);
        assert!(e[1].is_none());
    }

    #[test]
    fn parallel_comparison_is_bit_identical_to_serial() {
        // Worker counts {1, 4, 8} at both levels, on a network with
        // repeated geometries and an unsupported
        // SCNN lane — all runs must be bit-identical.
        let net = multi_geometry();
        let serial =
            compare_model(&net, &RunnerOptions::default().with_parallelism(1).unwrap(), None)
                .unwrap();
        assert!(serial.runs[1].is_none(), "SCNN lane must be None");
        for workers in [4usize, 8] {
            let parallel = compare_model(
                &net,
                &RunnerOptions::default().with_parallelism(workers).unwrap(),
                None,
            )
            .unwrap();
            assert_eq!(serial.runs, parallel.runs, "workers = {workers}");
        }
        // Mixed levels: serial generation, parallel simulation.
        let mixed_opts =
            RunnerOptions::default().with_parallelism(1).unwrap().with_sim_parallelism(4).unwrap();
        let mixed = compare_model(&net, &mixed_opts, None).unwrap();
        assert_eq!(serial.runs, mixed.runs);
    }

    #[test]
    fn compare_pairs_matches_compare_model() {
        let net = multi_geometry();
        let opts = RunnerOptions::default().with_parallelism(2).unwrap();
        let streamed = compare_model(&net, &opts, None).unwrap();
        let pairs = se_models::traces::trace_pairs(&net, &opts.traces).unwrap();
        let batched = compare_pairs(net.name(), &pairs, &opts).unwrap();
        assert_eq!(streamed.runs, batched.runs);
    }

    #[test]
    fn run_se_model_matches_the_comparison_lane() {
        let net = multi_geometry();
        let dir = std::env::temp_dir().join(format!("se-runner-se-lane-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = RunnerOptions::default().with_parallelism(1).unwrap();
        let cmp = compare_model(&net, &opts, None).unwrap();
        let se = cmp.runs[SE_LANE].as_ref().unwrap();
        se_models::traces::build_trace_file(&net, &opts.traces, &dir).unwrap();
        // Direct and cached, at every worker count of either level.
        for (gen, sim) in [(1, 1), (2, 2), (4, 4), (1, 4)] {
            let opts = RunnerOptions::default()
                .with_parallelism(gen)
                .unwrap()
                .with_sim_parallelism(sim)
                .unwrap();
            for traces_dir in [None, Some(dir.as_path())] {
                let se_only = run_se_model(&net, &opts, traces_dir).unwrap();
                assert_eq!(&se_only, se, "generation {gen} simulation {sim} {traces_dir:?}");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn run_se_model_reports_the_decode_error_of_its_artifact() {
        let net = multi_geometry();
        let dir = std::env::temp_dir().join(format!("se-runner-se-cut-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = RunnerOptions::default();
        let (path, _) = se_models::traces::build_trace_file(&net, &opts.traces, &dir).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        for workers in [1usize, 2, 4] {
            let opts = RunnerOptions::default().with_parallelism(workers).unwrap();
            let err = run_se_model(&net, &opts, Some(&dir)).unwrap_err().to_string();
            assert!(err.starts_with("artifact "), "{err}");
            assert!(err.contains(&path.display().to_string()), "{err}");
            assert!(err.contains("truncated input"), "{err}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cached_runs_are_bit_identical_to_direct_runs() {
        let net = multi_geometry();
        let opts = RunnerOptions::default().with_parallelism(2).unwrap();
        let dir = std::env::temp_dir().join(format!("se-runner-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // Cold cache: falls back to the streaming path.
        let direct = compare_model(&net, &opts, None).unwrap();
        let cold = compare_model(&net, &opts, Some(&dir)).unwrap();
        assert_eq!(direct.runs, cold.runs);

        // Warm cache: write → read → re-simulate must be bit-identical.
        se_models::traces::build_trace_file(&net, &opts.traces, &dir).unwrap();
        let warm = compare_model(&net, &opts, Some(&dir)).unwrap();
        assert_eq!(direct.runs, warm.runs);

        let se_direct = run_se_model(&net, &opts, None).unwrap();
        let se_warm = run_se_model(&net, &opts, Some(&dir)).unwrap();
        assert_eq!(se_direct, se_warm);
        assert_eq!(&se_warm, warm.runs[4].as_ref().unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn one_queue_over_models_matches_each_model_alone() {
        let models = [multi_geometry(), tiny(), multi_geometry()];
        let dir = std::env::temp_dir().join(format!("se-runner-queue-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = RunnerOptions::default().with_parallelism(2).unwrap();
        se_models::traces::build_trace_file(&models[0], &opts.traces, &dir).unwrap();
        let alone: Vec<_> =
            models.iter().map(|m| compare_model(m, &opts, None).unwrap().runs).collect();
        // Cached and generated models mixed on one queue, at every worker
        // count of either level.
        for (gen, sim) in [(1, 1), (1, 2), (2, 4), (4, 8)] {
            let opts = RunnerOptions::default()
                .with_parallelism(gen)
                .unwrap()
                .with_sim_parallelism(sim)
                .unwrap();
            let all = compare_models(&models, &opts, Some(&dir)).unwrap();
            let names: Vec<_> = all.iter().map(|c| c.model.as_str()).collect();
            assert_eq!(names, ["multi", "tiny", "multi"]);
            let runs: Vec<_> = all.into_iter().map(|c| c.runs).collect();
            assert_eq!(runs, alone, "generation {gen} simulation {sim}");
        }
        assert!(compare_models(&[], &opts, Some(&dir)).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_truncated_artifact_fails_the_sweep_naming_model_and_file() {
        let models = [tiny(), multi_geometry()];
        let dir = std::env::temp_dir().join(format!("se-runner-cut-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = RunnerOptions::default();
        for net in &models {
            se_models::traces::build_trace_file(net, &opts.traces, &dir).unwrap();
        }
        let path = dir.join(se_models::traces::trace_file_name("multi", &opts.traces));
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        for workers in [1usize, 2, 4] {
            let opts = RunnerOptions::default().with_parallelism(workers).unwrap();
            let err = compare_models(&models, &opts, Some(&dir)).unwrap_err().to_string();
            assert!(err.starts_with("model multi failed: artifact "), "{err}");
            assert!(err.contains(&path.display().to_string()), "{err}");
            assert!(err.contains("truncated input"), "{err}");
            // The first model in order that fails is the one reported.
            let err = compare_models(&[models[1].clone(), badnet()], &opts, Some(&dir))
                .unwrap_err()
                .to_string();
            assert!(err.starts_with("model multi failed: "), "{err}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A squeeze-excite bottleneck of width 0 passes geometry checks but
    /// fails compression during trace generation.
    fn badnet() -> NetworkDesc {
        NetworkDesc::new(
            "badnet",
            Dataset::Cifar10,
            vec![LayerDesc::new(
                "se0",
                LayerKind::SqueezeExcite { channels: 8, reduced: 0 },
                (8, 8),
            )],
        )
        .unwrap()
    }

    #[test]
    fn se_beats_diannao_on_energy() {
        let cmp = compare_model(&tiny(), &RunnerOptions::default(), None).unwrap();
        let em = EnergyModel::default();
        let cfg = SeAcceleratorConfig::default();
        let e = cmp.energies_mj(&em, &cfg);
        assert!(e[4].unwrap() < e[0].unwrap(), "SE {} !< DianNao {}", e[4].unwrap(), e[0].unwrap());
    }

    #[test]
    fn zero_sim_parallelism_is_rejected() {
        assert!(RunnerOptions::default().with_sim_parallelism(0).is_err());
        assert!(RunnerOptions::default().with_parallelism(0).is_err());
    }

    #[test]
    fn compare_models_names_the_failing_model() {
        // A squeeze-excite bottleneck of width 0 passes geometry checks but
        // fails compression during trace generation.
        let good = tiny();
        let bad = NetworkDesc::new(
            "badnet",
            Dataset::Cifar10,
            vec![LayerDesc::new(
                "se0",
                LayerKind::SqueezeExcite { channels: 8, reduced: 0 },
                (8, 8),
            )],
        )
        .unwrap();
        let err = compare_models(&[good, bad], &RunnerOptions::default(), None).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("badnet"), "error must name the failing model: {msg}");
        assert!(!msg.contains("tiny"), "error must not blame a passing model: {msg}");
    }
}
