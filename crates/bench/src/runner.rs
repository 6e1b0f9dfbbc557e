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
//! 1. **Trace generation**, the SmartExchange decomposition per layer,
//!    comes from [`traces::for_each_chunk`]: it replays a persisted
//!    artifact whole, or generates the layers in chunks of
//!    `chunk_pairs` on `RunnerOptions::traces.se_config.parallelism()`
//!    workers.
//! 2. **Simulation**: each chunk of [`TracePair`]s goes through the
//!    serving subsystem's [`BatchEngine`], the single five-lane dispatch:
//!    [`BatchEngine::per_image_comparison`] fans every pair out as five
//!    `(layer, accelerator)` grid jobs drained by
//!    `RunnerOptions::sim_parallelism` workers, and
//!    [`BatchEngine::per_image_se`] runs the SmartExchange lane alone.
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

use crate::Result;
use se_baselines::BaselineConfig;
use se_hw::{EnergyModel, RunResult, SeAcceleratorConfig};
use se_ir::NetworkDesc;
use se_models::traces::{self, TraceOptions, TracePair};
use se_serve::BatchEngine;
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
    /// Worker threads draining the `(layer, accelerator)` simulation grid
    /// (results are bit-identical for every value). Defaults to the trace
    /// generator's worker count.
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
    /// The `--fast` profile: sampled output rows and fewer decomposition
    /// iterations.
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

/// Generated trace pairs per simulation chunk: enough grid jobs to feed
/// the `sim_parallelism` workers, and at least four pairs so generation
/// has layers to spread over its workers, while keeping the number of
/// pairs alive at once bounded.
fn chunk_pairs(sim_parallelism: usize) -> usize {
    4.max(sim_parallelism.div_ceil(ACCEL_NAMES.len()))
}

/// Runs one model through all five accelerators, replaying its persisted
/// traces from `traces_dir` when an artifact for this network and these
/// trace options is there (built by `se trace build`; cached and direct
/// runs are bit-identical). Each chunk goes through
/// [`BatchEngine::per_image_comparison`] and the lanes are concatenated;
/// a lane that is `None` in any chunk is `None` for the model.
///
/// # Errors
///
/// Propagates trace-generation/load failures and unexpected simulator
/// errors (`UnsupportedTrace` is converted into a `None` run instead; a
/// corrupt or mismatched artifact is an error, not a miss).
pub fn compare_model(
    net: &NetworkDesc,
    opts: &RunnerOptions,
    traces_dir: Option<&Path>,
) -> Result<ModelComparison> {
    let engine = BatchEngine::new(opts.se_cfg.clone(), opts.baseline_cfg.clone())?;
    let mut runs: [Option<RunResult>; 5] = std::array::from_fn(|_| Some(RunResult::default()));
    let chunk = chunk_pairs(opts.sim_parallelism);
    traces::for_each_chunk(net, &opts.traces, traces_dir, chunk, |pairs| {
        let chunk_runs = engine.per_image_comparison(&pairs, opts.sim_parallelism)?;
        for (run, part) in runs.iter_mut().zip(chunk_runs) {
            match (run.as_mut(), part) {
                (Some(run), Some(part)) => run.layers.extend(part.layers),
                _ => *run = None,
            }
        }
        Result::Ok(())
    })?;
    Ok(ModelComparison { model: net.name().to_string(), runs })
}

/// Runs pre-generated trace pairs through all five accelerators on the
/// simulation grid ([`BatchEngine::per_image_comparison`]) —
/// [`compare_model`] without the trace-generation half; results are
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

/// Runs one model through the SmartExchange accelerator alone
/// ([`BatchEngine::per_image_se`] per chunk), with the trace source of
/// [`compare_model`] — the engine behind the energy-breakdown figures.
///
/// # Errors
///
/// Propagates trace-generation/load and simulator failures.
pub fn run_se_model(
    net: &NetworkDesc,
    opts: &RunnerOptions,
    traces_dir: Option<&Path>,
) -> Result<RunResult> {
    let engine = BatchEngine::new(opts.se_cfg.clone(), opts.baseline_cfg.clone())?;
    let mut run = RunResult::default();
    let chunk = chunk_pairs(opts.sim_parallelism);
    traces::for_each_chunk(net, &opts.traces, traces_dir, chunk, |pairs| {
        run.layers.extend(engine.per_image_se(&pairs, opts.sim_parallelism)?.layers);
        Result::Ok(())
    })?;
    Ok(run)
}

/// Runs a set of models through all five accelerators ([`compare_model`]
/// each, with the same optional trace cache).
///
/// # Errors
///
/// Propagates the first model failure, naming the failing model in the
/// error (completed models' work is discarded with it — a sweep is
/// all-or-nothing).
pub fn compare_models(
    models: &[NetworkDesc],
    opts: &RunnerOptions,
    traces_dir: Option<&Path>,
) -> Result<Vec<ModelComparison>> {
    models
        .iter()
        .map(|m| {
            compare_model(m, opts, traces_dir)
                .map_err(|e| format!("model {} failed: {e}", m.name()).into())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use se_ir::{Dataset, LayerDesc, LayerKind};

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
        let opts = RunnerOptions::default().with_parallelism(4).unwrap();
        let cmp = compare_model(&net, &opts, None).unwrap();
        let se_only = run_se_model(&net, &opts, None).unwrap();
        assert_eq!(cmp.runs[4].as_ref().unwrap(), &se_only);
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
