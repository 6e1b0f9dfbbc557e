//! End-to-end guarantees of the serving subcommands:
//!
//! * `se batch` at batch = 1 is byte-identical to the single-image
//!   protocol behind `se fig10` (same per-image `RunResult`s, bit for
//!   bit);
//! * weight-DRAM-accesses/image and energy/image decrease monotonically
//!   with the batch size for the SmartExchange accelerator;
//! * `se serve` output is bit-identical across worker counts;
//! * both subcommands replay `--traces-dir` artifacts byte-identically.

use se_bench::args::Flags;
use se_bench::{figures, runner};
use se_hw::{EnergyModel, SeAcceleratorConfig};
use se_ir::{Dataset, LayerDesc, LayerKind, NetworkDesc};
use se_models::traces;
use se_serve::{BatchEngine, SE_LANE};

fn conv(name: &str, ci: usize, co: usize, hw: usize) -> LayerDesc {
    LayerDesc::new(
        name,
        LayerKind::Conv2d { in_channels: ci, out_channels: co, kernel: 3, stride: 1, padding: 1 },
        (hw, hw),
    )
}

/// Repeated geometries plus a squeeze-excite layer (SCNN `None` lane).
fn model_set() -> Vec<NetworkDesc> {
    vec![
        NetworkDesc::new(
            "alpha",
            Dataset::Cifar10,
            vec![conv("a1", 3, 8, 8), conv("a2", 8, 8, 8), conv("a3", 8, 8, 8)],
        )
        .unwrap(),
        NetworkDesc::new(
            "beta",
            Dataset::Cifar10,
            vec![
                conv("b1", 3, 8, 8),
                LayerDesc::new("se1", LayerKind::SqueezeExcite { channels: 8, reduced: 2 }, (8, 8)),
                conv("b2", 8, 4, 8),
            ],
        )
        .unwrap(),
    ]
}

#[test]
fn batch_one_matches_the_fig10_single_image_protocol() {
    let flags = Flags::default();
    let opts = flags.runner_options().unwrap();
    for net in &model_set() {
        let pairs = traces::trace_pairs(net, &opts.traces).unwrap();
        // The per-image runs behind fig10/11/12.
        let fig10 = runner::compare_pairs(net.name(), &pairs, &opts).unwrap();
        // The per-image runs behind se batch.
        let engine = BatchEngine::new(opts.se_cfg.clone(), opts.baseline_cfg.clone()).unwrap();
        let per_image = engine.per_image_comparison(&pairs, opts.sim_parallelism).unwrap();
        assert_eq!(per_image, fig10.runs, "{}: engines must agree per image", net.name());
        // batch = 1 reproduces them bit for bit, on every lane.
        for (lane, run) in per_image.iter().enumerate() {
            if let Some(run) = run {
                assert_eq!(&engine.batched(lane, run, 1), run, "lane {lane}");
            }
        }
    }
}

#[test]
fn weight_dram_and_energy_per_image_decrease_monotonically() {
    let flags = Flags::default();
    let opts = flags.runner_options().unwrap();
    let em = EnergyModel::default();
    let ecfg = SeAcceleratorConfig::default();
    for net in &model_set() {
        let pairs = traces::trace_pairs(net, &opts.traces).unwrap();
        let engine = BatchEngine::new(opts.se_cfg.clone(), opts.baseline_cfg.clone()).unwrap();
        let per_image = engine.per_image_comparison(&pairs, opts.sim_parallelism).unwrap()[SE_LANE]
            .clone()
            .unwrap();
        let mut prev_weight = f64::INFINITY;
        let mut prev_energy = f64::INFINITY;
        for n in [1usize, 4, 16] {
            let b = engine.batched(SE_LANE, &per_image, n);
            let weight = figures::batch::weight_dram_per_image(&b, n);
            let energy = b.energy_mj(&em, &ecfg) / n as f64;
            assert!(weight < prev_weight, "{}: weight/img at batch {n}", net.name());
            assert!(energy < prev_energy, "{}: energy/img at batch {n}", net.name());
            prev_weight = weight;
            prev_energy = energy;
        }
    }
}

fn serve_output(flags: &Flags, models: &[NetworkDesc]) -> String {
    let mut out = Vec::new();
    figures::serve::run_with_models(flags, models, &mut out).unwrap();
    String::from_utf8(out).unwrap()
}

fn batch_output(flags: &Flags, models: &[NetworkDesc]) -> String {
    let mut out = Vec::new();
    figures::batch::run_with_models(flags, models, &mut out).unwrap();
    String::from_utf8(out).unwrap()
}

#[test]
fn serve_output_is_bit_identical_across_worker_counts() {
    let models = model_set();
    let base = Flags { requests: Some(64), arrival: Some("burst".into()), ..Flags::default() };
    let serial = serve_output(&Flags { sim_parallelism: Some(1), ..base.clone() }, &models);
    assert!(serial.contains("throughput img/s"), "{serial}");
    for workers in [4usize, 8] {
        let parallel =
            serve_output(&Flags { sim_parallelism: Some(workers), ..base.clone() }, &models);
        assert_eq!(serial, parallel, "workers = {workers}");
    }
    // Closed-loop path too.
    let closed = Flags { arrival: Some("closed".into()), ..base };
    assert_eq!(
        serve_output(&Flags { sim_parallelism: Some(1), ..closed.clone() }, &models),
        serve_output(&Flags { sim_parallelism: Some(4), ..closed }, &models),
    );
}

#[test]
fn batch_and_serve_replay_trace_artifacts_byte_identically() {
    let models = model_set();
    let dir = std::env::temp_dir().join(format!("se-serving-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let direct_flags =
        Flags { batch_sizes: Some(vec![1, 4, 16]), requests: Some(48), ..Flags::default() };
    let direct_batch = batch_output(&direct_flags, &models);
    assert!(direct_batch.contains("alpha") && direct_batch.contains("beta"));
    assert!(direct_batch.contains("n/a"), "SCNN lane must be n/a on beta:\n{direct_batch}");
    let direct_serve = serve_output(&direct_flags, &models);

    let opts = direct_flags.runner_options().unwrap().traces;
    for net in &models {
        traces::build_trace_file(net, &opts, &dir).unwrap();
    }
    let cached_flags = Flags { traces_dir: Some(dir.clone()), ..direct_flags };
    assert_eq!(direct_batch, batch_output(&cached_flags, &models));
    assert_eq!(direct_serve, serve_output(&cached_flags, &models));
    std::fs::remove_dir_all(&dir).unwrap();
}
