//! Cross-worker-count determinism of the five-accelerator comparison on a
//! real repeated-geometry profile: the opening of ResNet164, whose
//! bottleneck shapes repeat and therefore hit every simulator's
//! process-wide schedule memo. The `(layer, accelerator)` grid of
//! `se_bench::runner` must produce bit-identical `RunResult`s for every
//! worker count at both parallelism levels.

use se_bench::runner::{compare_models, ModelComparison, RunnerOptions};
use se_ir::{Dataset, LayerDesc, LayerKind, NetworkDesc};
use se_models::zoo;

/// One model through the comparison queue.
fn compare_model(net: &NetworkDesc, opts: &RunnerOptions) -> ModelComparison {
    compare_models(std::slice::from_ref(net), opts, None).unwrap().remove(0)
}

/// conv1 plus the first two bottlenecks of ResNet164 (7 layers, with the
/// 16→64→16 shapes of block 2 repeating block 1's), followed by a
/// squeeze-excite layer so the SCNN lane goes `None` mid-network.
fn resnet_profile_with_se() -> NetworkDesc {
    let full = zoo::resnet164();
    let mut layers: Vec<LayerDesc> = full.layers()[..7].to_vec();
    let (h, w) = layers.last().unwrap().input_hw();
    layers.push(LayerDesc::new(
        "se_tail",
        LayerKind::SqueezeExcite { channels: 16, reduced: 4 },
        (h, w),
    ));
    NetworkDesc::new("ResNet164-head", Dataset::Cifar10, layers).unwrap()
}

#[test]
fn comparison_is_bit_identical_across_worker_counts() {
    let net = resnet_profile_with_se();
    let serial = compare_model(&net, &RunnerOptions::fast().with_parallelism(1).unwrap());
    // The None lane must be exercised, not just empty-supported.
    assert!(serial.runs[1].is_none(), "SCNN must drop the squeeze-excite profile");
    for lane in [0usize, 2, 3, 4] {
        assert!(serial.runs[lane].is_some(), "lane {lane} runs");
    }
    for workers in [4usize, 8] {
        let parallel =
            compare_model(&net, &RunnerOptions::fast().with_parallelism(workers).unwrap());
        assert_eq!(serial.runs, parallel.runs, "workers = {workers}");
    }
}
