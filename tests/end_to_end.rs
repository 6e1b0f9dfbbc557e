//! Cross-crate integration tests: the full pipeline from synthetic model to
//! compressed weights to accelerator simulation.

use smartexchange::baselines::{BaselineConfig, BitPragmatic, CambriconX, DianNao, Scnn};
use smartexchange::core::{layer, network, SeConfig, VectorSparsity};
use smartexchange::hw::sim::SeAccelerator;
use smartexchange::hw::{Accelerator, EnergyModel, RunResult, SeAcceleratorConfig};
use smartexchange::ir::{storage, Dataset, LayerDesc, LayerKind, NetworkDesc};
use smartexchange::models::traces::{trace_pair, trace_pairs, TraceOptions};
use smartexchange::models::{activations, weights, zoo};
use smartexchange::tensor::rng;

fn small_net() -> NetworkDesc {
    NetworkDesc::new(
        "itest",
        Dataset::Cifar10,
        vec![
            LayerDesc::new(
                "c1",
                LayerKind::Conv2d {
                    in_channels: 3,
                    out_channels: 16,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                },
                (16, 16),
            ),
            LayerDesc::new(
                "c2",
                LayerKind::Conv2d {
                    in_channels: 16,
                    out_channels: 16,
                    kernel: 3,
                    stride: 2,
                    padding: 1,
                },
                (16, 16),
            ),
            LayerDesc::new(
                "pw",
                LayerKind::Conv2d {
                    in_channels: 16,
                    out_channels: 8,
                    kernel: 1,
                    stride: 1,
                    padding: 0,
                },
                (8, 8),
            ),
        ],
    )
    .unwrap()
}

#[test]
fn compress_reconstruct_simulate_pipeline() {
    let net = small_net();
    let cfg = SeConfig::default()
        .with_max_iterations(5)
        .unwrap()
        .with_vector_sparsity(VectorSparsity::KeepFraction(0.5))
        .unwrap();

    // Compress every layer and verify CR and fidelity.
    let layers: Vec<_> = net
        .layers()
        .iter()
        .map(|d| {
            let w = weights::synthetic_weights(net.name(), d, 0).unwrap();
            (d.clone(), w)
        })
        .collect();
    let compressed = network::compress_network(&layers, &cfg).unwrap();
    assert!(compressed.compression_rate() > 6.0, "CR {}", compressed.compression_rate());
    assert!(compressed.mean_recon_error() < 0.6);

    // Rebuild each layer and confirm shapes match the originals.
    for ((desc, w), parts) in layers.iter().zip(&compressed.parts) {
        let rebuilt = layer::reconstruct_layer(desc, parts).unwrap();
        assert_eq!(rebuilt.shape(), w.shape());
    }

    // The simulators consume matched traces of the same network.
    let se_accel = SeAccelerator::new(SeAcceleratorConfig::default()).unwrap();
    let diannao = DianNao::new(BaselineConfig::default()).unwrap();
    let mut se_run = RunResult::default();
    let mut dn_run = RunResult::default();
    for pair in trace_pairs(&net, &TraceOptions::fast()).unwrap() {
        se_run.layers.push(se_accel.process_layer(&pair.se).unwrap());
        dn_run.layers.push(diannao.process_layer(&pair.dense).unwrap());
    }
    assert_eq!(se_run.layers.len(), 3);

    // SmartExchange must beat the dense baseline on energy and DRAM.
    let em = EnergyModel::default();
    let cfg_hw = SeAcceleratorConfig::default();
    assert!(se_run.energy_mj(&em, &cfg_hw) < dn_run.energy_mj(&em, &cfg_hw));
    assert!(se_run.mem_totals().dram_total_bytes() < dn_run.mem_totals().dram_total_bytes());
}

#[test]
fn all_five_accelerators_run_the_same_conv_trace() {
    let net = small_net();
    let pair = trace_pair(&net, 0, &TraceOptions::fast()).unwrap();
    let em = EnergyModel::default();
    let hw_cfg = SeAcceleratorConfig::default();

    let se = SeAccelerator::new(hw_cfg.clone()).unwrap();
    let se_result = se.process_layer(&pair.se).unwrap();

    let accels: Vec<Box<dyn Accelerator>> = vec![
        Box::new(DianNao::new(BaselineConfig::default()).unwrap()),
        Box::new(Scnn::new(BaselineConfig::default()).unwrap()),
        Box::new(CambriconX::new(BaselineConfig::default()).unwrap()),
        Box::new(BitPragmatic::default()),
    ];
    for accel in &accels {
        let r = accel.process_layer(&pair.dense).unwrap();
        assert!(r.total_cycles > 0, "{} produced zero cycles", accel.name());
        assert!(r.energy(&em, &hw_cfg).total() > 0.0);
    }
    assert!(se_result.total_cycles > 0);
}

#[test]
fn row_sampling_stays_close_to_exact() {
    let net = small_net();
    let pair = trace_pair(&net, 0, &TraceOptions::fast()).unwrap();
    let exact = SeAccelerator::new(SeAcceleratorConfig::default())
        .unwrap()
        .process_layer(&pair.se)
        .unwrap();
    let cfg = SeAcceleratorConfig { row_sample: 4, ..Default::default() };
    let sampled = SeAccelerator::new(cfg).unwrap().process_layer(&pair.se).unwrap();
    let ratio = sampled.compute_cycles as f64 / exact.compute_cycles as f64;
    assert!((0.8..1.2).contains(&ratio), "sampled/exact ratio {ratio}");
}

#[test]
fn zoo_models_produce_consistent_storage_accounting() {
    // MLP-2 is small enough to compress end-to-end in a test.
    let net = zoo::mlp2();
    let cfg = SeConfig::default()
        .with_max_iterations(4)
        .unwrap()
        .with_vector_sparsity(VectorSparsity::RelativeThreshold(0.4))
        .unwrap();
    let descs: Vec<_> = net.layers().to_vec();
    let reports = network::compress_network_reports(&descs, &cfg, |d| {
        Ok(weights::synthetic_weights(net.name(), d, 0).unwrap())
    })
    .unwrap();
    let mut total = storage::SeStorage::default();
    for r in &reports {
        total.accumulate(&r.storage);
    }
    let cr = storage::compression_rate(net.total_params(), &total);
    // Paper Table II: MLP-2 at 45x; synthetic weights land in the same band.
    assert!(cr > 15.0, "MLP-2 CR {cr}");
}

#[test]
fn activation_statistics_match_captured_model_behaviour() {
    // The synthetic activation generator must land in the same bit-sparsity
    // band as activations captured from a genuinely trained model.
    use smartexchange::ir::{booth, QuantTensor};
    use smartexchange::nn::{data, layers::Layer, model::Sequential, train};

    let ds = data::gaussian_clusters(4, &[3, 8, 8], 10, 0.3, 3).unwrap();
    let mut model = Sequential::new(vec![
        Layer::conv2d(3, 8, 3, 1, 1, 60).unwrap(),
        Layer::relu(),
        Layer::conv2d(8, 8, 3, 1, 1, 61).unwrap(),
        Layer::relu(),
        Layer::global_avg_pool(),
        Layer::linear(8, 4, 62).unwrap(),
    ]);
    let cfg = train::TrainConfig::default().with_epochs(5).with_lr(0.05);
    train::train(&mut model, &ds, &cfg).unwrap();

    // Capture the input to the second conv (a post-ReLU map).
    let (_, inputs) = model.forward_capturing(&ds.inputs()[0]).unwrap();
    let captured = QuantTensor::quantize(&inputs[2], 8).unwrap();
    let cap = booth::bit_sparsity(captured.data());

    let net = zoo::vgg19_cifar();
    let syn = activations::network_bit_sparsity(&net, 0).unwrap();
    assert!(
        (cap.plain - syn.plain).abs() < 0.2,
        "captured {} vs synthetic {}",
        cap.plain,
        syn.plain
    );
    assert!(cap.plain > cap.booth && syn.plain > syn.booth);
}

#[test]
fn determinism_across_full_pipeline() {
    let net = small_net();
    let run = |seed| {
        let mut cycles = Vec::new();
        let accel = SeAccelerator::new(SeAcceleratorConfig::default()).unwrap();
        for pair in trace_pairs(&net, &TraceOptions::fast().with_seed(seed)).unwrap() {
            cycles.push(accel.process_layer(&pair.se).unwrap().total_cycles);
        }
        cycles
    };
    assert_eq!(run(5), run(5));
    assert_ne!(run(5), run(6));
}

#[test]
fn decomposition_error_beats_direct_po2_quantization() {
    // The headline algorithmic claim: decomposing then quantizing beats
    // quantizing the weights directly at equal coefficient precision.
    use smartexchange::core::baselines;
    use smartexchange::ir::Po2Set;

    let mut r = rng::seeded(11);
    let desc = LayerDesc::new(
        "c",
        LayerKind::Conv2d { in_channels: 16, out_channels: 16, kernel: 3, stride: 1, padding: 1 },
        (8, 8),
    );
    let w = rng::kaiming_tensor(&mut r, &[16, 16, 3, 3], 144);
    let cfg = SeConfig::default()
        .with_max_iterations(10)
        .unwrap()
        .with_vector_sparsity(VectorSparsity::None)
        .unwrap();
    let parts = layer::compress_layer(&desc, &w, &cfg).unwrap();
    let se_recon = layer::reconstruct_layer(&desc, &parts).unwrap();
    let se_err = w.sub(&se_recon).unwrap().norm() / w.norm();

    let direct = baselines::po2_quantize(&w, &Po2Set::default()).unwrap();
    let direct_err = w.sub(&direct.weights).unwrap().norm() / w.norm();
    assert!(se_err < direct_err, "SE error {se_err} should beat direct po2 error {direct_err}");
}
