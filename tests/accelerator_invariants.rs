//! Invariants across the accelerator fleet that must hold for any seed —
//! the orderings the paper's figures claim, checked on randomized data.

use smartexchange::baselines::{BaselineConfig, BitPragmatic, CambriconX, DianNao, Scnn};
use smartexchange::hw::sim::SeAccelerator;
use smartexchange::hw::{Accelerator, EnergyModel, SeAcceleratorConfig};
use smartexchange::ir::{Dataset, LayerDesc, LayerKind, NetworkDesc};
use smartexchange::models::traces::{trace_pair, TraceOptions};

fn conv_net(c: usize, m: usize, hw: usize) -> NetworkDesc {
    NetworkDesc::new(
        "inv",
        Dataset::Cifar10,
        vec![LayerDesc::new(
            "c1",
            LayerKind::Conv2d { in_channels: c, out_channels: m, kernel: 3, stride: 1, padding: 1 },
            (hw, hw),
        )],
    )
    .unwrap()
}

fn run_all(net: &NetworkDesc, seed: u64) -> Vec<(String, f64, u64, u64)> {
    let em = EnergyModel::default();
    let hw_cfg = SeAcceleratorConfig::default();
    let opts = TraceOptions::fast().with_seed(seed);
    let pair = trace_pair(net, 0, &opts).unwrap();

    let mut out = Vec::new();
    let se = SeAccelerator::new(hw_cfg.clone()).unwrap();
    let r = se.process_layer(&pair.se).unwrap();
    out.push((
        "SmartExchange".to_string(),
        r.energy(&em, &hw_cfg).total(),
        r.total_cycles,
        r.mem.dram_total_bytes(),
    ));
    let dense: Vec<Box<dyn Accelerator>> = vec![
        Box::new(DianNao::new(BaselineConfig::default()).unwrap()),
        Box::new(Scnn::new(BaselineConfig::default()).unwrap()),
        Box::new(CambriconX::new(BaselineConfig::default()).unwrap()),
        Box::new(BitPragmatic::default()),
    ];
    for a in &dense {
        let r = a.process_layer(&pair.dense).unwrap();
        out.push((
            a.name().to_string(),
            r.energy(&em, &hw_cfg).total(),
            r.total_cycles,
            r.mem.dram_total_bytes(),
        ));
    }
    out
}

#[test]
fn smartexchange_beats_diannao_across_seeds() {
    // The headline ordering of Figs. 10-12 must hold for arbitrary seeds.
    let net = conv_net(16, 32, 16);
    for seed in [0u64, 1, 2, 3, 4] {
        let results = run_all(&net, seed);
        let se = &results[0];
        let diannao = results.iter().find(|r| r.0 == "DianNao").unwrap();
        assert!(se.1 < diannao.1, "seed {seed}: SE energy {} !< DianNao {}", se.1, diannao.1);
        assert!(se.3 < diannao.3, "seed {seed}: SE DRAM {} !< DianNao {}", se.3, diannao.3);
    }
}

#[test]
fn every_accelerator_scales_with_layer_size() {
    // Twice the output channels must never be cheaper, for every design.
    let small = conv_net(8, 16, 12);
    let large = conv_net(8, 32, 12);
    let rs = run_all(&small, 7);
    let rl = run_all(&large, 7);
    for (s, l) in rs.iter().zip(&rl) {
        assert!(l.1 >= s.1, "{}: energy shrank with a larger layer", s.0);
        assert!(l.3 >= s.3, "{}: DRAM shrank with a larger layer", s.0);
    }
}

#[test]
fn ablation_ladder_is_monotone_in_energy_efficiency() {
    // Adding each SmartExchange feature must not hurt (Section V-B).
    let net = conv_net(16, 32, 16);
    let pair = trace_pair(&net, 0, &TraceOptions::fast().with_seed(3)).unwrap();
    let em = EnergyModel::default();
    let report_cfg = SeAcceleratorConfig::default();

    let base = SeAcceleratorConfig::ablation_dense_baseline();
    let mut with_index = base.clone();
    with_index.index_select = true;
    let full = SeAcceleratorConfig {
        dim_m: base.dim_m,
        dim_c: base.dim_c,
        dim_f: base.dim_f,
        ..Default::default()
    };

    let energies: Vec<f64> = [base, with_index, full]
        .into_iter()
        .map(|cfg| {
            let accel = SeAccelerator::new(cfg).unwrap();
            accel.process_layer(&pair.se).unwrap().energy(&em, &report_cfg).total()
        })
        .collect();
    assert!(energies[1] <= energies[0] * 1.001, "index select hurt energy: {energies:?}");
    assert!(energies[2] <= energies[1] * 1.001, "bit-serial lanes hurt energy: {energies:?}");
}

#[test]
fn dram_bandwidth_only_affects_latency() {
    let net = conv_net(8, 16, 12);
    let pair = trace_pair(&net, 0, &TraceOptions::fast()).unwrap();
    let fast_cfg = SeAcceleratorConfig::default();
    let slow_cfg = SeAcceleratorConfig { dram_bytes_per_cycle: 0.5, ..Default::default() };
    let em = EnergyModel::default();
    let fast = SeAccelerator::new(fast_cfg.clone()).unwrap().process_layer(&pair.se).unwrap();
    let slow = SeAccelerator::new(slow_cfg).unwrap().process_layer(&pair.se).unwrap();
    assert!(slow.total_cycles > fast.total_cycles);
    assert_eq!(slow.mem, fast.mem, "traffic must not depend on bandwidth");
    assert!(
        (slow.energy(&em, &fast_cfg).dram_total() - fast.energy(&em, &fast_cfg).dram_total()).abs()
            < 1e-9
    );
}
