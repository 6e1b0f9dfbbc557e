//! Byte-identity goldens of the serving subcommands: `se cluster`,
//! `se serve` and `se bench serve` on the small in-test networks of
//! `cluster_cli.rs`, each case pinning the `--trace-out` Chrome trace and
//! the `--metrics-out` exposition against committed fixtures, plus stdout
//! where it holds no wall-clock numbers, and the `se help` text. The other
//! end-to-end tests compare runs against each other; these compare against
//! fixed bytes, so a refactor of the serving path or of the flag table
//! that shifts any output fails here.

use se_bench::args::Flags;
use se_bench::figures;
use se_ir::{Dataset, LayerDesc, LayerKind, NetworkDesc};
use std::path::PathBuf;

fn conv(name: &str, ci: usize, co: usize, hw: usize) -> LayerDesc {
    LayerDesc::new(
        name,
        LayerKind::Conv2d { in_channels: ci, out_channels: co, kernel: 3, stride: 1, padding: 1 },
        (hw, hw),
    )
}

/// The two-model set of `cluster_cli.rs` (beta carries a squeeze-excite
/// layer, so the SCNN lane is `n/a`).
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

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden").join(name)
}

/// Fails naming the first differing line, instead of dumping both files.
fn assert_bytes(name: &str, actual: &str) {
    let expected = std::fs::read_to_string(fixture(name))
        .unwrap_or_else(|e| panic!("reading fixture {name}: {e}"));
    if actual == expected {
        return;
    }
    let line = actual.lines().zip(expected.lines()).position(|(a, e)| a != e);
    match line {
        Some(i) => panic!(
            "{name}: line {} differs\n  actual:   {}\n  expected: {}",
            i + 1,
            actual.lines().nth(i).unwrap_or(""),
            expected.lines().nth(i).unwrap_or("")
        ),
        None => panic!("{name}: lengths differ ({} vs {} bytes)", actual.len(), expected.len()),
    }
}

type Run = fn(&Flags, &[NetworkDesc], &mut dyn std::io::Write) -> se_bench::Result<()>;

/// Runs one case with both exports on, checks the two export files, and
/// returns stdout.
fn check_exports(case: &str, run: Run, flags: Flags, models: &[NetworkDesc]) -> String {
    let dir = std::env::temp_dir().join(format!("se-golden-{case}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.json");
    let metrics = dir.join("metrics.prom");
    let flags = Flags {
        trace_out: Some(trace.clone()),
        metrics_out: Some(metrics.clone()),
        bench_out: Some(dir.join("bench.json")),
        ..flags
    };
    let mut out = Vec::new();
    run(&flags, models, &mut out).unwrap();
    assert_bytes(&format!("{case}.trace.json"), &std::fs::read_to_string(&trace).unwrap());
    assert_bytes(&format!("{case}.metrics.prom"), &std::fs::read_to_string(&metrics).unwrap());
    std::fs::remove_dir_all(&dir).unwrap();
    String::from_utf8(out).unwrap()
}

/// Runs one case with both exports on and checks all three outputs.
fn check(case: &str, run: Run, flags: Flags, models: &[NetworkDesc]) {
    let stdout = check_exports(case, run, flags, models);
    assert_bytes(&format!("{case}.stdout.txt"), &stdout);
}

fn cluster_flags() -> Flags {
    Flags {
        requests: Some(24),
        instances: Some(2),
        router: Some("affinity".into()),
        deadline_us: Some(5.0),
        ..Flags::default()
    }
}

#[test]
fn cluster_with_a_flat_buffer_and_a_restart_matches_the_golden_bytes() {
    let flags = Flags {
        router: Some("rr".into()),
        buffer_kb: Some(1.5),
        rate: Some(200_000.0),
        max_wait_us: Some(10.0),
        kill: vec!["0@30".into()],
        restart: vec!["0@60".into()],
        ..cluster_flags()
    };
    check("cluster_flat", figures::cluster::run_with_models, flags, &model_set());
}

#[test]
fn cluster_with_tiers_churn_and_autoscale_matches_the_golden_bytes() {
    let flags = Flags {
        tiers: Some("buf:2kb:16,dram:1mb:4,ssd:1gb:1".into()),
        kill: vec!["0@50".into()],
        restart: vec!["0@200".into()],
        autoscale: Some("2:1".into()),
        ..cluster_flags()
    };
    check("cluster_tiered_churn", figures::cluster::run_with_models, flags, &model_set());
}

#[test]
fn serve_open_loop_matches_the_golden_bytes() {
    let flags = Flags {
        requests: Some(24),
        arrival: Some("burst".into()),
        deadline_us: Some(5.0),
        ..Flags::default()
    };
    check("serve_open", figures::serve::run_with_models, flags, &model_set()[..1]);
}

#[test]
fn serve_closed_loop_matches_the_golden_bytes() {
    let flags = Flags {
        requests: Some(24),
        arrival: Some("closed".into()),
        concurrency: Some(3),
        ..Flags::default()
    };
    check("serve_closed", figures::serve::run_with_models, flags, &model_set()[..1]);
}

#[test]
fn bench_serve_exports_match_the_golden_bytes() {
    // Two instances give the churn axis: none/kill-restart x flat/tiered.
    let flags = Flags {
        requests: Some(24),
        instances: Some(2),
        router: Some("rr".into()),
        max_batch: Some(8),
        buffer_kb: Some(1.5),
        deadline_us: Some(5.0),
        ..Flags::default()
    };
    // stdout carries wall-clock columns, so only the exports are pinned.
    let stdout =
        check_exports("bench_serve", figures::bench_serve::run_with_models, flags, &model_set());
    assert!(stdout.contains("(4 configs)"), "{stdout}");
}

#[test]
fn help_matches_the_golden_bytes() {
    let mut out = Vec::new();
    se_bench::cli::run_from_args(&["help".to_string()], &mut out).unwrap();
    assert_bytes("help.stdout.txt", &String::from_utf8(out).unwrap());
}
