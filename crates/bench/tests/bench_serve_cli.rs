//! End-to-end guarantees of `se bench serve`:
//!
//! * a small sweep produces a `BENCH_serve.json` that parses and passes
//!   the schema check (the CI dry-run contract);
//! * the sweep covers every axis (churn × memory) once per config;
//! * fault flags, arrival-shape flags and an empty model set error loudly;
//! * `se bench` without a valid action errors with usage.

use se_bench::args::Flags;
use se_bench::figures::bench_serve;
use se_bench::json::Json;
use se_ir::{Dataset, LayerDesc, LayerKind, NetworkDesc};

fn conv(name: &str, ci: usize, co: usize, hw: usize) -> LayerDesc {
    LayerDesc::new(
        name,
        LayerKind::Conv2d { in_channels: ci, out_channels: co, kernel: 3, stride: 1, padding: 1 },
        (hw, hw),
    )
}

fn model_set() -> Vec<NetworkDesc> {
    vec![
        NetworkDesc::new("alpha", Dataset::Cifar10, vec![conv("a1", 3, 8, 8), conv("a2", 8, 8, 8)])
            .unwrap(),
        NetworkDesc::new("beta", Dataset::Cifar10, vec![conv("b1", 3, 16, 8)]).unwrap(),
    ]
}

#[test]
fn dry_run_emits_a_valid_schema_checked_report() {
    let path = std::env::temp_dir().join(format!("se-bench-serve-{}.json", std::process::id()));
    let flags = Flags {
        requests: Some(300),
        instances: Some(2),
        buffer_kb: Some(2.0),
        bench_out: Some(path.clone()),
        ..Flags::default()
    };
    let mut out = Vec::new();
    bench_serve::run_with_models(&flags, &model_set(), &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    assert!(text.contains("wrote"), "{text}");

    let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    bench_serve::validate_report(&doc).unwrap();
    assert_eq!(doc.get("requests_per_config").unwrap().as_f64(), Some(300.0));
    let configs = doc.get("configs").unwrap().as_array().unwrap();
    // instances pinned to {2} x routers {rr, jsq} x max_batch {1, 8} x
    // churn {none, kill-restart} (multi-instance configs get the churn
    // axis) x memory {flat, tiered}, one entry each.
    assert_eq!(configs.len(), 2 * 2 * 2 * 2, "sweep shape");
    // The memory axis is the other half of the sweep: every tiered config
    // carries a per-tier traffic array, every flat one a null.
    let tiered: Vec<_> =
        configs.iter().filter(|c| c.get("memory").unwrap().as_str() == Some("tiered")).collect();
    assert_eq!(tiered.len(), configs.len() / 2);
    for c in &tiered {
        let tiers = c.get("tiers").unwrap().as_array().unwrap();
        assert_eq!(tiers.len(), 3, "derived default stack is buf/dram/ssd");
        assert_eq!(tiers[0].get("name").unwrap().as_str(), Some("buf"));
    }
    assert!(
        tiered.iter().any(|c| {
            let tiers = c.get("tiers").unwrap().as_array().unwrap();
            tiers.iter().any(|t| t.get("hits").unwrap().as_f64() > Some(0.0))
                && tiers.last().unwrap().get("up_mb").unwrap().as_f64() > Some(0.0)
        }),
        "tiered configs must show tier traffic (top-tier hits and bottom-tier bytes up)"
    );
    for c in configs.iter().filter(|c| c.get("memory").unwrap().as_str() == Some("flat")) {
        assert_eq!(c.get("tiers"), Some(&Json::Null));
    }
    // The churn axis is half the sweep, and churned configs account for
    // the kill: a killed batch or a re-route must actually show up
    // (the kill lands mid-run by construction).
    let churned: Vec<_> = configs
        .iter()
        .filter(|c| c.get("churn").unwrap().as_str() == Some("kill-restart"))
        .collect();
    assert_eq!(churned.len(), configs.len() / 2);
    assert!(
        churned.iter().any(|c| c.get("rerouted").unwrap().as_f64() > Some(0.0)
            || c.get("killed_batches").unwrap().as_f64() > Some(0.0)),
        "churned configs must show fault activity"
    );
    // The mixed two-model stream through a small buffer exercises the
    // residency lane of the report.
    assert!(
        configs.iter().any(|c| c.get("weight_fetches").unwrap().as_f64() > Some(0.0)),
        "residency traffic must appear in the report"
    );
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn conflicting_flags_error_loudly() {
    let mut out = Vec::new();
    let argv = ["bench", "serve", "--kill", "0@10"].map(String::from);
    let err = se_bench::cli::run_from_args(&argv, &mut out).unwrap_err();
    assert!(err.to_string().contains("--kill applies to se cluster only"), "{err}");
    assert!(out.is_empty(), "nothing is printed before the error");

    let err = bench_serve::run_with_models(&Flags::default(), &[], &mut out).unwrap_err();
    assert!(err.to_string().contains("at least one model"), "{err}");
}

#[test]
fn arrival_shape_flags_are_errors() {
    // Every config runs uniform open-loop arrivals, so a shape flag would
    // be silently ignored.
    let path = std::env::temp_dir().join(format!("se-bench-shape-{}.json", std::process::id()));
    let base = ["bench", "serve", "--requests", "24", "--bench-out", path.to_str().unwrap()];
    let cases = [("--arrival", "burst"), ("--burst", "4"), ("--concurrency", "3")];
    for (flag, value) in cases {
        let mut out = Vec::new();
        let argv: Vec<String> = base.iter().chain(&[flag, value]).map(|s| s.to_string()).collect();
        let err = se_bench::cli::run_from_args(&argv, &mut out).unwrap_err();
        assert!(err.to_string().contains(flag), "{flag}: {err}");
        assert!(!path.exists(), "{flag}: nothing is written before the error");
    }
}

#[test]
fn bench_without_a_valid_action_errors_with_usage() {
    let mut out = Vec::new();
    let rest: Vec<String> = vec!["--requests".into(), "10".into()];
    let err = bench_serve::run(&rest, &Flags::default(), &mut out).unwrap_err();
    assert!(err.to_string().contains("se bench <serve|diff>"), "{err}");
    // A flag value that looks like an action must not be taken for one.
    let rest: Vec<String> = vec!["--bench-out".into(), "serve".into()];
    let err = bench_serve::run(&rest, &Flags::default(), &mut out).unwrap_err();
    assert!(err.to_string().contains("no action"), "{err}");
    // `diff` needs exactly two snapshot paths.
    let rest: Vec<String> = vec!["diff".into(), "one.json".into()];
    let err = bench_serve::run(&rest, &Flags::default(), &mut out).unwrap_err();
    assert!(err.to_string().contains("se bench diff <baseline.json>"), "{err}");
}
