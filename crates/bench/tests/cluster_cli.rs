//! End-to-end guarantees of `se cluster`:
//!
//! * output is **bit-identical across worker counts** (the determinism
//!   contract shared with `se serve`);
//! * `--traces-dir` artifacts replay byte-identically;
//! * the SmartExchange lane and the `n/a` handling of unsupported lanes
//!   (SCNN on squeeze-excite models) render in the lane table;
//! * `se serve` reports the shared p50/p95/p99 + deadline columns;
//! * a pressure flag the arrival shape would ignore is an error.

use se_bench::args::Flags;
use se_bench::figures;
use se_ir::{Dataset, LayerDesc, LayerKind, NetworkDesc};
use se_models::traces;

fn conv(name: &str, ci: usize, co: usize, hw: usize) -> LayerDesc {
    LayerDesc::new(
        name,
        LayerKind::Conv2d { in_channels: ci, out_channels: co, kernel: 3, stride: 1, padding: 1 },
        (hw, hw),
    )
}

/// Two small models — one with a squeeze-excite layer, so the SCNN lane is
/// `n/a` for the whole mixed workload.
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

fn cluster_output(flags: &Flags, models: &[NetworkDesc]) -> String {
    let mut out = Vec::new();
    figures::cluster::run_with_models(flags, models, &mut out).unwrap();
    String::from_utf8(out).unwrap()
}

fn cluster_flags() -> Flags {
    Flags {
        requests: Some(48),
        instances: Some(2),
        router: Some("affinity".into()),
        deadline_us: Some(5.0),
        buffer_kb: Some(2.0),
        ..Flags::default()
    }
}

/// `se cluster`'s stdout and its `--trace-out` and `--metrics-out` bytes
/// at `workers` simulation workers.
fn cluster_run(flags: &Flags, models: &[NetworkDesc], workers: usize) -> (String, [Vec<u8>; 2]) {
    let path = |ext: &str| {
        std::env::temp_dir().join(format!("se-cluster-run-{}-{workers}.{ext}", std::process::id()))
    };
    let (trace, metrics) = (path("json"), path("prom"));
    let flags = Flags {
        sim_parallelism: Some(workers),
        trace_out: Some(trace.clone()),
        metrics_out: Some(metrics.clone()),
        ..flags.clone()
    };
    let stdout = cluster_output(&flags, models);
    let exports = [std::fs::read(&trace).unwrap(), std::fs::read(&metrics).unwrap()];
    std::fs::remove_file(&trace).unwrap();
    std::fs::remove_file(&metrics).unwrap();
    (stdout, exports)
}

#[test]
fn cluster_output_is_bit_identical_across_worker_counts() {
    let models = model_set();
    let base = cluster_flags();
    let (serial, serial_exports) = cluster_run(&base, &models, 1);
    assert!(serial.contains("SmartExchange"), "{serial}");
    assert!(serial.contains("weight footprint per model"), "{serial}");
    assert!(serial.contains("goodput img/s"), "{serial}");
    let scnn_row = serial.lines().find(|l| l.trim_start().starts_with("SCNN")).unwrap();
    assert!(scnn_row.contains("n/a"), "SCNN lane must be n/a on the squeeze-excite mix");
    // The four supported lanes run one job each: two and three workers
    // split them unevenly, four and eight leave workers idle.
    for workers in [2usize, 3, 4, 8] {
        let (parallel, exports) = cluster_run(&base, &models, workers);
        assert_eq!(serial, parallel, "workers = {workers}");
        assert!(exports == serial_exports, "export bytes, workers = {workers}");
    }
    // Every router and the no-deadline / no-buffer paths stay
    // deterministic too.
    for router in ["rr", "jsq"] {
        let flags = Flags {
            router: Some(router.into()),
            deadline_us: None,
            buffer_kb: None,
            ..base.clone()
        };
        assert_eq!(
            cluster_output(&Flags { sim_parallelism: Some(1), ..flags.clone() }, &models),
            cluster_output(&Flags { sim_parallelism: Some(4), ..flags }, &models),
            "router {router}"
        );
    }
}

#[test]
fn cluster_with_churn_prints_the_timeline_and_stays_deterministic() {
    let models = model_set();
    let base = Flags {
        kill: vec!["0@50".into()],
        restart: vec!["0@200".into()],
        autoscale: Some("64:1".into()),
        ..cluster_flags()
    };
    let churned = cluster_output(&base, &models);
    assert!(churned.contains("faults: kill inst 0 @ 50000 cycles"), "{churned}");
    assert!(churned.contains("restart inst 0 @ 200000 cycles"), "{churned}");
    assert!(churned.contains("autoscale: spawn above 64"), "{churned}");
    assert!(churned.contains("rerouted"), "lane table gains the churn columns: {churned}");
    assert!(churned.contains("fault timeline and conservation accounting"), "{churned}");
    assert!(churned.contains("== 48 submitted (ok)"), "{churned}");
    assert!(!churned.contains("VIOLATED"), "{churned}");
    // Churn is part of the determinism contract: byte-identical across
    // worker counts.
    let parallel = cluster_output(&Flags { sim_parallelism: Some(4), ..base.clone() }, &models);
    assert_eq!(churned, parallel);
    // Fault-free output carries no churn prose (stdout stays identical to
    // the pre-fault-injection format except for the two new columns).
    let healthy = cluster_output(&cluster_flags(), &models);
    assert!(!healthy.contains("fault timeline"), "{healthy}");
    assert!(!healthy.contains("faults:"), "{healthy}");

    // A kill without a matching restart history errors loudly, as does a
    // kill aimed past the instance count.
    let bad = Flags { restart: vec!["1@10".into()], ..cluster_flags() };
    let mut out = Vec::new();
    let err = figures::cluster::run_with_models(&bad, &models, &mut out).unwrap_err();
    assert!(err.to_string().contains("restart"), "{err}");
    let bad = Flags { kill: vec!["9@10".into()], ..cluster_flags() };
    let err = figures::cluster::run_with_models(&bad, &models, &mut out).unwrap_err();
    assert!(err.to_string().contains("instance"), "{err}");
}

#[test]
fn cluster_trace_export_is_deterministic_and_perfetto_shaped() {
    let models = model_set();
    let tag = std::process::id();
    let trace = std::env::temp_dir().join(format!("se-cluster-trace-{tag}.json"));
    let metrics = std::env::temp_dir().join(format!("se-cluster-metrics-{tag}.prom"));
    let base = Flags {
        kill: vec!["0@50".into()],
        restart: vec!["0@200".into()],
        tiers: Some("buf:2kb:16,dram:1mb:4,ssd:1gb:1".into()),
        buffer_kb: None,
        trace_out: Some(trace.clone()),
        metrics_out: Some(metrics.clone()),
        ..cluster_flags()
    };
    // Observing must not perturb stdout: the lane tables stay
    // byte-identical to a tracing-off run.
    let observed_stdout = cluster_output(&base, &models);
    let plain_stdout =
        cluster_output(&Flags { trace_out: None, metrics_out: None, ..base.clone() }, &models);
    assert_eq!(observed_stdout, plain_stdout, "--trace-out must not change stdout");

    let trace_text = std::fs::read_to_string(&trace).unwrap();
    let doc = se_bench::json::Json::parse(&trace_text).unwrap();
    let events = doc.get("traceEvents").and_then(se_bench::json::Json::as_array).unwrap();
    assert!(!events.is_empty(), "trace must carry events");
    // The churned tiered run tells the whole story: batch spans, fault
    // instants, and per-tier admission events.
    for needle in ["\"ph\": \"X\"", "instance_killed", "instance_restarted", "tier_"] {
        assert!(trace_text.contains(needle), "trace must contain `{needle}`:\n{trace_text}");
    }
    let metrics_text = std::fs::read_to_string(&metrics).unwrap();
    assert!(metrics_text.contains("se_requests_admitted_total"), "{metrics_text}");

    // The export itself is part of the determinism contract: byte-identical
    // across worker counts.
    cluster_output(&Flags { sim_parallelism: Some(4), ..base.clone() }, &models);
    assert_eq!(std::fs::read_to_string(&trace).unwrap(), trace_text);
    assert_eq!(std::fs::read_to_string(&metrics).unwrap(), metrics_text);
    std::fs::remove_file(&trace).unwrap();
    std::fs::remove_file(&metrics).unwrap();
}

#[test]
fn serve_rejects_fault_flags() {
    // Every cluster-only flag — fault injection, residency, and routing —
    // is an error naming the flag and pointing at `se cluster`, never a
    // silently ignored option.
    let cases = [
        ("--kill", "0@10"),
        ("--tiers", "buf:64kb:16"),
        ("--buffer-kb", "64"),
        ("--instances", "2"),
        ("--router", "bogus"),
    ];
    for (flag, value) in cases {
        let mut out = Vec::new();
        let argv = ["serve", flag, value].map(String::from);
        let err = se_bench::cli::run_from_args(&argv, &mut out).unwrap_err();
        let err = err.to_string();
        assert!(err.contains(flag) && err.contains("se cluster"), "{flag}: {err}");
        assert!(out.is_empty(), "{flag}: nothing is printed before the error");
    }
}

#[test]
fn serve_rejects_rate_with_the_closed_loop() {
    // The closed loop's pressure is --concurrency; a --rate would be ignored.
    let flags = Flags { arrival: Some("closed".into()), rate: Some(1000.0), ..Flags::default() };
    let mut out = Vec::new();
    let err = figures::serve::run_with_models(&flags, &model_set()[..1], &mut out).unwrap_err();
    assert!(err.to_string().contains("--rate"), "{err}");
}

#[test]
fn burst_without_burst_arrivals_is_an_error() {
    // Both fronts would otherwise run uniform arrivals.
    let mut out = Vec::new();
    let flags = Flags { burst: Some(4), ..cluster_flags() };
    let err = figures::cluster::run_with_models(&flags, &model_set(), &mut out).unwrap_err();
    assert!(err.to_string().contains("--burst"), "{err}");
    let flags = Flags { burst: Some(4), arrival: Some("uniform".into()), ..Flags::default() };
    let err = figures::serve::run_with_models(&flags, &model_set()[..1], &mut out).unwrap_err();
    assert!(err.to_string().contains("--burst"), "{err}");
}

#[test]
fn cluster_replays_trace_artifacts_byte_identically() {
    let models = model_set();
    let dir = std::env::temp_dir().join(format!("se-cluster-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let direct = cluster_output(&cluster_flags(), &models);
    let opts = cluster_flags().runner_options().unwrap().traces;
    for net in &models {
        traces::build_trace_file(net, &opts, &dir).unwrap();
    }
    let cached =
        cluster_output(&Flags { traces_dir: Some(dir.clone()), ..cluster_flags() }, &models);
    assert_eq!(direct, cached);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn serve_reports_the_shared_latency_and_deadline_columns() {
    let models = vec![model_set().remove(0)];
    let flags = Flags { requests: Some(32), deadline_us: Some(5.0), ..Flags::default() };
    let mut out = Vec::new();
    figures::serve::run_with_models(&flags, &models, &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    for needle in
        ["latency p50 ms", "latency p95 ms", "latency p99 ms", "deadline missed", "miss %"]
    {
        assert!(text.contains(needle), "serve output must report `{needle}`:\n{text}");
    }
    assert!(text.contains("deadline 5000 cycles/request"), "{text}");
    // Without a deadline the miss cells degrade to n/a, not to absence.
    let mut out = Vec::new();
    figures::serve::run_with_models(&Flags { deadline_us: None, ..flags }, &models, &mut out)
        .unwrap();
    let text = String::from_utf8(out).unwrap();
    assert!(text.contains("deadline missed"), "{text}");
    assert!(text.contains("n/a"), "{text}");
    assert!(text.contains("best effort (no deadline)"), "{text}");
}
