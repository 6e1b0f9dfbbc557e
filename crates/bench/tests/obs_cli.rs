//! End-to-end determinism of the `se obs` analytics CLI: traces written
//! by separate runs of the same churned, tiered cluster must analyze to
//! byte-identical stdout — summarize, attribute, and diff alike — and a
//! run diffed against itself reports no regression.

use se_bench::args::Flags;
use se_bench::figures::obs;
use se_bench::json::Json;
use se_bench::obs_export::{chrome_trace, events_from_chrome_trace};
use se_obs::{Event, EventKind, Recorder};
use se_serve::cluster::{
    simulate_cluster_run_obs, ClusterSpec, ModelService, RouterPolicy, TierSpec,
};
use se_serve::fault::{FaultAction, FaultEvent, FaultPlan};
use se_serve::queue::BatchPolicy;
use se_serve::workload::Request;
use std::path::PathBuf;

fn service(name: &str, base: u64, per: u64, max_batch: usize, footprint: u64) -> ModelService {
    let streamed: Vec<u64> = (1..=max_batch as u64).map(|k| base + per * k).collect();
    let resident: Vec<u64> = streamed.iter().map(|c| c - c / 4).collect();
    ModelService {
        name: name.into(),
        streamed,
        resident,
        footprint_bytes: footprint,
        dram_bytes_per_cycle: 4.0,
    }
}

fn spec(churned: bool) -> ClusterSpec {
    ClusterSpec {
        instances: 4,
        router: RouterPolicy::RoundRobin,
        policy: BatchPolicy { max_batch: 4, max_wait: 120, queue_cap: 16 },
        buffer_bytes: None,
        tiers: Some(vec![
            TierSpec::new("buf", 1700, 64.0),
            TierSpec::new("dram", 6800, 8.0),
            TierSpec::new("ssd", 27_200, 1.0),
        ]),
        faults: if churned {
            FaultPlan {
                events: vec![
                    FaultEvent { at: 2_500, instance: 1, action: FaultAction::Kill },
                    FaultEvent { at: 15_000, instance: 1, action: FaultAction::Restart },
                ],
                autoscale: None,
            }
        } else {
            FaultPlan::default()
        },
    }
}

fn workload() -> Vec<Request> {
    (0..120)
        .map(|i| Request {
            model: (i % 2) as usize,
            arrival: i * 180,
            deadline: Some(i * 180 + 1500),
        })
        .collect()
}

fn write_trace(name: &str, events: &[Event]) -> PathBuf {
    let streams = [("se".to_string(), events)];
    let path = std::env::temp_dir().join(format!("se-obs-cli-{}-{name}.json", std::process::id()));
    std::fs::write(&path, chrome_trace(&streams).render()).unwrap();
    path
}

fn analyzer_stdout(action: &str, paths: &[&PathBuf], extra: &[&str]) -> String {
    let mut rest: Vec<String> = vec![action.to_string()];
    rest.extend(paths.iter().map(|p| p.display().to_string()));
    rest.extend(extra.iter().map(|s| (*s).to_string()));
    let flags = Flags::from_args(rest.iter().cloned());
    let mut out = Vec::new();
    obs::run(&rest, &flags, &mut out).unwrap();
    String::from_utf8(out).unwrap()
}

#[test]
fn analyzer_output_is_byte_identical_across_runs() {
    let requests = workload();
    let services = [service("se", 200, 40, 4, 300), service("dense", 260, 50, 4, 1600)];
    let spec = spec(true);

    let traces: Vec<PathBuf> = (0..2)
        .map(|run| {
            let mut rec = Recorder::new();
            simulate_cluster_run_obs(&requests, &services, &spec, &mut rec).unwrap();
            write_trace(&format!("run{run}"), rec.events())
        })
        .collect();

    // The trace files are byte-identical, so every analysis over them
    // must be too — but assert at the analyzer level anyway: this is the
    // surface CI compares.
    let mut summaries = Vec::new();
    let mut attributions = Vec::new();
    for path in &traces {
        summaries.push(
            analyzer_stdout("summarize", &[path], &["--window-us", "200"])
                .replace(&path.display().to_string(), "<trace>"),
        );
        attributions.push(
            analyzer_stdout("attribute", &[path], &[])
                .replace(&path.display().to_string(), "<trace>"),
        );
    }
    for s in &summaries[1..] {
        assert_eq!(s, &summaries[0], "summarize diverged across runs");
    }
    for a in &attributions[1..] {
        assert_eq!(a, &attributions[0], "attribute diverged across runs");
    }
    assert!(summaries[0].contains("conservation ok"), "{}", summaries[0]);

    // The churned run's misses attribute to real causes; the kill's
    // victims show up as lost or rerouted lifetimes, not phantoms.
    assert!(attributions[0].contains("missed"), "{}", attributions[0]);

    for path in &traces {
        std::fs::remove_file(path).ok();
    }
}

/// The churned tiered trace, read back from its file, tells the fault and
/// tier story: the kill, the restart, a promotion out of a lower tier, and
/// the batch spans.
#[test]
fn churned_tiered_trace_reads_back_kill_restart_promotion_and_spans() {
    let services = [service("se", 200, 40, 4, 300), service("dense", 260, 50, 4, 1600)];
    let mut rec = Recorder::new();
    simulate_cluster_run_obs(&workload(), &services, &spec(true), &mut rec).unwrap();
    let path = write_trace("story", rec.events());
    let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    std::fs::remove_file(&path).ok();
    let streams = events_from_chrome_trace(&doc).unwrap();
    let kinds: Vec<&EventKind> = streams.iter().flat_map(|(_, s)| s).map(|e| &e.kind).collect();
    let any = |pred: fn(&EventKind) -> bool| kinds.iter().any(|k| pred(k));
    assert!(any(|k| matches!(k, EventKind::InstanceKilled { instance: 1, .. })));
    assert!(any(|k| matches!(k, EventKind::InstanceRestarted { instance: 1 })));
    assert!(any(|k| matches!(k, EventKind::TierPromoted { .. })));
    assert!(any(|k| matches!(k, EventKind::BatchLaunched { .. })));
}

#[test]
fn self_diff_is_zero_and_healthy_vs_churned_names_a_regressor() {
    let requests = workload();
    let services = [service("se", 200, 40, 4, 300), service("dense", 260, 50, 4, 1600)];

    let mut healthy_rec = Recorder::new();
    simulate_cluster_run_obs(&requests, &services, &spec(false), &mut healthy_rec).unwrap();
    let healthy = write_trace("healthy", healthy_rec.events());

    let mut churned_rec = Recorder::new();
    simulate_cluster_run_obs(&requests, &services, &spec(true), &mut churned_rec).unwrap();
    let churned = write_trace("churned", churned_rec.events());

    let same = analyzer_stdout("diff", &[&healthy, &healthy], &[]);
    assert!(same.contains("no window-level changes"), "{same}");
    assert!(same.contains("dominant regressor: none"), "{same}");
    assert!(same.contains("largest goodput drop: none"), "{same}");

    let regressed = analyzer_stdout("diff", &[&healthy, &churned], &["--window-us", "10"]);
    assert!(regressed.contains("dominant regressor:"), "{regressed}");
    assert!(!regressed.contains("dominant regressor: none"), "{regressed}");

    for path in [healthy, churned] {
        std::fs::remove_file(&path).ok();
    }
}

/// A hostile trace: one admission at cycle 10^15. Analyzing it must cost
/// memory in proportion to its events, not to its makespan (allocating
/// every window from cycle 0 needs about 1 TB and aborts).
#[test]
fn a_far_future_timestamp_is_analyzed_without_allocating_every_window() {
    let path = std::env::temp_dir().join(format!("se-obs-cli-{}-far.json", std::process::id()));
    std::fs::write(
        &path,
        r#"{"traceEvents": [
            {"ph": "M", "pid": 0, "tid": 0, "ts": 0, "name": "process_name", "args": {"name": "se"}},
            {"ph": "i", "pid": 0, "tid": 0, "ts": 1e15, "name": "admitted", "args": {"id": 0, "model": 0}}
        ]}"#,
    )
    .unwrap();
    let summary = analyzer_stdout("summarize", &[&path], &[]);
    assert!(summary.contains("conservation ok"), "{summary}");
    // 10^15 cycles in 200 us (200,000-cycle) windows: 5·10^9 + 1
    // windows, one of them active.
    assert!(summary.contains("(5000000000 idle window(s) elided)"), "{summary}");
    let attribution = analyzer_stdout("attribute", &[&path], &[]);
    assert!(attribution.contains("no misses to attribute"), "{attribution}");
    let diff = analyzer_stdout("diff", &[&path, &path], &[]);
    assert!(diff.contains("no window-level changes"), "{diff}");
    std::fs::remove_file(&path).ok();
}
