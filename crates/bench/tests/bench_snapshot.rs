//! The bench-snapshot regression layer:
//!
//! * a committed golden `BENCH_serve.json` fixture must stay
//!   render→parse→render **byte-stable** (the emitter and parser are a
//!   fixed point on their own output) and pass the current schema;
//! * `se bench diff` accepts identical snapshots, and fails loudly on
//!   schema drift, config-set drift, and >2x throughput swings — the
//!   three ways a perf snapshot silently rots.

use se_bench::figures::bench_serve;
use se_bench::json::Json;

const GOLDEN: &str = include_str!("fixtures/bench_serve_golden.json");

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("se-bench-snap-{tag}-{}.json", std::process::id()))
}

#[test]
fn golden_fixture_is_schema_valid_and_render_parse_render_byte_stable() {
    let doc = Json::parse(GOLDEN).unwrap();
    bench_serve::validate_report(&doc).unwrap();
    // One round trip reproduces the committed bytes exactly...
    assert_eq!(doc.render(), GOLDEN, "golden fixture drifted from the emitter's format");
    // ...and the round trip is a fixed point, not a converging sequence.
    let again = Json::parse(&doc.render()).unwrap();
    assert_eq!(again.render(), GOLDEN);
}

#[test]
fn committed_repo_snapshot_passes_the_current_schema() {
    // The repo-root BENCH_serve.json is the CI diff baseline; a schema
    // bump without a snapshot regeneration must fail here, not in CI.
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json"))
            .unwrap();
    let doc = Json::parse(&text).unwrap();
    bench_serve::validate_report(&doc).unwrap();
    assert_eq!(doc.render(), text, "committed snapshot must be emitter-formatted");
}

#[test]
fn diff_of_identical_snapshots_passes() {
    let base = temp_path("ident-base");
    let cand = temp_path("ident-cand");
    std::fs::write(&base, GOLDEN).unwrap();
    std::fs::write(&cand, GOLDEN).unwrap();
    let mut out = Vec::new();
    bench_serve::run_diff(&base, &cand, &mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    assert!(text.contains("all within 2x"), "{text}");
    // The per-config delta table prints on success too — drift shows up
    // in CI logs before it trips the 2x gate.
    assert!(text.contains("delta"), "{text}");
    assert!(text.contains("+0.0%"), "{text}");
    std::fs::remove_file(&base).unwrap();
    std::fs::remove_file(&cand).unwrap();
}

#[test]
fn diff_rejects_schema_drift() {
    let base = temp_path("schema-base");
    let cand = temp_path("schema-cand");
    std::fs::write(&base, GOLDEN).unwrap();
    let drifted = GOLDEN.replace("\"schema_version\": 4", "\"schema_version\": 3");
    assert_ne!(drifted, GOLDEN);
    std::fs::write(&cand, drifted).unwrap();
    let mut out = Vec::new();
    let err = bench_serve::run_diff(&base, &cand, &mut out).unwrap_err();
    assert!(err.to_string().contains("schema drift"), "{err}");
    std::fs::remove_file(&base).unwrap();
    std::fs::remove_file(&cand).unwrap();
}

#[test]
fn diff_rejects_throughput_swings_beyond_2x() {
    let base = temp_path("swing-base");
    let cand = temp_path("swing-cand");
    std::fs::write(&base, GOLDEN).unwrap();
    // Triple one config's throughput: a structural perf change, not noise.
    let mut doc = Json::parse(GOLDEN).unwrap();
    let Json::Obj(fields) = &mut doc else { panic!("snapshot is an object") };
    let configs = fields.iter_mut().find(|(k, _)| k == "configs").unwrap();
    let Json::Arr(items) = &mut configs.1 else { panic!("configs is an array") };
    let Json::Obj(cfg) = &mut items[0] else { panic!("config is an object") };
    let rps = cfg.iter_mut().find(|(k, _)| k == "throughput_rps").unwrap();
    let old = rps.1.as_f64().unwrap();
    rps.1 = Json::Num(old * 3.0);
    std::fs::write(&cand, doc.render()).unwrap();
    let mut out = Vec::new();
    let err = bench_serve::run_diff(&base, &cand, &mut out).unwrap_err();
    assert!(err.to_string().contains("regression"), "{err}");
    let text = String::from_utf8(out).unwrap();
    assert!(text.contains("SWING"), "{text}");
    assert!(text.contains("3.00"), "{text}");
    std::fs::remove_file(&base).unwrap();
    std::fs::remove_file(&cand).unwrap();
}

#[test]
fn diff_rejects_config_set_drift() {
    let base = temp_path("set-base");
    let cand = temp_path("set-cand");
    std::fs::write(&base, GOLDEN).unwrap();
    let mut doc = Json::parse(GOLDEN).unwrap();
    let Json::Obj(fields) = &mut doc else { panic!("snapshot is an object") };
    let configs = fields.iter_mut().find(|(k, _)| k == "configs").unwrap();
    let Json::Arr(items) = &mut configs.1 else { panic!("configs is an array") };
    items.pop().unwrap();
    assert!(!items.is_empty(), "fixture needs >= 2 configs for this test");
    std::fs::write(&cand, doc.render()).unwrap();
    let mut out = Vec::new();
    let err = bench_serve::run_diff(&base, &cand, &mut out).unwrap_err();
    assert!(err.to_string().contains("regression"), "{err}");
    let text = String::from_utf8(out).unwrap();
    assert!(text.contains("config dropped from candidate"), "{text}");
    std::fs::remove_file(&base).unwrap();
    std::fs::remove_file(&cand).unwrap();
}
