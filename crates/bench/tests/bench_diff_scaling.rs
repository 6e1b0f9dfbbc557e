//! `se bench diff` must cost time linear in a snapshot's config count. A
//! binary of its own: its wall-clock ratio is measured with no other test
//! of the binary running beside it.

use se_bench::figures::bench_serve::{diff_snapshots, Snapshot};
use se_bench::json::Json;
use std::time::Instant;

const GOLDEN: &str = include_str!("fixtures/bench_serve_golden.json");

/// The golden snapshot with its `configs` array replaced by `configs`.
fn with_configs(configs: Vec<Json>) -> String {
    let mut doc = Json::parse(GOLDEN).unwrap();
    let Json::Obj(fields) = &mut doc else { panic!("snapshot is an object") };
    let slot = fields.iter_mut().find(|(k, _)| k == "configs").unwrap();
    slot.1 = Json::Arr(configs);
    doc.render()
}

/// A valid snapshot of `n` distinct configs: the golden ones over and
/// over, config `i` given `i + 1` instances so that every key differs.
fn distinct(n: usize) -> String {
    let golden = Json::parse(GOLDEN).unwrap().get("configs").unwrap().as_array().unwrap().to_vec();
    let configs = (0..n)
        .map(|i| {
            let mut cfg = golden[i % golden.len()].clone();
            let Json::Obj(fields) = &mut cfg else { panic!("config is an object") };
            let slot = fields.iter_mut().find(|(k, _)| k == "instances").unwrap();
            slot.1 = Json::Num((i + 1) as f64);
            cfg
        })
        .collect();
    with_configs(configs)
}

/// Seconds of the fastest of three self-diffs of `text`. Parsing is
/// left out: the JSON reader has its own scaling test, and its linear
/// cost would hide a quadratic config match at these sizes.
fn diff_seconds(text: &str) -> f64 {
    let snap = Snapshot::parse("scale", text).unwrap();
    (0..3)
        .map(|_| {
            let start = Instant::now();
            diff_snapshots(&snap, &snap, &mut std::io::sink()).unwrap();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn diffing_doubles_at_most_linearly() {
    // A quadratic match takes 4x as long on twice the configs; a linear
    // one about 2x. 3x leaves room for noise and still catches it.
    let (small, large) = (distinct(8_000), distinct(16_000));
    let (t_small, t_large) = (diff_seconds(&small), diff_seconds(&large));
    assert!(
        t_large < 3.0 * t_small,
        "doubling the configs took {:.1}x ({t_small:.4} s -> {t_large:.4} s)",
        t_large / t_small
    );
}
