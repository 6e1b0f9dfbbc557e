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

/// The time of a self-diff of `large` over that of `small`, for each of
/// seven rounds that time one of each back to back, in ascending order.
/// A change in host speed hits both sides of a round alike, and the
/// median drops the rounds a preemption hit. Parsing is left out: the
/// JSON reader has its own scaling test, and its linear cost would hide a
/// quadratic config match at these sizes.
fn round_ratios(small: &str, large: &str) -> Vec<f64> {
    let [small, large] = [small, large].map(|text| Snapshot::parse("scale", text).unwrap());
    let time = |snap: &Snapshot| {
        let start = Instant::now();
        diff_snapshots(snap, snap, &mut std::io::sink()).unwrap();
        start.elapsed().as_secs_f64()
    };
    let mut ratios: Vec<f64> = (0..7)
        .map(|_| {
            let t_small = time(&small);
            time(&large) / t_small
        })
        .collect();
    ratios.sort_by(f64::total_cmp);
    ratios
}

#[test]
fn diffing_doubles_at_most_linearly() {
    // A quadratic match takes 4x as long on twice the configs; a linear
    // one about 2x. 3x leaves room for noise and still catches it. At
    // these sizes one diff takes 15 ms (release) to 50 ms (debug) on a
    // 2-vCPU host: several scheduler time slices.
    let ratios = round_ratios(&distinct(8_000), &distinct(16_000));
    let median = ratios[ratios.len() / 2];
    assert!(median < 3.0, "doubling the configs took {median:.1}x (rounds: {ratios:.2?})");
}
