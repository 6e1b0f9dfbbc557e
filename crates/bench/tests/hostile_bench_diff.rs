//! Hostile-input properties of `se bench diff`: a damaged snapshot
//! (truncated, byte-flipped, or blown up to many copies of its configs)
//! must give `Err` or a verdict, never a panic or a hang, and diffing a
//! snapshot must cost time linear in its config count.

use proptest::prelude::*;
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

fn golden_configs() -> Vec<Json> {
    Json::parse(GOLDEN).unwrap().get("configs").unwrap().as_array().unwrap().to_vec()
}

/// A valid snapshot of `n` distinct configs: the golden ones over and
/// over, config `i` given `i + 1` instances so that every key differs.
fn distinct(n: usize) -> String {
    let golden = golden_configs();
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

/// Diffs `text` against the golden snapshot. Any outcome but a panic is
/// acceptable here; the properties assert which one.
fn diff(text: &str) -> Result<(), String> {
    let base = Snapshot::parse("golden", GOLDEN).unwrap();
    let cand = Snapshot::parse("hostile", text).map_err(|e| e.to_string())?;
    diff_snapshots(&base, &cand, &mut std::io::sink()).map_err(|e| e.to_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn truncation_is_an_error(cut in any::<usize>()) {
        // Anything short of the closing brace is an unfinished document.
        let end = GOLDEN.trim_end().len();
        let cut = cut % end;
        if GOLDEN.is_char_boundary(cut) {
            prop_assert!(diff(&GOLDEN[..cut]).is_err(), "cut at {} of {} diffed", cut, end);
        }
    }

    #[test]
    fn flipped_bytes_never_panic(at in any::<usize>(), mask in 1u16..256) {
        let mut bytes = GOLDEN.as_bytes().to_vec();
        let at = at % bytes.len();
        bytes[at] ^= mask as u8;
        // A flip can leave a valid snapshot (a digit for a digit); it must
        // never panic.
        if let Ok(text) = String::from_utf8(bytes) {
            let _ = diff(&text);
        }
    }

    #[test]
    fn repeated_configs_are_errors(copies in 2usize..64, pick in any::<usize>()) {
        // Every copy of a config repeats its key: however many there are,
        // the snapshot is refused at the first repeat.
        let golden = golden_configs();
        let cfg = golden[pick % golden.len()].clone();
        let mut configs = golden;
        configs.extend(std::iter::repeat_n(cfg, copies - 1));
        let outcome = diff(&with_configs(configs));
        prop_assert!(
            outcome.as_ref().is_err_and(|e| e.contains("config repeated")),
            "{} copies diffed: {:?}", copies, outcome
        );
    }
}

#[test]
fn a_huge_blown_up_snapshot_is_refused_quickly() {
    let golden = golden_configs();
    let cfg = golden[0].clone();
    let text = with_configs(std::iter::repeat_n(cfg, 20_000).collect());
    let start = Instant::now();
    let err = diff(&text).unwrap_err();
    assert!(err.contains("config repeated"), "{err}");
    assert!(start.elapsed().as_secs_f64() < 10.0, "took {:?}", start.elapsed());
}

#[test]
fn distinct_configs_diff_clean_against_themselves() {
    let text = distinct(100);
    let snap = Snapshot::parse("a", &text).unwrap();
    let mut out = Vec::new();
    diff_snapshots(&snap, &snap, &mut out).unwrap();
    let out = String::from_utf8(out).unwrap();
    assert!(out.contains("ok: 100 config(s) compared, all within 2x"), "{out}");
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
