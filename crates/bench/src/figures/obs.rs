//! `se obs` — the trace analytics CLI over `se_obs` event streams.
//!
//! Consumes `--trace-out` Chrome-trace files written by `se serve`,
//! `se cluster`, or `se bench serve`, reconstructs the exact event
//! streams via [`crate::obs_export::read_chrome_trace`] (the
//! round-trip guarantee), and runs [`se_obs::analyze`] over them:
//!
//! * `se obs summarize <trace.json>` — windowed timeseries: per-window
//!   throughput, goodput, latency percentiles, queue depth, and tier
//!   traffic, conservation-checked against the stream totals;
//! * `se obs attribute <trace.json>` — SLO-miss attribution: each missed
//!   or lost request's lifetime decomposed into reroute / queue /
//!   formation / cold / exec segments, ranked by `(cause, model,
//!   instance)` — post-restart cold-buffer misses surface as
//!   `cold-restart`, separate from steady-state `cold`;
//! * `se obs diff <a.json> <b.json>` — cross-run regression diff:
//!   streams aligned by label, signed per-window and per-bucket deltas,
//!   the dominant regressor named.
//!
//! Every analysis is a pure function of the event stream, so the output
//! is byte-identical across `--sim-parallelism` values — the same
//! determinism contract as the trace files themselves. The window width is `--window-us` (default 200),
//! converted to cycles at the accelerator frequency.

use crate::args::Flags;
use crate::obs_export::read_chrome_trace;
use crate::{table, Result};
use se_hw::SeAcceleratorConfig;
use se_obs::analyze::{analyze, Analysis};
use se_obs::Event;
use std::fs::File;
use std::io::Write;
use std::path::Path;

/// Dispatches the `obs` subcommand's action: `summarize` / `attribute`
/// take one trace file, `diff` takes a baseline and a candidate.
///
/// # Errors
///
/// Fails without a valid action, on unreadable or foreign trace files,
/// and on conservation violations (a stream whose windows cannot fold
/// back to its totals is corrupt).
pub fn run(rest: &[String], flags: &Flags, out: &mut dyn Write) -> Result<()> {
    match crate::args::positionals(rest).split_first() {
        Some((&"summarize", [trace])) => run_summarize(Path::new(trace), flags, out),
        Some((&"attribute", [trace])) => run_attribute(Path::new(trace), flags, out),
        Some((&"diff", [baseline, candidate])) => {
            run_diff(Path::new(baseline), Path::new(candidate), flags, out)
        }
        Some((&"summarize", _)) => Err("usage: se obs summarize <trace.json>".into()),
        Some((&"attribute", _)) => Err("usage: se obs attribute <trace.json>".into()),
        Some((&"diff", _)) => Err("usage: se obs diff <baseline.json> <candidate.json>".into()),
        other => Err(format!(
            "usage: se obs <summarize|attribute|diff> <trace.json...> [--window-us F] \
             (got {:?}); see docs/CLI.md",
            other.map_or("no action", |(first, _)| first)
        )
        .into()),
    }
}

/// The analysis window in cycles: `--window-us` (default 200 µs) at the
/// accelerator frequency, never below one cycle.
fn window_cycles(flags: &Flags) -> u64 {
    let freq = SeAcceleratorConfig::default().frequency_hz;
    ((flags.window_us.unwrap_or(200.0) * 1e-6 * freq).round() as u64).max(1)
}

/// Streams a `--trace-out` file back into its named event streams.
fn load_streams(path: &Path) -> Result<Vec<(String, Vec<Event>)>> {
    let streams = File::open(path).map_err(Into::into).and_then(read_chrome_trace);
    streams.map_err(|e| format!("{}: {e}", path.display()).into())
}

/// Cycles → microseconds at the accelerator frequency.
fn us(cycles: u64) -> f64 {
    cycles as f64 / SeAcceleratorConfig::default().frequency_hz * 1e6
}

/// The one-line conservation verdict of a stream's totals; a violation
/// is an error (the trace is corrupt or foreign).
fn conservation_line(label: &str, a: &Analysis) -> Result<String> {
    let t = &a.totals;
    if !t.conserves() {
        return Err(format!(
            "stream {label:?}: conservation violated: {} served + {} rejected + {} lost \
             != {} submitted ({} duplicate terminals)",
            t.served, t.rejected, t.lost, t.submitted, t.duplicate_terminals
        )
        .into());
    }
    if a.fold_windows() != *t {
        return Err(format!(
            "stream {label:?}: window fold mismatch — the windowed aggregates do not \
             sum back to the stream totals (analyzer bug)"
        )
        .into());
    }
    Ok(format!(
        "stream {label}: {} submitted = {} served + {} rejected + {} lost \
         (conservation ok; windows fold to totals)",
        t.submitted, t.served, t.rejected, t.lost
    ))
}

/// Whether a window has anything to show (idle windows are elided from
/// the tables, never from the analysis).
fn window_active(w: &se_obs::analyze::WindowStats) -> bool {
    w.admitted > 0
        || w.rejected > 0
        || w.lost > 0
        || w.served > 0
        || w.batches_launched > 0
        || w.batches_completed > 0
        || w.batches_killed > 0
        || w.queue_depth_samples > 0
        || w.tier_hits + w.tier_promotions + w.tier_cold_fetches + w.tier_streams > 0
        || w.tier_demotions + w.tier_drops > 0
        || w.tier_walk_cycles > 0
}

/// `se obs summarize <trace.json>` — the windowed timeseries view.
fn run_summarize(trace: &Path, flags: &Flags, out: &mut dyn Write) -> Result<()> {
    let window = window_cycles(flags);
    let streams = load_streams(trace)?;
    writeln!(
        out,
        "se obs summarize: {} ({} stream(s), window {:.0} us = {} cycles)\n",
        trace.display(),
        streams.len(),
        us(window),
        window
    )?;
    for (label, events) in &streams {
        let a = analyze(events, window);
        writeln!(out, "{}", conservation_line(label, &a)?)?;
        let t = &a.totals;
        writeln!(
            out,
            "  {} missed, {} batches ({} killed), {} kills / {} restarts, \
             makespan {:.0} us",
            t.missed,
            t.batches_launched,
            t.batches_killed,
            t.kills,
            t.restarts,
            us(t.makespan)
        )?;
        let active: Vec<&se_obs::analyze::WindowStats> =
            a.windows.iter().filter(|w| window_active(w)).collect();
        let rows: Vec<Vec<String>> = active
            .iter()
            .map(|w| {
                let [p50, p95, p99] = w
                    .latency_percentiles([50.0, 95.0, 99.0])
                    .map(|c| c.map_or_else(|| "-".into(), |c| format!("{:.1}", us(c))));
                vec![
                    w.index.to_string(),
                    format!("{:.0}", us(w.start)),
                    w.admitted.to_string(),
                    w.rejected.to_string(),
                    w.lost.to_string(),
                    w.served.to_string(),
                    w.served_ok().to_string(),
                    w.missed.to_string(),
                    p50,
                    p95,
                    p99,
                    w.queue_depth_max.to_string(),
                    format!("{:.1}", w.queue_depth_mean()),
                    w.tier_hits.to_string(),
                    w.tier_promotions.to_string(),
                    w.tier_cold_fetches.to_string(),
                    w.tier_walk_cycles.to_string(),
                ]
            })
            .collect();
        writeln!(
            out,
            "{}",
            table::render(
                &[
                    "win", "t_us", "adm", "rej", "lost", "served", "ok", "miss", "p50_us",
                    "p95_us", "p99_us", "q_max", "q_mean", "hits", "promo", "cold", "walk_cyc",
                ],
                &rows
            )
        )?;
        // Windows no event lands in are absent from the analysis, and
        // present ones may still hold nothing worth a row.
        let windows = (t.makespan / window).saturating_add(1);
        let idle = windows - active.len() as u64;
        if idle > 0 {
            writeln!(out, "  ({idle} idle window(s) elided)")?;
        }
        writeln!(out)?;
    }
    Ok(())
}

/// `se obs attribute <trace.json>` — the SLO-miss attribution view.
fn run_attribute(trace: &Path, flags: &Flags, out: &mut dyn Write) -> Result<()> {
    let window = window_cycles(flags);
    let streams = load_streams(trace)?;
    writeln!(
        out,
        "se obs attribute: {} ({} stream(s), window {:.0} us = {} cycles)\n",
        trace.display(),
        streams.len(),
        us(window),
        window
    )?;
    for (label, events) in &streams {
        let a = analyze(events, window);
        writeln!(out, "{}", conservation_line(label, &a)?)?;
        let t = &a.totals;
        writeln!(out, "  {} missed + {} lost of {} submitted", t.missed, t.lost, t.submitted)?;
        let ranked = a.ranked_miss_causes();
        if ranked.is_empty() {
            writeln!(out, "  no misses to attribute\n")?;
            continue;
        }
        let rows: Vec<Vec<String>> = ranked
            .iter()
            .map(|g| {
                vec![
                    g.cause.to_string(),
                    g.model.to_string(),
                    g.instance.to_string(),
                    g.requests.to_string(),
                    g.cycles.to_string(),
                    format!("{:.1}", us(g.cycles)),
                ]
            })
            .collect();
        writeln!(
            out,
            "{}",
            table::render(&["cause", "model", "inst", "requests", "cycles", "us"], &rows)
        )?;
        let buckets = a.miss_cycles_by_segment();
        let bucket_rows: Vec<Vec<String>> = buckets
            .iter()
            .map(|(name, cycles)| {
                vec![(*name).to_string(), cycles.to_string(), format!("{:.1}", us(*cycles))]
            })
            .collect();
        writeln!(
            out,
            "miss cycles by segment:\n{}",
            table::render(&["segment", "cycles", "us"], &bucket_rows)
        )?;
    }
    Ok(())
}

/// `se obs diff <baseline.json> <candidate.json>` — the cross-run
/// regression view. Streams align by label; a label present on one side
/// only is an error (the runs are not comparable).
fn run_diff(baseline: &Path, candidate: &Path, flags: &Flags, out: &mut dyn Write) -> Result<()> {
    let window = window_cycles(flags);
    let base_streams = load_streams(baseline)?;
    let cand_streams = load_streams(candidate)?;
    let base_labels: Vec<&str> = base_streams.iter().map(|(l, _)| l.as_str()).collect();
    let cand_labels: Vec<&str> = cand_streams.iter().map(|(l, _)| l.as_str()).collect();
    if base_labels != cand_labels {
        return Err(format!(
            "stream labels differ — runs are not comparable:\n  baseline {}: {:?}\n  \
             candidate {}: {:?}",
            baseline.display(),
            base_labels,
            candidate.display(),
            cand_labels
        )
        .into());
    }
    writeln!(
        out,
        "se obs diff: {} (baseline) vs {} (candidate), window {:.0} us = {} cycles\n",
        baseline.display(),
        candidate.display(),
        us(window),
        window
    )?;
    for ((label, base_events), (_, cand_events)) in base_streams.iter().zip(&cand_streams) {
        let base = analyze(base_events, window);
        let cand = analyze(cand_events, window);
        conservation_line(label, &base)?;
        conservation_line(label, &cand)?;
        let d = se_obs::analyze::diff(&base, &cand);
        writeln!(out, "stream {label}: candidate - baseline")?;
        let changed: Vec<&se_obs::analyze::WindowDelta> =
            d.windows.iter().filter(|w| !w.is_zero()).collect();
        if changed.is_empty() {
            writeln!(out, "  no window-level changes")?;
        } else {
            let signed = |v: i64| format!("{v:+}");
            let rows: Vec<Vec<String>> = changed
                .iter()
                .map(|w| {
                    vec![
                        w.index.to_string(),
                        format!("{:.0}", us(w.index * window)),
                        signed(w.served),
                        signed(w.served_ok),
                        signed(w.missed),
                        signed(w.rejected),
                        signed(w.lost),
                        signed(w.queue_depth_max),
                        signed(w.tier_walk_cycles),
                    ]
                })
                .collect();
            writeln!(
                out,
                "{}",
                table::render(
                    &["win", "t_us", "served", "ok", "miss", "rej", "lost", "q_max", "walk_cyc"],
                    &rows
                )
            )?;
        }
        let bucket_rows: Vec<Vec<String>> = d
            .buckets
            .iter()
            .map(|(name, delta)| vec![(*name).to_string(), format!("{delta:+}")])
            .collect();
        writeln!(
            out,
            "miss-cycle deltas by segment:\n{}",
            table::render(&["segment", "delta_cycles"], &bucket_rows)
        )?;
        match d.dominant_regressor {
            Some((name, delta)) => {
                writeln!(out, "dominant regressor: {name} (+{delta} miss cycles)")?;
            }
            None => writeln!(out, "dominant regressor: none (no bucket regressed)")?,
        }
        match d.worst_window {
            Some((index, drop)) => writeln!(
                out,
                "largest goodput drop: window {index} [{:.0}..{:.0} us] ({drop} on-time \
                 completions)",
                us(index * window),
                us((index + 1) * window)
            )?,
            None => writeln!(out, "largest goodput drop: none (no window lost goodput)")?,
        }
        writeln!(out)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs_export::chrome_trace;
    use se_obs::EventKind;

    fn flags(args: &[&str]) -> Flags {
        Flags::from_args(args.iter().map(|s| (*s).to_string()))
    }

    fn write_trace(name: &str, streams: &[(String, Vec<Event>)]) -> std::path::PathBuf {
        let views: Vec<(String, &[Event])> =
            streams.iter().map(|(l, e)| (l.clone(), e.as_slice())).collect();
        let path = std::env::temp_dir().join(format!("se-obs-{}-{name}.json", std::process::id()));
        std::fs::write(&path, chrome_trace(&views).render()).unwrap();
        path
    }

    fn tiny_stream(slow: bool) -> Vec<Event> {
        let (start, done) = if slow { (400, 900) } else { (10, 60) };
        vec![
            Event { at: 0, kind: EventKind::Admitted { id: 0, model: 0, instance: 0 } },
            Event { at: 0, kind: EventKind::QueueDepth { instance: 0, depth: 1 } },
            Event {
                at: start,
                kind: EventKind::BatchFormed { seq: 0, instance: 0, model: 0, size: 1 },
            },
            Event {
                at: start,
                kind: EventKind::BatchLaunched { seq: 0, instance: 0, model: 0, size: 1, done },
            },
            Event {
                at: done,
                kind: EventKind::Served {
                    id: 0,
                    model: 0,
                    instance: 0,
                    batch: 0,
                    enqueued: 0,
                    latency: done,
                    missed: slow,
                },
            },
            Event { at: done, kind: EventKind::BatchCompleted { seq: 0, instance: 0, size: 1 } },
        ]
    }

    #[test]
    fn summarize_and_attribute_run_on_written_traces() {
        let streams = vec![("se".to_string(), tiny_stream(true))];
        let path = write_trace("summ", &streams);
        let mut out = Vec::new();
        run(
            &["summarize".to_string(), path.display().to_string()],
            &flags(&["--window-us", "100"]),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("conservation ok"), "{text}");
        assert!(text.contains("stream se"), "{text}");

        let mut out = Vec::new();
        run(&["attribute".to_string(), path.display().to_string()], &flags(&[]), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("1 missed + 0 lost"), "{text}");
        assert!(text.contains("exec"), "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn diff_against_self_is_all_zeros_and_mismatched_labels_fail() {
        let healthy = vec![("se".to_string(), tiny_stream(false))];
        let slow = vec![("se".to_string(), tiny_stream(true))];
        let base = write_trace("diff-base", &healthy);
        let cand = write_trace("diff-cand", &slow);

        let mut out = Vec::new();
        run(
            &["diff".to_string(), base.display().to_string(), base.display().to_string()],
            &flags(&[]),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("no window-level changes"), "{text}");
        assert!(text.contains("dominant regressor: none"), "{text}");
        assert!(text.contains("largest goodput drop: none"), "{text}");

        let mut out = Vec::new();
        run(
            &["diff".to_string(), base.display().to_string(), cand.display().to_string()],
            &flags(&["--window-us", "0.1"]),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("dominant regressor: exec"), "{text}");
        assert!(text.contains("largest goodput drop: window"), "{text}");

        let renamed = vec![("dense".to_string(), tiny_stream(false))];
        let foreign = write_trace("diff-foreign", &renamed);
        let err = run(
            &["diff".to_string(), base.display().to_string(), foreign.display().to_string()],
            &flags(&[]),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("labels differ"), "{err}");
        for p in [base, cand, foreign] {
            std::fs::remove_file(&p).ok();
        }
    }

    #[test]
    fn missing_action_and_missing_file_error_loudly() {
        let err = run(&[], &flags(&[]), &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("summarize|attribute|diff"), "{err}");
        let err = run(
            &["summarize".to_string(), "/nonexistent/trace.json".to_string()],
            &flags(&[]),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("/nonexistent/trace.json"), "{err}");
    }
}
