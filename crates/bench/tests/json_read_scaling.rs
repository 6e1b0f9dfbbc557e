//! Reading a Chrome-trace document must cost time linear in its size. A
//! binary of its own: its wall-clock ratio is measured with no other test
//! of the binary running beside it.

use se_bench::obs_export::{chrome_trace, read_chrome_trace};
use se_obs::{Event, EventKind};
use std::time::Instant;

/// Two lanes of every event kind, `rounds` times over.
fn streams(rounds: u64) -> Vec<(String, Vec<Event>)> {
    let kinds = [
        EventKind::Admitted { id: 0, model: 1, instance: 0 },
        EventKind::QueueDepth { instance: 0, depth: 3 },
        EventKind::Rejected { id: 1, model: 0 },
        EventKind::Lost { id: 2, model: 1 },
        EventKind::TierHit { instance: 0, model: 1 },
        EventKind::TierPromoted { instance: 0, model: 2, from: 2, cycles: 40, bytes: 128 },
        EventKind::TierDemoted { instance: 0, model: 3, to: 1, bytes: 64, dropped: false },
        EventKind::TierColdFetch { instance: 0, model: 5, cycles: 90, bytes: 256 },
        EventKind::TierStreamed { instance: 0, model: 6, cycles: 70 },
        EventKind::BatchFormed { seq: 0, instance: 0, model: 1, size: 2 },
        EventKind::BatchLaunched { seq: 0, instance: 0, model: 1, size: 2, done: 60 },
        EventKind::Served {
            id: 0,
            model: 1,
            instance: 0,
            batch: 0,
            enqueued: 4,
            latency: 60,
            missed: true,
        },
        EventKind::BatchCompleted { seq: 0, instance: 0, size: 2 },
        EventKind::BatchKilled { seq: 1, instance: 1 },
        EventKind::InstanceKilled { instance: 1, in_flight: 2, rerouted: 1, lost: 1 },
        EventKind::InstanceRestarted { instance: 1 },
        EventKind::InstanceSpawned { instance: 2 },
        EventKind::InstanceDraining { instance: 2 },
    ];
    let lane = |offset: u64| {
        let events = kinds.iter().cycle().take(kinds.len() * rounds as usize);
        events
            .enumerate()
            .map(|(i, kind)| Event { at: offset + i as u64 * 3, kind: kind.clone() })
            .collect()
    };
    vec![("lane \u{e9}".to_string(), lane(0)), ("lane 2".to_string(), lane(1))]
}

/// The rendered Chrome trace of [`streams`]`(rounds)`.
fn document(rounds: u64) -> String {
    let streams = streams(rounds);
    let views: Vec<(String, &[Event])> =
        streams.iter().map(|(label, events)| (label.clone(), events.as_slice())).collect();
    chrome_trace(&views).render()
}

/// Seconds of the fastest of five reads of `text`.
fn read_seconds(text: &str) -> f64 {
    (0..5)
        .map(|_| {
            let start = Instant::now();
            assert!(read_chrome_trace(text.as_bytes()).is_ok());
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn reading_doubles_at_most_linearly() {
    // A quadratic reader takes 4x as long on twice the document; a linear
    // one about 2x. 3x leaves room for noise and still catches it.
    let (small, large) = (document(250), document(500));
    assert!(large.len() >= 2 * small.len() - 2_000);
    let (t_small, t_large) = (read_seconds(&small), read_seconds(&large));
    assert!(
        t_large < 3.0 * t_small,
        "doubling the document took {:.1}x ({t_small:.4} s -> {t_large:.4} s)",
        t_large / t_small
    );
}
