//! The metrics layer: log₂-bucketed histograms with a quantile
//! estimator ([`Histogram`]) and the Prometheus-style text exposition of
//! event streams ([`render`]), each stream folded into counters, gauges
//! and histograms held in typed slots. The counters are the stream's
//! [`StreamTotals`], tallied by [`StreamTotals::record`] as
//! [`crate::analyze::analyze`] tallies them.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::analyze::StreamTotals;
use crate::event::{Event, EventKind};

/// A log₂-bucketed histogram: bucket `i` counts observed values of bit
/// length `i` (so bucket 0 holds zeros, bucket `i` holds values in
/// `[2^(i-1), 2^i - 1]`). Exact sum and count ride along, so means are
/// exact even though the distribution is bucketed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    sum: u128,
    count: u64,
}

impl Histogram {
    /// Records one value.
    pub fn observe(&mut self, value: u64) {
        let idx = (64 - value.leading_zeros()) as usize;
        if self.counts.len() <= idx {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.sum += u128::from(value);
        self.count += 1;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of every observed value.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Per-bucket counts up to the highest non-empty bucket; bucket `i`'s
    /// inclusive upper bound is `2^i - 1`.
    pub fn buckets(&self) -> &[u64] {
        &self.counts
    }

    /// Inclusive upper bound of bucket `idx`.
    pub fn bucket_bound(idx: usize) -> u64 {
        if idx >= 64 {
            u64::MAX
        } else {
            (1u64 << idx) - 1
        }
    }

    /// Inclusive lower bound of bucket `idx` (0 for the zero bucket).
    fn bucket_floor(idx: usize) -> u64 {
        if idx == 0 {
            0
        } else {
            1u64 << (idx - 1)
        }
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`, clamped) from the
    /// log₂ buckets: the quantile rank's bucket is found by cumulative
    /// count, then the value is interpolated linearly toward the
    /// bucket's **upper** bound (so the estimate never under-reports a
    /// bucket a rank lands at the end of). `None` when nothing was
    /// observed. Exact whenever the bucket holding the rank is a
    /// single-value bucket (0 or 1).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (idx, &bucket) in self.counts.iter().enumerate() {
            if bucket == 0 {
                continue;
            }
            if cumulative + bucket >= rank {
                let lower = Self::bucket_floor(idx) as f64;
                let upper = Self::bucket_bound(idx) as f64;
                let position = (rank - cumulative) as f64 / bucket as f64;
                return Some(lower + (upper - lower) * position);
            }
            cumulative += bucket;
        }
        // Unreachable while count == Σ buckets, but stay total.
        Some(Self::bucket_bound(self.counts.len().saturating_sub(1)) as f64)
    }
}

/// The metrics of one event stream, folded an event at a time into
/// typed slots: the per-kind counts ([`StreamTotals::record`]), five
/// log₂ histograms, the last and the deepest queue-depth sample, and the
/// weight-residency ledger behind `se_tier_occupancy_bytes` (end-of-stream
/// resident bytes per tier, summed over instances, tracked through
/// installs, demotions, drops and restart purges).
#[derive(Default)]
struct StreamMetrics {
    totals: StreamTotals,
    batch_cycles: Histogram,
    batch_size: Histogram,
    queue_depth_samples: Histogram,
    request_latency_cycles: Histogram,
    tier_walk_cycles: Histogram,
    /// The last and the deepest queue-depth sample.
    queue_depth: Option<(usize, usize)>,
    /// (instance, model) → (tier, bytes); a dropped demotion (a capacity
    /// drop or a restart purge) removes the entry.
    holdings: BTreeMap<(usize, usize), (usize, u64)>,
    /// Every tier weights were installed in.
    tiers: BTreeSet<usize>,
}

impl StreamMetrics {
    fn fold(events: &[Event]) -> StreamMetrics {
        let mut metrics = StreamMetrics::default();
        for event in events {
            metrics.record(event);
        }
        metrics
    }

    fn record(&mut self, event: &Event) {
        self.totals.record(event);
        match event.kind {
            EventKind::QueueDepth { depth, .. } => {
                let deepest = self.queue_depth.map_or(depth, |(_, deepest)| deepest.max(depth));
                self.queue_depth = Some((depth, deepest));
                self.queue_depth_samples.observe(depth as u64);
            }
            EventKind::BatchFormed { size, .. } => self.batch_size.observe(size as u64),
            EventKind::BatchLaunched { done, .. } => {
                self.batch_cycles.observe(done.saturating_sub(event.at));
            }
            EventKind::Served { latency, .. } => self.request_latency_cycles.observe(latency),
            EventKind::TierPromoted { instance, model, cycles, bytes, .. }
            | EventKind::TierColdFetch { instance, model, cycles, bytes } => {
                self.tier_walk_cycles.observe(cycles);
                self.hold(instance, model, 0, bytes);
            }
            EventKind::TierStreamed { cycles, .. } => self.tier_walk_cycles.observe(cycles),
            EventKind::TierDemoted { instance, model, dropped: true, .. } => {
                self.holdings.remove(&(instance, model));
            }
            EventKind::TierDemoted { instance, model, to, bytes, dropped: false } => {
                self.hold(instance, model, to, bytes);
            }
            _ => {}
        }
    }

    fn hold(&mut self, instance: usize, model: usize, tier: usize, bytes: u64) {
        self.tiers.insert(tier);
        self.holdings.insert((instance, model), (tier, bytes));
    }

    /// Resident bytes of every tier weights were installed in, by tier.
    fn occupancy(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.tiers.iter().map(|&tier| {
            (tier, self.holdings.values().filter(|&&(t, _)| t == tier).map(|&(_, b)| b).sum())
        })
    }

    /// The counter families, each with its [`StreamTotals`] count.
    fn counters(&self) -> [(&'static str, u64); 19] {
        let t = &self.totals;
        [
            ("se_requests_admitted_total", t.admitted),
            ("se_requests_rejected_total", t.rejected),
            ("se_requests_lost_total", t.lost),
            ("se_requests_served_total", t.served),
            ("se_deadline_misses_total", t.missed),
            ("se_batches_formed_total", t.batches_formed),
            ("se_batches_launched_total", t.batches_launched),
            ("se_batches_completed_total", t.batches_completed),
            ("se_batches_killed_total", t.batches_killed),
            ("se_instance_kills_total", t.kills),
            ("se_instance_restarts_total", t.restarts),
            ("se_instance_spawns_total", t.spawns),
            ("se_instance_drains_total", t.drains),
            ("se_tier_hits_total", t.tier_hits),
            ("se_tier_promotions_total", t.tier_promotions),
            ("se_tier_cold_fetches_total", t.tier_cold_fetches),
            ("se_tier_streams_total", t.tier_streams),
            ("se_tier_demotions_total", t.tier_demotions),
            ("se_tier_drops_total", t.tier_drops),
        ]
    }

    fn histograms(&self) -> [(&'static str, &Histogram); 5] {
        [
            ("se_batch_cycles", &self.batch_cycles),
            ("se_batch_size", &self.batch_size),
            ("se_queue_depth_samples", &self.queue_depth_samples),
            ("se_request_latency_cycles", &self.request_latency_cycles),
            ("se_tier_walk_cycles", &self.tier_walk_cycles),
        ]
    }
}

/// Renders labelled event streams as Prometheus-style text exposition,
/// each stream folded on its own and its series put under
/// `stream="<label>"`: counters, then gauges, then histograms with
/// cumulative `_bucket{le=...}` lines, summary-style
/// `quantile="0.5|0.95|0.99"` estimate lines, `_sum`, and `_count`. A
/// series prints once something fed it. Within each part the series are
/// in the byte order of their `family{labels}` keys, with a `# TYPE`
/// header where the family changes. Labels are not merged, so each
/// stream needs its own.
pub fn render(streams: &[(String, &[Event])]) -> String {
    let (mut counters, mut gauges, mut histograms) = (Vec::new(), Vec::new(), Vec::new());
    let folds: Vec<StreamMetrics> = streams.iter().map(|(_, s)| StreamMetrics::fold(s)).collect();
    for ((label, _), metrics) in streams.iter().zip(&folds) {
        let stream = format!("stream=\"{label}\"");
        for (family, count) in metrics.counters() {
            if count > 0 {
                counters.push((family, stream.clone(), count));
            }
        }
        if let Some((last, deepest)) = metrics.queue_depth {
            gauges.push(("se_queue_depth", stream.clone(), last as f64));
            gauges.push(("se_queue_depth_high_watermark", stream.clone(), deepest as f64));
        }
        for (tier, bytes) in metrics.occupancy() {
            let labels = format!("{stream},tier=\"{tier}\"");
            gauges.push(("se_tier_occupancy_bytes", labels, bytes as f64));
        }
        for (family, hist) in metrics.histograms() {
            if hist.count() > 0 {
                histograms.push((family, stream.clone(), hist));
            }
        }
    }
    let mut out = String::new();
    part(&mut out, "counter", counters, write_value);
    part(&mut out, "gauge", gauges, write_value);
    part(&mut out, "histogram", histograms, write_histogram);
    out
}

/// Writes one part of the exposition: `series` sorted by key, each
/// written by `write`, under a `# TYPE` header per family.
fn part<T>(
    out: &mut String,
    kind: &str,
    mut series: Vec<(&str, String, T)>,
    write: impl Fn(&mut String, &str, &str, T) -> std::fmt::Result,
) {
    series.sort_by_cached_key(|(family, labels, _)| format!("{family}{{{labels}}}"));
    let mut last_family = "";
    for (family, labels, value) in series {
        if family != last_family {
            writeln!(out, "# TYPE {family} {kind}").expect("writing to a String");
            last_family = family;
        }
        write(out, family, &labels, value).expect("writing to a String");
    }
}

/// A counter's or a gauge's line.
fn write_value(
    out: &mut String,
    family: &str,
    labels: &str,
    value: impl std::fmt::Display,
) -> std::fmt::Result {
    writeln!(out, "{family}{{{labels}}} {value}")
}

/// One histogram's lines: the non-empty buckets (and the last) with
/// cumulative counts, `+Inf`, the quantile estimates, `_sum` and `_count`.
fn write_histogram(
    out: &mut String,
    family: &str,
    labels: &str,
    hist: &Histogram,
) -> std::fmt::Result {
    let buckets = hist.buckets();
    let mut cumulative = 0u64;
    for (idx, &count) in buckets.iter().enumerate() {
        cumulative += count;
        if count > 0 || idx + 1 == buckets.len() {
            let bound = Histogram::bucket_bound(idx);
            writeln!(out, "{family}_bucket{{{labels},le=\"{bound}\"}} {cumulative}")?;
        }
    }
    writeln!(out, "{family}_bucket{{{labels},le=\"+Inf\"}} {}", hist.count())?;
    for (q, q_label) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
        if let Some(estimate) = hist.quantile(q) {
            writeln!(out, "{family}{{{labels},quantile=\"{q_label}\"}} {estimate}")?;
        }
    }
    writeln!(out, "{family}_sum{{{labels}}} {}", hist.sum())?;
    writeln!(out, "{family}_count{{{labels}}} {}", hist.count())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_bit_length() {
        let mut h = Histogram::default();
        for v in [0, 1, 1, 2, 3, 7, 8, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 1022);
        // 0 → bucket 0; 1,1 → bucket 1; 2,3 → bucket 2; 7 → bucket 3;
        // 8 → bucket 4; 1000 → bucket 10.
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[1], 2);
        assert_eq!(h.buckets()[2], 2);
        assert_eq!(h.buckets()[3], 1);
        assert_eq!(h.buckets()[4], 1);
        assert_eq!(h.buckets()[10], 1);
        assert_eq!(Histogram::bucket_bound(0), 0);
        assert_eq!(Histogram::bucket_bound(3), 7);
        assert_eq!(Histogram::bucket_bound(64), u64::MAX);
    }

    #[test]
    fn quantiles_interpolate_toward_the_bucket_upper_bound() {
        assert_eq!(Histogram::default().quantile(0.5), None);
        let mut h = Histogram::default();
        for v in [0, 1, 1, 2, 3, 7, 8, 1000] {
            h.observe(v);
        }
        // rank 4 of 8 lands midway through bucket 2 ([2, 3]) → 2.5.
        assert_eq!(h.quantile(0.5), Some(2.5));
        // rank 8 is the last rank of bucket 10 ([512, 1023]) → its upper
        // bound (the estimator never under-reports the tail).
        assert_eq!(h.quantile(0.99), Some(1023.0));
        assert_eq!(h.quantile(1.0), Some(1023.0));
        // q clamps; rank clamps to at least 1 (bucket 0 is exact).
        assert_eq!(h.quantile(-1.0), Some(0.0));
        // Single-value buckets are exact.
        let mut ones = Histogram::default();
        for _ in 0..10 {
            ones.observe(1);
        }
        assert_eq!(ones.quantile(0.5), Some(1.0));
        assert_eq!(ones.quantile(0.99), Some(1.0));
    }

    #[test]
    fn ingest_folds_the_taxonomy_into_counters_and_histograms() {
        let events = vec![
            Event { at: 0, kind: EventKind::Admitted { id: 0, model: 0, instance: 0 } },
            Event { at: 0, kind: EventKind::QueueDepth { instance: 0, depth: 1 } },
            Event { at: 1, kind: EventKind::Rejected { id: 1, model: 0 } },
            Event {
                at: 2,
                kind: EventKind::BatchLaunched { seq: 0, instance: 0, model: 0, size: 1, done: 12 },
            },
            Event {
                at: 12,
                kind: EventKind::Served {
                    id: 0,
                    model: 0,
                    instance: 0,
                    batch: 0,
                    enqueued: 0,
                    latency: 12,
                    missed: true,
                },
            },
            Event { at: 12, kind: EventKind::BatchCompleted { seq: 0, instance: 0, size: 1 } },
            Event {
                at: 3,
                kind: EventKind::TierPromoted {
                    instance: 0,
                    model: 0,
                    from: 1,
                    cycles: 40,
                    bytes: 700,
                },
            },
        ];
        let m = StreamMetrics::fold(&events);
        assert_eq!(m.totals.admitted, 1);
        assert_eq!(m.totals.rejected, 1);
        assert_eq!(m.totals.batches_completed, 1);
        assert_eq!(m.totals.missed, 1);
        assert_eq!(m.totals.tier_promotions, 1);
        assert_eq!(m.queue_depth, Some((1, 1)));
        assert_eq!(m.request_latency_cycles.count(), 1);
        assert_eq!(m.batch_cycles.sum(), 10);
        assert_eq!(m.tier_walk_cycles.count(), 1);
        assert_eq!(m.batch_size.count(), 0, "no batch was formed");
    }

    #[test]
    fn ingest_derives_high_watermark_and_tier_occupancy_gauges() {
        let events = vec![
            Event { at: 0, kind: EventKind::QueueDepth { instance: 0, depth: 3 } },
            Event { at: 1, kind: EventKind::QueueDepth { instance: 0, depth: 7 } },
            Event { at: 2, kind: EventKind::QueueDepth { instance: 1, depth: 2 } },
            // Model 0 hauled cold into tier 0 of instance 0 …
            Event {
                at: 3,
                kind: EventKind::TierColdFetch { instance: 0, model: 0, cycles: 10, bytes: 700 },
            },
            // … then displaced to tier 1 by model 1's promotion.
            Event {
                at: 4,
                kind: EventKind::TierPromoted {
                    instance: 0,
                    model: 1,
                    from: 2,
                    cycles: 25,
                    bytes: 500,
                },
            },
            Event {
                at: 4,
                kind: EventKind::TierDemoted {
                    instance: 0,
                    model: 0,
                    to: 1,
                    bytes: 700,
                    dropped: false,
                },
            },
            // A second instance holds model 2 in its top tier …
            Event {
                at: 5,
                kind: EventKind::TierColdFetch { instance: 1, model: 2, cycles: 12, bytes: 900 },
            },
            // … until a drop (restart purge / off-the-bottom) removes it.
            Event {
                at: 6,
                kind: EventKind::TierDemoted {
                    instance: 1,
                    model: 2,
                    to: 3,
                    bytes: 900,
                    dropped: true,
                },
            },
        ];
        let m = StreamMetrics::fold(&events);
        // The last sample, then the deepest.
        assert_eq!(m.queue_depth, Some((2, 7)));
        // Instance 1's tier 0 emptied, so tier 0 holds instance 0's 500.
        // The drop tier is not occupancy; drops count separately.
        assert_eq!(m.occupancy().collect::<Vec<_>>(), [(0, 500), (1, 700)]);
        assert_eq!(m.totals.tier_drops, 1);
        assert_eq!(m.totals.tier_demotions, 1);
    }

    /// Kind `k` of the list below occurs `k + 1` times, so a counter
    /// family that read another kind's count would print a wrong number.
    #[test]
    fn each_counter_family_counts_its_own_kind() {
        let served = |missed| EventKind::Served {
            id: 0,
            model: 0,
            instance: 0,
            batch: 0,
            enqueued: 0,
            latency: 1,
            missed,
        };
        let demoted =
            |dropped| EventKind::TierDemoted { instance: 0, model: 0, to: 1, bytes: 1, dropped };
        let kinds = [
            EventKind::Admitted { id: 0, model: 0, instance: 0 },
            EventKind::Rejected { id: 0, model: 0 },
            EventKind::Lost { id: 0, model: 0 },
            EventKind::BatchFormed { seq: 0, instance: 0, model: 0, size: 1 },
            EventKind::BatchLaunched { seq: 0, instance: 0, model: 0, size: 1, done: 1 },
            EventKind::BatchCompleted { seq: 0, instance: 0, size: 1 },
            EventKind::BatchKilled { seq: 0, instance: 0 },
            served(true),
            served(false),
            EventKind::InstanceKilled { instance: 0, in_flight: 0, rerouted: 0, lost: 0 },
            EventKind::InstanceRestarted { instance: 0 },
            EventKind::InstanceSpawned { instance: 0 },
            EventKind::InstanceDraining { instance: 0 },
            EventKind::TierHit { instance: 0, model: 0 },
            EventKind::TierPromoted { instance: 0, model: 0, from: 1, cycles: 1, bytes: 1 },
            EventKind::TierColdFetch { instance: 0, model: 0, cycles: 1, bytes: 1 },
            EventKind::TierStreamed { instance: 0, model: 0, cycles: 1 },
            demoted(false),
            demoted(true),
        ];
        let events: Vec<Event> = kinds
            .iter()
            .enumerate()
            .flat_map(|(k, kind)| vec![Event { at: 0, kind: kind.clone() }; k + 1])
            .collect();
        let text = render(&[("s".to_string(), &events[..])]);
        let counters: Vec<&str> = text.lines().filter(|l| l.contains("_total{")).collect();
        assert_eq!(
            counters,
            [
                "se_batches_completed_total{stream=\"s\"} 6",
                "se_batches_formed_total{stream=\"s\"} 4",
                "se_batches_killed_total{stream=\"s\"} 7",
                "se_batches_launched_total{stream=\"s\"} 5",
                "se_deadline_misses_total{stream=\"s\"} 8",
                "se_instance_drains_total{stream=\"s\"} 13",
                "se_instance_kills_total{stream=\"s\"} 10",
                "se_instance_restarts_total{stream=\"s\"} 11",
                "se_instance_spawns_total{stream=\"s\"} 12",
                "se_requests_admitted_total{stream=\"s\"} 1",
                "se_requests_lost_total{stream=\"s\"} 3",
                "se_requests_rejected_total{stream=\"s\"} 2",
                "se_requests_served_total{stream=\"s\"} 17",
                "se_tier_cold_fetches_total{stream=\"s\"} 16",
                "se_tier_demotions_total{stream=\"s\"} 18",
                "se_tier_drops_total{stream=\"s\"} 19",
                "se_tier_hits_total{stream=\"s\"} 14",
                "se_tier_promotions_total{stream=\"s\"} 15",
                "se_tier_streams_total{stream=\"s\"} 17",
            ]
        );
    }

    #[test]
    fn labeled_ingest_keys_and_render_are_byte_stable() {
        let admitted = Event { at: 0, kind: EventKind::Admitted { id: 0, model: 0, instance: 0 } };
        let formed = Event {
            at: 0,
            kind: EventKind::BatchFormed { seq: 0, instance: 0, model: 0, size: 3 },
        };
        let se = [admitted.clone(), formed];
        let dense = [admitted];
        let streams = [("se".to_string(), &se[..]), ("dense".to_string(), &dense[..])];
        let text = render(&streams);
        assert_eq!(
            text,
            "# TYPE se_batches_formed_total counter\n\
             se_batches_formed_total{stream=\"se\"} 1\n\
             # TYPE se_requests_admitted_total counter\n\
             se_requests_admitted_total{stream=\"dense\"} 1\n\
             se_requests_admitted_total{stream=\"se\"} 1\n\
             # TYPE se_batch_size histogram\n\
             se_batch_size_bucket{stream=\"se\",le=\"3\"} 1\n\
             se_batch_size_bucket{stream=\"se\",le=\"+Inf\"} 1\n\
             se_batch_size{stream=\"se\",quantile=\"0.5\"} 3\n\
             se_batch_size{stream=\"se\",quantile=\"0.95\"} 3\n\
             se_batch_size{stream=\"se\",quantile=\"0.99\"} 3\n\
             se_batch_size_sum{stream=\"se\"} 3\n\
             se_batch_size_count{stream=\"se\"} 1\n"
        );
        // Rendering twice is byte-identical.
        assert_eq!(text, render(&streams));
        assert_eq!(render(&[]), "");
    }
}
