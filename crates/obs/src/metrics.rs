//! The metrics layer: log₂-bucketed histograms with a quantile
//! estimator ([`Histogram`]) and a deterministic registry that folds an
//! event stream into counters/gauges/histograms and renders them as a
//! Prometheus-style text exposition ([`MetricsRegistry`]).

use std::collections::{BTreeMap, BTreeSet};

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

/// A deterministic metrics registry: counters, gauges, and log-bucketed
/// histograms keyed by Prometheus-style metric names (labels inline in
/// the key, e.g. `se_queue_depth{lane="se"}`). Iteration order is sorted
/// by key, so renders are byte-stable.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// Joins a metric family name with label pairs into a registry key.
fn keyed(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let body: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    format!("{name}{{{}}}", body.join(","))
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `by` to a counter (created at zero).
    pub fn inc(&mut self, key: &str, by: u64) {
        *self.counters.entry(key.to_string()).or_insert(0) += by;
    }

    /// Sets a gauge (last write wins).
    pub fn set_gauge(&mut self, key: &str, value: f64) {
        self.gauges.insert(key.to_string(), value);
    }

    /// Raises a gauge to `value` if it is below (created at `value`) —
    /// the high-watermark update.
    pub fn raise_gauge(&mut self, key: &str, value: f64) {
        let entry = self.gauges.entry(key.to_string()).or_insert(value);
        if *entry < value {
            *entry = value;
        }
    }

    /// Records one observation into a histogram (created empty).
    pub fn observe(&mut self, key: &str, value: u64) {
        self.histograms.entry(key.to_string()).or_default().observe(value);
    }

    /// A counter's current value (`None` if never incremented).
    pub fn counter(&self, key: &str) -> Option<u64> {
        self.counters.get(key).copied()
    }

    /// A gauge's current value.
    pub fn gauge(&self, key: &str) -> Option<f64> {
        self.gauges.get(key).copied()
    }

    /// A histogram, if anything was observed under `key`.
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        self.histograms.get(key)
    }

    /// Folds an event stream into the registry. `labels` is appended to
    /// every metric key (e.g. `[("lane", "se")]` when aggregating several
    /// accelerator lanes into one registry).
    ///
    /// Besides per-kind counters and latency/size histograms, the fold
    /// derives two stateful families from the stream:
    /// `se_queue_depth_high_watermark` (the deepest queue-depth sample,
    /// merged across repeated ingests under the same labels) and
    /// `se_tier_occupancy_bytes{tier="k"}` (end-of-stream resident bytes
    /// per tier, summed over instances, tracked through installs,
    /// demotions, drops, and restart purges).
    pub fn ingest(&mut self, events: &[Event], labels: &[(&str, &str)]) {
        // Weight-residency ledger: (instance, model) → (tier, bytes),
        // maintained from the tier events alone. `dropped` demotions
        // (capacity drops and restart purges) remove the entry.
        let mut holdings: BTreeMap<(usize, usize), (usize, u64)> = BTreeMap::new();
        let mut tiers_seen: BTreeSet<usize> = BTreeSet::new();
        for event in events {
            match &event.kind {
                EventKind::Admitted { .. } => {
                    self.inc(&keyed("se_requests_admitted_total", labels), 1);
                }
                EventKind::Rejected { .. } => {
                    self.inc(&keyed("se_requests_rejected_total", labels), 1);
                }
                EventKind::Lost { .. } => {
                    self.inc(&keyed("se_requests_lost_total", labels), 1);
                }
                EventKind::QueueDepth { depth, .. } => {
                    self.set_gauge(&keyed("se_queue_depth", labels), *depth as f64);
                    self.raise_gauge(
                        &keyed("se_queue_depth_high_watermark", labels),
                        *depth as f64,
                    );
                    self.observe(&keyed("se_queue_depth_samples", labels), *depth as u64);
                }
                EventKind::BatchFormed { size, .. } => {
                    self.inc(&keyed("se_batches_formed_total", labels), 1);
                    self.observe(&keyed("se_batch_size", labels), *size as u64);
                }
                EventKind::BatchLaunched { done, .. } => {
                    self.inc(&keyed("se_batches_launched_total", labels), 1);
                    self.observe(&keyed("se_batch_cycles", labels), done.saturating_sub(event.at));
                }
                EventKind::BatchCompleted { .. } => {
                    self.inc(&keyed("se_batches_completed_total", labels), 1);
                }
                EventKind::BatchKilled { .. } => {
                    self.inc(&keyed("se_batches_killed_total", labels), 1);
                }
                EventKind::Served { latency, missed, .. } => {
                    self.inc(&keyed("se_requests_served_total", labels), 1);
                    self.observe(&keyed("se_request_latency_cycles", labels), *latency);
                    if *missed {
                        self.inc(&keyed("se_deadline_misses_total", labels), 1);
                    }
                }
                EventKind::InstanceKilled { .. } => {
                    self.inc(&keyed("se_instance_kills_total", labels), 1);
                }
                EventKind::InstanceRestarted { .. } => {
                    self.inc(&keyed("se_instance_restarts_total", labels), 1);
                }
                EventKind::InstanceSpawned { .. } => {
                    self.inc(&keyed("se_instance_spawns_total", labels), 1);
                }
                EventKind::InstanceDraining { .. } => {
                    self.inc(&keyed("se_instance_drains_total", labels), 1);
                }
                EventKind::TierHit { .. } => {
                    self.inc(&keyed("se_tier_hits_total", labels), 1);
                }
                EventKind::TierPromoted { instance, model, cycles, bytes, .. } => {
                    self.inc(&keyed("se_tier_promotions_total", labels), 1);
                    self.observe(&keyed("se_tier_walk_cycles", labels), *cycles);
                    tiers_seen.insert(0);
                    holdings.insert((*instance, *model), (0, *bytes));
                }
                EventKind::TierDemoted { instance, model, to, bytes, dropped } => {
                    if *dropped {
                        self.inc(&keyed("se_tier_drops_total", labels), 1);
                        holdings.remove(&(*instance, *model));
                    } else {
                        self.inc(&keyed("se_tier_demotions_total", labels), 1);
                        tiers_seen.insert(*to);
                        holdings.insert((*instance, *model), (*to, *bytes));
                    }
                }
                EventKind::TierColdFetch { instance, model, cycles, bytes } => {
                    self.inc(&keyed("se_tier_cold_fetches_total", labels), 1);
                    self.observe(&keyed("se_tier_walk_cycles", labels), *cycles);
                    tiers_seen.insert(0);
                    holdings.insert((*instance, *model), (0, *bytes));
                }
                EventKind::TierStreamed { cycles, .. } => {
                    self.inc(&keyed("se_tier_streams_total", labels), 1);
                    self.observe(&keyed("se_tier_walk_cycles", labels), *cycles);
                }
            }
        }
        for &tier in &tiers_seen {
            let occupied: u64 =
                holdings.values().filter(|&&(t, _)| t == tier).map(|&(_, b)| b).sum();
            let tier_label = tier.to_string();
            let mut with_tier: Vec<(&str, &str)> = labels.to_vec();
            with_tier.push(("tier", &tier_label));
            self.set_gauge(&keyed("se_tier_occupancy_bytes", &with_tier), occupied as f64);
        }
    }

    /// Renders the registry as Prometheus-style text exposition:
    /// `# TYPE` headers (once per family), counters, then gauges, then
    /// histograms with cumulative `_bucket{le=...}` lines, summary-style
    /// `quantile="0.5|0.95|0.99"` estimate lines, `_sum`, and `_count`.
    /// Byte-stable for a given registry state.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let mut last_family = String::new();
        for (key, value) in &self.counters {
            type_header(&mut out, key, "counter", &mut last_family);
            out.push_str(&format!("{key} {value}\n"));
        }
        last_family.clear();
        for (key, value) in &self.gauges {
            type_header(&mut out, key, "gauge", &mut last_family);
            out.push_str(&format!("{key} {value}\n"));
        }
        last_family.clear();
        for (key, hist) in &self.histograms {
            type_header(&mut out, key, "histogram", &mut last_family);
            let (family, labels) = split_key(key);
            let mut cumulative = 0u64;
            for (idx, &count) in hist.buckets().iter().enumerate() {
                cumulative += count;
                if count > 0 || idx + 1 == hist.buckets().len() {
                    let bound = Histogram::bucket_bound(idx);
                    out.push_str(&format!(
                        "{family}_bucket{{{}le=\"{bound}\"}} {cumulative}\n",
                        labels_prefix(labels)
                    ));
                }
            }
            out.push_str(&format!(
                "{family}_bucket{{{}le=\"+Inf\"}} {}\n",
                labels_prefix(labels),
                hist.count()
            ));
            for (q, q_label) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                if let Some(estimate) = hist.quantile(q) {
                    out.push_str(&format!(
                        "{family}{{{}quantile=\"{q_label}\"}} {estimate}\n",
                        labels_prefix(labels)
                    ));
                }
            }
            out.push_str(&format!("{family}_sum{} {}\n", brace(labels), hist.sum()));
            out.push_str(&format!("{family}_count{} {}\n", brace(labels), hist.count()));
        }
        out
    }
}

/// Splits a registry key into `(family, label body)` — the label body is
/// the text between the braces, empty when unlabeled.
fn split_key(key: &str) -> (&str, &str) {
    match key.find('{') {
        Some(pos) => (&key[..pos], key[pos + 1..].trim_end_matches('}')),
        None => (key, ""),
    }
}

/// Label body followed by a comma, ready to precede an `le` label.
fn labels_prefix(labels: &str) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        format!("{labels},")
    }
}

/// Label body wrapped back in braces, empty when unlabeled.
fn brace(labels: &str) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    }
}

/// Emits a `# TYPE` header when the metric family changes.
fn type_header(out: &mut String, key: &str, kind: &str, last_family: &mut String) {
    let (family, _) = split_key(key);
    if family != last_family {
        out.push_str(&format!("# TYPE {family} {kind}\n"));
        *last_family = family.to_string();
    }
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
        let mut reg = MetricsRegistry::new();
        reg.ingest(&events, &[]);
        assert_eq!(reg.counter("se_requests_admitted_total"), Some(1));
        assert_eq!(reg.counter("se_requests_rejected_total"), Some(1));
        assert_eq!(reg.counter("se_batches_completed_total"), Some(1));
        assert_eq!(reg.counter("se_deadline_misses_total"), Some(1));
        assert_eq!(reg.counter("se_tier_promotions_total"), Some(1));
        assert_eq!(reg.gauge("se_queue_depth"), Some(1.0));
        assert_eq!(reg.histogram("se_request_latency_cycles").unwrap().count(), 1);
        assert_eq!(reg.histogram("se_batch_cycles").unwrap().sum(), 10);
        assert_eq!(reg.histogram("se_tier_walk_cycles").unwrap().count(), 1);
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
        let mut reg = MetricsRegistry::new();
        reg.ingest(&events, &[]);
        assert_eq!(reg.gauge("se_queue_depth_high_watermark"), Some(7.0));
        // Current value is the last sample, watermark the deepest.
        assert_eq!(reg.gauge("se_queue_depth"), Some(2.0));
        assert_eq!(reg.gauge("se_tier_occupancy_bytes{tier=\"0\"}"), Some(500.0));
        assert_eq!(reg.gauge("se_tier_occupancy_bytes{tier=\"1\"}"), Some(700.0));
        // The drop tier is not occupancy; drops count separately.
        assert_eq!(reg.gauge("se_tier_occupancy_bytes{tier=\"3\"}"), None);
        assert_eq!(reg.counter("se_tier_drops_total"), Some(1));
        assert_eq!(reg.counter("se_tier_demotions_total"), Some(1));
        // Re-ingesting under the same labels keeps the deepest watermark.
        reg.ingest(&[Event { at: 0, kind: EventKind::QueueDepth { instance: 0, depth: 4 } }], &[]);
        assert_eq!(reg.gauge("se_queue_depth_high_watermark"), Some(7.0));
    }

    #[test]
    fn labeled_ingest_keys_and_render_are_byte_stable() {
        let events =
            vec![Event { at: 0, kind: EventKind::Admitted { id: 0, model: 0, instance: 0 } }];
        let mut reg = MetricsRegistry::new();
        reg.ingest(&events, &[("lane", "se")]);
        reg.ingest(&events, &[("lane", "dense")]);
        reg.observe("se_batch_size{lane=\"se\"}", 3);
        assert_eq!(reg.counter("se_requests_admitted_total{lane=\"se\"}"), Some(1));
        let text = reg.render();
        assert_eq!(
            text,
            "# TYPE se_requests_admitted_total counter\n\
             se_requests_admitted_total{lane=\"dense\"} 1\n\
             se_requests_admitted_total{lane=\"se\"} 1\n\
             # TYPE se_batch_size histogram\n\
             se_batch_size_bucket{lane=\"se\",le=\"3\"} 1\n\
             se_batch_size_bucket{lane=\"se\",le=\"+Inf\"} 1\n\
             se_batch_size{lane=\"se\",quantile=\"0.5\"} 3\n\
             se_batch_size{lane=\"se\",quantile=\"0.95\"} 3\n\
             se_batch_size{lane=\"se\",quantile=\"0.99\"} 3\n\
             se_batch_size_sum{lane=\"se\"} 3\n\
             se_batch_size_count{lane=\"se\"} 1\n"
        );
        // Rendering twice is byte-identical.
        assert_eq!(text, reg.render());
    }
}
