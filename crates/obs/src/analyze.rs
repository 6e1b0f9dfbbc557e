//! The trace analytics engine: windowed timeseries, SLO-miss
//! attribution, and cross-run diffing over a deterministic event stream.
//!
//! Everything here is a pure function of the stream: the input is the
//! exact sequence of [`Event`]s the scheduler core emitted (in memory
//! from a `Recorder`, or re-parsed from a `--trace-out` Perfetto file),
//! so every analysis inherits the determinism contract — byte-identical
//! across `--sim-parallelism` values — by construction.
//!
//! **Windows** are fixed, half-open virtual-time intervals
//! `[k·W, (k+1)·W)`; an event belongs to the window containing its `at`
//! cycle (a served request counts in the window it *completes* in, an
//! admission in the window it arrives in). Folding the windows back
//! together reproduces the stream totals exactly — the conservation
//! property `tests/obs_analyze.rs` checks against `ClusterReport`.
//!
//! **Attribution** decomposes each served request's lifetime
//! (arrival → completion) into disjoint segments that sum to its
//! latency:
//!
//! * `reroute` — arrival → final enqueue (custody lost to a kill;
//!   nonzero only for re-routed victims);
//! * `queue` — enqueue → the serving instance's prior batch completing
//!   (head-of-line blocking while the server is busy);
//! * `formation` — server free → batch launch (the batching policy
//!   waiting to fill or time out);
//! * `cold` — the batch's serialized tier-walk charge (cold fetches,
//!   promotions, streams), charged to every member it delayed;
//! * `exec` — the remaining execution time.
//!
//! A missed request's **cause** is its dominant segment; a cold-dominant
//! miss whose batch paid a cold fetch after the instance's most recent
//! restart is classed `cold-restart`, separating post-restart
//! cold-buffer misses from steady-state ones. Lost requests (kill
//! victims with nowhere to go) are attributed whole to `lost`.

use std::collections::BTreeMap;

use crate::event::{Event, EventKind};

/// Aggregates of one fixed virtual-time window `[start, end)`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Window index (`start / window`).
    pub index: u64,
    /// First cycle covered (inclusive).
    pub start: u64,
    /// First cycle not covered (exclusive).
    pub end: u64,
    /// Queue admissions (first arrivals and kill re-routes).
    pub admitted: u64,
    /// Arrivals bounced off full queues.
    pub rejected: u64,
    /// Requests terminally lost to kills.
    pub lost: u64,
    /// Requests completing in the window.
    pub served: u64,
    /// Completions that overran their deadline.
    pub missed: u64,
    /// Batches launched.
    pub batches_launched: u64,
    /// Batches completing in the window.
    pub batches_completed: u64,
    /// Batches caught in flight by a kill.
    pub batches_killed: u64,
    /// Deepest queue-depth sample (0 when none).
    pub queue_depth_max: u64,
    /// Sum of queue-depth samples (for the mean).
    pub queue_depth_sum: u64,
    /// Number of queue-depth samples.
    pub queue_depth_samples: u64,
    /// Top-tier weight hits.
    pub tier_hits: u64,
    /// Lower-tier promotions.
    pub tier_promotions: u64,
    /// Cold fetches from the bottom of the stack.
    pub tier_cold_fetches: u64,
    /// Streams past the top tier.
    pub tier_streams: u64,
    /// Tier-to-tier demotions (write-back traffic).
    pub tier_demotions: u64,
    /// Bytes dropped off the bottom (capacity drops + restart purges).
    pub tier_drops: u64,
    /// Serialized tier-walk cycles charged in front of batches.
    pub tier_walk_cycles: u64,
    /// Latencies of the requests completing in the window, in completion
    /// order (the percentile source).
    latencies: Vec<u64>,
}

impl WindowStats {
    /// Served requests that made their deadline — the goodput numerator.
    pub fn served_ok(&self) -> u64 {
        self.served - self.missed
    }

    /// Mean queue depth over the window's samples (0 when unsampled).
    pub fn queue_depth_mean(&self) -> f64 {
        if self.queue_depth_samples == 0 {
            0.0
        } else {
            self.queue_depth_sum as f64 / self.queue_depth_samples as f64
        }
    }

    /// The [`percentiles`] of the window's completion latencies (`None`
    /// when nothing completed).
    pub fn latency_percentiles<const N: usize>(&self, ps: [f64; N]) -> [Option<u64>; N] {
        percentiles(&self.latencies, ps)
    }
}

/// The `p`-th percentile of `values` (`p` in `[0, 100]`; nearest-rank on
/// the sorted values). `None` for an empty sample — a run where every
/// request was rejected or lost has *no* latency percentile, and must
/// not print the `0` of a perfect run (reports render it as `-`). The
/// one percentile definition of every serving report and analysis, so
/// their latency columns are directly comparable.
pub fn percentile(values: &[u64], p: f64) -> Option<u64> {
    let [value] = percentiles(values, [p]);
    value
}

/// The [`percentile`] of `values` at each of `ps`, in order, from one
/// sorted copy of `values`.
pub fn percentiles<const N: usize>(values: &[u64], ps: [f64; N]) -> [Option<u64>; N] {
    if values.is_empty() {
        return [None; N];
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    ps.map(|p| {
        let rank = ((p.clamp(0.0, 100.0) / 100.0) * sorted.len() as f64).ceil() as usize;
        Some(sorted[rank.saturating_sub(1).min(sorted.len() - 1)])
    })
}

/// Whole-stream totals, tallied independently of the windows (the
/// conservation cross-check) plus per-id terminal accounting. The
/// per-kind counts are [`StreamTotals::record`]'s, which both
/// [`analyze`] and the `--metrics-out` counters fold through.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamTotals {
    /// Queue admissions, counting each kill re-route again.
    pub admitted: u64,
    /// Terminal outcomes.
    pub served: u64,
    /// Completions that overran their deadline.
    pub missed: u64,
    /// Arrivals bounced off full queues.
    pub rejected: u64,
    /// Requests terminally lost to kills.
    pub lost: u64,
    /// Distinct request ids with a terminal event (served, rejected, or
    /// lost) — the submitted count when conservation holds.
    pub submitted: u64,
    /// Batches formed.
    pub batches_formed: u64,
    /// Batches launched.
    pub batches_launched: u64,
    /// Batches that ran to completion.
    pub batches_completed: u64,
    /// Batches caught in flight by a kill.
    pub batches_killed: u64,
    /// Instance kills.
    pub kills: u64,
    /// Instance restarts.
    pub restarts: u64,
    /// Instances spawned by the autoscaler.
    pub spawns: u64,
    /// Instances set draining by the autoscaler.
    pub drains: u64,
    /// Top-tier weight hits.
    pub tier_hits: u64,
    /// Lower-tier promotions.
    pub tier_promotions: u64,
    /// Cold fetches from the bottom of the stack.
    pub tier_cold_fetches: u64,
    /// Streams past the top tier.
    pub tier_streams: u64,
    /// Tier-to-tier demotions.
    pub tier_demotions: u64,
    /// Bytes dropped off the bottom.
    pub tier_drops: u64,
    /// Serialized tier-walk cycles.
    pub tier_walk_cycles: u64,
    /// Highest `at` on the stream (the analysis horizon).
    pub makespan: u64,
    /// Ids that hit more than one terminal event (0 when the stream is
    /// well-formed).
    pub duplicate_terminals: u64,
}

impl StreamTotals {
    /// Counts one event into the per-kind tallies. Leaves `submitted`,
    /// `duplicate_terminals` and `makespan`, which are not per-kind
    /// counts, untouched.
    pub fn record(&mut self, event: &Event) {
        match event.kind {
            EventKind::Admitted { .. } => self.admitted += 1,
            EventKind::Rejected { .. } => self.rejected += 1,
            EventKind::Lost { .. } => self.lost += 1,
            EventKind::QueueDepth { .. } => {}
            EventKind::BatchFormed { .. } => self.batches_formed += 1,
            EventKind::BatchLaunched { .. } => self.batches_launched += 1,
            EventKind::BatchCompleted { .. } => self.batches_completed += 1,
            EventKind::BatchKilled { .. } => self.batches_killed += 1,
            EventKind::Served { missed, .. } => {
                self.served += 1;
                self.missed += u64::from(missed);
            }
            EventKind::InstanceKilled { .. } => self.kills += 1,
            EventKind::InstanceRestarted { .. } => self.restarts += 1,
            EventKind::InstanceSpawned { .. } => self.spawns += 1,
            EventKind::InstanceDraining { .. } => self.drains += 1,
            EventKind::TierHit { .. } => self.tier_hits += 1,
            EventKind::TierPromoted { cycles, .. } => {
                self.tier_promotions += 1;
                self.tier_walk_cycles += cycles;
            }
            EventKind::TierDemoted { dropped: true, .. } => self.tier_drops += 1,
            EventKind::TierDemoted { dropped: false, .. } => self.tier_demotions += 1,
            EventKind::TierColdFetch { cycles, .. } => {
                self.tier_cold_fetches += 1;
                self.tier_walk_cycles += cycles;
            }
            EventKind::TierStreamed { cycles, .. } => {
                self.tier_streams += 1;
                self.tier_walk_cycles += cycles;
            }
        }
    }

    /// Whether every id reached exactly one terminal event and the
    /// terminal counts account for every submitted request.
    pub fn conserves(&self) -> bool {
        self.duplicate_terminals == 0 && self.served + self.rejected + self.lost == self.submitted
    }
}

/// The lifetime decomposition of one request (served or lost). All
/// segment fields are cycles; for a served request they sum to its
/// latency.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Attribution {
    /// Arrival sequence number.
    pub id: usize,
    /// Model the request targeted.
    pub model: usize,
    /// Instance that served it (the kill's instance owner is unknown for
    /// lost requests — 0 there; check `lost`).
    pub instance: usize,
    /// Launch sequence of the carrying batch (0 for lost requests).
    pub batch: u64,
    /// Arrival cycle.
    pub arrival: u64,
    /// Completion cycle (served) or the kill cycle (lost).
    pub done: u64,
    /// Arrival → final enqueue: custody lost to kill re-routing.
    pub reroute: u64,
    /// Enqueue → prior batch completion: waiting for a busy server.
    pub queue: u64,
    /// Server free → launch: the batching policy filling or timing out.
    pub formation: u64,
    /// The batch's serialized tier-walk charge.
    pub cold: u64,
    /// Remaining execution cycles.
    pub exec: u64,
    /// Whether the deadline was overrun.
    pub missed: bool,
    /// Whether the request was terminally lost (whole lifetime charged
    /// to `lost`; no other segment is meaningful).
    pub lost: bool,
    /// Whether the batch's walk included a cold fetch after the serving
    /// instance's most recent restart.
    pub post_restart_cold: bool,
}

/// The miss-cycle buckets of [`Analysis::miss_cycles_by_segment`] and
/// [`diff`], in pipeline order: the lifetime segments (the cold one split
/// by [`Attribution::post_restart_cold`]) and `lost`.
pub const BUCKETS: [&str; 7] =
    ["reroute", "queue", "formation", "cold", "cold-restart", "exec", "lost"];

impl Attribution {
    /// The five lifetime segments as `(name, cycles)` in pipeline order;
    /// the cold segment is named `cold-restart` when the batch's walk
    /// cold-fetched after the instance's last restart.
    pub fn segments(&self) -> [(&'static str, u64); 5] {
        [
            ("reroute", self.reroute),
            ("queue", self.queue),
            ("formation", self.formation),
            (if self.post_restart_cold { "cold-restart" } else { "cold" }, self.cold),
            ("exec", self.exec),
        ]
    }

    /// The dominant segment as `(name, cycles)`; a lost request's whole
    /// lifetime is `lost`. Ties break toward the earlier pipeline stage
    /// (reroute, then queue, formation, cold, exec): the earlier segment
    /// had the first claim on the deadline budget.
    fn dominant(&self) -> (&'static str, u64) {
        if self.lost {
            return ("lost", self.done.saturating_sub(self.arrival));
        }
        // max_by_key returns the *last* maximum; reversing makes that the
        // earliest pipeline stage.
        self.segments().into_iter().rev().max_by_key(|&(_, cycles)| cycles).unwrap_or(("exec", 0))
    }

    /// The dominant lifetime segment — the miss cause this request is
    /// ranked under.
    pub fn cause(&self) -> &'static str {
        self.dominant().0
    }
}

/// One row of the ranked miss-cause table: misses grouped by
/// `(cause, model, instance)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CauseGroup {
    /// Dominant-segment name (`queue`, `formation`, `cold`,
    /// `cold-restart`, `exec`, `reroute`, or `lost`).
    pub cause: &'static str,
    /// Model of the grouped requests.
    pub model: usize,
    /// Serving instance (meaningless for `lost`).
    pub instance: usize,
    /// Missed/lost requests in the group.
    pub requests: u64,
    /// Total cycles in the group's dominant segments.
    pub cycles: u64,
}

/// The full analysis of one event stream at one window size.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Analysis {
    /// Window width in cycles.
    pub window: u64,
    /// Per-window aggregates of the windows some event lands in, in
    /// ascending index order (every window missing here is idle).
    pub windows: Vec<WindowStats>,
    /// Whole-stream totals (window-independent).
    pub totals: StreamTotals,
    /// Per-request lifetime decompositions, in terminal-event order.
    pub attributions: Vec<Attribution>,
}

impl Analysis {
    /// Re-sums the windows into a [`StreamTotals`] — equal to
    /// [`Analysis::totals`] on every well-formed stream (the fold
    /// property the tests pin). Per-id fields (`submitted`,
    /// `duplicate_terminals`), batch formation, churn and makespan carry
    /// over unchanged: they are not window aggregates.
    pub fn fold_windows(&self) -> StreamTotals {
        let mut folded = StreamTotals {
            submitted: self.totals.submitted,
            duplicate_terminals: self.totals.duplicate_terminals,
            batches_formed: self.totals.batches_formed,
            kills: self.totals.kills,
            restarts: self.totals.restarts,
            spawns: self.totals.spawns,
            drains: self.totals.drains,
            makespan: self.totals.makespan,
            ..StreamTotals::default()
        };
        for w in &self.windows {
            folded.admitted += w.admitted;
            folded.served += w.served;
            folded.missed += w.missed;
            folded.rejected += w.rejected;
            folded.lost += w.lost;
            folded.batches_launched += w.batches_launched;
            folded.batches_completed += w.batches_completed;
            folded.batches_killed += w.batches_killed;
            folded.tier_hits += w.tier_hits;
            folded.tier_promotions += w.tier_promotions;
            folded.tier_cold_fetches += w.tier_cold_fetches;
            folded.tier_streams += w.tier_streams;
            folded.tier_demotions += w.tier_demotions;
            folded.tier_drops += w.tier_drops;
            folded.tier_walk_cycles += w.tier_walk_cycles;
        }
        folded
    }

    /// Misses and losses grouped by `(cause, model, instance)`, ranked
    /// by request count (then cycles), descending; deterministic
    /// tie-break on the group key.
    pub fn ranked_miss_causes(&self) -> Vec<CauseGroup> {
        let mut groups: BTreeMap<(&'static str, usize, usize), (u64, u64)> = BTreeMap::new();
        for a in &self.attributions {
            if !(a.missed || a.lost) {
                continue;
            }
            let (cause, over) = a.dominant();
            let entry = groups.entry((cause, a.model, a.instance)).or_insert((0, 0));
            entry.0 += 1;
            entry.1 += over;
        }
        let mut ranked: Vec<CauseGroup> = groups
            .into_iter()
            .map(|((cause, model, instance), (requests, cycles))| CauseGroup {
                cause,
                model,
                instance,
                requests,
                cycles,
            })
            .collect();
        ranked.sort_by(|a, b| {
            (b.requests, b.cycles)
                .cmp(&(a.requests, a.cycles))
                .then_with(|| (a.cause, a.model, a.instance).cmp(&(b.cause, b.model, b.instance)))
        });
        ranked
    }

    /// Total cycles per lifetime segment summed over **missed and lost**
    /// requests, keyed by segment name — the attribution buckets the
    /// diff compares. Lost lifetimes land whole in `lost`.
    pub fn miss_cycles_by_segment(&self) -> BTreeMap<&'static str, u64> {
        let mut buckets: BTreeMap<&'static str, u64> = BUCKETS.iter().map(|&b| (b, 0)).collect();
        for a in self.attributions.iter().filter(|a| a.missed || a.lost) {
            let mut add = |(name, cycles)| {
                *buckets.get_mut(name).expect("every segment is a bucket") += cycles;
            };
            if a.lost {
                add(a.dominant());
            } else {
                a.segments().into_iter().for_each(add);
            }
        }
        buckets
    }
}

/// Per-batch context harvested at launch time, consumed by the batch's
/// `Served` events.
#[derive(Debug, Clone, Copy, Default)]
struct BatchInfo {
    start: u64,
    /// The serving instance's prior busy-until cycle (its previous
    /// batch's completion, or its restart cycle) — the queue/formation
    /// split point.
    prior_free: u64,
    walk_cycles: u64,
    cold_fetch: bool,
    post_restart: bool,
}

/// Analyzes one event stream at the given window width (cycles; clamped
/// to at least 1). See the module docs for window semantics and the
/// attribution model.
pub fn analyze(events: &[Event], window: u64) -> Analysis {
    let window = window.max(1);
    let makespan = events.iter().map(|e| e.at).max().unwrap_or(0);
    // Only windows some event lands in exist: memory follows the stream,
    // never the makespan (one far-future timestamp must not allocate
    // every window before it).
    let mut windows: BTreeMap<u64, WindowStats> = BTreeMap::new();
    let mut totals = StreamTotals { makespan, ..StreamTotals::default() };
    let mut attributions = Vec::new();

    // Per-id bookkeeping: first admission (= arrival custody start) and
    // terminal-event count for conservation.
    let mut first_admitted: BTreeMap<usize, u64> = BTreeMap::new();
    let mut terminals: BTreeMap<usize, u64> = BTreeMap::new();
    // Per-instance running state.
    let mut pending_walk: BTreeMap<usize, (u64, bool)> = BTreeMap::new();
    let mut busy_until: BTreeMap<usize, u64> = BTreeMap::new();
    let mut last_restart: BTreeMap<usize, u64> = BTreeMap::new();
    // Per-batch context for the Served events that reference it.
    let mut batches: BTreeMap<u64, BatchInfo> = BTreeMap::new();

    for event in events {
        let index = event.at / window;
        let w = windows.entry(index).or_insert_with(|| WindowStats {
            index,
            start: index * window,
            end: (index * window).saturating_add(window),
            ..WindowStats::default()
        });
        totals.record(event);
        match &event.kind {
            EventKind::Admitted { id, .. } => {
                w.admitted += 1;
                first_admitted.entry(*id).or_insert(event.at);
            }
            EventKind::Rejected { id, .. } => {
                w.rejected += 1;
                *terminals.entry(*id).or_insert(0) += 1;
            }
            EventKind::Lost { id, model } => {
                w.lost += 1;
                *terminals.entry(*id).or_insert(0) += 1;
                let arrival = first_admitted.get(id).copied().unwrap_or(event.at);
                attributions.push(Attribution {
                    id: *id,
                    model: *model,
                    arrival,
                    done: event.at,
                    lost: true,
                    ..Attribution::default()
                });
            }
            EventKind::QueueDepth { depth, .. } => {
                let depth = *depth as u64;
                w.queue_depth_max = w.queue_depth_max.max(depth);
                w.queue_depth_sum += depth;
                w.queue_depth_samples += 1;
            }
            EventKind::BatchFormed { seq, instance, .. } => {
                let (walk_cycles, cold_fetch) = pending_walk.remove(instance).unwrap_or((0, false));
                batches.insert(
                    *seq,
                    BatchInfo {
                        start: event.at,
                        prior_free: busy_until.get(instance).copied().unwrap_or(0),
                        walk_cycles,
                        cold_fetch,
                        post_restart: last_restart.get(instance).is_some_and(|&r| r <= event.at),
                    },
                );
            }
            EventKind::BatchLaunched { instance, done, .. } => {
                w.batches_launched += 1;
                busy_until.insert(*instance, *done);
            }
            EventKind::BatchCompleted { .. } => w.batches_completed += 1,
            EventKind::BatchKilled { .. } => w.batches_killed += 1,
            EventKind::Served { id, model, instance, batch, enqueued, latency, missed } => {
                w.served += 1;
                w.missed += u64::from(*missed);
                w.latencies.push(*latency);
                *terminals.entry(*id).or_insert(0) += 1;
                let info = batches.get(batch).copied().unwrap_or_default();
                let arrival = event.at.saturating_sub(*latency);
                let wait = info.start.saturating_sub(*enqueued);
                let queue = wait.min(info.prior_free.saturating_sub(*enqueued));
                let run = event.at.saturating_sub(info.start);
                let cold = info.walk_cycles.min(run);
                attributions.push(Attribution {
                    id: *id,
                    model: *model,
                    instance: *instance,
                    batch: *batch,
                    arrival,
                    done: event.at,
                    reroute: enqueued.saturating_sub(arrival),
                    queue,
                    formation: wait - queue,
                    cold,
                    exec: run - cold,
                    missed: *missed,
                    lost: false,
                    post_restart_cold: info.cold_fetch && info.post_restart,
                });
            }
            EventKind::InstanceRestarted { instance } => {
                last_restart.insert(*instance, event.at);
                let busy = busy_until.entry(*instance).or_insert(0);
                *busy = (*busy).max(event.at);
            }
            EventKind::InstanceKilled { .. }
            | EventKind::InstanceSpawned { .. }
            | EventKind::InstanceDraining { .. } => {}
            EventKind::TierHit { .. } => w.tier_hits += 1,
            EventKind::TierPromoted { instance, cycles, .. } => {
                w.tier_promotions += 1;
                w.tier_walk_cycles += cycles;
                pending_walk.entry(*instance).or_insert((0, false)).0 += cycles;
            }
            EventKind::TierDemoted { dropped: true, .. } => w.tier_drops += 1,
            EventKind::TierDemoted { dropped: false, .. } => w.tier_demotions += 1,
            EventKind::TierColdFetch { instance, cycles, .. } => {
                w.tier_cold_fetches += 1;
                w.tier_walk_cycles += cycles;
                let entry = pending_walk.entry(*instance).or_insert((0, false));
                entry.0 += cycles;
                entry.1 = true;
            }
            EventKind::TierStreamed { instance, cycles, .. } => {
                w.tier_streams += 1;
                w.tier_walk_cycles += cycles;
                pending_walk.entry(*instance).or_insert((0, false)).0 += cycles;
            }
        }
    }
    totals.submitted = terminals.len() as u64;
    totals.duplicate_terminals = terminals.values().filter(|&&n| n > 1).count() as u64;
    Analysis { window, windows: windows.into_values().collect(), totals, attributions }
}

/// Signed per-window deltas (candidate − baseline) of the headline
/// window aggregates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WindowDelta {
    /// Window index (a window absent on one side reads as 0 there).
    pub index: u64,
    /// Δ requests served.
    pub served: i64,
    /// Δ requests served within deadline.
    pub served_ok: i64,
    /// Δ deadline misses.
    pub missed: i64,
    /// Δ rejections.
    pub rejected: i64,
    /// Δ losses.
    pub lost: i64,
    /// Δ deepest queue-depth sample.
    pub queue_depth_max: i64,
    /// Δ tier-walk cycles.
    pub tier_walk_cycles: i64,
}

impl WindowDelta {
    /// Whether every tracked aggregate is unchanged.
    pub fn is_zero(&self) -> bool {
        self == &WindowDelta { index: self.index, ..WindowDelta::default() }
    }
}

/// The comparison of two analyses (same window width): per-window
/// deltas, per-attribution-bucket miss-cycle deltas, and the named
/// dominant regressor.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnalysisDiff {
    /// Candidate − baseline per window, over the union of both sides'
    /// windows in ascending index order.
    pub windows: Vec<WindowDelta>,
    /// Candidate − baseline miss-cycles per attribution bucket, in
    /// fixed bucket order.
    pub buckets: Vec<(&'static str, i64)>,
    /// The bucket with the largest miss-cycle increase, when any
    /// increased.
    pub dominant_regressor: Option<(&'static str, i64)>,
    /// The window with the largest goodput (served-within-deadline)
    /// drop, when any dropped: `(index, drop)`.
    pub worst_window: Option<(u64, i64)>,
}

/// The window of `analysis` with index `index`, when some event landed
/// in it.
fn window_at(analysis: &Analysis, index: u64) -> Option<&WindowStats> {
    let pos = analysis.windows.binary_search_by_key(&index, |w| w.index).ok()?;
    Some(&analysis.windows[pos])
}

/// Diffs `candidate` against `baseline` (positive = more in the
/// candidate). Both analyses must use the same window width — the
/// caller aligns that before calling.
pub fn diff(baseline: &Analysis, candidate: &Analysis) -> AnalysisDiff {
    let d = |b: u64, c: u64| c as i64 - b as i64;
    let empty = WindowStats::default();
    let mut indices: Vec<u64> =
        baseline.windows.iter().chain(&candidate.windows).map(|w| w.index).collect();
    indices.sort_unstable();
    indices.dedup();
    let mut windows = Vec::with_capacity(indices.len());
    let mut worst_window: Option<(u64, i64)> = None;
    for i in indices {
        let b = window_at(baseline, i).unwrap_or(&empty);
        let c = window_at(candidate, i).unwrap_or(&empty);
        let delta = WindowDelta {
            index: i,
            served: d(b.served, c.served),
            served_ok: d(b.served_ok(), c.served_ok()),
            missed: d(b.missed, c.missed),
            rejected: d(b.rejected, c.rejected),
            lost: d(b.lost, c.lost),
            queue_depth_max: d(b.queue_depth_max, c.queue_depth_max),
            tier_walk_cycles: d(b.tier_walk_cycles, c.tier_walk_cycles),
        };
        if delta.served_ok < 0 && worst_window.is_none_or(|(_, drop)| delta.served_ok < drop) {
            worst_window = Some((i, delta.served_ok));
        }
        windows.push(delta);
    }
    let base_buckets = baseline.miss_cycles_by_segment();
    let cand_buckets = candidate.miss_cycles_by_segment();
    let buckets: Vec<(&'static str, i64)> =
        BUCKETS.into_iter().map(|name| (name, d(base_buckets[name], cand_buckets[name]))).collect();
    let dominant_regressor =
        buckets.iter().filter(|&&(_, delta)| delta > 0).max_by_key(|&&(_, delta)| delta).copied();
    AnalysisDiff { windows, buckets, dominant_regressor, worst_window }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn served(at: u64, id: usize, batch: u64, enqueued: u64, latency: u64, missed: bool) -> Event {
        Event {
            at,
            kind: EventKind::Served { id, model: 0, instance: 0, batch, enqueued, latency, missed },
        }
    }

    fn batch(seq: u64, at: u64, done: u64) -> [Event; 2] {
        [
            Event { at, kind: EventKind::BatchFormed { seq, instance: 0, model: 0, size: 1 } },
            Event {
                at,
                kind: EventKind::BatchLaunched { seq, instance: 0, model: 0, size: 1, done },
            },
        ]
    }

    fn admitted(at: u64, id: usize) -> Event {
        Event { at, kind: EventKind::Admitted { id, model: 0, instance: 0 } }
    }

    #[test]
    fn windows_partition_the_stream_and_fold_to_totals() {
        let mut events = vec![admitted(0, 0), admitted(90, 1)];
        events.extend(batch(0, 10, 50));
        events.push(served(50, 0, 0, 0, 50, false));
        events.push(Event {
            at: 50,
            kind: EventKind::BatchCompleted { seq: 0, instance: 0, size: 1 },
        });
        events.extend(batch(1, 150, 260));
        events.push(served(260, 1, 1, 90, 170, true));
        events.push(Event {
            at: 260,
            kind: EventKind::BatchCompleted { seq: 1, instance: 0, size: 1 },
        });
        events.push(Event { at: 205, kind: EventKind::Rejected { id: 2, model: 0 } });
        let a = analyze(&events, 100);
        assert_eq!(a.windows.len(), 3);
        assert_eq!((a.windows[0].start, a.windows[0].end), (0, 100));
        assert_eq!(a.windows[0].admitted, 2);
        assert_eq!(a.windows[0].served, 1);
        assert_eq!(a.windows[1].batches_launched, 1);
        assert_eq!(a.windows[2].served, 1);
        assert_eq!(a.windows[2].missed, 1);
        assert_eq!(a.windows[2].rejected, 1);
        assert_eq!(a.windows[2].served_ok(), 0);
        assert_eq!(a.windows[0].latency_percentiles([50.0]), [Some(50)]);
        assert_eq!(a.windows[1].latency_percentiles([50.0]), [None]);
        assert_eq!(a.totals.served, 2);
        assert_eq!(a.totals.submitted, 3);
        assert!(a.totals.conserves());
        assert_eq!(a.fold_windows(), a.totals);
    }

    #[test]
    fn empty_samples_have_no_percentile() {
        // Regression: an all-rejected run used to report p50/p95/p99 = 0,
        // indistinguishable from a perfect zero-latency run.
        assert_eq!(percentile(&[], 99.0), None);
        assert_eq!(percentile(&[], 0.0), None);
        assert_eq!(percentile(&[0], 50.0), Some(0), "a real zero latency still reports 0");
        // Nearest rank on the sorted sample, clamped to its ends.
        assert_eq!(percentile(&[10, 30, 20, 40], 50.0), Some(20));
        assert_eq!(percentile(&[10, 30, 20, 40], 100.0), Some(40));
        assert_eq!(percentile(&[10, 30, 20, 40], 0.0), Some(10));
        assert_eq!(percentile(&[5, 1, 3], 99.0), Some(5));
        // Several ranks from one sort agree with one rank at a time.
        let values = [10, 30, 20, 40, 50, 5, 25];
        let ps = [0.0, 50.0, 95.0, 99.0, 100.0];
        assert_eq!(percentiles(&values, ps), ps.map(|p| percentile(&values, p)));
        assert_eq!(percentiles(&values, [50.0, 99.0]), [Some(25), Some(50)]);
        assert_eq!(percentiles(&[], [50.0, 95.0, 99.0]), [None; 3]);
    }

    #[test]
    fn only_windows_with_events_exist() {
        // One event at cycle 10^15: a dense window vector would need 10^13
        // entries; the analysis holds one.
        let events = vec![admitted(3, 0), admitted(1_000_000_000_000_000, 1)];
        let a = analyze(&events, 100);
        let indices: Vec<u64> = a.windows.iter().map(|w| w.index).collect();
        assert_eq!(indices, vec![0, 10_000_000_000_000]);
        assert_eq!(a.totals.makespan, 1_000_000_000_000_000);
        assert_eq!(a.fold_windows(), a.totals);
        let d = diff(&analyze(&events[..1], 100), &a);
        assert_eq!(d.windows.len(), 2, "the union of both sides' windows");
        assert!(d.windows[0].is_zero());
    }

    #[test]
    fn attribution_segments_sum_to_latency_and_split_queue_from_formation() {
        // Batch 0 occupies the instance until cycle 100; request 1
        // enqueues at 20, its batch forms at 130 (30 cycles of
        // policy wait after the server freed), runs 70 cycles.
        let mut events = vec![admitted(0, 0), admitted(20, 1)];
        events.extend(batch(0, 0, 100));
        events.push(served(100, 0, 0, 0, 100, false));
        events.extend(batch(1, 130, 200));
        events.push(served(200, 1, 1, 20, 180, true));
        let a = analyze(&events, 1000);
        let r1 = &a.attributions[1];
        assert_eq!(r1.reroute, 0);
        assert_eq!(r1.queue, 80, "blocked while batch 0 held the server");
        assert_eq!(r1.formation, 30, "then the policy waited to fill");
        assert_eq!(r1.cold, 0);
        assert_eq!(r1.exec, 70);
        assert_eq!(r1.reroute + r1.queue + r1.formation + r1.cold + r1.exec, 180);
        assert_eq!(r1.cause(), "queue");
    }

    #[test]
    fn cold_walks_charge_their_batch_and_restarts_reclass_the_cause() {
        // A cold fetch (60 cycles) in front of batch 0; instance 0
        // restarted at cycle 5, so the miss is post-restart cold.
        let mut events = vec![
            admitted(0, 0),
            Event { at: 5, kind: EventKind::InstanceRestarted { instance: 0 } },
            Event {
                at: 10,
                kind: EventKind::TierColdFetch { instance: 0, model: 0, cycles: 60, bytes: 700 },
            },
        ];
        events.extend(batch(0, 10, 100));
        events.push(served(100, 0, 0, 0, 100, true));
        let a = analyze(&events, 1000);
        let r = &a.attributions[0];
        assert_eq!(r.cold, 60);
        assert_eq!(r.exec, 30);
        assert!(r.post_restart_cold);
        assert_eq!(r.cause(), "cold-restart");
        assert_eq!(a.ranked_miss_causes()[0].cause, "cold-restart");
        assert_eq!(a.miss_cycles_by_segment()["cold-restart"], 60);
        assert_eq!(a.miss_cycles_by_segment()["cold"], 0);

        // The same walk with no prior restart stays steady-state cold.
        let mut steady = vec![
            admitted(0, 0),
            Event {
                at: 10,
                kind: EventKind::TierColdFetch { instance: 0, model: 0, cycles: 60, bytes: 700 },
            },
        ];
        steady.extend(batch(0, 10, 100));
        steady.push(served(100, 0, 0, 0, 100, true));
        let b = analyze(&steady, 1000);
        assert_eq!(b.attributions[0].cause(), "cold");
    }

    #[test]
    fn lost_requests_charge_their_whole_lifetime_to_lost() {
        let events = vec![
            admitted(40, 7),
            Event { at: 500, kind: EventKind::Lost { id: 7, model: 1 } },
            Event {
                at: 500,
                kind: EventKind::InstanceKilled { instance: 0, in_flight: 0, rerouted: 0, lost: 1 },
            },
        ];
        let a = analyze(&events, 250);
        assert_eq!(a.totals.lost, 1);
        assert_eq!(a.totals.kills, 1);
        let r = &a.attributions[0];
        assert!(r.lost);
        assert_eq!((r.arrival, r.done), (40, 500));
        assert_eq!(r.cause(), "lost");
        assert_eq!(a.miss_cycles_by_segment()["lost"], 460);
        assert!(a.totals.conserves());
    }

    #[test]
    fn diff_names_the_dominant_regressor_and_worst_window() {
        let mut healthy = vec![admitted(0, 0), admitted(10, 1)];
        healthy.extend(batch(0, 10, 60));
        healthy.push(served(60, 0, 0, 0, 60, false));
        healthy.push(served(60, 1, 0, 10, 50, false));
        let mut churned = vec![admitted(0, 0), admitted(10, 1)];
        churned.extend(batch(0, 110, 260));
        churned.push(served(260, 0, 0, 0, 260, true));
        churned.push(served(260, 1, 0, 10, 250, true));
        let base = analyze(&healthy, 100);
        let cand = analyze(&churned, 100);
        let d = diff(&base, &cand);
        assert_eq!(d.windows[0].served_ok, -2, "window 0 lost its on-time completions");
        assert_eq!(d.worst_window, Some((0, -2)));
        let (regressor, delta) = d.dominant_regressor.expect("misses regressed");
        assert_eq!(regressor, "exec", "the longer span dominates the new miss cycles");
        assert!(delta > 0);
        // A run diffed against itself is all zeros.
        let same = diff(&base, &base);
        assert!(same.windows.iter().all(WindowDelta::is_zero));
        assert_eq!(same.dominant_regressor, None);
        assert_eq!(same.worst_window, None);
    }
}
