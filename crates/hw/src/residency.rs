//! Weight-buffer residency and model-switch cost accounting.
//!
//! Mixed-model serving turns the weight buffer into a cache of *models*:
//! while a model stays resident, batch after batch reuses its on-chip
//! weights and only the activation traffic recurs; switching to a
//! non-resident model re-fetches the full weight footprint — the dense
//! bytes on the baselines, the compressed basis + coefficient form (whose
//! rebuild then reruns per batch) on SmartExchange — and evicts whatever
//! no longer fits. SmartExchange's smaller footprint is therefore directly
//! visible at the serving layer as fewer evictions and refetches at equal
//! buffer size, which is the trade `se cluster` measures.
//!
//! [`TieredStore`] is the deterministic residency model: an ordered stack
//! of memory tiers (weight buffer ↔ DRAM ↔ SSD/remote), each with a
//! capacity and a bandwidth, LRU eviction demoting to the next tier down,
//! and promotion charging serialized transfer time through every tier
//! crossed. The serving front's flat weight buffer is the two-tier stack
//! of that buffer over the lane's DRAM. Models are identified by
//! caller-assigned indices, capacities and footprints are byte counts,
//! and every decision is a pure function of the admission
//! sequence — no clocks, no randomness — so cluster simulations built on
//! it stay bit-identical across worker counts.
//!
//! Admission and restart take an observer that receives the
//! [`se_obs::EventKind`] tier events (hit / promotion / demotion /
//! cold-fetch / stream) the call produced — demotions happen deep inside
//! the eviction cascade, so only this layer can report them. Callers that
//! do not trace pass a no-op closure; the decision path is the same.

use se_obs::EventKind;

/// Running residency counters of one store's top tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResidencyStats {
    /// Batches served with the model's weights already resident.
    pub hits: u64,
    /// Weight fetches from DRAM (switch fetches plus streamed batches).
    pub fetches: u64,
    /// Models evicted to make room for a fetch.
    pub evictions: u64,
    /// Total weight bytes moved over DRAM by those fetches.
    pub bytes_fetched: u64,
}

impl ResidencyStats {
    /// Accumulates another buffer's counters into this one (used to fold
    /// per-instance stats into a cluster total).
    pub fn accumulate(&mut self, o: &ResidencyStats) {
        self.hits += o.hits;
        self.fetches += o.fetches;
        self.evictions += o.evictions;
        self.bytes_fetched += o.bytes_fetched;
    }
}

/// One tier of a [`TieredStore`]: a named capacity with a bandwidth to
/// the tier above it.
#[derive(Debug, Clone, PartialEq)]
pub struct TierSpec {
    /// Display name (`buf`, `dram`, `ssd`, ...).
    pub name: String,
    /// Tier capacity in bytes.
    pub capacity_bytes: u64,
    /// Bytes per cycle this tier can be read at — the bandwidth of the
    /// crossing from this tier to the one above it.
    pub bytes_per_cycle: f64,
}

// `bytes_per_cycle` is validated finite and positive before a store is
// built, so equality is reflexive and the marker impl is sound.
impl Eq for TierSpec {}

impl TierSpec {
    /// Creates a tier spec.
    pub fn new(name: &str, capacity_bytes: u64, bytes_per_cycle: f64) -> TierSpec {
        TierSpec { name: name.to_string(), capacity_bytes, bytes_per_cycle }
    }
}

/// Running traffic counters of one tier in a [`TieredStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TierStats {
    /// Admissions that found their model resident in this tier (tier 0:
    /// free hits; lower tiers: the promotion source).
    pub hits: u64,
    /// Entries promoted out of this tier to the top (always 0 for tier 0;
    /// equals `hits` for every lower tier).
    pub promotions: u64,
    /// Entries demoted into this tier by LRU pressure above.
    pub demotions: u64,
    /// Entries LRU-evicted out of this tier (demoted to the next tier
    /// down, or dropped cold out of the bottom tier).
    pub evictions: u64,
    /// Bytes read out of this tier by promotions, cold loads, and streams
    /// — the tier's upward traffic (the bottom tier's value is the "bytes
    /// served from the slowest memory" figure of merit).
    pub bytes_up: u64,
    /// Bytes written into this tier by demotions.
    pub bytes_down: u64,
}

impl TierStats {
    /// Accumulates another tier's counters into this one.
    pub fn accumulate(&mut self, o: &TierStats) {
        self.hits += o.hits;
        self.promotions += o.promotions;
        self.demotions += o.demotions;
        self.evictions += o.evictions;
        self.bytes_up += o.bytes_up;
        self.bytes_down += o.bytes_down;
    }
}

/// Outcome of admitting one model's weights through a [`TieredStore`].
///
/// The `cycles` of each variant is the serialized transfer time the
/// admission charges in front of its batch: a promotion from tier `j`
/// crosses tiers `j → j−1 → … → 0`, and crossing out of tier `k` costs
/// [`fetch_cycles`] at tier `k`'s bandwidth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TierAdmission {
    /// Resident at the top tier: no weight movement.
    Hit,
    /// Resident at lower tier `from`, promoted to the top.
    Promoted {
        /// Tier index the model was resident in.
        from: usize,
        /// Serialized transfer cycles through every tier crossed.
        cycles: u64,
        /// Models displaced out of the top tier to make room, LRU-first
        /// (they demote down the stack rather than vanish).
        evicted: Vec<usize>,
    },
    /// Resident nowhere: loaded from the origin (the bottom tier) through
    /// the whole stack.
    Cold {
        /// Serialized transfer cycles from the bottom tier to the top.
        cycles: u64,
        /// Models displaced out of the top tier, LRU-first.
        evicted: Vec<usize>,
    },
    /// The footprint exceeds the top tier outright: the weights stream
    /// from the origin for this batch and nothing resident is disturbed.
    Streamed {
        /// Serialized transfer cycles hauling the footprint from the
        /// origin to the staging tier (tier 1); the final tier-1 → tier-0
        /// crossing recurs per batch and is charged by the execution
        /// model's per-batch-fetch table.
        cycles: u64,
    },
}

impl TierAdmission {
    /// The serialized transfer cycles this admission charges in front of
    /// its batch (0 for a hit).
    pub fn cycles(&self) -> u64 {
        match self {
            TierAdmission::Hit => 0,
            TierAdmission::Promoted { cycles, .. }
            | TierAdmission::Cold { cycles, .. }
            | TierAdmission::Streamed { cycles } => *cycles,
        }
    }
}

/// An ordered stack of memory tiers holding whole-model weight
/// footprints, LRU per tier, with demotion-on-eviction.
///
/// Tier 0 is the on-chip weight buffer; the last tier is the origin
/// (DRAM in a two-tier stack, SSD/remote below that) where cold models
/// load from. A model is resident in at most one tier at a time:
/// admission promotes it to tier 0, eviction demotes the LRU entry one
/// tier down (cascading), and eviction out of the bottom tier drops the
/// model cold — re-admitting it costs the full walk again. Demotions are
/// write-back traffic that overlaps execution, so they are counted
/// (`demotions`, `bytes_down`) but charge no cycles. Every decision is a
/// pure function of the admission sequence, preserving the determinism
/// contract of the serving stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TieredStore {
    specs: Vec<TierSpec>,
    /// Per-tier resident models with footprints, least-recently-used
    /// first.
    resident: Vec<Vec<(usize, u64)>>,
    stats: Vec<TierStats>,
    summary: ResidencyStats,
    admissions: u64,
    cold_fetches: u64,
    streams: u64,
}

impl TieredStore {
    /// Creates an empty store over the given tier stack (top first).
    ///
    /// # Panics
    ///
    /// Panics on an empty stack or a non-positive/non-finite bandwidth —
    /// caller-facing layers validate specs before construction.
    pub fn new(specs: Vec<TierSpec>) -> TieredStore {
        assert!(!specs.is_empty(), "a tiered store needs at least one tier");
        for t in &specs {
            assert!(
                t.bytes_per_cycle > 0.0 && t.bytes_per_cycle.is_finite(),
                "tier {}: bandwidth must be positive and finite",
                t.name
            );
        }
        let n = specs.len();
        TieredStore {
            specs,
            resident: vec![Vec::new(); n],
            stats: vec![TierStats::default(); n],
            summary: ResidencyStats::default(),
            admissions: 0,
            cold_fetches: 0,
            streams: 0,
        }
    }

    /// The tier stack, top first.
    pub fn tiers(&self) -> &[TierSpec] {
        &self.specs
    }

    /// Per-tier traffic counters, top first.
    pub fn tier_stats(&self) -> &[TierStats] {
        &self.stats
    }

    /// Residency summary of the top tier: `hits` counts top-tier hits,
    /// `fetches` every admission that moved the footprint (promotions,
    /// cold loads, streams), `bytes_fetched` those footprints,
    /// `evictions` displacements out of the top tier.
    pub fn summary(&self) -> &ResidencyStats {
        &self.summary
    }

    /// Total admissions so far. Conservation law (property-tested):
    /// `admissions == Σ tier hits + cold_fetches + streams`.
    pub fn admissions(&self) -> u64 {
        self.admissions
    }

    /// Admissions that found the model resident nowhere.
    pub fn cold_fetches(&self) -> u64 {
        self.cold_fetches
    }

    /// Admissions of footprints larger than the top tier.
    pub fn streams(&self) -> u64 {
        self.streams
    }

    /// Whether `model` is resident in the top tier (what routing sees as
    /// "resident": anything lower still pays a promotion walk).
    pub fn is_resident_top(&self, model: usize) -> bool {
        self.resident[0].iter().any(|&(m, _)| m == model)
    }

    /// Bytes currently occupied in tier `k`.
    pub fn occupied_bytes(&self, k: usize) -> u64 {
        self.resident[k].iter().map(|&(_, b)| b).sum()
    }

    /// Serialized cycles to move `bytes` up from tier `from` to tier `to`
    /// (exclusive): Σ over crossed tiers of [`fetch_cycles`] at the source
    /// tier's bandwidth.
    fn walk_cycles(&self, bytes: u64, from: usize, to: usize) -> u64 {
        (to + 1..=from).map(|k| fetch_cycles(bytes, self.specs[k].bytes_per_cycle)).sum()
    }

    fn charge_walk(&mut self, bytes: u64, from: usize, to: usize) -> u64 {
        for k in to + 1..=from {
            self.stats[k].bytes_up += bytes;
        }
        self.walk_cycles(bytes, from, to)
    }

    /// Installs `model` into tier 0, demoting LRU entries down the stack
    /// to make room. Returns the models displaced out of tier 0,
    /// LRU-first.
    fn install(
        &mut self,
        model: usize,
        bytes: u64,
        instance: usize,
        obs: &mut dyn FnMut(EventKind),
    ) -> Vec<usize> {
        let mut evicted = Vec::new();
        while self.occupied_bytes(0) + bytes > self.specs[0].capacity_bytes {
            let (victim, vbytes) = self.resident[0].remove(0);
            self.stats[0].evictions += 1;
            evicted.push(victim);
            self.demote(1, victim, vbytes, instance, obs);
        }
        self.summary.evictions += evicted.len() as u64;
        self.resident[0].push((model, bytes));
        evicted
    }

    /// Demotes one entry into tier `k`, cascading LRU evictions further
    /// down; past the bottom tier (or into a tier it cannot fit outright)
    /// the entry drops cold (reported with `to` = the tier count).
    /// Demotion is write-back traffic overlapping execution: counted,
    /// never charged cycles.
    fn demote(
        &mut self,
        k: usize,
        model: usize,
        bytes: u64,
        instance: usize,
        obs: &mut dyn FnMut(EventKind),
    ) {
        if k >= self.specs.len() || bytes > self.specs[k].capacity_bytes {
            obs(EventKind::TierDemoted {
                instance,
                model,
                to: self.specs.len(),
                bytes,
                dropped: true,
            });
            return;
        }
        while self.occupied_bytes(k) + bytes > self.specs[k].capacity_bytes {
            let (victim, vbytes) = self.resident[k].remove(0);
            self.stats[k].evictions += 1;
            self.demote(k + 1, victim, vbytes, instance, obs);
        }
        self.resident[k].push((model, bytes));
        self.stats[k].demotions += 1;
        self.stats[k].bytes_down += bytes;
        obs(EventKind::TierDemoted { instance, model, to: k, bytes, dropped: false });
    }

    /// Admits `model` (footprint `bytes`) ahead of a batch: a top-tier
    /// hit refreshes its LRU position for free; a lower-tier hit promotes
    /// it to the top, charging the serialized walk through every tier
    /// crossed; a model resident nowhere loads from the bottom tier
    /// through the whole stack; a footprint larger than the top tier
    /// streams from the origin without installing. `obs` receives the tier
    /// events in the order they happened (the admission outcome first,
    /// then any demotions its eviction cascade caused), each stamped with
    /// `instance` — the store itself does not know which cluster instance
    /// owns it.
    pub fn admit(
        &mut self,
        model: usize,
        bytes: u64,
        instance: usize,
        obs: &mut dyn FnMut(EventKind),
    ) -> TierAdmission {
        self.admissions += 1;
        if let Some(pos) = self.resident[0].iter().position(|&(m, _)| m == model) {
            let entry = self.resident[0].remove(pos);
            self.resident[0].push(entry);
            self.stats[0].hits += 1;
            self.summary.hits += 1;
            obs(EventKind::TierHit { instance, model });
            return TierAdmission::Hit;
        }
        self.summary.fetches += 1;
        self.summary.bytes_fetched += bytes;
        for from in 1..self.specs.len() {
            if let Some(pos) = self.resident[from].iter().position(|&(m, _)| m == model) {
                self.resident[from].remove(pos);
                self.stats[from].hits += 1;
                self.stats[from].promotions += 1;
                let cycles = self.charge_walk(bytes, from, 0);
                obs(EventKind::TierPromoted { instance, model, from, cycles, bytes });
                let evicted = self.install(model, bytes, instance, obs);
                return TierAdmission::Promoted { from, cycles, evicted };
            }
        }
        let bottom = self.specs.len() - 1;
        if bytes > self.specs[0].capacity_bytes {
            self.streams += 1;
            // The tier-1 → tier-0 crossing recurs per batch inside the
            // streamed execution table; only the deeper haul is charged
            // here (zero for one- and two-tier stacks).
            let cycles = self.charge_walk(bytes, bottom, 1.min(bottom));
            obs(EventKind::TierStreamed { instance, model, cycles });
            return TierAdmission::Streamed { cycles };
        }
        self.cold_fetches += 1;
        let cycles = self.charge_walk(bytes, bottom, 0);
        obs(EventKind::TierColdFetch { instance, model, cycles, bytes });
        let evicted = self.install(model, bytes, instance, obs);
        TierAdmission::Cold { cycles, evicted }
    }

    /// Drops the volatile tiers — the state after the owning instance
    /// restarts. Every tier except the bottom loses its contents (the
    /// bottom tier is the durable origin: SSD contents survive a power
    /// cycle; a one-tier store loses everything). Lifetime counters
    /// survive, and the drops are not LRU evictions: nothing was displaced
    /// *by* a fetch. `obs` receives each purged entry as a `dropped`
    /// [`EventKind::TierDemoted`] (`to` = the tier count), in tier order
    /// then LRU order — the trace's record of what the power cycle cost.
    /// Entries parked in the durable bottom tier survive and report
    /// nothing.
    pub fn cold_restart(&mut self, instance: usize, obs: &mut dyn FnMut(EventKind)) {
        let keep_bottom = self.specs.len() > 1;
        let last = self.specs.len() - 1;
        for (k, tier) in self.resident.iter_mut().enumerate() {
            if !(keep_bottom && k == last) {
                for &(model, bytes) in tier.iter() {
                    obs(EventKind::TierDemoted {
                        instance,
                        model,
                        to: self.specs.len(),
                        bytes,
                        dropped: true,
                    });
                }
                tier.clear();
            }
        }
    }
}

/// DRAM cycles to move a `bytes`-sized weight footprint at the given
/// bandwidth — the latency a model switch serializes in front of its first
/// batch (the fetch cannot overlap compute that needs the weights), and
/// the DRAM time of every simulated layer ([`crate::LayerResult::new`]).
///
/// # Panics
///
/// Panics unless the bandwidth is finite and positive; every caller
/// passes one that a configuration's `validate` (or
/// [`TieredStore::new`]) has checked.
pub fn fetch_cycles(bytes: u64, dram_bytes_per_cycle: f64) -> u64 {
    assert!(
        dram_bytes_per_cycle.is_finite() && dram_bytes_per_cycle > 0.0,
        "bandwidth must be finite and positive, got {dram_bytes_per_cycle}"
    );
    (bytes as f64 / dram_bytes_per_cycle).ceil() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Untraced admission on instance 0.
    fn admit(store: &mut TieredStore, model: usize, bytes: u64) -> TierAdmission {
        store.admit(model, bytes, 0, &mut |_| {})
    }

    /// A one-tier store (its bandwidth is never charged — one tier
    /// crosses nothing).
    fn buffer(capacity_bytes: u64) -> TieredStore {
        TieredStore::new(vec![TierSpec::new("buf", capacity_bytes, 1.0)])
    }

    fn cold(evicted: Vec<usize>) -> TierAdmission {
        TierAdmission::Cold { cycles: 0, evicted }
    }

    #[test]
    fn single_model_fetches_once_then_hits() {
        let mut buf = buffer(100);
        assert_eq!(admit(&mut buf, 0, 60), cold(vec![]));
        for _ in 0..5 {
            assert_eq!(admit(&mut buf, 0, 60), TierAdmission::Hit);
        }
        assert!(buf.is_resident_top(0));
        assert_eq!(
            *buf.summary(),
            ResidencyStats { hits: 5, fetches: 1, evictions: 0, bytes_fetched: 60 }
        );
    }

    #[test]
    fn alternating_models_evict_every_time_when_only_one_fits() {
        let mut buf = buffer(100);
        admit(&mut buf, 0, 60);
        for round in 0..4 {
            assert_eq!(admit(&mut buf, 1, 70), cold(vec![0]), "round {round}: 1 in, 0 out");
            assert_eq!(admit(&mut buf, 0, 60), cold(vec![1]));
        }
        let s = buf.summary();
        assert_eq!(s.hits, 0);
        assert_eq!(s.fetches, 9);
        assert_eq!(s.evictions, 8);
        assert_eq!(s.bytes_fetched, 5 * 60 + 4 * 70);
    }

    #[test]
    fn both_resident_when_they_fit() {
        let mut buf = buffer(200);
        admit(&mut buf, 0, 60);
        admit(&mut buf, 1, 70);
        for _ in 0..3 {
            assert_eq!(admit(&mut buf, 0, 60), TierAdmission::Hit);
            assert_eq!(admit(&mut buf, 1, 70), TierAdmission::Hit);
        }
        assert_eq!(buf.summary().fetches, 2);
        assert_eq!(buf.summary().evictions, 0);
        assert_eq!(buf.occupied_bytes(0), 130);
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let mut buf = buffer(100);
        admit(&mut buf, 0, 40);
        admit(&mut buf, 1, 40);
        admit(&mut buf, 0, 40); // refresh 0: LRU is now 1
        assert_eq!(admit(&mut buf, 2, 40), cold(vec![1]));
        assert!(buf.is_resident_top(0));
        assert!(!buf.is_resident_top(1));
    }

    #[test]
    fn oversized_footprint_streams_without_evicting() {
        let mut buf = buffer(100);
        admit(&mut buf, 0, 80);
        assert_eq!(admit(&mut buf, 1, 150), TierAdmission::Streamed { cycles: 0 });
        assert!(buf.is_resident_top(0), "streamed model must not evict residents");
        assert!(!buf.is_resident_top(1));
        assert_eq!(buf.summary().fetches, 2);
        assert_eq!(buf.summary().bytes_fetched, 230);
    }

    #[test]
    fn cold_restart_clears_residency_but_keeps_counters() {
        let mut buf = buffer(200);
        admit(&mut buf, 0, 60);
        admit(&mut buf, 0, 60);
        assert_eq!(buf.summary().hits, 1);
        buf.cold_restart(0, &mut |_| {});
        assert!(!buf.is_resident_top(0), "restart leaves nothing resident");
        assert_eq!(buf.occupied_bytes(0), 0);
        assert_eq!(buf.summary().hits, 1, "lifetime counters survive the restart");
        assert_eq!(buf.summary().evictions, 0, "a restart is not an LRU eviction");
        assert_eq!(admit(&mut buf, 0, 60), cold(vec![]), "re-fetch is charged");
        assert_eq!(buf.summary().fetches, 2);
    }

    #[test]
    fn stats_accumulate() {
        let mut a = ResidencyStats { hits: 1, fetches: 2, evictions: 3, bytes_fetched: 4 };
        a.accumulate(&ResidencyStats { hits: 10, fetches: 20, evictions: 30, bytes_fetched: 40 });
        assert_eq!(a, ResidencyStats { hits: 11, fetches: 22, evictions: 33, bytes_fetched: 44 });
    }

    #[test]
    fn fetch_cycles_round_up() {
        assert_eq!(fetch_cycles(0, 64.0), 0);
        assert_eq!(fetch_cycles(64, 64.0), 1);
        assert_eq!(fetch_cycles(65, 64.0), 2);
    }

    /// buf 100 B @ 10 B/cy, dram 300 B @ 5 B/cy, ssd 1000 B @ 1 B/cy.
    fn stack() -> TieredStore {
        TieredStore::new(vec![
            TierSpec::new("buf", 100, 10.0),
            TierSpec::new("dram", 300, 5.0),
            TierSpec::new("ssd", 1000, 1.0),
        ])
    }

    #[test]
    fn cold_load_walks_the_whole_stack() {
        let mut store = stack();
        // 50 B from SSD: 50/1 (ssd→dram) + 50/5 (dram→buf) = 60 cycles.
        let a = admit(&mut store, 0, 50);
        assert_eq!(a, TierAdmission::Cold { cycles: 60, evicted: vec![] });
        assert_eq!(a.cycles(), 60);
        assert_eq!(admit(&mut store, 0, 50), TierAdmission::Hit);
        assert!(store.is_resident_top(0));
        assert_eq!(store.cold_fetches(), 1);
        assert_eq!(store.admissions(), 2);
        // Upward bytes counted at both crossed tiers; the bottom tier's
        // share is the cold-load figure of merit.
        assert_eq!(store.tier_stats()[1].bytes_up, 50);
        assert_eq!(store.tier_stats()[2].bytes_up, 50);
        assert_eq!(store.tier_stats().last().unwrap().bytes_up, 50);
        assert_eq!(
            *store.summary(),
            ResidencyStats { hits: 1, fetches: 1, evictions: 0, bytes_fetched: 50 }
        );
    }

    #[test]
    fn eviction_demotes_to_the_next_tier_and_promotion_comes_back_cheaper() {
        let mut store = stack();
        admit(&mut store, 0, 60); // cold: 60 cycles
        let a = admit(&mut store, 1, 70); // evicts 0 to DRAM
        assert_eq!(a, TierAdmission::Cold { cycles: 84, evicted: vec![0] });
        assert_eq!(store.tier_stats()[0].evictions, 1);
        assert_eq!(store.tier_stats()[1].demotions, 1);
        assert_eq!(store.tier_stats()[1].bytes_down, 60);
        // 0 now promotes from DRAM: 60/5 = 12 cycles, far cheaper than
        // its 72-cycle cold load, and the SSD never sees it.
        let b = admit(&mut store, 0, 60);
        assert_eq!(b, TierAdmission::Promoted { from: 1, cycles: 12, evicted: vec![1] });
        assert_eq!(store.tier_stats()[1].hits, 1);
        assert_eq!(store.tier_stats()[1].promotions, 1);
        assert_eq!(
            store.tier_stats().last().unwrap().bytes_up,
            60 + 70,
            "only the two cold loads hit the SSD"
        );
    }

    #[test]
    fn eviction_out_of_the_bottom_tier_drops_cold() {
        let mut store = TieredStore::new(vec![
            TierSpec::new("buf", 100, 10.0),
            TierSpec::new("dram", 100, 5.0),
        ]);
        admit(&mut store, 0, 100);
        admit(&mut store, 1, 100); // 0 demotes to dram
        admit(&mut store, 2, 100); // 1 demotes to dram, 0 falls off the bottom
        assert_eq!(store.tier_stats()[1].evictions, 1);
        // 0 is cold again: full-walk cost, counted as a fresh cold fetch.
        let a = admit(&mut store, 0, 100);
        assert_eq!(a, TierAdmission::Cold { cycles: 20, evicted: vec![2] });
        assert_eq!(store.cold_fetches(), 4);
    }

    #[test]
    fn streams_haul_from_the_origin_every_batch_without_installing() {
        let mut store = stack();
        admit(&mut store, 0, 80);
        for round in 1..=3u64 {
            // 150 B > buf: stream. The deep haul (ssd→dram, 150 cycles)
            // is charged; the dram→buf crossing recurs inside the
            // streamed execution table.
            assert_eq!(admit(&mut store, 1, 150), TierAdmission::Streamed { cycles: 150 });
            assert_eq!(store.tier_stats().last().unwrap().bytes_up, 80 + 150 * round);
        }
        assert!(store.is_resident_top(0), "streams never evict residents");
        assert_eq!(store.streams(), 3);
        assert_eq!(store.tier_stats()[1].bytes_up, 80, "streams bypass the staging tier charge");
    }

    #[test]
    fn conservation_holds_per_admission() {
        let mut store = stack();
        for (model, bytes) in [(0, 60), (1, 70), (0, 60), (2, 150), (1, 70), (1, 70)] {
            admit(&mut store, model, bytes);
            let hits: u64 = store.tier_stats().iter().map(|s| s.hits).sum();
            assert_eq!(hits + store.cold_fetches() + store.streams(), store.admissions());
            for k in 0..store.tiers().len() {
                assert!(store.occupied_bytes(k) <= store.tiers()[k].capacity_bytes);
            }
        }
    }

    #[test]
    fn cold_restart_keeps_only_the_durable_bottom_tier() {
        let mut store = stack();
        admit(&mut store, 0, 60);
        admit(&mut store, 1, 70); // 0 demoted to DRAM
        store.cold_restart(0, &mut |_| {});
        assert!(!store.is_resident_top(1), "top tier lost");
        assert_eq!(store.occupied_bytes(0), 0);
        assert_eq!(store.occupied_bytes(1), 0, "DRAM is volatile too");
        // Nothing reached the SSD tier as resident state, so both models
        // are cold: the post-restart load pays the full SSD walk — the
        // "lands in SSD, not free DRAM" recovery cost.
        assert_eq!(admit(&mut store, 0, 60), TierAdmission::Cold { cycles: 72, evicted: vec![] });
        // A model demoted all the way to the durable bottom tier before
        // the restart survives the power cycle as resident state there.
        let mut deep = TieredStore::new(vec![
            TierSpec::new("buf", 100, 10.0),
            TierSpec::new("dram", 100, 5.0),
            TierSpec::new("ssd", 1000, 1.0),
        ]);
        admit(&mut deep, 0, 60);
        admit(&mut deep, 1, 70); // 0 → dram
        admit(&mut deep, 2, 80); // 1 → dram, cascading 0 → ssd
        deep.cold_restart(0, &mut |_| {});
        assert_eq!(deep.occupied_bytes(2), 60, "the SSD copy of model 0 survives");
        assert!(matches!(admit(&mut deep, 0, 60), TierAdmission::Promoted { from: 2, .. }));
    }

    #[test]
    fn admission_reports_the_walk_and_its_demotions() {
        let mut store = stack();
        // Cold load of 0, then 1 (evicting 0 → DRAM), then promote 0 back
        // (evicting 1 → DRAM).
        for (model, bytes) in [(0usize, 60u64), (1, 70), (0, 60)] {
            admit(&mut store, model, bytes);
        }
        let mut notes = Vec::new();
        store.admit(1, 70, 7, &mut |kind| notes.push(kind));
        assert_eq!(
            notes,
            vec![
                EventKind::TierPromoted { instance: 7, model: 1, from: 1, cycles: 14, bytes: 70 },
                EventKind::TierDemoted { instance: 7, model: 0, to: 1, bytes: 60, dropped: false },
            ]
        );
        // A footprint larger than the top tier streams.
        let mut notes = Vec::new();
        store.admit(9, 150, 3, &mut |kind| notes.push(kind));
        assert_eq!(notes, vec![EventKind::TierStreamed { instance: 3, model: 9, cycles: 150 }]);
        // A one-tier buffer reports drop-cold demotions with to == 1.
        let mut buf = buffer(100);
        admit(&mut buf, 0, 60);
        let mut notes = Vec::new();
        assert_eq!(buf.admit(1, 70, 0, &mut |kind| notes.push(kind)), cold(vec![0]));
        assert_eq!(
            notes,
            vec![
                EventKind::TierColdFetch { instance: 0, model: 1, cycles: 0, bytes: 70 },
                EventKind::TierDemoted { instance: 0, model: 0, to: 1, bytes: 60, dropped: true },
            ]
        );
    }

    #[test]
    fn cold_restart_reports_the_purged_entries() {
        let mut store = stack();
        admit(&mut store, 0, 60); // resident in buf
        admit(&mut store, 1, 70); // 0 demoted to dram
        let mut notes = Vec::new();
        store.cold_restart(4, &mut |kind| notes.push(kind));
        assert_eq!(
            notes,
            vec![
                EventKind::TierDemoted { instance: 4, model: 1, to: 3, bytes: 70, dropped: true },
                EventKind::TierDemoted { instance: 4, model: 0, to: 3, bytes: 60, dropped: true },
            ],
            "both volatile tiers purge; the empty SSD tier reports nothing"
        );
        assert_eq!(store.occupied_bytes(0) + store.occupied_bytes(1), 0);
        // A one-tier buffer purges everything.
        let mut buf = buffer(200);
        admit(&mut buf, 0, 60);
        let mut notes = Vec::new();
        buf.cold_restart(2, &mut |kind| notes.push(kind));
        assert_eq!(
            notes,
            vec![EventKind::TierDemoted { instance: 2, model: 0, to: 1, bytes: 60, dropped: true }]
        );
        assert_eq!(buf.occupied_bytes(0), 0);
    }
}
