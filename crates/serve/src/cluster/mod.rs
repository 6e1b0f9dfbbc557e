//! Sharded multi-instance serving: N accelerator instances behind one
//! request stream, with SLO-aware routing and weight-residency-aware
//! mixed-model placement.
//!
//! This is the serving-scale view of the paper's trade: when several
//! models share a cluster, the scarce resource is **weight-buffer
//! residency** — a model switch re-fetches the whole weight footprint,
//! and a footprint that fits the buffer turns every subsequent batch into
//! a residency hit. SmartExchange's compressed footprint is a fraction of
//! the dense designs', so at equal buffer size the SE lane fits more
//! models resident, refetches less, and loses fewer deadlines — measured
//! head-to-head by `se cluster`.
//!
//! * [`router`] — where each arrival goes: round-robin, join-shortest-
//!   queue, or model-affinity (residency-aware) routing.
//! * [`sim`] — the deterministic discrete-event cluster: per-instance
//!   batch aggregation (EDF within a queue when deadlines are set),
//!   residency admission with LRU eviction, deadline-miss and goodput
//!   accounting.
//!
//! Everything is a serial event loop over pre-computed latency tables
//! (the parallel per-image simulation happens before the cluster runs),
//! so cluster output inherits the crate's worker-count determinism
//! contract. `se serve` is this cluster at one instance, round-robin,
//! with residency modeling off; [`simulate_closed_loop`] is its
//! closed-loop workload.

pub mod router;
pub mod sim;

pub use router::{InstanceView, RouterPolicy};
pub use se_hw::residency::{TierSpec, TierStats};
pub use sim::{
    simulate_closed_loop, simulate_cluster, simulate_cluster_run_obs, ClusterReport, ClusterRun,
    ClusterSpec, InstanceSummary, ModelService,
};
