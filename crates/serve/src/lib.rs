//! Batched inference serving on top of the simulation stack.
//!
//! The paper evaluates batch-size-1 latency, which leaves the canonical
//! memory-for-computation trade of serving on the table: amortizing each
//! layer's weight fetch (and, on SmartExchange, the basis + coefficient
//! rebuild) across a batch of images. This crate turns the per-image
//! simulators into a request-driven serving subsystem:
//!
//! * [`engine`] — the **batch engine**: runs trace pairs through the five
//!   accelerators once per image on the deterministic work queue of
//!   [`se_core::pipeline`] and derives batched results in which weights are charged once per batch
//!   while activation traffic and compute scale with the batch size
//!   (`se_hw`'s `amortized_over_batch` accounting).
//! * [`queue`] — the **batch policy**: the bounded request queue's batch
//!   aggregator (max-batch-size + max-wait).
//! * [`workload`] — deterministic synthetic arrival processes (uniform,
//!   burst, closed-loop), optionally mixed-model with per-request
//!   deadlines, that drive the cluster.
//! * [`cluster`] — the **serving front**: N instances behind one request
//!   stream with round-robin / join-shortest-queue / model-affinity
//!   routing, earliest-deadline-first batch formation, and per-instance
//!   weight-store residency (`se_hw::residency`) charging a full
//!   footprint re-fetch on every model switch — where SmartExchange's
//!   smaller footprint becomes fewer evictions and higher goodput.
//!   `se serve` is its 1-instance, no-residency case, open or closed
//!   loop.
//! * [`sched`] — the **scheduling core** behind the front: admission,
//!   routing, EDF batch formation, and residency as one virtual-time
//!   state machine that counts its decisions into the run's
//!   [`ClusterReport`] and narrates them into an [`se_obs::EventSink`].
//! * [`fault`] — **failure injection and elastic membership**: scripted
//!   kill/restart events and queue-depth autoscaling consumed by the
//!   scheduling core. Killed batches re-route their requests with
//!   original arrival and deadline intact; restarted instances rejoin
//!   with cold weight stores.
//!
//! There is one serving runtime: the serial discrete-event simulation.
//! Each entry point takes an event sink; pass [`se_obs::NullSink`] to run
//! untraced, which builds no events and returns the same result.
//!
//! # Determinism contract
//!
//! Given a fixed arrival order, every result here is **bit-identical for
//! any worker count**: the only parallel stage (the per-image simulation
//! grid) reassembles in network order, batching is pure integer/f64
//! arithmetic on those results, and the cluster simulation is a serial
//! discrete-event loop. `batch = 1` reproduces today's single-image
//! numbers exactly. See `docs/SERVING.md`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cluster;
pub mod engine;
pub mod fault;
pub mod queue;
pub mod sched;
pub mod workload;

pub use cluster::{
    ClusterReport, ClusterRun, ClusterSpec, ModelService, RouterPolicy, TierSpec, TierStats,
};
pub use engine::{BatchEngine, ACCEL_NAMES, SE_LANE};
pub use fault::{AutoscalePolicy, FaultAction, FaultEvent, FaultPlan};
pub use queue::BatchPolicy;
pub use workload::{ArrivalPattern, Request};

/// Boxed error alias (`Send + Sync` so serving jobs can cross the parallel
/// work queue).
pub type BoxError = Box<dyn std::error::Error + Send + Sync>;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, BoxError>;
