//! Deterministic failure injection and elastic membership for the
//! cluster front.
//!
//! A [`FaultPlan`] scripts instance churn in *virtual* time: kill
//! instance `i` at cycle `t`, restart it later, and (optionally) let the
//! cluster spawn or drain instances on queue-depth thresholds
//! ([`AutoscalePolicy`]). The plan is part of the
//! [`crate::cluster::ClusterSpec`], consumed by the scheduling core, so a
//! churned run replays bit-identically for any worker count (the property
//! tested in `tests/fault.rs`).
//!
//! # Event semantics
//!
//! * **Kill at `t`** — the instance goes down instantly. A batch in
//!   flight (launched at `s < t`, completing at `d > t`) fails: none of
//!   its members complete. Its members and everything still waiting in
//!   the queue re-enter the router *at* `t` (ascending request id), each
//!   keeping its original arrival and deadline — latency keeps accruing
//!   from the original arrival, so deadline misses caused by the failure
//!   are charged honestly. A victim that finds no accepting instance, or
//!   bounces off a full queue, is **lost**: a terminal outcome (counted
//!   in [`crate::cluster::ClusterReport::lost`]), never a silent drop.
//! * **Restart at `t`** — the instance rejoins with an empty queue, is
//!   free from `t`, and its weight store is **cold**
//!   ([`se_hw::residency::TieredStore::cold_restart`]): every model
//!   fetches again, which is exactly where a small resident footprint
//!   (SmartExchange) recovers faster than a large one (dense).
//! * **Spawn / Drain** — with an [`AutoscalePolicy`], an arrival that
//!   finds the accepting queues holding more than `spawn_above × live`
//!   requests spawns a fresh (cold, empty) instance, up to twice the base
//!   cluster size; a launch that leaves them under `drain_below × live`
//!   stops the highest-indexed spawned instance from accepting (it
//!   finishes its queue and idles). Base instances are never drained.
//!
//! Routing only ever sees accepting instances; every policy's tie-breaks
//! stay deterministic under churn (lowest index, with round-robin
//! counting over the accepting subset in index order).
//!
//! Each change that fires is logged once, as the [`se_obs::Event`] the
//! core also narrates into its sink (`InstanceKilled` with the victim
//! accounting, `InstanceRestarted`, `InstanceSpawned`,
//! `InstanceDraining`), in [`crate::cluster::ClusterReport::events`].

use crate::{BoxError, Result};

/// What a scripted fault event does to its instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The instance dies: in-flight work fails and is re-routed.
    Kill,
    /// The instance rejoins empty and cold.
    Restart,
}

/// One scripted membership change at a virtual cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Virtual cycle the event fires at.
    pub at: u64,
    /// Target instance (an index into the base cluster).
    pub instance: usize,
    /// Kill or restart.
    pub action: FaultAction,
}

/// Queue-depth-driven elasticity thresholds (in requests per accepting
/// instance).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AutoscalePolicy {
    /// Spawn a fresh instance when the accepting queues hold more than
    /// this many requests per accepting instance.
    pub spawn_above: u64,
    /// Drain the highest-indexed spawned instance when the accepting
    /// queues hold fewer than this many requests per accepting instance
    /// (0 = never drain).
    pub drain_below: u64,
}

/// A deterministic churn script: scripted kill/restart events plus an
/// optional autoscale policy. The default plan is empty — no churn, and
/// behavior bit-identical to a cluster without failure injection.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Scripted events, sorted by `(at, instance)`.
    pub events: Vec<FaultEvent>,
    /// Optional queue-depth elasticity.
    pub autoscale: Option<AutoscalePolicy>,
}

impl FaultPlan {
    /// `true` when the plan injects nothing (no events, no autoscale).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.autoscale.is_none()
    }

    /// Validates the plan against the base cluster size.
    ///
    /// # Errors
    ///
    /// Rejects events out of `(at, instance)` order, events targeting an
    /// instance outside the base cluster, a per-instance history that is
    /// not an alternation kill → restart → kill → … at strictly
    /// increasing times, and autoscale thresholds with `spawn_above`
    /// zero or not above `drain_below`.
    pub fn validate(&self, instances: usize) -> Result<()> {
        for pair in self.events.windows(2) {
            if (pair[1].at, pair[1].instance) <= (pair[0].at, pair[0].instance) {
                return Err(BoxError::from(format!(
                    "fault events must be sorted by (time, instance): {:?} then {:?}",
                    pair[0], pair[1]
                )));
            }
        }
        for instance in 0..instances {
            let mut expected = FaultAction::Kill;
            for ev in self.events.iter().filter(|e| e.instance == instance) {
                if ev.action != expected {
                    return Err(BoxError::from(format!(
                        "instance {instance}: fault history must alternate kill/restart \
                         starting with a kill (unexpected {:?} at cycle {})",
                        ev.action, ev.at
                    )));
                }
                expected = match expected {
                    FaultAction::Kill => FaultAction::Restart,
                    FaultAction::Restart => FaultAction::Kill,
                };
            }
        }
        if let Some(ev) = self.events.iter().find(|e| e.instance >= instances) {
            return Err(BoxError::from(format!(
                "fault event targets instance {} but the base cluster has {instances}",
                ev.instance
            )));
        }
        if let Some(auto) = &self.autoscale {
            if auto.spawn_above == 0 || auto.spawn_above <= auto.drain_below {
                return Err(BoxError::from(format!(
                    "autoscale thresholds need spawn_above > drain_below and spawn_above >= 1 \
                     (got {}:{})",
                    auto.spawn_above, auto.drain_below
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64, instance: usize, action: FaultAction) -> FaultEvent {
        FaultEvent { at, instance, action }
    }

    #[test]
    fn empty_plan_is_valid_and_empty() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        assert!(plan.validate(4).is_ok());
    }

    #[test]
    fn kill_restart_alternation_validates() {
        let plan = FaultPlan {
            events: vec![
                ev(10, 1, FaultAction::Kill),
                ev(50, 1, FaultAction::Restart),
                ev(80, 1, FaultAction::Kill),
            ],
            autoscale: None,
        };
        assert!(!plan.is_empty());
        assert!(plan.validate(2).is_ok());
    }

    #[test]
    fn out_of_order_or_misaligned_histories_are_rejected() {
        let restart_first =
            FaultPlan { events: vec![ev(10, 0, FaultAction::Restart)], autoscale: None };
        assert!(restart_first.validate(1).is_err());
        let double_kill = FaultPlan {
            events: vec![ev(10, 0, FaultAction::Kill), ev(20, 0, FaultAction::Kill)],
            autoscale: None,
        };
        assert!(double_kill.validate(1).is_err());
        let unsorted = FaultPlan {
            events: vec![ev(20, 0, FaultAction::Kill), ev(10, 1, FaultAction::Kill)],
            autoscale: None,
        };
        assert!(unsorted.validate(2).is_err());
        let same_cycle = FaultPlan {
            events: vec![ev(10, 0, FaultAction::Kill), ev(10, 0, FaultAction::Restart)],
            autoscale: None,
        };
        assert!(same_cycle.validate(1).is_err());
    }

    #[test]
    fn events_must_target_base_instances() {
        let plan = FaultPlan { events: vec![ev(10, 3, FaultAction::Kill)], autoscale: None };
        assert!(plan.validate(3).is_err());
        assert!(plan.validate(4).is_ok());
    }

    #[test]
    fn autoscale_thresholds_must_be_ordered() {
        let bad = |spawn_above, drain_below| FaultPlan {
            events: Vec::new(),
            autoscale: Some(AutoscalePolicy { spawn_above, drain_below }),
        };
        assert!(bad(0, 0).validate(1).is_err());
        assert!(bad(2, 2).validate(1).is_err());
        assert!(bad(2, 3).validate(1).is_err());
        assert!(bad(4, 1).validate(1).is_ok());
        assert!(!bad(4, 1).is_empty());
    }
}
