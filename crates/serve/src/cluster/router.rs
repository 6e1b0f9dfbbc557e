//! Request routing across cluster instances.
//!
//! A router decides, at each request's arrival, which instance's queue it
//! joins. Decisions are pure functions of the request sequence number, the
//! target model, and deterministic per-instance state ([`InstanceView`])
//! read by the serial event loop — ties always break
//! toward the lowest instance index — so a routed trace is bit-identical
//! across runs and worker counts.

/// The router's snapshot of one instance at a routing decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstanceView {
    /// Requests currently waiting in the instance's queue.
    pub queued: usize,
    /// Whether the request's model is currently resident in the instance's
    /// weight buffer (always `false` with residency modeling disabled).
    pub resident: bool,
    /// Whether the instance accepts new requests. Killed instances and
    /// draining autoscaled instances ([`crate::fault`]) are skipped by
    /// every policy; without failure injection this is always `true`.
    pub accepting: bool,
}

/// Sharding/routing policy of the cluster front.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterPolicy {
    /// Request `i` goes to instance `i % n`: oblivious, perfectly fair in
    /// request count, and `se serve`'s policy (its 1-instance cluster has
    /// nothing to choose between).
    RoundRobin,
    /// Join the instance with the fewest waiting requests (tie: lowest
    /// index) — the classical load-balancing heuristic.
    JoinShortestQueue,
    /// Weight-residency-aware placement: among instances holding the
    /// model's weights resident, join the shortest queue; with none (or
    /// residency modeling disabled), fall back to the model's home
    /// instance `model % n`. Keeps each model's requests — and therefore
    /// its weight-buffer residency — pinned to few instances, trading load
    /// balance for fewer model-switch refetches.
    ModelAffinity,
}

impl RouterPolicy {
    /// Parses a CLI name (`rr`/`round-robin`, `jsq`/`shortest`,
    /// `affinity`/`model-affinity`).
    pub fn parse(name: &str) -> Option<RouterPolicy> {
        match name {
            "rr" | "round-robin" | "roundrobin" => Some(RouterPolicy::RoundRobin),
            "jsq" | "shortest" | "join-shortest-queue" => Some(RouterPolicy::JoinShortestQueue),
            "affinity" | "model-affinity" => Some(RouterPolicy::ModelAffinity),
            _ => None,
        }
    }

    /// Canonical display name.
    pub fn name(&self) -> &'static str {
        match self {
            RouterPolicy::RoundRobin => "round-robin",
            RouterPolicy::JoinShortestQueue => "join-shortest-queue",
            RouterPolicy::ModelAffinity => "model-affinity",
        }
    }

    /// Routes the `seq`-th arrival (counting every arrival, including ones
    /// later rejected by a full queue) targeting `model` across the given
    /// instance views. Only accepting instances are candidates; ties break
    /// toward the lowest instance index, and round-robin / affinity homes
    /// count over the accepting subset in index order — so the decision
    /// stays a deterministic pure function of the snapshot under churn.
    /// Returns `None` when no instance accepts (the whole cluster is
    /// down), in which case the arrival is rejected.
    pub fn route(&self, seq: u64, model: usize, views: &[InstanceView]) -> Option<usize> {
        self.route_over(seq, model, views.len(), |i| views[i])
    }

    /// [`RouterPolicy::route`] over `instances` views produced on demand by
    /// `view(i)`: the scheduler routes straight off its instances, with no
    /// snapshot collected and nothing allocated.
    pub(crate) fn route_over(
        &self,
        seq: u64,
        model: usize,
        instances: usize,
        view: impl Fn(usize) -> InstanceView,
    ) -> Option<usize> {
        let accepting = || (0..instances).filter(|&i| view(i).accepting);
        // The `n`-th accepting instance, counting modulo their number.
        let nth = |n: u64| {
            let count = accepting().count() as u64;
            (count > 0).then(|| accepting().nth((n % count) as usize)).flatten()
        };
        let shortest = |resident_only: bool| {
            (0..instances)
                .map(|i| (i, view(i)))
                .filter(|(_, v)| v.accepting && (v.resident || !resident_only))
                .min_by_key(|&(i, v)| (v.queued, i))
                .map(|(i, _)| i)
        };
        match self {
            RouterPolicy::RoundRobin => nth(seq),
            RouterPolicy::JoinShortestQueue => shortest(false),
            RouterPolicy::ModelAffinity => shortest(true).or_else(|| nth(model as u64)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn views(queued: &[usize], resident: &[bool]) -> Vec<InstanceView> {
        queued
            .iter()
            .zip(resident)
            .map(|(&queued, &resident)| InstanceView { queued, resident, accepting: true })
            .collect()
    }

    #[test]
    fn round_robin_cycles_by_sequence() {
        let v = views(&[9, 0, 0], &[false; 3]);
        let rr = RouterPolicy::RoundRobin;
        assert_eq!(rr.route(0, 0, &v), Some(0));
        assert_eq!(rr.route(1, 0, &v), Some(1));
        assert_eq!(rr.route(5, 7, &v), Some(2), "model is irrelevant to round-robin");
    }

    #[test]
    fn jsq_picks_the_shortest_with_low_index_ties() {
        let jsq = RouterPolicy::JoinShortestQueue;
        assert_eq!(jsq.route(0, 0, &views(&[3, 1, 2], &[false; 3])), Some(1));
        assert_eq!(
            jsq.route(0, 0, &views(&[2, 1, 1], &[false; 3])),
            Some(1),
            "tie -> lowest index"
        );
    }

    #[test]
    fn affinity_prefers_resident_instances_then_home() {
        let aff = RouterPolicy::ModelAffinity;
        // Model resident on 1 and 2: shortest of those wins, even though
        // instance 0 is idle.
        assert_eq!(aff.route(0, 5, &views(&[0, 4, 2], &[false, true, true])), Some(2));
        // Nothing resident: home instance model % n.
        assert_eq!(aff.route(0, 5, &views(&[0, 4, 2], &[false; 3])), Some(2));
        assert_eq!(aff.route(0, 4, &views(&[9, 4, 2], &[false; 3])), Some(1));
    }

    #[test]
    fn dead_instances_are_skipped_with_deterministic_tie_breaks() {
        let mut v = views(&[0, 1, 2], &[false, true, true]);
        v[1].accepting = false;
        // Round-robin counts over the accepting subset {0, 2} in order.
        let rr = RouterPolicy::RoundRobin;
        assert_eq!(rr.route(0, 0, &v), Some(0));
        assert_eq!(rr.route(1, 0, &v), Some(2));
        assert_eq!(rr.route(2, 0, &v), Some(0));
        // JSQ never picks the dead shortest queue.
        let mut loaded = views(&[5, 0, 2], &[false; 3]);
        loaded[1].accepting = false;
        assert_eq!(RouterPolicy::JoinShortestQueue.route(0, 0, &loaded), Some(2));
        // Affinity ignores residency on a dead instance: of {1, 2} only 2
        // accepts, so the model lands there.
        assert_eq!(RouterPolicy::ModelAffinity.route(0, 1, &v), Some(2));
        // With no accepting resident instance, the home counts over the
        // accepting subset: model 1 of {0, 2} is instance 2.
        let mut none_resident = views(&[0, 1, 2], &[false; 3]);
        none_resident[1].accepting = false;
        assert_eq!(RouterPolicy::ModelAffinity.route(0, 1, &none_resident), Some(2));
        // A fully-down cluster routes nowhere.
        let mut down = views(&[0, 0], &[false; 2]);
        down[0].accepting = false;
        down[1].accepting = false;
        for policy in
            [RouterPolicy::RoundRobin, RouterPolicy::JoinShortestQueue, RouterPolicy::ModelAffinity]
        {
            assert_eq!(policy.route(3, 1, &down), None);
        }
    }

    #[test]
    fn tie_breaks_stay_lowest_index_with_dead_and_dynamic_instances_coexisting() {
        // The shape mid-churn: two static instances (0 dead, 1 alive),
        // two autoscaled ones appended at 2 and 3 (3 draining). The
        // router sees only views; a spawned instance is just a trailing
        // entry and a draining or dead one an `accepting = false` hole.
        let mut v = views(&[4, 2, 2, 0], &[false, false, true, true]);
        v[0].accepting = false; // killed static instance
        v[3].accepting = false; // draining autoscaled instance

        // JSQ: queues tie at 2 between static 1 and dynamic 2 — the
        // lowest accepting index wins, dead/draining holes never count.
        assert_eq!(RouterPolicy::JoinShortestQueue.route(0, 0, &v), Some(1));

        // Round-robin counts over the accepting subset {1, 2} in index
        // order, so dynamic instance 2 takes every odd arrival.
        let rr = RouterPolicy::RoundRobin;
        assert_eq!(rr.route(0, 0, &v), Some(1));
        assert_eq!(rr.route(1, 0, &v), Some(2));
        assert_eq!(rr.route(2, 0, &v), Some(1));

        // Affinity: residency on the draining instance 3 is invisible;
        // the dynamic instance 2 is the only accepting resident one.
        assert_eq!(RouterPolicy::ModelAffinity.route(0, 0, &v), Some(2));
        // With both resident instances accepting, the queue tie at 2
        // breaks toward the lower index even though it is dynamic.
        v[3].accepting = true;
        v[3].queued = 2;
        assert_eq!(RouterPolicy::ModelAffinity.route(0, 0, &v), Some(2));
        // And with no resident instance at all, the home slot counts
        // over the accepting subset {1, 2, 3}: model 4 % 3 -> slot 1,
        // which is dynamic instance 2.
        let mut none = v.clone();
        for view in &mut none {
            view.resident = false;
        }
        assert_eq!(RouterPolicy::ModelAffinity.route(0, 4, &none), Some(2));
    }

    #[test]
    fn parse_accepts_aliases_and_rejects_unknowns() {
        assert_eq!(RouterPolicy::parse("rr"), Some(RouterPolicy::RoundRobin));
        assert_eq!(RouterPolicy::parse("round-robin"), Some(RouterPolicy::RoundRobin));
        assert_eq!(RouterPolicy::parse("jsq"), Some(RouterPolicy::JoinShortestQueue));
        assert_eq!(RouterPolicy::parse("model-affinity"), Some(RouterPolicy::ModelAffinity));
        assert_eq!(RouterPolicy::parse("nope"), None);
        assert_eq!(RouterPolicy::JoinShortestQueue.name(), "join-shortest-queue");
    }
}
