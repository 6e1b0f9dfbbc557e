//! The event model: virtual-time-stamped scheduling decisions
//! ([`Event`]/[`EventKind`]) and the sink abstraction the scheduler core
//! emits into ([`EventSink`], [`NullSink`], [`Recorder`]).

/// One observed scheduling decision, stamped with the virtual cycle it
/// happened at. Stream order is emission order (deterministic); `at` is
/// the virtual time the event describes, which may run behind the stream
/// position (a batch's completion is known — and emitted — at launch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Virtual cycle the event describes.
    pub at: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The event taxonomy of the serving stack: request admission, batch
/// lifecycle, instance membership churn, tiered-weight-store traffic, and
/// queue-depth samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A request joined an instance queue (first admission or kill
    /// re-route — a re-routed victim is re-admitted at the kill cycle).
    Admitted {
        /// Arrival sequence number.
        id: usize,
        /// Model the request targets.
        model: usize,
        /// Instance whose queue it joined.
        instance: usize,
    },
    /// An arrival bounced off a full queue (or nothing was accepting).
    Rejected {
        /// Arrival sequence number.
        id: usize,
        /// Model the request targeted.
        model: usize,
    },
    /// A kill victim could not be re-routed — terminally lost.
    Lost {
        /// Arrival sequence number.
        id: usize,
        /// Model the request targeted.
        model: usize,
    },
    /// Queue depth of an instance right after an admission — the
    /// taxonomy's queue-depth sample.
    QueueDepth {
        /// Sampled instance.
        instance: usize,
        /// Requests waiting (including the one just admitted).
        depth: usize,
    },
    /// A batch was formed (members chosen, start decided).
    BatchFormed {
        /// Cluster-wide launch sequence number.
        seq: u64,
        /// Instance the batch runs on.
        instance: usize,
        /// The batch's (single) model.
        model: usize,
        /// Members in the batch.
        size: usize,
    },
    /// A formed batch was launched; its completion cycle is already
    /// decided (virtual execution is table-driven).
    BatchLaunched {
        /// Cluster-wide launch sequence number.
        seq: u64,
        /// Instance the batch runs on.
        instance: usize,
        /// The batch's (single) model.
        model: usize,
        /// Members in the batch.
        size: usize,
        /// Virtual completion cycle.
        done: u64,
    },
    /// A launched batch ran to completion (`at` = completion cycle).
    BatchCompleted {
        /// Cluster-wide launch sequence number.
        seq: u64,
        /// Instance the batch ran on.
        instance: usize,
        /// Members served.
        size: usize,
    },
    /// A scripted kill caught the batch in flight (`at` = kill cycle);
    /// none of its members complete here.
    BatchKilled {
        /// Cluster-wide launch sequence number.
        seq: u64,
        /// Instance the batch was running on.
        instance: usize,
    },
    /// One request served to completion (`at` = completion cycle).
    Served {
        /// Arrival sequence number.
        id: usize,
        /// Model served.
        model: usize,
        /// Instance that served it.
        instance: usize,
        /// Launch sequence number of the batch that carried it — the
        /// analyzer's link from a request to its batch span.
        batch: u64,
        /// Cycle the request joined its final queue (arrival, or the
        /// kill cycle for a re-routed victim) — with `latency` it bounds
        /// every lifetime segment the analyzer attributes.
        enqueued: u64,
        /// Completion − arrival, in cycles.
        latency: u64,
        /// Whether completion overran the request's deadline.
        missed: bool,
    },
    /// A scripted kill took an instance down.
    InstanceKilled {
        /// The killed instance.
        instance: usize,
        /// Members of the in-flight batch the kill caught.
        in_flight: u64,
        /// Victims re-routed to surviving instances.
        rerouted: u64,
        /// Victims with nowhere to go.
        lost: u64,
    },
    /// A scripted restart brought an instance back (empty, cold).
    InstanceRestarted {
        /// The restarted instance.
        instance: usize,
    },
    /// Autoscaling spawned a fresh instance under queue pressure.
    InstanceSpawned {
        /// The new instance's index.
        instance: usize,
    },
    /// Autoscaling told an instance to drain (stop accepting).
    InstanceDraining {
        /// The draining instance.
        instance: usize,
    },
    /// A weight admission hit the top (serving) tier.
    TierHit {
        /// Instance whose store was asked.
        instance: usize,
        /// Model admitted.
        model: usize,
    },
    /// A weight admission promoted the model from a lower tier.
    TierPromoted {
        /// Instance whose store was asked.
        instance: usize,
        /// Model admitted.
        model: usize,
        /// Tier the model was parked in (0 = top).
        from: usize,
        /// Serialized promotion-walk cost in cycles.
        cycles: u64,
        /// Model footprint moved, in bytes (the occupancy delta).
        bytes: u64,
    },
    /// An eviction pushed a model down one tier (or off the bottom —
    /// then `dropped` is set, `to` is the tier count, and the bytes are
    /// simply dropped).
    TierDemoted {
        /// Instance whose store demoted.
        instance: usize,
        /// Model demoted.
        model: usize,
        /// Destination tier index (the tier count when `dropped`).
        to: usize,
        /// Model footprint moved (or dropped), in bytes.
        bytes: u64,
        /// Whether the bytes fell off the bottom of the stack (capacity
        /// drop or restart purge) instead of landing in a tier.
        dropped: bool,
    },
    /// A weight admission found the model in no tier and hauled it up
    /// from the bottom.
    TierColdFetch {
        /// Instance whose store was asked.
        instance: usize,
        /// Model admitted.
        model: usize,
        /// Serialized haul cost in cycles.
        cycles: u64,
        /// Model footprint installed, in bytes (the occupancy delta).
        bytes: u64,
    },
    /// A model too large for the top tier streamed past it.
    TierStreamed {
        /// Instance whose store was asked.
        instance: usize,
        /// Model streamed.
        model: usize,
        /// Serialized haul cost in cycles.
        cycles: u64,
    },
}

impl EventKind {
    /// Stable snake_case name of the event kind (exporters key on it).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Admitted { .. } => "admitted",
            EventKind::Rejected { .. } => "rejected",
            EventKind::Lost { .. } => "lost",
            EventKind::QueueDepth { .. } => "queue_depth",
            EventKind::BatchFormed { .. } => "batch_formed",
            EventKind::BatchLaunched { .. } => "batch_launched",
            EventKind::BatchCompleted { .. } => "batch_completed",
            EventKind::BatchKilled { .. } => "batch_killed",
            EventKind::Served { .. } => "served",
            EventKind::InstanceKilled { .. } => "instance_killed",
            EventKind::InstanceRestarted { .. } => "instance_restarted",
            EventKind::InstanceSpawned { .. } => "instance_spawned",
            EventKind::InstanceDraining { .. } => "instance_draining",
            EventKind::TierHit { .. } => "tier_hit",
            EventKind::TierPromoted { .. } => "tier_promoted",
            EventKind::TierDemoted { .. } => "tier_demoted",
            EventKind::TierColdFetch { .. } => "tier_cold_fetch",
            EventKind::TierStreamed { .. } => "tier_streamed",
        }
    }

    /// The instance the event concerns, when it concerns one.
    pub fn instance(&self) -> Option<usize> {
        match *self {
            EventKind::Admitted { instance, .. }
            | EventKind::QueueDepth { instance, .. }
            | EventKind::BatchFormed { instance, .. }
            | EventKind::BatchLaunched { instance, .. }
            | EventKind::BatchCompleted { instance, .. }
            | EventKind::BatchKilled { instance, .. }
            | EventKind::Served { instance, .. }
            | EventKind::InstanceKilled { instance, .. }
            | EventKind::InstanceRestarted { instance }
            | EventKind::InstanceSpawned { instance }
            | EventKind::InstanceDraining { instance }
            | EventKind::TierHit { instance, .. }
            | EventKind::TierPromoted { instance, .. }
            | EventKind::TierDemoted { instance, .. }
            | EventKind::TierColdFetch { instance, .. }
            | EventKind::TierStreamed { instance, .. } => Some(instance),
            EventKind::Rejected { .. } | EventKind::Lost { .. } => None,
        }
    }
}

/// Where the scheduler core sends its events.
pub trait EventSink {
    /// Whether the sink wants events at all. The serving entry points
    /// check this once up front and skip the entire observed path when
    /// `false`, keeping the hot path zero-cost with the default sink.
    fn enabled(&self) -> bool {
        true
    }

    /// Records one event.
    fn record(&mut self, event: Event);
}

/// The default sink: tracing off, zero cost.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl EventSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _event: Event) {}
}

/// A sink that keeps every event in order — the exporter's input and the
/// subject of the byte-identical determinism property tests.
#[derive(Debug, Default, Clone)]
pub struct Recorder {
    events: Vec<Event>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Consumes the recorder into its event stream.
    pub fn into_events(self) -> Vec<Event> {
        self.events
    }

    /// Recorded event count.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl EventSink for Recorder {
    fn record(&mut self, event: Event) {
        self.events.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled_and_recorder_keeps_order() {
        assert!(!NullSink.enabled());
        let mut rec = Recorder::new();
        assert!(rec.enabled());
        assert!(rec.is_empty());
        rec.record(Event { at: 5, kind: EventKind::Rejected { id: 0, model: 1 } });
        rec.record(Event { at: 9, kind: EventKind::InstanceRestarted { instance: 2 } });
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.events()[0].at, 5);
        assert_eq!(rec.events()[1].kind.name(), "instance_restarted");
        let events = rec.into_events();
        assert_eq!(events[1].kind.instance(), Some(2));
        assert_eq!(events[0].kind.instance(), None);
    }
}
