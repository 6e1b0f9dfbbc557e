//! The event model: virtual-time-stamped scheduling decisions
//! ([`Event`]/[`EventKind`]) and the sink abstraction the scheduler core
//! emits into ([`EventSink`], [`NullSink`], [`Recorder`]). The taxonomy is
//! one table, `event_kinds!`, which also gives each kind its name, its
//! payload visitor ([`EventKind::for_each_field`]) and its decoder
//! ([`EventKind::decode`]).

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

/// One payload field's value, as [`EventKind::for_each_field`] gives it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Field {
    /// An index, a sequence number, a cycle count or a byte count.
    Count(u64),
    /// A yes/no fact.
    Flag(bool),
}

/// Where [`EventKind::decode`] reads a kind's fields from, each by its
/// name in the taxonomy. Each read fails with the source's error for a
/// missing or mistyped field.
pub trait FieldReader {
    /// What a failed read returns.
    type Error;
    /// Reads the numeric field `name`.
    fn count(&mut self, name: &'static str) -> Result<u64, Self::Error>;
    /// Reads the boolean field `name`.
    fn flag(&mut self, name: &'static str) -> Result<bool, Self::Error>;
}

/// A payload field type: a count (`usize`, `u64`) or a flag (`bool`).
trait Payload: Sized {
    fn field(self) -> Field;
    fn read<R: FieldReader>(reader: &mut R, name: &'static str) -> Result<Self, R::Error>;
}

impl Payload for usize {
    fn field(self) -> Field {
        Field::Count(self as u64)
    }
    fn read<R: FieldReader>(reader: &mut R, name: &'static str) -> Result<usize, R::Error> {
        reader.count(name).map(|n| n as usize)
    }
}

impl Payload for u64 {
    fn field(self) -> Field {
        Field::Count(self)
    }
    fn read<R: FieldReader>(reader: &mut R, name: &'static str) -> Result<u64, R::Error> {
        reader.count(name)
    }
}

impl Payload for bool {
    fn field(self) -> Field {
        Field::Flag(self)
    }
    fn read<R: FieldReader>(reader: &mut R, name: &'static str) -> Result<bool, R::Error> {
        reader.flag(name)
    }
}

/// Declares the taxonomy from one table of rows `Variant = "name" {
/// fields }`: the enum, each kind's stable name, the name list, the
/// payload visitor and the decoder, so a kind's name and fields are
/// spelled once.
macro_rules! event_kinds {
    (
        $(#[$meta:meta])*
        pub enum EventKind {
            $(
                $(#[$doc:meta])*
                $variant:ident = $name:literal {
                    $($(#[$field_doc:meta])* $field:ident: $ty:ty,)*
                },
            )*
        }
    ) => {
        $(#[$meta])*
        pub enum EventKind {
            $($(#[$doc])* $variant { $($(#[$field_doc])* $field: $ty,)* },)*
        }

        impl EventKind {
            /// Every kind's stable name, in declaration order.
            pub const NAMES: &'static [&'static str] = &[$($name),*];

            /// Stable snake_case name of the event kind (exporters key on it).
            pub fn name(&self) -> &'static str {
                match self {
                    $(EventKind::$variant { .. } => $name,)*
                }
            }

            /// Calls `f` with each payload field's name and value, in
            /// declaration order.
            pub fn for_each_field(&self, mut f: impl FnMut(&'static str, Field)) {
                match *self {
                    $(EventKind::$variant { $($field),* } => {
                        $(f(stringify!($field), Payload::field($field));)*
                    })*
                }
            }

            /// The kind named `name`, its fields read from `reader` in
            /// declaration order; `Ok(None)` when no kind has that name.
            ///
            /// # Errors
            ///
            /// The first field `reader` fails to read.
            pub fn decode<R: FieldReader>(
                name: &str,
                reader: &mut R,
            ) -> Result<Option<EventKind>, R::Error> {
                Ok(Some(match name {
                    $($name => EventKind::$variant {
                        $($field: Payload::read(reader, stringify!($field))?,)*
                    },)*
                    _ => return Ok(None),
                }))
            }
        }
    };
}

event_kinds! {
    /// The event taxonomy of the serving stack: request admission, batch
    /// lifecycle, instance membership churn, tiered-weight-store traffic, and
    /// queue-depth samples.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum EventKind {
        /// A request joined an instance queue (first admission or kill
        /// re-route — a re-routed victim is re-admitted at the kill cycle).
        Admitted = "admitted" {
            /// Arrival sequence number.
            id: usize,
            /// Model the request targets.
            model: usize,
            /// Instance whose queue it joined.
            instance: usize,
        },
        /// An arrival bounced off a full queue (or nothing was accepting).
        Rejected = "rejected" {
            /// Arrival sequence number.
            id: usize,
            /// Model the request targeted.
            model: usize,
        },
        /// A kill victim could not be re-routed — terminally lost.
        Lost = "lost" {
            /// Arrival sequence number.
            id: usize,
            /// Model the request targeted.
            model: usize,
        },
        /// Queue depth of an instance right after an admission — the
        /// taxonomy's queue-depth sample.
        QueueDepth = "queue_depth" {
            /// Sampled instance.
            instance: usize,
            /// Requests waiting (including the one just admitted).
            depth: usize,
        },
        /// A batch was formed (members chosen, start decided).
        BatchFormed = "batch_formed" {
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
        BatchLaunched = "batch_launched" {
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
        BatchCompleted = "batch_completed" {
            /// Cluster-wide launch sequence number.
            seq: u64,
            /// Instance the batch ran on.
            instance: usize,
            /// Members served.
            size: usize,
        },
        /// A scripted kill caught the batch in flight (`at` = kill cycle);
        /// none of its members complete here.
        BatchKilled = "batch_killed" {
            /// Cluster-wide launch sequence number.
            seq: u64,
            /// Instance the batch was running on.
            instance: usize,
        },
        /// One request served to completion (`at` = completion cycle).
        Served = "served" {
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
        InstanceKilled = "instance_killed" {
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
        InstanceRestarted = "instance_restarted" {
            /// The restarted instance.
            instance: usize,
        },
        /// Autoscaling spawned a fresh instance under queue pressure.
        InstanceSpawned = "instance_spawned" {
            /// The new instance's index.
            instance: usize,
        },
        /// Autoscaling told an instance to drain (stop accepting).
        InstanceDraining = "instance_draining" {
            /// The draining instance.
            instance: usize,
        },
        /// A weight admission hit the top (serving) tier.
        TierHit = "tier_hit" {
            /// Instance whose store was asked.
            instance: usize,
            /// Model admitted.
            model: usize,
        },
        /// A weight admission promoted the model from a lower tier.
        TierPromoted = "tier_promoted" {
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
        TierDemoted = "tier_demoted" {
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
        TierColdFetch = "tier_cold_fetch" {
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
        TierStreamed = "tier_streamed" {
            /// Instance whose store was asked.
            instance: usize,
            /// Model streamed.
            model: usize,
            /// Serialized haul cost in cycles.
            cycles: u64,
        },
    }
}

impl EventKind {
    /// The instance the event concerns, when it concerns one: its
    /// `instance` field.
    pub fn instance(&self) -> Option<usize> {
        let mut instance = None;
        self.for_each_field(|name, value| {
            if let ("instance", Field::Count(n)) = (name, value) {
                instance = Some(n as usize);
            }
        });
        instance
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
