//! Exporters for the observability layer (`se_obs`): Chrome-trace /
//! Perfetto `traceEvents` JSON and Prometheus-style text exposition,
//! built on the same hand-rolled [`crate::json`] emitter as the bench
//! reports.
//!
//! Both exports are **deterministic renderings of the virtual-time event
//! stream**: the stream is byte-identical across `--sim-parallelism`
//! values (see `se_serve`'s `tests/obs_stream.rs`), and the exporters add
//! no wall-clock or environment-dependent fields, so the files inherit
//! that byte identity. Load a `--trace-out` file at <https://ui.perfetto.dev> (or
//! `chrome://tracing`); one trace "process" per stream (a cluster lane
//! or a served model), one "thread" per instance, one timestamp tick
//! per virtual cycle.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Display;
use std::path::Path;

use se_obs::{
    Event, EventKind, EventSink, Field, FieldReader, MetricsRegistry, NullSink, Recorder,
};

use crate::args::Flags;
use crate::json::Json;

/// Builds a Chrome-trace document from named event streams (one trace
/// `pid` per stream, in order — e.g. one per cluster lane). Batch
/// executions become `ph: "X"` duration spans on their instance's
/// thread, queue-depth samples become `ph: "C"` counter tracks, and
/// everything else — admissions, per-request completions, faults, tier
/// traffic — becomes a `ph: "i"` instant carrying its full payload in
/// `args`. Every event kind lands in the trace, so the document is a
/// lossless encoding of the stream: [`events_from_chrome_trace`] is its
/// exact inverse, which is what lets `se obs` re-analyze a `--trace-out`
/// artifact long after the run.
pub fn chrome_trace(streams: &[(String, &[Event])]) -> Json {
    let mut events = Vec::new();
    for (pid, (label, stream)) in streams.iter().enumerate() {
        events.push(metadata(pid, 0, "process_name", label));
        let tids: BTreeSet<usize> = stream.iter().filter_map(|e| e.kind.instance()).collect();
        for tid in tids {
            events.push(metadata(pid, tid, "thread_name", &format!("instance {tid}")));
        }
    }
    for (pid, (_, stream)) in streams.iter().enumerate() {
        events.extend(stream.iter().map(|event| trace_event(pid, event)));
    }
    Json::Obj(vec![
        ("traceEvents".to_string(), Json::Arr(events)),
        ("displayTimeUnit".to_string(), Json::Str("ms".to_string())),
    ])
}

/// Renders named event streams as Prometheus-style text exposition: each
/// stream is folded through [`MetricsRegistry::ingest`] under a
/// `stream="<label>"` label, so lanes stay comparable side by side.
pub fn metrics_text(streams: &[(String, &[Event])]) -> String {
    let mut registry = MetricsRegistry::new();
    for (label, stream) in streams {
        registry.ingest(stream, &[("stream", label)]);
    }
    registry.render()
}

/// Writes `content` to `path` (shared by the `--trace-out` /
/// `--metrics-out` call sites so the error message is uniform).
///
/// # Errors
///
/// Propagates the I/O error, naming the file.
pub fn write_export(path: &Path, content: &str) -> crate::Result<()> {
    std::fs::write(path, content).map_err(|e| format!("writing {}: {e}", path.display()).into())
}

/// The `--trace-out` / `--metrics-out` recording shared by `se serve`,
/// `se cluster` and `se bench serve`: each run narrates its scheduling
/// decisions into one labelled stream (one trace pid per stream) when an
/// export was asked for, and into a disabled sink, which builds no
/// events, otherwise. Runs fan out through [`Recording::run_ordered`].
pub(crate) struct Recording<'a> {
    trace_out: Option<&'a Path>,
    metrics_out: Option<&'a Path>,
    streams: Vec<(String, Vec<Event>)>,
}

impl<'a> Recording<'a> {
    /// An empty recording for the exports `flags` ask for.
    pub fn new(flags: &'a Flags) -> Self {
        Recording {
            trace_out: flags.trace_out.as_deref(),
            metrics_out: flags.metrics_out.as_deref(),
            streams: Vec::new(),
        }
    }

    /// Runs `f(i, sink)` for every `labels[i]` on up to `workers` threads
    /// ([`se_core::pipeline::try_run_ordered`]), each job with its own
    /// sink: a fresh [`Recorder`] when an export was asked for, a
    /// [`NullSink`] otherwise. Results come back, and each job's events
    /// are kept as the stream of its label, in label order, so the
    /// exports are the same bytes at any worker count.
    ///
    /// # Errors
    ///
    /// The failure of the lowest-indexed failing job (a serial run's
    /// error); nothing is recorded then.
    pub fn run_ordered<L, T>(
        &mut self,
        labels: &[L],
        workers: usize,
        f: impl Fn(usize, &mut dyn EventSink) -> crate::Result<T> + Sync,
    ) -> crate::Result<Vec<T>>
    where
        L: Display + Sync,
        T: Send,
    {
        let record = self.trace_out.is_some() || self.metrics_out.is_some();
        let runs =
            se_core::pipeline::try_run_ordered(labels, workers, |i, _| -> crate::Result<_> {
                if !record {
                    return Ok((f(i, &mut NullSink)?, None));
                }
                let mut recorder = Recorder::new();
                let out = f(i, &mut recorder)?;
                Ok((out, Some(recorder.into_events())))
            })?;
        let mut results = Vec::with_capacity(runs.len());
        for (label, (out, events)) in labels.iter().zip(runs) {
            if let Some(events) = events {
                self.streams.push((label.to_string(), events));
            }
            results.push(out);
        }
        Ok(results)
    }

    /// Renders the recorded streams into whichever exports were asked
    /// for. Confirmation notes go to stderr at info level
    /// (`SE_LOG=info`), never stdout: report output stays byte-identical
    /// whether or not exports were written.
    ///
    /// # Errors
    ///
    /// Propagates file-write failures.
    pub fn write(self) -> crate::Result<()> {
        let views: Vec<(String, &[Event])> =
            self.streams.iter().map(|(name, events)| (name.clone(), events.as_slice())).collect();
        if let Some(path) = self.trace_out {
            write_export(path, &chrome_trace(&views).render())?;
            se_core::se_info!("wrote Chrome-trace JSON to {}", path.display());
        }
        if let Some(path) = self.metrics_out {
            write_export(path, &metrics_text(&views))?;
            se_core::se_info!("wrote metrics exposition to {}", path.display());
        }
        Ok(())
    }
}

fn num(n: u64) -> Json {
    Json::Num(n as f64)
}

fn metadata(pid: usize, tid: usize, name: &str, arg_name: &str) -> Json {
    Json::Obj(vec![
        ("name".to_string(), Json::Str(name.to_string())),
        ("ph".to_string(), Json::Str("M".to_string())),
        ("pid".to_string(), num(pid as u64)),
        ("tid".to_string(), num(tid as u64)),
        (
            "args".to_string(),
            Json::Obj(vec![("name".to_string(), Json::Str(arg_name.to_string()))]),
        ),
    ])
}

/// One trace event, by one rule: every kind is an instant (`i`) named by
/// its kind, except the batch span (`X`) and the queue-depth counter
/// (`C`). `args` hold every payload field except `instance`, which is the
/// `tid`, and the span's `done`, which is its `dur`.
fn trace_event(pid: usize, event: &Event) -> Json {
    let kind = &event.kind;
    let (name, ph) = match *kind {
        EventKind::BatchLaunched { model, size, .. } => (format!("batch m{model} x{size}"), "X"),
        EventKind::QueueDepth { instance, .. } => (format!("{} i{instance}", kind.name()), "C"),
        _ => (kind.name().to_string(), "i"),
    };
    let (mut tid, mut dur, mut args) = (None, None, Vec::with_capacity(6));
    kind.for_each_field(|field, value| match (field, value) {
        ("instance", Field::Count(instance)) => tid = Some(instance),
        ("done", Field::Count(done)) => dur = Some(done.saturating_sub(event.at)),
        (_, Field::Count(n)) => args.push((field.to_string(), num(n))),
        (_, Field::Flag(flag)) => args.push((field.to_string(), Json::Bool(flag))),
    });
    let mut entry = Vec::with_capacity(7);
    entry.extend([
        ("name".to_string(), Json::Str(name)),
        ("ph".to_string(), Json::Str(ph.to_string())),
        ("pid".to_string(), num(pid as u64)),
        ("tid".to_string(), num(tid.unwrap_or(0))),
        ("ts".to_string(), num(event.at)),
    ]);
    entry.extend(dur.map(|dur| ("dur".to_string(), num(dur))));
    if ph == "i" {
        let scope = if tid.is_some() { "t" } else { "p" };
        entry.push(("s".to_string(), Json::Str(scope.to_string())));
    }
    entry.push(("args".to_string(), Json::Obj(args)));
    Json::Obj(entry)
}

/// The exact inverse of [`chrome_trace`]: reconstructs the named event
/// streams from a parsed trace document, in stream (`pid`) order, each
/// stream in its original emission order. `chrome_trace` loses nothing —
/// every [`EventKind`] is rendered with its full payload — so
/// `events_from_chrome_trace(&chrome_trace(streams))` returns `streams`
/// verbatim, and `se obs` can analyze a `--trace-out` file exactly as it
/// would the in-memory recording.
///
/// # Errors
///
/// Fails loudly — naming the offending entry — on anything that is not a
/// trace this exporter wrote: a missing `traceEvents` array, an entry
/// without `ph`/`pid`/`ts`, an unknown instant name, a missing or
/// mistyped payload field, or a `pid` with no `process_name` metadata
/// (a truncated or foreign trace).
pub fn events_from_chrome_trace(doc: &Json) -> crate::Result<Vec<(String, Vec<Event>)>> {
    let entries = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or("not a Chrome-trace document: no `traceEvents` array")?;
    let mut labels: BTreeMap<u64, String> = BTreeMap::new();
    let mut streams: BTreeMap<u64, Vec<Event>> = BTreeMap::new();
    for (pos, entry) in entries.iter().enumerate() {
        let ph = str_field(entry, "ph", pos)?;
        let pid = u64_field(entry, "pid", pos)?;
        if ph == "M" {
            // thread_name metadata is derived from the events; only the
            // process_name rows carry reconstruction state (the labels).
            if str_field(entry, "name", pos)? == "process_name" {
                let label = entry
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .ok_or_else(|| {
                        format!("trace event #{pos}: process_name metadata without args.name")
                    })?;
                labels.insert(pid, label.to_string());
                streams.entry(pid).or_default();
            }
        } else {
            streams.entry(pid).or_default().push(invert_event(entry, ph, pos)?);
        }
    }
    let mut out = Vec::with_capacity(streams.len());
    for (pid, stream) in streams {
        let label = labels.remove(&pid).ok_or_else(|| {
            format!("trace names no process for pid {pid} — truncated or foreign trace?")
        })?;
        out.push((label, stream));
    }
    Ok(out)
}

/// The kinds [`trace_event`] writes as the span (`X`) and the counter
/// (`C`) rather than as instants under their names.
const SPAN_KIND: &str = "batch_launched";
const COUNTER_KIND: &str = "queue_depth";

/// Inverts one non-metadata trace entry back into its [`Event`]: the
/// phase or the instant's name gives the kind, [`EntryFields`] its fields.
fn invert_event(entry: &Json, ph: &str, pos: usize) -> crate::Result<Event> {
    let at = u64_field(entry, "ts", pos)?;
    let tid = u64_field(entry, "tid", pos)?;
    let unknown =
        |name: &str| format!("trace event #{pos}: unknown instant `{name}` — foreign trace?");
    let name = match ph {
        "X" => SPAN_KIND,
        "C" => COUNTER_KIND,
        "i" => match str_field(entry, "name", pos)? {
            name @ (SPAN_KIND | COUNTER_KIND) => return Err(unknown(name).into()),
            name => name,
        },
        other => return Err(format!("trace event #{pos}: unsupported phase `{other}`").into()),
    };
    let kind = EventKind::decode(name, &mut EntryFields { entry, pos, at, tid })?
        .ok_or_else(|| unknown(name))?;
    Ok(Event { at, kind })
}

/// Reads an entry's payload back by [`trace_event`]'s rule: `instance`
/// from `tid`, `done` from `ts` + `dur`, every other field from `args`.
struct EntryFields<'j> {
    entry: &'j Json,
    pos: usize,
    at: u64,
    tid: u64,
}

impl FieldReader for EntryFields<'_> {
    type Error = crate::BoxError;

    fn count(&mut self, name: &'static str) -> crate::Result<u64> {
        let pos = self.pos;
        match name {
            "instance" => Ok(self.tid),
            "done" => self.at.checked_add(u64_field(self.entry, "dur", pos)?).ok_or_else(|| {
                format!("trace event #{pos}: `ts` + `dur` overflows the clock").into()
            }),
            _ => u64_in(self.entry.get("args"), "arg ", name, pos),
        }
    }

    fn flag(&mut self, name: &'static str) -> crate::Result<bool> {
        let pos = self.pos;
        self.entry
            .get("args")
            .and_then(|a| a.get(name))
            .and_then(Json::as_bool)
            .ok_or_else(|| format!("trace event #{pos}: missing boolean arg `{name}`").into())
    }
}

fn str_field<'j>(entry: &'j Json, name: &str, pos: usize) -> crate::Result<&'j str> {
    entry
        .get(name)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("trace event #{pos}: missing string `{name}`").into())
}

fn u64_field(entry: &Json, name: &str, pos: usize) -> crate::Result<u64> {
    u64_in(Some(entry), "", name, pos)
}

/// Reads `name` of `fields` (an entry, or with `prefix` "arg " its `args`)
/// as a `u64`.
fn u64_in(fields: Option<&Json>, prefix: &str, name: &str, pos: usize) -> crate::Result<u64> {
    let value = fields
        .and_then(|f| f.get(name))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("trace event #{pos}: missing numeric {prefix}`{name}`"))?;
    if !fits_u64(value) {
        return Err(format!(
            "trace event #{pos}: {prefix}`{name}` = {value} is not an unsigned integer"
        )
        .into());
    }
    Ok(value as u64)
}

/// Whether `value` is a whole number a `u64` holds: `u64::MAX as f64`
/// rounds up to 2^64, which a cast would clamp, so it is out of range.
fn fits_u64(value: f64) -> bool {
    value >= 0.0 && value.fract() == 0.0 && value < u64::MAX as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_stream() -> Vec<Event> {
        vec![
            Event { at: 0, kind: EventKind::Admitted { id: 0, model: 1, instance: 0 } },
            Event { at: 0, kind: EventKind::QueueDepth { instance: 0, depth: 1 } },
            Event {
                at: 5,
                kind: EventKind::TierPromoted {
                    instance: 0,
                    model: 1,
                    from: 1,
                    cycles: 14,
                    bytes: 70,
                },
            },
            Event {
                at: 5,
                kind: EventKind::BatchLaunched { seq: 0, instance: 0, model: 1, size: 1, done: 25 },
            },
            Event { at: 7, kind: EventKind::Rejected { id: 1, model: 0 } },
            Event { at: 25, kind: EventKind::BatchCompleted { seq: 0, instance: 0, size: 1 } },
            Event {
                at: 25,
                kind: EventKind::Served {
                    id: 0,
                    model: 1,
                    instance: 0,
                    batch: 0,
                    enqueued: 0,
                    latency: 25,
                    missed: false,
                },
            },
        ]
    }

    /// One event of every kind, exercising every inversion arm.
    fn full_taxonomy_stream() -> Vec<Event> {
        let kinds = vec![
            EventKind::Admitted { id: 0, model: 1, instance: 0 },
            EventKind::QueueDepth { instance: 0, depth: 3 },
            EventKind::Rejected { id: 1, model: 0 },
            EventKind::Lost { id: 2, model: 1 },
            EventKind::TierHit { instance: 0, model: 1 },
            EventKind::TierPromoted { instance: 0, model: 2, from: 2, cycles: 40, bytes: 128 },
            EventKind::TierDemoted { instance: 0, model: 3, to: 1, bytes: 64, dropped: false },
            EventKind::TierDemoted { instance: 0, model: 4, to: 3, bytes: 32, dropped: true },
            EventKind::TierColdFetch { instance: 0, model: 5, cycles: 90, bytes: 256 },
            EventKind::TierStreamed { instance: 0, model: 6, cycles: 70 },
            EventKind::BatchFormed { seq: 0, instance: 0, model: 1, size: 2 },
            EventKind::BatchLaunched { seq: 0, instance: 0, model: 1, size: 2, done: 60 },
            EventKind::Served {
                id: 0,
                model: 1,
                instance: 0,
                batch: 0,
                enqueued: 4,
                latency: 60,
                missed: true,
            },
            EventKind::BatchCompleted { seq: 0, instance: 0, size: 2 },
            EventKind::BatchKilled { seq: 1, instance: 1 },
            EventKind::InstanceKilled { instance: 1, in_flight: 2, rerouted: 1, lost: 1 },
            EventKind::InstanceRestarted { instance: 1 },
            EventKind::InstanceSpawned { instance: 2 },
            EventKind::InstanceDraining { instance: 2 },
        ];
        kinds.into_iter().enumerate().map(|(i, kind)| Event { at: i as u64 * 3, kind }).collect()
    }

    /// The golden bytes of a small export: locks the exact on-disk shape
    /// (field order, integer formatting, metadata placement) so any
    /// accidental format drift fails loudly, and proves the render →
    /// parse → render loop is byte-stable.
    #[test]
    fn chrome_trace_golden_bytes_and_round_trip() {
        let stream = vec![
            Event { at: 0, kind: EventKind::Admitted { id: 0, model: 1, instance: 0 } },
            Event {
                at: 5,
                kind: EventKind::BatchLaunched { seq: 0, instance: 0, model: 1, size: 1, done: 25 },
            },
        ];
        let doc = chrome_trace(&[("lane".to_string(), stream.as_slice())]);
        let text = doc.render();
        let golden = concat!(
            "{\n",
            "  \"traceEvents\": [\n",
            "    {\n",
            "      \"name\": \"process_name\",\n",
            "      \"ph\": \"M\",\n",
            "      \"pid\": 0,\n",
            "      \"tid\": 0,\n",
            "      \"args\": {\n",
            "        \"name\": \"lane\"\n",
            "      }\n",
            "    },\n",
            "    {\n",
            "      \"name\": \"thread_name\",\n",
            "      \"ph\": \"M\",\n",
            "      \"pid\": 0,\n",
            "      \"tid\": 0,\n",
            "      \"args\": {\n",
            "        \"name\": \"instance 0\"\n",
            "      }\n",
            "    },\n",
            "    {\n",
            "      \"name\": \"admitted\",\n",
            "      \"ph\": \"i\",\n",
            "      \"pid\": 0,\n",
            "      \"tid\": 0,\n",
            "      \"ts\": 0,\n",
            "      \"s\": \"t\",\n",
            "      \"args\": {\n",
            "        \"id\": 0,\n",
            "        \"model\": 1\n",
            "      }\n",
            "    },\n",
            "    {\n",
            "      \"name\": \"batch m1 x1\",\n",
            "      \"ph\": \"X\",\n",
            "      \"pid\": 0,\n",
            "      \"tid\": 0,\n",
            "      \"ts\": 5,\n",
            "      \"dur\": 20,\n",
            "      \"args\": {\n",
            "        \"seq\": 0,\n",
            "        \"model\": 1,\n",
            "        \"size\": 1\n",
            "      }\n",
            "    }\n",
            "  ],\n",
            "  \"displayTimeUnit\": \"ms\"\n",
            "}\n",
        );
        assert_eq!(text, golden);
        let reparsed = Json::parse(&text).unwrap();
        assert_eq!(reparsed.render(), text, "render → parse → render is byte-stable");
    }

    #[test]
    fn every_trace_kind_lands_in_the_right_phase() {
        let stream = small_stream();
        let doc = chrome_trace(&[("l0".to_string(), stream.as_slice())]);
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let phase_of = |name: &str| -> Option<&str> {
            events
                .iter()
                .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
                .and_then(|e| e.get("ph"))
                .and_then(Json::as_str)
        };
        assert_eq!(phase_of("admitted"), Some("i"));
        assert_eq!(phase_of("rejected"), Some("i"));
        assert_eq!(phase_of("tier_promoted"), Some("i"));
        assert_eq!(phase_of("batch m1 x1"), Some("X"));
        assert_eq!(phase_of("queue_depth i0"), Some("C"));
        // Per-request completions ride along as instants — the trace is a
        // lossless encoding of the stream.
        assert_eq!(phase_of("served"), Some("i"));
        // Rejections are process-scoped instants (no instance).
        let rejected = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("rejected"))
            .unwrap();
        assert_eq!(rejected.get("s").and_then(Json::as_str), Some("p"));
        assert_eq!(rejected.get("tid").and_then(Json::as_f64), Some(0.0));
    }

    #[test]
    fn multi_stream_traces_get_one_pid_per_stream() {
        let a = small_stream();
        let b = vec![Event { at: 3, kind: EventKind::TierHit { instance: 2, model: 0 } }];
        let doc =
            chrome_trace(&[("se".to_string(), a.as_slice()), ("dense".to_string(), b.as_slice())]);
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let hit = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("tier_hit"))
            .unwrap();
        assert_eq!(hit.get("pid").and_then(Json::as_f64), Some(1.0));
        assert_eq!(hit.get("tid").and_then(Json::as_f64), Some(2.0));
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("process_name"))
            .filter_map(|e| e.get("args")?.get("name")?.as_str())
            .collect();
        assert_eq!(names, ["se", "dense"]);
    }

    /// The round-trip guarantee behind `se obs` on `--trace-out` files:
    /// every event kind survives export → parse → invert verbatim, even
    /// through the on-disk text form.
    #[test]
    fn chrome_trace_round_trips_every_event_kind() {
        let a = full_taxonomy_stream();
        // A kind added to the taxonomy needs a case here.
        let kinds: BTreeSet<&str> = a.iter().map(|e| e.kind.name()).collect();
        assert_eq!(kinds, EventKind::NAMES.iter().copied().collect(), "one case per kind");
        let b = vec![Event { at: 2, kind: EventKind::TierHit { instance: 1, model: 0 } }];
        let streams = vec![
            ("se".to_string(), a.clone()),
            ("dense".to_string(), b.clone()),
            ("idle".to_string(), vec![]),
        ];
        let views: Vec<(String, &[Event])> =
            streams.iter().map(|(n, e)| (n.clone(), e.as_slice())).collect();
        let text = chrome_trace(&views).render();
        let reparsed = Json::parse(&text).unwrap();
        let recovered = events_from_chrome_trace(&reparsed).unwrap();
        assert_eq!(recovered, streams, "export → parse → invert must be the identity");
    }

    #[test]
    fn foreign_and_truncated_traces_fail_loudly() {
        let foreign = Json::parse("{\"hello\": 1}\n").unwrap();
        let err = events_from_chrome_trace(&foreign).unwrap_err().to_string();
        assert!(err.contains("traceEvents"), "{err}");

        // An event for a pid the metadata never named: truncation.
        let orphan = Json::parse(
            "{\"traceEvents\": [{\"name\": \"admitted\", \"ph\": \"i\", \"pid\": 7, \
             \"tid\": 0, \"ts\": 0, \"s\": \"t\", \"args\": {\"id\": 0, \"model\": 0}}]}\n",
        )
        .unwrap();
        let err = events_from_chrome_trace(&orphan).unwrap_err().to_string();
        assert!(err.contains("no process for pid 7"), "{err}");

        // A payload field of the wrong type.
        let mistyped = Json::parse(
            "{\"traceEvents\": [{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, \
             \"tid\": 0, \"args\": {\"name\": \"l\"}}, {\"name\": \"admitted\", \"ph\": \"i\", \
             \"pid\": 0, \"tid\": 0, \"ts\": 0, \"s\": \"t\", \
             \"args\": {\"id\": \"zero\", \"model\": 0}}]}\n",
        )
        .unwrap();
        let err = events_from_chrome_trace(&mistyped).unwrap_err().to_string();
        assert!(err.contains("missing numeric arg `id`"), "{err}");

        // An instant this exporter never writes.
        let unknown = Json::parse(
            "{\"traceEvents\": [{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, \
             \"tid\": 0, \"args\": {\"name\": \"l\"}}, {\"name\": \"gc_pause\", \"ph\": \"i\", \
             \"pid\": 0, \"tid\": 0, \"ts\": 0, \"s\": \"t\", \"args\": {}}]}\n",
        )
        .unwrap();
        let err = events_from_chrome_trace(&unknown).unwrap_err().to_string();
        assert!(err.contains("unknown instant `gc_pause`"), "{err}");
    }

    #[test]
    fn metrics_text_labels_each_stream() {
        let stream = small_stream();
        let text = metrics_text(&[("se".to_string(), stream.as_slice())]);
        assert!(text.contains("se_requests_admitted_total{stream=\"se\"} 1\n"), "{text}");
        assert!(text.contains("se_requests_rejected_total{stream=\"se\"} 1\n"), "{text}");
        assert!(text.contains("se_requests_served_total{stream=\"se\"} 1\n"), "{text}");
        assert!(text.contains("# TYPE se_request_latency_cycles histogram"), "{text}");
        // Two ingests under different labels coexist in one exposition.
        let both = metrics_text(&[
            ("se".to_string(), stream.as_slice()),
            ("dense".to_string(), stream.as_slice()),
        ]);
        assert!(both.contains("se_requests_served_total{stream=\"dense\"} 1\n"), "{both}");
        assert!(both.contains("se_requests_served_total{stream=\"se\"} 1\n"), "{both}");
    }
}
