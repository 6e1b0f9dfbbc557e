//! Exporters for the observability layer (`se_obs`): Chrome-trace /
//! Perfetto `traceEvents` JSON, written and read back an entry at a time
//! through the same hand-rolled [`crate::json`] layout and lexer as the
//! bench reports, and Prometheus-style text exposition.
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
use std::fmt::{Display, Write as _};
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::ops::Range;
use std::path::Path;

use se_obs::{Event, EventKind, EventSink, Field, FieldReader, NullSink, Recorder};

use crate::args::Flags;
use crate::json::{render_count, render_string, Json, Lexer, Pretty, Scalar};

/// Writes the Chrome-trace document of named event streams to `out`, one
/// entry at a time, so memory stays that of one entry whatever the event
/// count. One trace `pid` per stream, in order (e.g. one per cluster
/// lane). Batch executions become `ph: "X"` duration spans on their
/// instance's thread, queue-depth samples become `ph: "C"` counter
/// tracks, and everything else — admissions, per-request completions,
/// faults, tier traffic — becomes a `ph: "i"` instant carrying its full
/// payload in `args`. Every event kind lands in the trace, so the document
/// is a lossless encoding of the stream: [`read_chrome_trace`] is its
/// exact inverse, which is what lets `se obs` re-analyze a `--trace-out`
/// artifact long after the run. The bytes are [`Json::render`]'s layout.
///
/// # Errors
///
/// The first failed write.
pub fn write_chrome_trace(
    streams: &[(String, &[Event])],
    out: &mut impl Write,
) -> std::io::Result<()> {
    let mut w = TraceWriter::default();
    let mut top = Pretty::object(&mut w.text, 0);
    top.key(&mut w.text, "traceEvents");
    let mut entries = Pretty::array(&mut w.text, 1);
    for (pid, (label, stream)) in streams.iter().enumerate() {
        entries.item(&mut w.text);
        w.metadata(pid, 0, "process_name", label);
        let tids: BTreeSet<usize> = stream.iter().filter_map(|e| e.kind.instance()).collect();
        for tid in tids {
            entries.item(&mut w.text);
            w.metadata(pid, tid, "thread_name", &format!("instance {tid}"));
        }
        w.flush(out)?;
    }
    for (pid, (_, stream)) in streams.iter().enumerate() {
        for event in stream.iter() {
            entries.item(&mut w.text);
            w.event(pid, event);
            w.flush(out)?;
        }
    }
    entries.close(&mut w.text);
    top.key(&mut w.text, "displayTimeUnit");
    render_string("ms", &mut w.text);
    top.close(&mut w.text);
    w.text.push('\n');
    out.write_all(w.text.as_bytes())
}

/// The [`Json`] of [`write_chrome_trace`]'s document, for callers that
/// want a tree; the CLI streams instead.
pub fn chrome_trace(streams: &[(String, &[Event])]) -> Json {
    let mut text = Vec::new();
    write_chrome_trace(streams, &mut text).expect("writing to memory cannot fail");
    Json::parse(std::str::from_utf8(&text).expect("the writer writes UTF-8")).expect("valid JSON")
}

/// Renders named event streams as Prometheus-style text exposition: each
/// stream's metrics under a `stream="<label>"` label
/// ([`se_obs::metrics::render`]), so lanes stay comparable side by side.
pub fn metrics_text(streams: &[(String, &[Event])]) -> String {
    se_obs::metrics::render(streams)
}

/// Writes `content` to `path` (shared by the `--trace-out` /
/// `--metrics-out` call sites so the error message is uniform).
///
/// # Errors
///
/// Propagates the I/O error, naming the file.
pub fn write_export(path: &Path, content: &str) -> crate::Result<()> {
    export_to(path, |out| out.write_all(content.as_bytes()))
}

/// Creates `path` and lets `write` stream the export into it through a
/// buffer, with [`write_export`]'s error message.
fn export_to(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
) -> crate::Result<()> {
    let written = File::create(path).and_then(|file| {
        let mut out = BufWriter::new(file);
        write(&mut out)?;
        out.flush()
    });
    written.map_err(|e| format!("writing {}: {e}", path.display()).into())
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
            export_to(path, |out| write_chrome_trace(&views, out))?;
            se_core::se_info!("wrote Chrome-trace JSON to {}", path.display());
        }
        if let Some(path) = self.metrics_out {
            write_export(path, &metrics_text(&views))?;
            se_core::se_info!("wrote metrics exposition to {}", path.display());
        }
        Ok(())
    }
}

/// [`write_chrome_trace`]'s state: the entry being written, flushed to
/// the output after each, and a reused buffer for built names.
#[derive(Default)]
struct TraceWriter {
    text: String,
    name: String,
    args: String,
}

impl TraceWriter {
    fn flush(&mut self, out: &mut impl Write) -> std::io::Result<()> {
        out.write_all(self.text.as_bytes())?;
        self.text.clear();
        Ok(())
    }

    fn metadata(&mut self, pid: usize, tid: usize, name: &str, arg_name: &str) {
        let s = &mut self.text;
        let mut entry = Pretty::object(s, 2);
        entry.key(s, "name");
        render_string(name, s);
        entry.key(s, "ph");
        render_string("M", s);
        entry.key(s, "pid");
        render_count(pid as u64, s);
        entry.key(s, "tid");
        render_count(tid as u64, s);
        entry.key(s, "args");
        let mut args = Pretty::object(s, 3);
        args.key(s, "name");
        render_string(arg_name, s);
        args.close(s);
        entry.close(s);
    }

    /// One trace event, by one rule: every kind is an instant (`i`) named
    /// by its kind, except the batch span (`X`) and the queue-depth
    /// counter (`C`). `args` hold every payload field except `instance`,
    /// which is the `tid`, and the span's `done`, which is its `dur`.
    fn event(&mut self, pid: usize, event: &Event) {
        let kind = &event.kind;
        self.name.clear();
        let ph = match *kind {
            EventKind::BatchLaunched { model, size, .. } => {
                write!(self.name, "batch m{model} x{size}").expect("writing to a String");
                "X"
            }
            EventKind::QueueDepth { instance, .. } => {
                write!(self.name, "{} i{instance}", kind.name()).expect("writing to a String");
                "C"
            }
            _ => {
                self.name.push_str(kind.name());
                "i"
            }
        };
        let (mut tid, mut dur, args) = (None, None, &mut self.args);
        args.clear();
        let mut fields = Pretty::object(args, 3);
        kind.for_each_field(|field, value| match (field, value) {
            ("instance", Field::Count(instance)) => tid = Some(instance),
            ("done", Field::Count(done)) => dur = Some(done.saturating_sub(event.at)),
            (_, Field::Count(n)) => {
                fields.key(args, field);
                render_count(n, args);
            }
            (_, Field::Flag(flag)) => {
                fields.key(args, field);
                args.push_str(if flag { "true" } else { "false" });
            }
        });
        fields.close(args);
        let s = &mut self.text;
        let mut entry = Pretty::object(s, 2);
        entry.key(s, "name");
        render_string(&self.name, s);
        entry.key(s, "ph");
        render_string(ph, s);
        entry.key(s, "pid");
        render_count(pid as u64, s);
        entry.key(s, "tid");
        render_count(tid.unwrap_or(0), s);
        entry.key(s, "ts");
        render_count(event.at, s);
        if let Some(dur) = dur {
            entry.key(s, "dur");
            render_count(dur, s);
        }
        if ph == "i" {
            entry.key(s, "s");
            render_string(if tid.is_some() { "t" } else { "p" }, s);
        }
        entry.key(s, "args");
        s.push_str(&self.args);
        entry.close(s);
    }
}

/// Reads a Chrome-trace document from `input` entry by entry — holding
/// neither its text nor a tree of it, only the entry being read and the
/// events decoded so far — back into its named event streams, in stream
/// (`pid`) order, each stream in its original emission order. The exact
/// inverse of [`write_chrome_trace`]: `write_chrome_trace` loses nothing,
/// so reading its document returns the streams verbatim, and `se obs`
/// analyzes a `--trace-out` file exactly as it would the in-memory
/// recording. The document is read as [`Json::parse`] reads it: any key
/// order, and of a repeated key the first.
///
/// # Errors
///
/// Input that is not UTF-8, then malformed JSON, as [`Json::parse`]
/// reports it. Otherwise it fails loudly — naming the offending entry — on
/// anything that is not a trace this exporter wrote: a missing
/// `traceEvents` array, an entry without `ph`/`pid`/`ts`, an unknown
/// instant name, a missing or mistyped payload field, or a `pid` with no
/// `process_name` metadata (a truncated or foreign trace).
pub fn read_chrome_trace(input: impl Read) -> crate::Result<Vec<(String, Vec<Event>)>> {
    let mut lexer = Lexer::new(input);
    let mut trace = TraceReader::default();
    if let Err(e) = trace.read(&mut lexer) {
        // Reading the document into a string first would fail on any byte
        // that is not UTF-8, wherever it is.
        return Err(if lexer.rest_is_utf8()? {
            e
        } else {
            "stream did not contain valid UTF-8".into()
        });
    }
    trace.finish()
}

/// [`read_chrome_trace`] over a parsed document, for callers that hold a
/// tree; the CLI streams instead.
///
/// # Errors
///
/// As [`read_chrome_trace`].
pub fn events_from_chrome_trace(doc: &Json) -> crate::Result<Vec<(String, Vec<Event>)>> {
    read_chrome_trace(doc.render().as_bytes())
}

/// [`read_chrome_trace`]'s state. The first decode error is kept while the
/// rest of the document is still checked, so malformed JSON anywhere is
/// reported first, as it is by a reader that parses before decoding.
#[derive(Default)]
struct TraceReader {
    /// Whether the first `traceEvents` key was seen, and whether it held
    /// an array.
    found: bool,
    array: bool,
    /// The index of the next entry.
    next: usize,
    entry: Entry,
    labels: BTreeMap<u64, String>,
    streams: BTreeMap<u64, Vec<Event>>,
    error: Option<crate::BoxError>,
}

impl TraceReader {
    /// Reads the document: the entries of its first `traceEvents` key.
    fn read<R: Read>(&mut self, lexer: &mut Lexer<R>) -> crate::Result<()> {
        if lexer.skip_ws()? == Some(b'{') {
            lexer.object(0, |lexer, key| match key {
                "traceEvents" if !self.found => self.entries(lexer),
                _ => lexer.value(1).map(drop),
            })?;
        } else {
            lexer.value(0)?;
        }
        lexer.end()
    }

    /// Reads the value of the top-level `traceEvents` key.
    fn entries<R: Read>(&mut self, lexer: &mut Lexer<R>) -> crate::Result<()> {
        self.found = true;
        if lexer.skip_ws()? != Some(b'[') {
            return lexer.value(1).map(drop);
        }
        self.array = true;
        lexer.array(1, |lexer| {
            let pos = self.next;
            self.next += 1;
            if self.error.is_some() || lexer.skip_ws()? != Some(b'{') {
                // A non-object entry has no fields, which decoding reports.
                lexer.value(2)?;
                self.entry.clear();
            } else {
                self.entry.clear();
                lexer.object(2, |lexer, key| self.entry.read(lexer, key))?;
            }
            if self.error.is_none() {
                self.error = self.decode(pos).err();
            }
            Ok(())
        })
    }

    /// Decodes the entry just read, the `pos`-th.
    fn decode(&mut self, pos: usize) -> crate::Result<()> {
        let entry = &self.entry;
        let ph = entry.str_field("ph", pos)?;
        let pid = entry.u64_field("pid", pos)?;
        if ph == "M" {
            // thread_name metadata is derived from the events; only the
            // process_name rows carry reconstruction state (the labels).
            if entry.str_field("name", pos)? == "process_name" {
                let label = entry.arg("name").and_then(|v| entry.as_str(v)).ok_or_else(|| {
                    format!("trace event #{pos}: process_name metadata without args.name")
                })?;
                self.labels.insert(pid, label.to_string());
                self.streams.entry(pid).or_default();
            }
        } else {
            let event = invert_event(entry, ph, pos)?;
            self.streams.entry(pid).or_default().push(event);
        }
        Ok(())
    }

    fn finish(mut self) -> crate::Result<Vec<(String, Vec<Event>)>> {
        if let Some(error) = self.error {
            return Err(error);
        }
        if !self.array {
            return Err("not a Chrome-trace document: no `traceEvents` array".into());
        }
        let mut out = Vec::with_capacity(self.streams.len());
        for (pid, stream) in self.streams {
            let label = self.labels.remove(&pid).ok_or_else(|| {
                format!("trace names no process for pid {pid} — truncated or foreign trace?")
            })?;
            out.push((label, stream));
        }
        Ok(out)
    }
}

/// One trace entry's fields as read: the first value of each field the
/// decoder reads, and the fields of the first `args` object, with string
/// values and argument names in one text buffer. Of a repeated key the
/// first counts, as for [`Json::get`]; a nested value reads as `null`.
/// Buffers are reused and entry fields have fixed slots: over a
/// 100k-request trace on a 2-vCPU host, reading each entry into a [`Json`]
/// of its own made `se obs summarize` 1.6x slower, and looking entry
/// fields up by name in a list, as `args` are, 1.1x slower.
#[derive(Default)]
struct Entry {
    text: String,
    fields: [Option<Scalar>; 6],
    args: Vec<(Range<usize>, Scalar)>,
    has_args: bool,
}

/// The index in [`Entry::fields`] of the entry field `key`.
fn field_slot(key: &str) -> Option<usize> {
    Some(match key {
        "name" => 0,
        "ph" => 1,
        "pid" => 2,
        "tid" => 3,
        "ts" => 4,
        "dur" => 5,
        _ => return None,
    })
}

impl Entry {
    fn clear(&mut self) {
        self.text.clear();
        self.fields = Default::default();
        self.args.clear();
        self.has_args = false;
    }

    /// Reads the value of the entry's field `key`.
    fn read<R: Read>(&mut self, lexer: &mut Lexer<R>, key: &str) -> crate::Result<()> {
        if key == "args" && !self.has_args {
            self.has_args = true;
            if lexer.skip_ws()? == Some(b'{') {
                return lexer.object(3, |lexer, key| {
                    let start = self.text.len();
                    self.text.push_str(key);
                    let name = start..self.text.len();
                    let value = self.value(lexer, 4)?;
                    self.args.push((name, value));
                    Ok(())
                });
            }
        }
        let value = self.value(lexer, 3)?;
        if let Some(slot) = field_slot(key) {
            self.fields[slot].get_or_insert(value);
        }
        Ok(())
    }

    fn value<R: Read>(&mut self, lexer: &mut Lexer<R>, depth: usize) -> crate::Result<Scalar> {
        match lexer.skip_ws()? {
            Some(b'[' | b'{') => lexer.value(depth).map(|_| Scalar::Null),
            _ => lexer.scalar(&mut self.text),
        }
    }

    fn get(&self, name: &str) -> Option<&Scalar> {
        self.fields[field_slot(name)?].as_ref()
    }

    fn arg(&self, name: &str) -> Option<&Scalar> {
        let mut args = self.args.iter();
        args.find(|(key, _)| self.text.as_bytes()[key.clone()] == *name.as_bytes()).map(|(_, v)| v)
    }

    fn as_str(&self, value: &Scalar) -> Option<&str> {
        match value {
            Scalar::Str(range) => Some(&self.text[range.clone()]),
            _ => None,
        }
    }

    fn str_field(&self, name: &str, pos: usize) -> crate::Result<&str> {
        self.get(name)
            .and_then(|v| self.as_str(v))
            .ok_or_else(|| format!("trace event #{pos}: missing string `{name}`").into())
    }

    fn u64_field(&self, name: &str, pos: usize) -> crate::Result<u64> {
        as_u64(self.get(name), "", name, pos)
    }
}

/// The kinds [`TraceWriter::event`] writes as the span (`X`) and the
/// counter (`C`) rather than as instants under their names.
const SPAN_KIND: &str = "batch_launched";
const COUNTER_KIND: &str = "queue_depth";

/// Inverts one non-metadata trace entry back into its [`Event`]: the
/// phase or the instant's name gives the kind, [`EntryFields`] its fields.
fn invert_event(entry: &Entry, ph: &str, pos: usize) -> crate::Result<Event> {
    let at = entry.u64_field("ts", pos)?;
    let tid = entry.u64_field("tid", pos)?;
    let unknown =
        |name: &str| format!("trace event #{pos}: unknown instant `{name}` — foreign trace?");
    let name = match ph {
        "X" => SPAN_KIND,
        "C" => COUNTER_KIND,
        "i" => match entry.str_field("name", pos)? {
            name @ (SPAN_KIND | COUNTER_KIND) => return Err(unknown(name).into()),
            name => name,
        },
        other => return Err(format!("trace event #{pos}: unsupported phase `{other}`").into()),
    };
    let kind = EventKind::decode(name, &mut EntryFields { entry, pos, at, tid })?
        .ok_or_else(|| unknown(name))?;
    Ok(Event { at, kind })
}

/// Reads an entry's payload back by [`TraceWriter::event`]'s rule:
/// `instance` from `tid`, `done` from `ts` + `dur`, every other field from
/// `args`.
struct EntryFields<'e> {
    entry: &'e Entry,
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
            "done" => self.at.checked_add(self.entry.u64_field("dur", pos)?).ok_or_else(|| {
                format!("trace event #{pos}: `ts` + `dur` overflows the clock").into()
            }),
            _ => as_u64(self.entry.arg(name), "arg ", name, pos),
        }
    }

    fn flag(&mut self, name: &'static str) -> crate::Result<bool> {
        match self.entry.arg(name) {
            Some(&Scalar::Bool(flag)) => Ok(flag),
            _ => Err(format!("trace event #{}: missing boolean arg `{name}`", self.pos).into()),
        }
    }
}

/// Reads `value`, field `name` of an entry (or with `prefix` "arg " of its
/// `args`), as a `u64`.
fn as_u64(value: Option<&Scalar>, prefix: &str, name: &str, pos: usize) -> crate::Result<u64> {
    let Some(&Scalar::Num(value)) = value else {
        return Err(format!("trace event #{pos}: missing numeric {prefix}`{name}`").into());
    };
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

    /// The bytes [`write_chrome_trace`] writes.
    fn written(streams: &[(String, &[Event])]) -> String {
        let mut out = Vec::new();
        write_chrome_trace(streams, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    /// A reader handing out at most three bytes per read, so every token
    /// of a document straddles reads.
    struct Trickle<'a>(&'a [u8]);

    impl std::io::Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.0.len()).min(3);
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    /// [`read_chrome_trace`] of `text` through a [`Trickle`], checked
    /// against the reading of the whole text at once.
    fn read_trickled(text: &str) -> crate::Result<Vec<(String, Vec<Event>)>> {
        let trickled = read_chrome_trace(Trickle(text.as_bytes()));
        let whole = read_chrome_trace(text.as_bytes());
        match (&trickled, &whole) {
            (Ok(a), Ok(b)) => assert_eq!(a, b),
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
            _ => panic!("trickled {trickled:?} against whole {whole:?}"),
        }
        trickled
    }

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
        assert_eq!(written(&[("lane".to_string(), stream.as_slice())]), golden);
    }

    /// The golden bytes of the writer's edge cases: a label that needs
    /// escapes, an empty `args`, a process-scoped instant, both flag
    /// values, a counter track, a stream with no events, and counts at and
    /// past 2^53, which print as the nearest `f64` in its shortest form
    /// (2^53 + 1 as 2^53, `u64::MAX` as 18446744073709552000).
    #[test]
    fn chrome_trace_golden_bytes_of_edge_cases() {
        assert_eq!(
            chrome_trace(&[]).render(),
            "{\n  \"traceEvents\": [],\n  \"displayTimeUnit\": \"ms\"\n}\n"
        );
        let big = (1u64 << 53) + 1;
        let stream = vec![
            Event { at: 3, kind: EventKind::InstanceRestarted { instance: 2 } },
            Event { at: big, kind: EventKind::Rejected { id: big as usize, model: 0 } },
            Event {
                at: 4,
                kind: EventKind::TierDemoted {
                    instance: 0,
                    model: 3,
                    to: 1,
                    bytes: u64::MAX,
                    dropped: false,
                },
            },
            Event {
                at: 5,
                kind: EventKind::TierDemoted {
                    instance: 0,
                    model: 4,
                    to: 3,
                    bytes: 32,
                    dropped: true,
                },
            },
            Event { at: 6, kind: EventKind::QueueDepth { instance: 2, depth: 7 } },
        ];
        let label = "a \"q\" \\ b\nc\t\r\u{1}d \u{e9}\u{1F600}/";
        let text =
            chrome_trace(&[(label.to_string(), stream.as_slice()), ("idle".to_string(), &[])])
                .render();
        let streams = [(label.to_string(), stream.as_slice()), ("idle".to_string(), &[][..])];
        assert_eq!(written(&streams), text);
        assert_eq!(written(&[]), chrome_trace(&[]).render());
        let golden = concat!(
            "{\n",
            "  \"traceEvents\": [\n",
            "    {\n",
            "      \"name\": \"process_name\",\n",
            "      \"ph\": \"M\",\n",
            "      \"pid\": 0,\n",
            "      \"tid\": 0,\n",
            "      \"args\": {\n",
            "        \"name\": \"a \\\"q\\\" \\\\ b\\nc\\t\\r\\u0001d \u{e9}\u{1F600}/\"\n",
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
            "      \"name\": \"thread_name\",\n",
            "      \"ph\": \"M\",\n",
            "      \"pid\": 0,\n",
            "      \"tid\": 2,\n",
            "      \"args\": {\n",
            "        \"name\": \"instance 2\"\n",
            "      }\n",
            "    },\n",
            "    {\n",
            "      \"name\": \"process_name\",\n",
            "      \"ph\": \"M\",\n",
            "      \"pid\": 1,\n",
            "      \"tid\": 0,\n",
            "      \"args\": {\n",
            "        \"name\": \"idle\"\n",
            "      }\n",
            "    },\n",
            "    {\n",
            "      \"name\": \"instance_restarted\",\n",
            "      \"ph\": \"i\",\n",
            "      \"pid\": 0,\n",
            "      \"tid\": 2,\n",
            "      \"ts\": 3,\n",
            "      \"s\": \"t\",\n",
            "      \"args\": {}\n",
            "    },\n",
            "    {\n",
            "      \"name\": \"rejected\",\n",
            "      \"ph\": \"i\",\n",
            "      \"pid\": 0,\n",
            "      \"tid\": 0,\n",
            "      \"ts\": 9007199254740992,\n",
            "      \"s\": \"p\",\n",
            "      \"args\": {\n",
            "        \"id\": 9007199254740992,\n",
            "        \"model\": 0\n",
            "      }\n",
            "    },\n",
            "    {\n",
            "      \"name\": \"tier_demoted\",\n",
            "      \"ph\": \"i\",\n",
            "      \"pid\": 0,\n",
            "      \"tid\": 0,\n",
            "      \"ts\": 4,\n",
            "      \"s\": \"t\",\n",
            "      \"args\": {\n",
            "        \"model\": 3,\n",
            "        \"to\": 1,\n",
            "        \"bytes\": 18446744073709552000,\n",
            "        \"dropped\": false\n",
            "      }\n",
            "    },\n",
            "    {\n",
            "      \"name\": \"tier_demoted\",\n",
            "      \"ph\": \"i\",\n",
            "      \"pid\": 0,\n",
            "      \"tid\": 0,\n",
            "      \"ts\": 5,\n",
            "      \"s\": \"t\",\n",
            "      \"args\": {\n",
            "        \"model\": 4,\n",
            "        \"to\": 3,\n",
            "        \"bytes\": 32,\n",
            "        \"dropped\": true\n",
            "      }\n",
            "    },\n",
            "    {\n",
            "      \"name\": \"queue_depth i2\",\n",
            "      \"ph\": \"C\",\n",
            "      \"pid\": 0,\n",
            "      \"tid\": 2,\n",
            "      \"ts\": 6,\n",
            "      \"args\": {\n",
            "        \"depth\": 7\n",
            "      }\n",
            "    }\n",
            "  ],\n",
            "  \"displayTimeUnit\": \"ms\"\n",
            "}\n",
        );
        assert_eq!(text, golden);
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
        let text = written(&views);
        assert_eq!(read_trickled(&text).unwrap(), streams, "write → read must be the identity");
        let reparsed = Json::parse(&text).unwrap();
        let recovered = events_from_chrome_trace(&reparsed).unwrap();
        assert_eq!(recovered, streams, "export → parse → invert must be the identity");
    }

    /// A label longer than the reader's window, with escapes, makes the
    /// window grow to hold the token whole.
    #[test]
    fn tokens_longer_than_the_read_window_are_read_whole() {
        let label = "\u{e9}\"\n".repeat(40_000);
        let stream = small_stream();
        let text = written(&[(label.clone(), stream.as_slice())]);
        assert!(text.len() > 2 * (1 << 16));
        assert_eq!(read_trickled(&text).unwrap(), vec![(label, stream)]);
    }

    /// The reader takes any JSON layout and key order, and of a repeated
    /// key the first, as `Json::get` does.
    #[test]
    fn compact_reordered_and_repeated_keys_read_as_json_does() {
        let compact = concat!(
            r#"{"displayTimeUnit":"ms","traceEvents":[{"args":{"name":"se"},"tid":0,"#,
            r#""pid":0,"ph":"M","name":"process_name"},{"s":"t","args":{"model":2,"id":5,"#,
            r#""id":"x"},"ts":1e3,"tid":3,"pid":0,"pid":9,"ph":"i","name":"admitted","#,
            r#""args":5,"extra":[{"a":null}]}],"traceEvents":7}"#,
        );
        let admitted =
            Event { at: 1000, kind: EventKind::Admitted { id: 5, model: 2, instance: 3 } };
        assert_eq!(read_trickled(compact).unwrap(), vec![("se".to_string(), vec![admitted])]);
        let doc = Json::parse(compact).unwrap();
        assert_eq!(events_from_chrome_trace(&doc).unwrap(), read_trickled(compact).unwrap());
    }

    /// Every way a document can fail, with its message: malformed JSON
    /// first wherever it is, then the first entry that does not decode.
    #[test]
    fn read_errors_name_the_fault() {
        let meta =
            r#"{"name": "process_name", "ph": "M", "pid": 0, "tid": 0, "args": {"name": "l"}}"#;
        let doc = |entry: &str| format!(r#"{{"traceEvents": [{meta}, {entry}]}}"#);
        let admitted = |pid: &str, args: &str| {
            doc(&format!(
                r#"{{"name": "admitted", "ph": "i", "pid": {pid}, "tid": 0, "ts": 0, "args": {args}}}"#
            ))
        };
        let demoted = r#"{"name": "tier_demoted", "ph": "i", "pid": 0, "tid": 0, "ts": 0, "args": {"model": 0, "to": 1, "bytes": 3, "dropped": 1}}"#;
        let span = r#"{"name": "b", "ph": "X", "pid": 0, "tid": 0, "ts": 18446744073709549568, "dur": 18446744073709549568, "args": {"seq": 0, "model": 0, "size": 1}}"#;
        let orphan = r#"{"traceEvents": [{"name": "admitted", "ph": "i", "pid": 7, "tid": 0, "ts": 0, "args": {"id": 0, "model": 0}}]}"#;
        let unlabelled = r#"{"traceEvents": [{"name": "process_name", "ph": "M", "pid": 0, "tid": 0, "args": {}}]}"#;
        let no_array = "not a Chrome-trace document: no `traceEvents` array";
        let cases = [
            (
                admitted("0", r#"{"id": "zero", "model": 0}"#),
                "trace event #1: missing numeric arg `id`",
            ),
            (
                admitted("0", r#"{"id": 1.5, "model": 0}"#),
                "trace event #1: arg `id` = 1.5 is not an unsigned integer",
            ),
            (admitted("0", "[1]"), "trace event #1: missing numeric arg `id`"),
            (admitted("-1", "{}"), "trace event #1: `pid` = -1 is not an unsigned integer"),
            (admitted("01", "{}"), "invalid number at byte 136"),
            (admitted("1e400", "{}"), "number at byte 136 is out of range"),
            (doc(r#"{"pid": 0, "name": "admitted"}"#), "trace event #1: missing string `ph`"),
            (doc(r#"{"ph": 1, "ph": "i", "pid": 0}"#), "trace event #1: missing string `ph`"),
            (doc("5"), "trace event #1: missing string `ph`"),
            (doc(demoted), "trace event #1: missing boolean arg `dropped`"),
            (
                doc(r#"{"name": "gc_pause", "ph": "i", "pid": 0, "tid": 0, "ts": 0}"#),
                "trace event #1: unknown instant `gc_pause` — foreign trace?",
            ),
            (
                doc(r#"{"name": "batch_launched", "ph": "i", "pid": 0, "tid": 0, "ts": 0}"#),
                "trace event #1: unknown instant `batch_launched` — foreign trace?",
            ),
            (
                doc(r#"{"name": "x", "ph": "B", "pid": 0, "tid": 0, "ts": 0}"#),
                "trace event #1: unsupported phase `B`",
            ),
            (doc(span), "trace event #1: `ts` + `dur` overflows the clock"),
            (orphan.to_string(), "trace names no process for pid 7 — truncated or foreign trace?"),
            (unlabelled.to_string(), "trace event #0: process_name metadata without args.name"),
            (r#"{"hello": 1}"#.to_string(), no_array),
            (r#"{"traceEvents": {}, "traceEvents": []}"#.to_string(), no_array),
            ("[1, 2]".to_string(), no_array),
            (
                "[".repeat(100_000) + &"]".repeat(100_000),
                "nesting deeper than 128 levels at byte 128",
            ),
            (doc(r#"{"ph": "i", "x": [1"#), "expected `,` at byte 118"),
            (doc("{}") + " x", "trailing garbage at byte 102"),
            // A decode error before malformed JSON: the JSON error wins.
            (format!(r#"{{"traceEvents": [{{"ph": 1}}, {meta}],"#), "expected `\"` at byte 108"),
            (r#"{"traceEvents": ["abc"#.to_string(), "unterminated string"),
            (r#"{"traceEvents": ["a\uD800"]}"#.to_string(), r"\u escape outside the BMP"),
            (r#"{"traceEvents": ["a\x"]}"#.to_string(), "unsupported escape Some((2, 'x'))"),
            (r#"{"traceEvents" []}"#.to_string(), "expected `:` at byte 15"),
            // A form feed is not JSON whitespace.
            ("{\"traceEvents\":\u{c}[]}".to_string(), "invalid number at byte 15"),
            (String::new(), "unexpected end of input"),
        ];
        for (text, message) in cases {
            let err = read_trickled(&text).unwrap_err().to_string();
            assert_eq!(err, message, "{}", &text[..text.len().min(200)]);
        }
    }

    /// A byte that is not UTF-8 fails the read as reading the file into a
    /// string first would, wherever it is: in a string, between tokens,
    /// after malformed JSON, or cut off at the end.
    #[test]
    fn non_utf8_input_fails_with_one_message() {
        let stream = small_stream();
        let text = written(&[("lane".to_string(), stream.as_slice())]);
        let label = text.find("lane").unwrap();
        let bad = |at: usize, with: &[u8]| {
            let mut bytes = text.as_bytes().to_vec();
            bytes.splice(at..at, with.iter().copied());
            bytes
        };
        let broken = format!("{{\"traceEvents\": [}}{}", "x".repeat(1 << 17));
        let cases = [
            bad(label + 2, b"\xff"),
            bad(label + 2, b"\xc3"),
            bad(1, b"\x80"),
            bad(text.find("\"ts\": 5").unwrap() + 6, b"\xe9"),
            bad(text.len(), b"\xf0\x9f\x98"),
            [broken.as_bytes(), b"\xc3\x28"].concat(),
        ];
        for bytes in cases {
            for err in [read_chrome_trace(&bytes[..]), read_chrome_trace(Trickle(&bytes))] {
                let err = err.unwrap_err().to_string();
                assert_eq!(err, "stream did not contain valid UTF-8");
            }
        }
        // Valid UTF-8 split across reads is not a fault.
        let label = "\u{1F600}".repeat(1 << 15);
        assert_eq!(read_trickled(&written(&[(label.clone(), &[])])).unwrap(), [(label, vec![])]);
        let err = read_chrome_trace(broken.as_bytes()).unwrap_err().to_string();
        assert_eq!(err, "invalid number at byte 17");
    }

    /// The tree adapter reports what the reader reports.
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

    /// The golden bytes of the exposition's ordering edge cases: series
    /// sort by their whole key text, so `SE 2` precedes `SE` (a space
    /// sorts before the closing quote) and tier `10` precedes tier `2`; a
    /// stream without queue-depth samples has no depth gauges, a stream
    /// whose only tier event is a drop has no occupancy gauge, a family
    /// that never fires (spawns, drains, kills, streams) is absent, and an
    /// observation at or past 2^63 lands in the `u64::MAX` bucket.
    #[test]
    fn metrics_text_golden_bytes_of_edge_cases() {
        let at = |at, kind| Event { at, kind };
        let served = |id, latency, missed| EventKind::Served {
            id,
            model: 0,
            instance: 0,
            batch: 0,
            enqueued: 0,
            latency,
            missed,
        };
        let se = vec![
            at(0, EventKind::Admitted { id: 0, model: 0, instance: 0 }),
            at(0, EventKind::QueueDepth { instance: 0, depth: 3 }),
            at(1, EventKind::QueueDepth { instance: 1, depth: 1 }),
            at(2, EventKind::TierColdFetch { instance: 0, model: 0, cycles: 9, bytes: 700 }),
            at(
                2,
                EventKind::TierDemoted {
                    instance: 0,
                    model: 0,
                    to: 10,
                    bytes: 700,
                    dropped: false,
                },
            ),
            at(3, EventKind::TierColdFetch { instance: 1, model: 1, cycles: 5, bytes: 300 }),
            at(
                3,
                EventKind::TierDemoted { instance: 1, model: 1, to: 2, bytes: 300, dropped: false },
            ),
            at(4, EventKind::TierPromoted { instance: 0, model: 2, from: 2, cycles: 0, bytes: 40 }),
            at(4, EventKind::BatchFormed { seq: 0, instance: 0, model: 0, size: 2 }),
            at(4, EventKind::BatchLaunched { seq: 0, instance: 0, model: 0, size: 2, done: 9 }),
            at(9, served(0, u64::MAX, true)),
            at(9, served(1, 6, false)),
            at(9, EventKind::BatchCompleted { seq: 0, instance: 0, size: 2 }),
        ];
        let se2 = vec![
            at(0, EventKind::Rejected { id: 0, model: 0 }),
            at(1, EventKind::TierDemoted { instance: 0, model: 0, to: 1, bytes: 9, dropped: true }),
            at(2, served(1, 1 << 63, true)),
        ];
        let text = metrics_text(&[
            ("SE".to_string(), se.as_slice()),
            ("SE 2".to_string(), se2.as_slice()),
            ("idle".to_string(), &[]),
        ]);
        let golden = concat!(
            "# TYPE se_batches_completed_total counter\n",
            "se_batches_completed_total{stream=\"SE\"} 1\n",
            "# TYPE se_batches_formed_total counter\n",
            "se_batches_formed_total{stream=\"SE\"} 1\n",
            "# TYPE se_batches_launched_total counter\n",
            "se_batches_launched_total{stream=\"SE\"} 1\n",
            "# TYPE se_deadline_misses_total counter\n",
            "se_deadline_misses_total{stream=\"SE 2\"} 1\n",
            "se_deadline_misses_total{stream=\"SE\"} 1\n",
            "# TYPE se_requests_admitted_total counter\n",
            "se_requests_admitted_total{stream=\"SE\"} 1\n",
            "# TYPE se_requests_rejected_total counter\n",
            "se_requests_rejected_total{stream=\"SE 2\"} 1\n",
            "# TYPE se_requests_served_total counter\n",
            "se_requests_served_total{stream=\"SE 2\"} 1\n",
            "se_requests_served_total{stream=\"SE\"} 2\n",
            "# TYPE se_tier_cold_fetches_total counter\n",
            "se_tier_cold_fetches_total{stream=\"SE\"} 2\n",
            "# TYPE se_tier_demotions_total counter\n",
            "se_tier_demotions_total{stream=\"SE\"} 2\n",
            "# TYPE se_tier_drops_total counter\n",
            "se_tier_drops_total{stream=\"SE 2\"} 1\n",
            "# TYPE se_tier_promotions_total counter\n",
            "se_tier_promotions_total{stream=\"SE\"} 1\n",
            "# TYPE se_queue_depth_high_watermark gauge\n",
            "se_queue_depth_high_watermark{stream=\"SE\"} 3\n",
            "# TYPE se_queue_depth gauge\n",
            "se_queue_depth{stream=\"SE\"} 1\n",
            "# TYPE se_tier_occupancy_bytes gauge\n",
            "se_tier_occupancy_bytes{stream=\"SE\",tier=\"0\"} 40\n",
            "se_tier_occupancy_bytes{stream=\"SE\",tier=\"10\"} 700\n",
            "se_tier_occupancy_bytes{stream=\"SE\",tier=\"2\"} 300\n",
            "# TYPE se_batch_cycles histogram\n",
            "se_batch_cycles_bucket{stream=\"SE\",le=\"7\"} 1\n",
            "se_batch_cycles_bucket{stream=\"SE\",le=\"+Inf\"} 1\n",
            "se_batch_cycles{stream=\"SE\",quantile=\"0.5\"} 7\n",
            "se_batch_cycles{stream=\"SE\",quantile=\"0.95\"} 7\n",
            "se_batch_cycles{stream=\"SE\",quantile=\"0.99\"} 7\n",
            "se_batch_cycles_sum{stream=\"SE\"} 5\n",
            "se_batch_cycles_count{stream=\"SE\"} 1\n",
            "# TYPE se_batch_size histogram\n",
            "se_batch_size_bucket{stream=\"SE\",le=\"3\"} 1\n",
            "se_batch_size_bucket{stream=\"SE\",le=\"+Inf\"} 1\n",
            "se_batch_size{stream=\"SE\",quantile=\"0.5\"} 3\n",
            "se_batch_size{stream=\"SE\",quantile=\"0.95\"} 3\n",
            "se_batch_size{stream=\"SE\",quantile=\"0.99\"} 3\n",
            "se_batch_size_sum{stream=\"SE\"} 2\n",
            "se_batch_size_count{stream=\"SE\"} 1\n",
            "# TYPE se_queue_depth_samples histogram\n",
            "se_queue_depth_samples_bucket{stream=\"SE\",le=\"1\"} 1\n",
            "se_queue_depth_samples_bucket{stream=\"SE\",le=\"3\"} 2\n",
            "se_queue_depth_samples_bucket{stream=\"SE\",le=\"+Inf\"} 2\n",
            "se_queue_depth_samples{stream=\"SE\",quantile=\"0.5\"} 1\n",
            "se_queue_depth_samples{stream=\"SE\",quantile=\"0.95\"} 3\n",
            "se_queue_depth_samples{stream=\"SE\",quantile=\"0.99\"} 3\n",
            "se_queue_depth_samples_sum{stream=\"SE\"} 4\n",
            "se_queue_depth_samples_count{stream=\"SE\"} 2\n",
            "# TYPE se_request_latency_cycles histogram\n",
            "se_request_latency_cycles_bucket{stream=\"SE 2\",le=\"18446744073709551615\"} 1\n",
            "se_request_latency_cycles_bucket{stream=\"SE 2\",le=\"+Inf\"} 1\n",
            "se_request_latency_cycles{stream=\"SE 2\",quantile=\"0.5\"} 18446744073709552000\n",
            "se_request_latency_cycles{stream=\"SE 2\",quantile=\"0.95\"} 18446744073709552000\n",
            "se_request_latency_cycles{stream=\"SE 2\",quantile=\"0.99\"} 18446744073709552000\n",
            "se_request_latency_cycles_sum{stream=\"SE 2\"} 9223372036854775808\n",
            "se_request_latency_cycles_count{stream=\"SE 2\"} 1\n",
            "se_request_latency_cycles_bucket{stream=\"SE\",le=\"7\"} 1\n",
            "se_request_latency_cycles_bucket{stream=\"SE\",le=\"18446744073709551615\"} 2\n",
            "se_request_latency_cycles_bucket{stream=\"SE\",le=\"+Inf\"} 2\n",
            "se_request_latency_cycles{stream=\"SE\",quantile=\"0.5\"} 7\n",
            "se_request_latency_cycles{stream=\"SE\",quantile=\"0.95\"} 18446744073709552000\n",
            "se_request_latency_cycles{stream=\"SE\",quantile=\"0.99\"} 18446744073709552000\n",
            "se_request_latency_cycles_sum{stream=\"SE\"} 18446744073709551621\n",
            "se_request_latency_cycles_count{stream=\"SE\"} 2\n",
            "# TYPE se_tier_walk_cycles histogram\n",
            "se_tier_walk_cycles_bucket{stream=\"SE\",le=\"0\"} 1\n",
            "se_tier_walk_cycles_bucket{stream=\"SE\",le=\"7\"} 2\n",
            "se_tier_walk_cycles_bucket{stream=\"SE\",le=\"15\"} 3\n",
            "se_tier_walk_cycles_bucket{stream=\"SE\",le=\"+Inf\"} 3\n",
            "se_tier_walk_cycles{stream=\"SE\",quantile=\"0.5\"} 7\n",
            "se_tier_walk_cycles{stream=\"SE\",quantile=\"0.95\"} 15\n",
            "se_tier_walk_cycles{stream=\"SE\",quantile=\"0.99\"} 15\n",
            "se_tier_walk_cycles_sum{stream=\"SE\"} 14\n",
            "se_tier_walk_cycles_count{stream=\"SE\"} 3\n",
        );
        assert_eq!(text, golden, "{text}");
    }
}
