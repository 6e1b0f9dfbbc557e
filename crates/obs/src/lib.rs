//! `se_obs` — deterministic tracing, metrics, and trace analytics for
//! the serving stack.
//!
//! The serving runtime (`se_serve`'s discrete-event simulation) advances
//! a *virtual* clock; every scheduling decision happens at a
//! deterministic virtual cycle. This crate gives those decisions a
//! structured, virtual-time-stamped event model ([`Event`]) and a sink
//! abstraction ([`EventSink`]) the scheduler core emits into, plus a
//! metrics fold that turns each event stream into counters, gauges, and
//! log-bucketed histograms held in typed slots, with a Prometheus-style
//! text exposition ([`metrics::render`]), and an analytics engine
//! ([`analyze`]) that turns a stream into windowed timeseries, SLO-miss
//! attributions, and cross-run diffs. Both count events by one rule,
//! [`analyze::StreamTotals::record`]: the exposition's counters are a
//! stream's [`analyze::StreamTotals`].
//!
//! **Determinism contract.** Events are emitted from the serial scheduler
//! core only, stamped with virtual time and never wall-clock time, so the
//! event stream is byte-identical across `--sim-parallelism` values.
//! Everything in [`analyze`] is a pure function of the stream and
//! inherits the contract.
//!
//! The crate is dependency-free so the hardware model (`se_hw`) can
//! construct events without pulling the serving stack in. Exporters that
//! need a JSON renderer (Chrome-trace/Perfetto) live in `se_bench`, as
//! does the `se obs` CLI fronting the analyzer.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analyze;
pub mod event;
pub mod metrics;

pub use event::{Event, EventKind, EventSink, Field, FieldReader, NullSink, Recorder};
pub use metrics::Histogram;
