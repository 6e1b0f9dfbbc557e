//! The accelerator interface shared by the SmartExchange design and the
//! four baselines.

use crate::{LayerResult, Result};
use se_ir::LayerTrace;

/// A DNN inference accelerator model: consumes per-layer traces, produces
/// cycle/energy-accountable results.
///
/// All five accelerators in this workspace (SmartExchange, DianNao, SCNN,
/// Cambricon-X, Bit-pragmatic) implement this trait, so the benchmark
/// harness can sweep them uniformly over the same traces.
pub trait Accelerator {
    /// Human-readable accelerator name (as it appears in the figures).
    fn name(&self) -> &str;

    /// Configured DRAM bandwidth in bytes per cycle — the constant this
    /// design converts traffic into transfer cycles with. Batched results
    /// ([`LayerResult::amortized_over_batch`]) re-derive their DRAM time
    /// from it.
    fn dram_bytes_per_cycle(&self) -> f64;

    /// Processes one layer trace.
    ///
    /// # Errors
    ///
    /// Returns an error when the trace's weight form or layer kind is not
    /// supported by this design (e.g. SCNN and FC layers, per the paper's
    /// protocol).
    fn process_layer(&self, trace: &LayerTrace) -> Result<LayerResult>;
}
