//! The SmartExchange accelerator (Section IV of the paper): energy model,
//! memory-hierarchy accounting, Booth/bit-serial arithmetic, and a
//! deterministic tile-level cycle-accurate simulator.
//!
//! # Architecture being modelled
//!
//! * a 3-D PE array: `dimM = 64` PE slices (output channels in parallel),
//!   each with `dimC = 16` PE lines (input channels), each line with
//!   `dimF = 8` bit-serial MACs (adjacent output pixels) fed through a
//!   FIFO — the 1-D row-stationary dataflow of Fig. 6;
//! * two rebuild engines (REs) per PE line holding the basis matrix in a
//!   small register file and reconstructing weight rows with shift-and-add
//!   (ping-ponged to hide basis reloads);
//! * an index selector pairing non-zero coefficient rows with non-zero
//!   activation rows, skipping both the compute and the fetches
//!   (vector-wise sparsity, Fig. 3);
//! * Booth-encoded bit-serial multipliers whose cycle count per
//!   multiplication is the number of non-zero Booth digits of the
//!   activation (bit-level sparsity, Fig. 4);
//! * banked global buffers (input/output/index) plus per-slice weight
//!   buffers in front of DRAM, with the Table V capacities.
//!
//! # Fidelity
//!
//! [`sim::SeAccelerator`] computes cycle and access counts exactly from the
//! trace data (activation Booth digits, coefficient row masks) using the
//! tile decomposition above; a brute-force per-window event loop in the
//! workspace's test tree (`tests/golden`) re-derives the same compute
//! cycles on small layers, and the test suite enforces equality — the
//! reproduction's analogue of the paper validating its simulator against
//! RTL.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod error;

pub mod accelerator;
pub mod config;
pub mod energy;
pub mod residency;
pub mod schedule;
pub mod sim;
pub mod stats;
pub mod window;

pub use accelerator::Accelerator;
pub use config::SeAcceleratorConfig;
pub use energy::{EnergyBreakdown, EnergyModel};
pub use error::HwError;
pub use residency::{ResidencyStats, TierAdmission, TierSpec, TierStats, TieredStore};
pub use schedule::ScheduleKey;
pub use stats::{LayerResult, MemCounters, OpCounters, RunResult};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, HwError>;
