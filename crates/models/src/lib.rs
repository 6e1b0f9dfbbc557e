//! Benchmark model zoo for the SmartExchange reproduction.
//!
//! The paper evaluates on nine networks across four datasets; this crate
//! provides:
//!
//! * [`zoo`] — exact layer-by-layer descriptors of all nine
//!   (VGG11, VGG19, ResNet50, ResNet164, MobileNetV2, EfficientNet-B0,
//!   DeepLabV3+, MLP-1, MLP-2), validated against published parameter
//!   counts;
//! * [`weights`] — deterministic synthetic weights with realistic magnitude
//!   statistics (Kaiming fan-in scaling), substituting for the unavailable
//!   pre-trained checkpoints (DESIGN.md);
//! * [`activations`] — synthetic post-ReLU activation maps with realistic
//!   element/bit/vector sparsity, plus the bit-sparsity statistics of
//!   Fig. 4;
//! * [`traces`] — per-layer [`se_ir::LayerTrace`] generation feeding the
//!   accelerator simulators (dense 8-bit weights for the baselines and
//!   SmartExchange-compressed weights for the SE accelerator, from the same
//!   underlying tensors);
//! * [`artifacts`] — persisted whole-network compression artifacts
//!   (`*.senet`), keyed like the `*.setrace` trace files;
//! * [`trainable`] — SmartExchange projection and compression of trainable
//!   `se-nn` models for the accuracy experiments.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod error;

pub mod activations;
pub mod artifacts;
pub mod traces;
pub mod trainable;
pub mod weights;
pub mod zoo;

pub use error::ModelError;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ModelError>;
