#![warn(missing_docs)]
// Hot kernels index several slices in lockstep (limbs, roots, outputs);
// the explicit-index form mirrors the paper's pseudocode and stays clear.
#![allow(clippy::needless_range_loop)]

//! SimFHE: an analytical performance model of CKKS fully homomorphic
//! encryption, reproducing the MAD paper (MICRO '23): "Memory-Aware Design
//! Techniques for Accelerating Fully Homomorphic Encryption".
//!
//! The simulator tracks, for every CKKS primitive (Table 2 of the paper)
//! and for full bootstrapping (Algorithm 4), the number of modular
//! operations and the DRAM bytes moved between main memory and a
//! configurable on-chip memory. On top of it:
//!
//! - [`opts`] toggles the paper's MAD optimizations — caching levels
//!   (§3.1) and algorithmic optimizations (§3.2) — individually.
//! - [`hardware`] models the five accelerator designs of Table 6 with a
//!   roofline runtime.
//! - [`throughput`] implements the Han–Ki bootstrapping-throughput metric
//!   (Eq. 3).
//! - [`search`] runs the brute-force memory-aware parameter search that
//!   produces Table 5.
//! - [`program`] is the one workload language: the straight-line IR the
//!   functional library executes and [`CostModel::program_cost`] prices,
//!   the applications of Figure 6 (built in the `fhe-apps` crate) among
//!   them.
//!
//! The crate is the analytical model and the IR only, and links nothing
//! of the functional crates. The measured side — op counters and the
//! memory trace (`fhe_math::telemetry`), the trace's cache replay
//! (`fhe_program::replay`) and the measured-vs-modeled report
//! (`fhe_program::report`) — lives where the trace is written and read.
//!
//! # Example
//!
//! ```
//! use simfhe::params::SchemeParams;
//! use simfhe::opts::MadConfig;
//! use simfhe::primitives::CostModel;
//!
//! let baseline = CostModel::new(SchemeParams::baseline(), MadConfig::baseline());
//! let mad = CostModel::new(SchemeParams::mad_optimal(), MadConfig::all());
//! let b0 = baseline.bootstrap();
//! let b1 = mad.bootstrap();
//! // MAD improves bootstrapping arithmetic intensity (the paper reports 3×).
//! assert!(b1.cost.arithmetic_intensity() > 1.5 * b0.cost.arithmetic_intensity());
//! ```

pub mod area;
pub mod bootstrap;
pub mod cost;
pub mod hardware;
pub mod matvec;
pub mod opts;
pub mod params;
pub mod primitives;
pub mod program;
pub mod report;
pub mod search;
pub mod throughput;

pub use cost::Cost;
pub use hardware::HardwareConfig;
pub use opts::{AlgoOpts, CachingLevel, MadConfig};
pub use params::SchemeParams;
pub use primitives::CostModel;
