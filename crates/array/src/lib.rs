//! Instruction-level PIM array simulation substrate.
//!
//! This crate models the memory array of a digital processing-in-memory
//! architecture at the granularity the paper's endurance analysis requires:
//! *every write to every cell is counted* (§4). It provides:
//!
//! * [`ArrayDims`] / [`Orientation`] — array geometry and lane orientation
//!   (the evaluated configuration is column-parallel: a lane is a column);
//! * [`LaneSet`] — the set of lanes an operation is applied to in parallel;
//! * [`ArchStyle`] — sense-amp (Pinatubo-like) vs. preset-output (CRAM-like)
//!   gate semantics, which differ by one extra write per gate;
//! * [`Step`] / [`Trace`] — the physical operation stream of one workload
//!   iteration, in logical (pre-balancing) coordinates;
//! * [`AddressMap`] — the hook through which load-balancing strategies
//!   redirect rows and lanes;
//! * [`WearMap`] — per-cell read/write counters with distribution statistics;
//! * [`PimArray`] — a functional simulator holding actual cell values, used
//!   to verify that traces compute correct results even while being
//!   re-mapped.
//!
//! # Examples
//!
//! ```
//! use nvpim_array::{ArrayDims, LaneSet, WearMap};
//!
//! let dims = ArrayDims::new(1024, 1024);
//! let mut wear = WearMap::new(dims);
//! wear.add_writes(3, &LaneSet::full(1024), 1);
//! assert_eq!(wear.max_writes(), 1);
//! assert_eq!(wear.total_writes(), 1024);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arch;
pub mod array;
pub mod geometry;
pub mod kernel;
pub mod laneset;
pub mod mapping;
pub mod trace;
pub mod wear;

pub use arch::ArchStyle;
pub use array::{ExecStats, PimArray};
pub use geometry::{ArrayDims, Orientation};
pub use kernel::{PermFolder, WearKernel};
pub use laneset::LaneSet;
pub use mapping::{AddressMap, IdentityMap};
pub use trace::{ClassId, Step, Trace, WriteSource};
pub use wear::WearMap;
