//! Endurance characterization of processing in (nonvolatile) memory.
//!
//! This crate is the primary contribution of the reproduced paper (Resch et
//! al., ISCA 2023): an instruction-level endurance simulator for digital PIM
//! arrays, plus the analyses built on top of it.
//!
//! * [`sim`] — replays a workload's per-iteration trace for many iterations
//!   under a load-balancing configuration, counting every cell write
//!   (epoch-factorized for speed, bit-exact against naive execution);
//! * [`analytic`] — replay-free wear evaluation: per-cell wear as a
//!   function of the iteration count from one epoch walker, folding whole
//!   super-cycles of periodic configurations, bit-identical to [`sim`];
//! * [`artifacts`] — content-addressed memoization of trace walks, logical
//!   panels, and compiled kernels, shared across matrix/sweep/serve cells;
//! * [`lifetime`] — Eq. 4: expected array lifetime from the hottest cell's
//!   write rate and improvement ratios between strategies (Fig. 17,
//!   Table 3);
//! * [`limits`] — the closed-form §3.1 bounds (Eqs. 1–2, the 35.56-day MTJ
//!   and ~5-minute RRAM examples);
//! * [`failure`] — §3.3: usable cells in the presence of failed devices
//!   (Fig. 11b) and the lane-set partitioning workaround;
//! * [`baseline`] — the conventional (CPU + memory) architecture baseline
//!   used for the write-amplification comparison;
//! * [`parallel`] — deterministic fan-out of independent simulations
//!   (workload × config × arch × period matrices) across worker threads;
//! * [`sweep`] — re-mapping-frequency sweeps (§5);
//! * [`system`] — accelerator-level lifetime over many arrays (the §4
//!   server-replacement framing);
//! * [`report`] — heatmap and table rendering for the reproduction harness.
//!
//! # Examples
//!
//! ```
//! use nvpim_array::ArrayDims;
//! use nvpim_core::{EnduranceSimulator, LifetimeModel, SimConfig};
//! use nvpim_workloads::parallel_mul::ParallelMul;
//!
//! let workload = ParallelMul::new(ArrayDims::new(256, 32), 8).build();
//! let sim = EnduranceSimulator::new(SimConfig::default().with_iterations(200));
//! let baseline = sim.run(&workload, "StxSt".parse().unwrap());
//! let balanced = sim.run(&workload, "RaxSt+Hw".parse().unwrap());
//! let model = LifetimeModel::mtj();
//! let improvement = model.improvement(&balanced, &baseline);
//! assert!(improvement > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
pub mod artifacts;
pub mod baseline;
pub mod failure;
mod kernel;
pub mod lifetime;
pub mod limits;
pub mod parallel;
pub mod report;
pub mod sim;
pub mod sweep;
pub mod system;

pub use analytic::{run_configs_analytic, AnalyticPath, AnalyticWearEngine};
pub use artifacts::{ArtifactKind, ArtifactStore, ArtifactUse, StoreStats};
pub use lifetime::{Lifetime, LifetimeModel};
pub use parallel::{fan_out, run_matrix, MatrixPoint};
pub use sim::{EnduranceSimulator, EpochSample, Expired, SimConfig, SimResult};
