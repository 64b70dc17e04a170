//! # mgpu-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation (§V):
//! one module per figure under [`experiments`], shared measurement
//! plumbing in [`setup`], and plain-text table rendering in [`table`].
//!
//! The `report` binary (`cargo run -p mgpu-bench --release --bin report`)
//! prints every figure and the ablations as markdown; CI diffs it against
//! `golden/report.md`. The gate and host-time binaries share the command
//! line, statistics and `BENCH` output of [`harness`]. Host time of the
//! paper configurations is measured by `perfbench`'s `paper-sim` workload,
//! not here.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod experiments;
pub mod harness;
pub mod setup;
pub mod table;
