//! # mgpu-tbdr — a tile-based deferred-rendering GPU timing simulator
//!
//! This crate models the micro-architecture of low-end mobile GPUs — the
//! Broadcom VideoCore IV and the Imagination PowerVR SGX 545 — at the level
//! of detail needed to reproduce the performance effects studied in
//! *"Optimisation Opportunities and Evaluation for GPGPU Applications on
//! Low-End Mobile GPUs"* (Trompouki & Kosmidis, DATE 2017):
//!
//! * **tile-based rendering**: fragments shade in on-chip tiles and write
//!   back over a modelled memory bus, with optional reload of previous
//!   target contents;
//! * **deferred frame pipelining**: vertex/binning work of frame *i+1*
//!   overlaps fragment work of frame *i*, unless a read-after-write hazard
//!   on a single-buffered texture forces a pipeline flush;
//! * **copy engines**: `glCopyTexImage2D`-style framebuffer→texture copies
//!   run on a DMA engine (VideoCore) or a slow blocking path (SGX);
//! * **display synchronisation**: `eglSwapBuffers`, swap intervals and the
//!   60 Hz vsync grid.
//!
//! The scheduler is *analytic*: it consumes [`FrameWork`] descriptions (what
//! a frame uploads, shades, copies and how it synchronises) and produces
//! exact per-frame timings, so simulating the paper's 10 000-iteration
//! benchmark protocol is cheap.
//!
//! # Examples
//!
//! ```
//! use mgpu_tbdr::{FragmentProfile, FrameWork, PipelineSim, Platform, SyncOp};
//!
//! // A cheap streaming kernel over a 1024x1024 grid, no sync: frames
//! // pipeline at the maximum launch rate.
//! let profile = FragmentProfile {
//!     alu_cycles: 10.0,
//!     streaming_fetches: 2.0,
//!     streaming_fetch_bytes: 8.0,
//!     output_bytes: 4.0,
//!     ..FragmentProfile::default()
//! };
//! let mut frame = FrameWork::simple(1024, 1024, profile);
//! frame.sync = SyncOp::None;
//!
//! let mut sim = PipelineSim::new(Platform::videocore_iv());
//! for _ in 0..100 {
//!     sim.submit(&frame);
//! }
//! let report = sim.finish();
//! // Steady state: the average gap between retirements after warm-up.
//! let period = (report.frames[99].retire - report.frames[50].retire) / 49;
//! assert!(period > mgpu_tbdr::SimTime::ZERO);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]
#![warn(clippy::unwrap_used)]
#![warn(clippy::expect_used)]

mod chrome;
mod energy;
mod platform;
mod sched;
mod stats;
mod time;
mod trace;
mod work;

pub use chrome::chrome_trace;
pub use energy::{EnergyEstimate, EnergyModel};
pub use platform::{CopyEngine, Platform, PlatformBuilder, ShaderLimits, TileRect};
pub use sched::PipelineSim;
pub use stats::{FrameTiming, SimReport, Traffic, UnitBusy};
pub use time::{Bandwidth, Clock, SimTime};
pub use trace::{annotate_frame, MemOp, TraceEvent};
pub use work::{
    AllocKind, CopyOut, FragmentProfile, FragmentWork, FrameWork, RenderTarget, ResourceId,
    SkipWork, SyncOp, Upload, VertexWork,
};
