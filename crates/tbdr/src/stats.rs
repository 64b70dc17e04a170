//! Timing results and aggregate statistics produced by the scheduler.

use crate::time::SimTime;

/// When each stage of one frame ran.
///
/// All instants are simulated time; see [`crate::PipelineSim`] for the
/// scheduling rules that produce them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameTiming {
    /// Zero-based submission index.
    pub index: usize,
    /// The frame's label, copied from [`crate::FrameWork::label`].
    pub label: String,
    /// When the CPU began working on this frame.
    pub cpu_start: SimTime,
    /// When the CPU finished uploads/conversions and submitted the draw.
    pub submit: SimTime,
    /// Vertex/binning stage interval.
    pub vtx_start: SimTime,
    /// End of the vertex/binning stage.
    pub vtx_end: SimTime,
    /// Fragment stage start (after hazard waits and flushes).
    pub frag_start: SimTime,
    /// Fragment stage end (including producer-chasing constraints).
    pub frag_end: SimTime,
    /// Copy-engine interval, if the frame had a copy-out.
    pub copy: Option<(SimTime, SimTime)>,
    /// When every piece of this frame's GPU work has retired.
    pub retire: SimTime,
    /// When the CPU may start the next frame (after sync/vsync waits).
    pub next_cpu_free: SimTime,
    /// CPU time lost waiting to reuse storage the GPU still referenced.
    pub upload_stall: SimTime,
    /// Whether the frame paid the single-buffered render-to-texture
    /// dependency flush.
    pub dependency_flush: bool,
    /// Time spent waiting for the display tick inside `eglSwapBuffers`.
    pub vsync_wait: SimTime,
}

impl FrameTiming {
    /// Wall-to-wall latency of the frame, CPU start to full retirement.
    #[must_use]
    pub fn latency(&self) -> SimTime {
        self.retire.max(self.next_cpu_free) - self.cpu_start
    }
}

/// Byte counters for the memory movements of the paper's Fig. 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Traffic {
    /// CPU→GPU uploads (steps 1–2).
    pub upload_bytes: u64,
    /// Tile writeback into the target (steps 3/5).
    pub writeback_bytes: u64,
    /// Reload of previous target contents into tiles (step 6).
    pub reload_bytes: u64,
    /// Framebuffer→texture copy payload (step 4).
    pub copy_bytes: u64,
    /// Per-tile input signatures fetched and compared for tiles whose
    /// shading was elided by tile-level redundancy elimination. Zero unless
    /// `MGPU_TILE_SKIP=on` produced actual skips.
    pub signature_bytes: u64,
}

impl Traffic {
    /// Total bytes moved.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.upload_bytes
            + self.writeback_bytes
            + self.reload_bytes
            + self.copy_bytes
            + self.signature_bytes
    }
}

/// Accumulated busy time per functional unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct UnitBusy {
    /// CPU (driver + application) busy time.
    pub cpu: SimTime,
    /// Vertex/binning unit busy time.
    pub vertex: SimTime,
    /// Fragment unit busy time.
    pub fragment: SimTime,
    /// Copy engine busy time.
    pub copy: SimTime,
}

/// The full result of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Name of the simulated platform.
    pub platform_name: String,
    /// Per-frame timings, in submission order.
    pub frames: Vec<FrameTiming>,
    /// Aggregate traffic counters.
    pub traffic: Traffic,
    /// Aggregate unit busy times.
    pub busy: UnitBusy,
    /// Retirement time of the last frame.
    pub total_time: SimTime,
}

impl SimReport {
    /// Utilisation of each unit over the whole run, in `[0, 1]`.
    #[must_use]
    pub fn utilisation(&self) -> [(&'static str, f64); 4] {
        let total = self.total_time.as_secs_f64().max(f64::MIN_POSITIVE);
        [
            ("cpu", self.busy.cpu.as_secs_f64() / total),
            ("vertex", self.busy.vertex.as_secs_f64() / total),
            ("fragment", self.busy.fragment.as_secs_f64() / total),
            ("copy", self.busy.copy.as_secs_f64() / total),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing(i: usize, retire_ns: u64) -> FrameTiming {
        FrameTiming {
            index: i,
            label: String::new(),
            cpu_start: SimTime::ZERO,
            submit: SimTime::ZERO,
            vtx_start: SimTime::ZERO,
            vtx_end: SimTime::ZERO,
            frag_start: SimTime::ZERO,
            frag_end: SimTime::from_nanos(retire_ns),
            copy: None,
            retire: SimTime::from_nanos(retire_ns),
            next_cpu_free: SimTime::from_nanos(retire_ns),
            upload_stall: SimTime::ZERO,
            dependency_flush: false,
            vsync_wait: SimTime::ZERO,
        }
    }

    #[test]
    fn traffic_total_sums_counters() {
        let t = Traffic {
            upload_bytes: 1,
            writeback_bytes: 2,
            reload_bytes: 3,
            copy_bytes: 4,
            signature_bytes: 5,
        };
        assert_eq!(t.total(), 15);
    }

    #[test]
    fn latency_spans_cpu_to_retire() {
        let mut t = timing(0, 500);
        t.cpu_start = SimTime::from_nanos(100);
        assert_eq!(t.latency(), SimTime::from_nanos(400));
    }
}
