//! The pipeline scheduler: turns a stream of [`FrameWork`] descriptions into
//! per-frame timings on a tile-based deferred-rendering GPU.
//!
//! # Model
//!
//! Four units process each frame in order, each becoming free for the next
//! frame as soon as its stage completes (this is what lets consecutive
//! frames overlap on a deferred architecture):
//!
//! 1. **CPU** — application conversions, uploads (with allocation costs and
//!    reuse stalls), draw submission, and the waits implied by
//!    `eglSwapBuffers` / vsync.
//! 2. **Vertex unit** — vertex shading plus the TBDR binning pass
//!    (parameter-buffer construction, proportional to tile count).
//! 3. **Fragment unit** — per-tile shading with the cost profile derived by
//!    the shader compiler, tile writeback on the memory bus, and optional
//!    reload of previous target contents (step 6 of the paper's Fig. 1).
//! 4. **Copy engine** — framebuffer→texture copies (step 4 of Fig. 1),
//!    asynchronous, DMA-assisted or a slow conversion path depending on the
//!    platform.
//!
//! Cross-frame hazards are tracked per *storage* ([`ResourceId`]):
//!
//! * sampling a texture rendered by a still-in-flight frame costs the
//!   platform's [`dependency_flush`](crate::Platform::dependency_flush)
//!   (single-buffered render-to-texture dependency — the deferred-pipeline
//!   bubble of the paper's §II);
//! * reading a copy destination pipelines at tile granularity when the
//!   destination is *fresh* storage (or the copy engine is DMA-ordered), but
//!   waits for copy completion when the destination is reused — the
//!   false-sharing effect of the paper's Fig. 5b;
//! * a framebuffer surface may not be re-rendered until the copy reading it
//!   has drained, which is why the double-buffered window framebuffer keeps
//!   multi-pass pipelines moving while a no-swap loop on a single surface
//!   serialises.

use std::collections::HashMap;

use crate::platform::{CopyEngine, Platform};
use crate::stats::{FrameTiming, SimReport, Traffic, UnitBusy};
use crate::time::SimTime;
use crate::work::{
    AllocKind, FragmentWork, FrameWork, RenderTarget, ResourceId, SyncOp, VertexWork,
};

/// What last wrote a piece of storage, and when the write retires.
#[derive(Debug, Clone, Copy)]
enum LastWrite {
    /// Written by a fragment pass that ends at the given time; `frame` is
    /// the producer's submission index (for consecutive-frame detection).
    Fragment { end: SimTime, frame: usize },
    /// Written by a copy; `pipelined` readers may chase the copy head.
    Copy {
        start: SimTime,
        end: SimTime,
        pipelined: bool,
    },
}

impl LastWrite {
    fn end(&self) -> SimTime {
        match *self {
            LastWrite::Fragment { end, .. } | LastWrite::Copy { end, .. } => end,
        }
    }
}

/// A deterministic, analytic scheduler for frame streams on one platform.
///
/// # Examples
///
/// ```
/// use mgpu_tbdr::{FragmentProfile, FrameWork, PipelineSim, Platform};
///
/// let mut sim = PipelineSim::new(Platform::videocore_iv());
/// let frame = FrameWork::simple(256, 256, FragmentProfile {
///     alu_cycles: 8.0,
///     output_bytes: 4.0,
///     ..FragmentProfile::default()
/// });
/// let t = sim.submit(&frame);
/// assert!(t.frag_end > t.frag_start);
/// ```
#[derive(Debug)]
pub struct PipelineSim {
    platform: Platform,
    cpu_free: SimTime,
    vertex_free: SimTime,
    fragment_free: SimTime,
    copy_free: SimTime,
    /// Per window-framebuffer surface: earliest time it may be re-rendered.
    surface_free: Vec<SimTime>,
    writers: HashMap<ResourceId, LastWrite>,
    /// Latest time each storage finishes being read by a fragment pass.
    readers: HashMap<ResourceId, SimTime>,
    prev_frag_end: SimTime,
    frames: Vec<FrameTiming>,
    /// Running maximum of `retire.max(next_cpu_free)` over `frames`.
    total_time: SimTime,
    traffic: Traffic,
    busy: UnitBusy,
}

impl PipelineSim {
    /// Creates a scheduler for the given platform with an idle pipeline.
    #[must_use]
    pub fn new(platform: Platform) -> Self {
        let surfaces = platform.framebuffer_surfaces.max(1) as usize;
        PipelineSim {
            platform,
            cpu_free: SimTime::ZERO,
            vertex_free: SimTime::ZERO,
            fragment_free: SimTime::ZERO,
            copy_free: SimTime::ZERO,
            surface_free: vec![SimTime::ZERO; surfaces],
            writers: HashMap::new(),
            readers: HashMap::new(),
            prev_frag_end: SimTime::ZERO,
            frames: Vec::new(),
            total_time: SimTime::ZERO,
            traffic: Traffic::default(),
            busy: UnitBusy::default(),
        }
    }

    /// The platform this scheduler simulates.
    #[must_use]
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Time the vertex stage of `work` occupies the vertex unit.
    #[must_use]
    pub fn vertex_time(&self, work: &VertexWork, fragment: &FragmentWork) -> SimTime {
        let p = &self.platform;
        let shade = work.vertices as f64 * p.cycles_per_vertex;
        let tiles = p.tiles_for(fragment.width, fragment.height) as f64;
        let binning = tiles * p.binning_cycles_per_tile;
        p.vertex_clock.time_for_cycles_f64(shade + binning)
    }

    /// Time the fragment stage of `work` occupies the fragment unit,
    /// including tile writeback on the memory bus and the optional reload of
    /// previous target contents.
    ///
    /// `reused_target` charges the platform's render-to-reused-storage
    /// surcharge (see [`Platform::rtt_reuse_sync_frac`]).
    #[must_use]
    pub fn fragment_time(&self, work: &FragmentWork, reused_target: bool) -> SimTime {
        let p = &self.platform;
        let prof = &work.profile;
        // Tiles elided by redundancy elimination shade no fragments and pay
        // no per-tile scheduling overhead; instead their input signatures
        // travel the memory bus (charged below). With `work.skip` zero this
        // reduces bit-identically to the pre-skip model.
        let skip = work.skip;
        let frags = work.fragments.saturating_sub(skip.skipped_fragments) as f64;

        // Latency-bound serial cycles: dependent fetches whose misses cannot
        // be hidden by multithreading on this platform.
        let serial_per_frag = prof.dependent_fetches * p.dependent_fetch_latency_cycles
            + prof.dependent_fetch_bytes * p.dependent_byte_cycles;
        // Throughput-bound cycles, divided across the fragment lanes.
        let parallel_per_frag = prof.alu_cycles
            + (prof.streaming_fetch_bytes + prof.dependent_fetch_bytes) * p.fetch_byte_cycles;

        let par = p.fragment_parallelism.max(1.0);
        let cycles = if p.latency_hidden {
            frags * (serial_per_frag + parallel_per_frag) / par
        } else {
            frags * (serial_per_frag + parallel_per_frag / par)
        } + p
            .tiles_for(work.width, work.height)
            .saturating_sub(skip.skipped_tiles) as f64
            * p.tile_overhead_cycles;
        let compute = p.fragment_clock.time_for_cycles_f64(cycles);

        let writeback = (frags * prof.output_bytes) as u64;
        let reload = if work.cleared {
            0
        } else {
            u64::from(work.width) * u64::from(work.height) * 4
        };
        // Writeback streams behind shading (and signature reads stream with
        // it); the preserve-reload sits on the critical path at the start of
        // each tile.
        let mem = p.mem_bandwidth.time_for(writeback + skip.signature_bytes);
        let base = compute.max(mem) + p.mem_bandwidth.time_for(reload);
        if reused_target && p.rtt_reuse_sync_frac > 0.0 {
            base + SimTime::from_secs_f64(base.as_secs_f64() * p.rtt_reuse_sync_frac)
        } else {
            base
        }
    }

    /// Time the copy engine needs to move `bytes` from the framebuffer to a
    /// texture (it reads the source and writes the destination, so the bus
    /// sees twice the payload).
    #[must_use]
    pub fn copy_time(&self, bytes: u64) -> SimTime {
        let p = &self.platform;
        p.copy_setup + p.copy_engine.bandwidth().time_for(bytes.saturating_mul(2))
    }

    /// Estimated GPU occupancy of one draw in isolation: vertex shading and
    /// binning plus fragment shading of the frame's own work, ignoring
    /// cross-frame hazards and queueing.
    ///
    /// This is the quantity a mobile driver's per-draw watchdog compares
    /// against its kill budget — a draw is killed for taking too long on the
    /// GPU, not for waiting behind other work — and is what `mgpu-gles` uses
    /// to drive the injected watchdog fault.
    #[must_use]
    pub fn draw_cost(&self, frame: &FrameWork) -> SimTime {
        let reused_target = matches!(frame.target, RenderTarget::Texture { fresh: false, .. });
        self.vertex_time(&frame.vertex, &frame.fragment)
            + self.fragment_time(&frame.fragment, reused_target)
    }

    /// Schedules one frame and returns its timing.
    pub fn submit(&mut self, frame: &FrameWork) -> FrameTiming {
        let p = self.platform.clone();
        let index = self.frames.len();

        // ---- CPU phase: uploads, conversions, submission --------------
        let cpu_start = self.cpu_free;
        let mut t = cpu_start;
        let mut upload_stall = SimTime::ZERO;
        for up in &frame.uploads {
            match up.alloc {
                AllocKind::Fresh => {
                    // Page population only costs when data is written;
                    // allocate-only calls (e.g. render-target storage)
                    // reserve address space without touching pages.
                    t += p.alloc_base;
                    if up.copy_bytes > 0 {
                        t += p.alloc_bandwidth.time_for(up.alloc_bytes);
                    }
                }
                AllocKind::Reuse => {
                    // Wait until the deferred GPU can no longer reference the
                    // storage, then pay the driver's no-rename stall.
                    let gpu_busy = self
                        .writers
                        .get(&up.resource)
                        .map(LastWrite::end)
                        .unwrap_or(SimTime::ZERO)
                        .max(
                            self.readers
                                .get(&up.resource)
                                .copied()
                                .unwrap_or(SimTime::ZERO),
                        );
                    if gpu_busy > t {
                        upload_stall += gpu_busy - t;
                        t = gpu_busy;
                    }
                    t += p.reuse_upload_stall;
                }
            }
            t += p.cpu_copy_bandwidth.time_for(up.copy_bytes);
            self.traffic.upload_bytes += up.copy_bytes;
            // An upload makes the CPU the last writer of the storage; a CPU
            // write never triggers the deferred-pipeline flush, so it is
            // recorded with a sentinel frame index.
            self.writers.insert(
                up.resource,
                LastWrite::Fragment {
                    end: t,
                    frame: usize::MAX,
                },
            );
        }
        t += frame.cpu_extra + p.draw_submit_overhead;
        let submit = t;
        self.busy.cpu += submit - cpu_start;

        // ---- Vertex stage (with TBDR binning) --------------------------
        let mut vtx_start = submit.max(self.vertex_free);
        if !p.deferred {
            // Immediate-mode ablation: no overlap with the previous frame.
            vtx_start = vtx_start.max(self.prev_frag_end);
        }
        let vtx_time = self.vertex_time(&frame.vertex, &frame.fragment);
        let vtx_end = vtx_start + vtx_time;
        self.vertex_free = vtx_end;
        self.busy.vertex += vtx_time;

        // ---- Fragment stage --------------------------------------------
        let mut frag_ready = vtx_end.max(self.fragment_free);
        let mut reused_target = false;
        match frame.target {
            RenderTarget::Framebuffer { surface } => {
                let s = surface as usize % self.surface_free.len();
                frag_ready = frag_ready.max(self.surface_free[s]);
            }
            RenderTarget::Texture { storage, fresh } => {
                reused_target = !fresh;
                // Single-buffered target: wait for in-flight readers/writers.
                if let Some(w) = self.writers.get(&storage) {
                    frag_ready = frag_ready.max(w.end());
                }
                if let Some(&r) = self.readers.get(&storage) {
                    frag_ready = frag_ready.max(r);
                }
            }
        }

        // Read-after-write hazards on sampled textures.
        let mut dependency_flush = false;
        let mut min_frag_end = SimTime::ZERO;
        for r in &frame.reads {
            if let Some(w) = self.writers.get(r) {
                match *w {
                    LastWrite::Fragment { end, frame: wf } => {
                        // The deferred pipeline only bubbles when the
                        // producer is the immediately preceding frame and
                        // had not drained by submission time (paper §II).
                        if wf != usize::MAX && wf + 1 == index && end > submit {
                            frag_ready = frag_ready.max(end);
                            dependency_flush = true;
                        } else {
                            frag_ready = frag_ready.max(end);
                        }
                    }
                    LastWrite::Copy {
                        start,
                        end,
                        pipelined,
                    } => {
                        if pipelined {
                            frag_ready = frag_ready.max(start + p.copy_chunk_latency);
                            // A consumer cannot outrun its producer.
                            min_frag_end = min_frag_end.max(end);
                        } else {
                            frag_ready = frag_ready.max(end);
                        }
                    }
                }
            }
        }
        if dependency_flush {
            frag_ready += p.dependency_flush;
        }

        let frag_time = self.fragment_time(&frame.fragment, reused_target);
        let frag_start = frag_ready;
        let frag_end = (frag_start + frag_time).max(min_frag_end);
        self.fragment_free = frag_end;
        self.prev_frag_end = frag_end;
        self.busy.fragment += frag_end - frag_start;

        let shaded = frame
            .fragment
            .fragments
            .saturating_sub(frame.fragment.skip.skipped_fragments);
        let out_bytes = (shaded as f64 * frame.fragment.profile.output_bytes) as u64;
        self.traffic.writeback_bytes += out_bytes;
        self.traffic.signature_bytes += frame.fragment.skip.signature_bytes;
        if !frame.fragment.cleared {
            self.traffic.reload_bytes +=
                u64::from(frame.fragment.width) * u64::from(frame.fragment.height) * 4;
        }

        for r in &frame.reads {
            let e = self.readers.entry(*r).or_insert(SimTime::ZERO);
            *e = (*e).max(frag_end);
        }
        if let RenderTarget::Texture { storage, .. } = frame.target {
            self.writers.insert(
                storage,
                LastWrite::Fragment {
                    end: frag_end,
                    frame: index,
                },
            );
        }

        // ---- Copy-out stage (step 4 of Fig. 1) --------------------------
        let mut copy_interval = None;
        let mut copy_end_for_surface = frag_end;
        if let Some(copy) = &frame.copy_out {
            let mut copy_start = frag_end.max(self.copy_free);
            // Destination hazards: a reused destination must wait for every
            // in-flight use of that storage (false sharing).
            if copy.alloc == AllocKind::Reuse {
                if let Some(w) = self.writers.get(&copy.dest) {
                    copy_start = copy_start.max(w.end());
                }
                if let Some(&r) = self.readers.get(&copy.dest) {
                    copy_start = copy_start.max(r);
                }
            }
            let copy_end = copy_start + self.copy_time(copy.bytes);
            self.copy_free = copy_end;
            self.busy.copy += copy_end - copy_start;
            self.traffic.copy_bytes += copy.bytes;
            // DMA queues stay ordered with GPU work, so readers may chase
            // the copy even into reused storage; the blocking path only
            // pipelines into freshly allocated (renameable) destinations.
            let pipelined = match p.copy_engine {
                CopyEngine::Dma { .. } => true,
                CopyEngine::Blocking { .. } => copy.alloc == AllocKind::Fresh,
            };
            self.writers.insert(
                copy.dest,
                LastWrite::Copy {
                    start: copy_start,
                    end: copy_end,
                    pipelined,
                },
            );
            copy_interval = Some((copy_start, copy_end));
            copy_end_for_surface = copy_end;
        }

        // The rendered surface stays busy until the copy has read it out.
        if let RenderTarget::Framebuffer { surface } = frame.target {
            let s = surface as usize % self.surface_free.len();
            self.surface_free[s] = copy_end_for_surface;
        }

        // ---- End-of-frame synchronisation -------------------------------
        let retire = copy_interval.map_or(frag_end, |(_, e)| e.max(frag_end));
        let mut vsync_wait = SimTime::ZERO;
        self.cpu_free = match frame.sync {
            SyncOp::None => submit,
            SyncOp::Finish => submit.max(retire),
            SyncOp::Swap { interval } => {
                // eglSwapBuffers waits for rendering (not the async copy),
                // then for the display tick when an interval is set.
                let done = submit.max(frag_end);
                let after = if interval == 0 {
                    done
                } else {
                    let period = p.refresh_period * u64::from(interval);
                    let ticked = done.round_up_to(period);
                    vsync_wait = ticked - done;
                    ticked
                };
                after + p.swap_overhead
            }
        };

        let timing = FrameTiming {
            index,
            label: frame.label.clone(),
            cpu_start,
            submit,
            vtx_start,
            vtx_end,
            frag_start,
            frag_end,
            copy: copy_interval,
            retire,
            next_cpu_free: self.cpu_free,
            upload_stall,
            dependency_flush,
            vsync_wait,
        };
        // An earlier frame's asynchronous copy can retire after later
        // frames, so the end of the simulation is a running maximum.
        self.total_time = self.total_time.max(retire.max(self.cpu_free));
        self.frames.push(timing.clone());
        timing
    }

    /// Schedules every frame in `frames` in order.
    pub fn run<'a>(&mut self, frames: impl IntoIterator<Item = &'a FrameWork>) {
        for f in frames {
            self.submit(f);
        }
    }

    /// Simulated time elapsed so far: the latest instant any submitted
    /// frame retires or releases the CPU, which is the `total_time` of
    /// [`PipelineSim::report`]. Kept as a running maximum, so reading it
    /// costs the same however many frames were submitted.
    #[must_use]
    pub fn total_time(&self) -> SimTime {
        self.total_time
    }

    /// Snapshots the report so far without ending the simulation.
    #[must_use]
    pub fn report(&self) -> SimReport {
        SimReport {
            platform_name: self.platform.name.clone(),
            frames: self.frames.clone(),
            traffic: self.traffic,
            busy: self.busy,
            total_time: self.total_time,
        }
    }

    /// Finishes the simulation and returns the report.
    #[must_use]
    pub fn finish(self) -> SimReport {
        SimReport {
            platform_name: self.platform.name.clone(),
            frames: self.frames,
            traffic: self.traffic,
            busy: self.busy,
            total_time: self.total_time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::work::{CopyOut, FragmentProfile, Upload};

    fn quick_profile() -> FragmentProfile {
        FragmentProfile {
            alu_cycles: 8.0,
            streaming_fetches: 2.0,
            streaming_fetch_bytes: 8.0,
            dependent_fetches: 0.0,
            dependent_fetch_bytes: 0.0,
            output_bytes: 4.0,
        }
    }

    fn frame(platform_sync: SyncOp) -> FrameWork {
        let mut f = FrameWork::simple(256, 256, quick_profile());
        f.sync = platform_sync;
        f
    }

    #[test]
    fn stages_are_ordered_within_a_frame() {
        let mut sim = PipelineSim::new(Platform::sgx_545());
        let t = sim.submit(&frame(SyncOp::None));
        assert!(t.cpu_start <= t.submit);
        assert!(t.submit <= t.vtx_start);
        assert!(t.vtx_start <= t.vtx_end);
        assert!(t.vtx_end <= t.frag_start);
        assert!(t.frag_start < t.frag_end);
        assert_eq!(t.retire, t.frag_end);
    }

    #[test]
    fn no_sync_lets_frames_pipeline() {
        // With SyncOp::None the CPU should race ahead of the GPU.
        let mut sim = PipelineSim::new(Platform::videocore_iv());
        let a = sim.submit(&frame(SyncOp::None));
        let b = sim.submit(&frame(SyncOp::None));
        assert!(b.cpu_start < a.frag_end, "CPU should not wait for the GPU");
    }

    #[test]
    fn finish_serialises_frames() {
        let mut sim = PipelineSim::new(Platform::videocore_iv());
        let a = sim.submit(&frame(SyncOp::Finish));
        let b = sim.submit(&frame(SyncOp::Finish));
        assert!(b.cpu_start >= a.frag_end);
    }

    #[test]
    fn swap_with_interval_waits_for_vsync_tick() {
        let p = Platform::videocore_iv();
        let period = p.refresh_period;
        let mut sim = PipelineSim::new(p);
        let t = sim.submit(&frame(SyncOp::Swap { interval: 1 }));
        let next_free = t.next_cpu_free;
        // next_cpu_free = tick + swap_overhead, where tick is on the grid.
        let tick = next_free - sim.platform().swap_overhead;
        assert_eq!(tick, tick.round_up_to(period));
        assert!(t.vsync_wait > SimTime::ZERO);
    }

    #[test]
    fn swap_interval_zero_skips_vsync_wait() {
        let mut sim = PipelineSim::new(Platform::videocore_iv());
        let t = sim.submit(&frame(SyncOp::Swap { interval: 0 }));
        assert_eq!(t.vsync_wait, SimTime::ZERO);
    }

    #[test]
    fn dependency_on_rendered_texture_flushes_pipeline() {
        // A heavy kernel keeps the producer in flight when the consumer is
        // submitted — the condition for the deferred-pipeline bubble.
        let p = Platform::videocore_iv();
        let heavy = FragmentProfile {
            alu_cycles: 200.0,
            output_bytes: 4.0,
            ..FragmentProfile::default()
        };
        let mut c = 0;
        let tex = ResourceId::next(&mut c);
        let mut producer = FrameWork::simple(1024, 1024, heavy);
        producer.target = RenderTarget::Texture {
            storage: tex,
            fresh: true,
        };
        let mut consumer = FrameWork::simple(1024, 1024, heavy);
        consumer.reads.push(tex);

        let mut sim = PipelineSim::new(p.clone());
        let a = sim.submit(&producer);
        let b = sim.submit(&consumer);
        assert!(b.dependency_flush);
        assert!(b.frag_start >= a.frag_end + p.dependency_flush);

        // Independent frames do not pay the flush.
        let mut sim2 = PipelineSim::new(p.clone());
        let _ = sim2.submit(&producer);
        let c2 = sim2.submit(&FrameWork::simple(1024, 1024, heavy));
        assert!(!c2.dependency_flush);

        // Nor does a consumer whose producer already drained (the paper's
        // point: the bubble only hurts pipelined execution).
        let mut sim3 = PipelineSim::new(p);
        let mut drained_producer = producer.clone();
        drained_producer.sync = SyncOp::Finish;
        let _ = sim3.submit(&drained_producer);
        let d = sim3.submit(&consumer);
        assert!(!d.dependency_flush);
    }

    #[test]
    fn copy_out_runs_after_fragment_and_occupies_copy_engine() {
        let mut c = 0;
        let dst = ResourceId::next(&mut c);
        let mut f = frame(SyncOp::None);
        f.copy_out = Some(CopyOut {
            dest: dst,
            bytes: 256 * 256 * 4,
            alloc: AllocKind::Fresh,
        });
        let mut sim = PipelineSim::new(Platform::videocore_iv());
        let t = sim.submit(&f);
        let (cs, ce) = t.copy.expect("copy scheduled");
        assert!(cs >= t.frag_end);
        assert!(ce > cs);
        assert_eq!(t.retire, ce);
    }

    #[test]
    fn reader_of_fresh_copy_destination_pipelines() {
        // Consumer of a freshly-allocated copy destination starts near the
        // copy start, not its end — even on the blocking SGX path.
        let p = Platform::sgx_545();
        let mut c = 0;
        let dst = ResourceId::next(&mut c);
        let mut producer = frame(SyncOp::None);
        producer.copy_out = Some(CopyOut {
            dest: dst,
            bytes: 256 * 256 * 4,
            alloc: AllocKind::Fresh,
        });
        let mut consumer = frame(SyncOp::None);
        consumer.reads.push(dst);
        // Render to the other double-buffer surface so only the copy hazard
        // is in play.
        consumer.target = RenderTarget::Framebuffer { surface: 1 };

        let mut sim = PipelineSim::new(p.clone());
        let a = sim.submit(&producer);
        let b = sim.submit(&consumer);
        let (cs, ce) = a.copy.unwrap();
        assert!(b.frag_start <= cs + p.copy_chunk_latency + p.dependency_flush);
        // ... but cannot retire before its producer.
        assert!(b.frag_end >= ce);
    }

    #[test]
    fn reader_of_reused_copy_destination_waits_on_blocking_engine() {
        let p = Platform::sgx_545();
        let mut c = 0;
        let dst = ResourceId::next(&mut c);
        let mut producer = frame(SyncOp::None);
        producer.copy_out = Some(CopyOut {
            dest: dst,
            bytes: 256 * 256 * 4,
            alloc: AllocKind::Reuse,
        });
        let mut consumer = frame(SyncOp::None);
        consumer.reads.push(dst);

        let mut sim = PipelineSim::new(p);
        let a = sim.submit(&producer);
        let b = sim.submit(&consumer);
        let (_, ce) = a.copy.unwrap();
        assert!(b.frag_start >= ce, "false sharing must serialise");
    }

    #[test]
    fn reused_upload_waits_for_gpu_readers() {
        let p = Platform::sgx_545();
        let mut c = 0;
        let tex = ResourceId::next(&mut c);
        let mut reader = frame(SyncOp::None);
        reader.reads.push(tex);

        let mut uploader = frame(SyncOp::None);
        uploader.uploads.push(Upload::reuse(tex, 1024));

        let mut sim = PipelineSim::new(p);
        let a = sim.submit(&reader);
        let b = sim.submit(&uploader);
        assert!(b.upload_stall > SimTime::ZERO);
        assert!(b.submit >= a.frag_end);
    }

    #[test]
    fn fresh_upload_does_not_stall() {
        let mut c = 0;
        let tex = ResourceId::next(&mut c);
        let mut reader = frame(SyncOp::None);
        reader.reads.push(tex);
        let mut uploader = frame(SyncOp::None);
        uploader
            .uploads
            .push(Upload::fresh(ResourceId::next(&mut c), 1024));
        let mut sim = PipelineSim::new(Platform::sgx_545());
        let _ = sim.submit(&reader);
        let b = sim.submit(&uploader);
        assert_eq!(b.upload_stall, SimTime::ZERO);
    }

    #[test]
    fn single_surface_serialises_no_swap_framebuffer_loops() {
        // Rendering repeatedly to the same FB surface with a copy-out cannot
        // overlap: the surface is busy until the copy drains.
        let mut c = 0;
        let mk = |c: &mut u64| {
            let mut f = frame(SyncOp::None);
            f.copy_out = Some(CopyOut {
                dest: ResourceId::next(c),
                bytes: 256 * 256 * 4,
                alloc: AllocKind::Fresh,
            });
            f
        };
        let mut sim = PipelineSim::new(Platform::videocore_iv());
        let a = sim.submit(&mk(&mut c));
        let b = sim.submit(&mk(&mut c));
        let (_, a_copy_end) = a.copy.unwrap();
        assert!(b.frag_start >= a_copy_end);

        // Alternating surfaces (as a swap does) restores overlap.
        let mut sim2 = PipelineSim::new(Platform::videocore_iv());
        let mut f0 = mk(&mut c);
        f0.target = RenderTarget::Framebuffer { surface: 0 };
        let mut f1 = mk(&mut c);
        f1.target = RenderTarget::Framebuffer { surface: 1 };
        let a2 = sim2.submit(&f0);
        let b2 = sim2.submit(&f1);
        let (a2_copy_start, _) = a2.copy.unwrap();
        let one_copy = sim2.copy_time(256 * 256 * 4);
        assert!(b2.frag_start < a2_copy_start + one_copy);
    }

    #[test]
    fn non_deferred_ablation_removes_overlap() {
        let p = Platform::videocore_iv()
            .to_builder()
            .deferred(false)
            .build();
        let mut sim = PipelineSim::new(p);
        let a = sim.submit(&frame(SyncOp::None));
        let b = sim.submit(&frame(SyncOp::None));
        assert!(b.vtx_start >= a.frag_end);
    }

    #[test]
    fn preserve_load_costs_more_than_cleared() {
        let sim = PipelineSim::new(Platform::sgx_545());
        let mut w = FrameWork::simple(512, 512, quick_profile()).fragment;
        w.cleared = true;
        let cleared = sim.fragment_time(&w, false);
        w.cleared = false;
        let preserved = sim.fragment_time(&w, false);
        assert!(preserved > cleared);
    }

    #[test]
    fn skipped_tiles_cost_less_than_shading_them() {
        use crate::work::SkipWork;
        for p in [Platform::videocore_iv(), Platform::sgx_545()] {
            let sim = PipelineSim::new(p.clone());
            let base = FrameWork::simple(256, 256, quick_profile()).fragment;
            let full = sim.fragment_time(&base, false);

            // Explicitly-zero skip is the same expression, bit for bit.
            let mut zero = base;
            zero.skip = SkipWork::default();
            assert_eq!(sim.fragment_time(&zero, false), full);

            // Skipping every tile trades all shading for signature reads.
            let mut skipped = base;
            skipped.skip = SkipWork {
                skipped_fragments: base.fragments,
                skipped_tiles: p.tiles_for(base.width, base.height),
                signature_bytes: p.tiles_for(base.width, base.height) * 128,
            };
            assert!(sim.fragment_time(&skipped, false) < full);

            // Half the tiles skipped lands strictly in between.
            let mut half = base;
            half.skip = SkipWork {
                skipped_fragments: base.fragments / 2,
                skipped_tiles: p.tiles_for(base.width, base.height) / 2,
                signature_bytes: p.tiles_for(base.width, base.height) / 2 * 128,
            };
            let half_t = sim.fragment_time(&half, false);
            assert!(half_t < full);
            assert!(half_t > sim.fragment_time(&skipped, false));
        }
    }

    #[test]
    fn skip_traffic_moves_writeback_to_signatures() {
        use crate::work::SkipWork;
        let mut f = frame(SyncOp::None);
        f.fragment.skip = SkipWork {
            skipped_fragments: 64 * 64,
            skipped_tiles: 1,
            signature_bytes: 640,
        };
        let mut sim = PipelineSim::new(Platform::videocore_iv());
        sim.submit(&f);
        let report = sim.finish();
        // Skipped fragments write nothing back; their signatures are billed.
        assert_eq!(report.traffic.writeback_bytes, (256 * 256 - 64 * 64) * 4);
        assert_eq!(report.traffic.signature_bytes, 640);
    }

    #[test]
    fn report_accumulates_traffic() {
        let mut c = 0;
        let mut f = frame(SyncOp::None);
        f.uploads
            .push(Upload::fresh(ResourceId::next(&mut c), 4096));
        let mut sim = PipelineSim::new(Platform::videocore_iv());
        sim.submit(&f);
        let report = sim.finish();
        assert_eq!(report.traffic.upload_bytes, 4096);
        assert_eq!(report.traffic.writeback_bytes, 256 * 256 * 4);
        assert_eq!(report.frames.len(), 1);
        assert!(report.total_time > SimTime::ZERO);
    }
}
