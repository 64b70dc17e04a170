//! Memory-movement traces in the vocabulary of the paper's Fig. 1.
//!
//! The paper's Figure 1 enumerates six memory operations in the life of a
//! GPGPU kernel on a tiled GPU. [`annotate_frame`] reconstructs that listing
//! for a scheduled frame; `mgpu-bench`'s `report` prints it as the Fig. 1
//! table.

use std::fmt;

use crate::stats::FrameTiming;
use crate::time::SimTime;
use crate::work::{AllocKind, FrameWork, RenderTarget};

/// The six memory-movement operations of the paper's Fig. 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOp {
    /// Step 1: vertex data copied into GPU-managed memory.
    VertexUpload,
    /// Step 2: texture data copied into GPU-managed memory.
    TextureUpload,
    /// Step 3: tile contents written back to the in-memory framebuffer.
    FramebufferWriteback,
    /// Step 4: framebuffer copied to texture memory (`copy_tex_image_2d`).
    CopyFramebufferToTexture,
    /// Step 5: tile contents streamed directly into a bound texture
    /// (render-to-texture through a framebuffer object).
    TileToTexture,
    /// Step 6: previous framebuffer contents reloaded into the tile.
    FramebufferReload,
    /// Extension beyond the paper's six steps: per-tile input signatures
    /// fetched and compared for tiles elided by redundancy elimination
    /// (*Rendering Elimination*-style tile skipping, `MGPU_TILE_SKIP=on`).
    TileSignatureRead,
}

impl MemOp {
    /// The step number used in the paper's figure.
    #[must_use]
    pub fn paper_step(self) -> u8 {
        match self {
            MemOp::VertexUpload => 1,
            MemOp::TextureUpload => 2,
            MemOp::FramebufferWriteback => 3,
            MemOp::CopyFramebufferToTexture => 4,
            MemOp::TileToTexture => 5,
            MemOp::FramebufferReload => 6,
            MemOp::TileSignatureRead => 7,
        }
    }
}

impl fmt::Display for MemOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            MemOp::VertexUpload => "vertex data -> GPU memory",
            MemOp::TextureUpload => "texture data -> GPU memory",
            MemOp::FramebufferWriteback => "tiles -> framebuffer memory",
            MemOp::CopyFramebufferToTexture => "framebuffer -> texture memory",
            MemOp::TileToTexture => "tiles -> texture memory (FBO)",
            MemOp::FramebufferReload => "framebuffer memory -> tiles (preserve)",
            MemOp::TileSignatureRead => "tile signatures -> comparator (skip)",
        };
        write!(f, "step {}: {}", self.paper_step(), name)
    }
}

/// One annotated memory movement of a scheduled frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Which Fig. 1 operation this is.
    pub op: MemOp,
    /// Bytes moved.
    pub bytes: u64,
    /// When the movement happened (start of the owning stage).
    pub at: SimTime,
    /// Whether the operation targeted freshly allocated storage.
    pub fresh_alloc: bool,
}

/// Reconstructs the Fig. 1-style memory-movement listing for one frame.
///
/// `work` must be the same description that produced `timing`.
#[must_use]
pub fn annotate_frame(work: &FrameWork, timing: &FrameTiming) -> Vec<TraceEvent> {
    let mut events = Vec::new();
    let mut saw_texture_upload = false;
    for up in &work.uploads {
        saw_texture_upload = true;
        events.push(TraceEvent {
            op: MemOp::TextureUpload,
            bytes: up.copy_bytes.max(up.alloc_bytes),
            at: timing.cpu_start,
            fresh_alloc: up.alloc == AllocKind::Fresh,
        });
    }
    // Vertex data always moves at least once per draw (client arrays move it
    // every frame; a VBO moved it when the buffer was created).
    if work.vertex.vertices > 0 && !saw_texture_upload {
        events.push(TraceEvent {
            op: MemOp::VertexUpload,
            bytes: work.vertex.vertices * 16,
            at: timing.cpu_start,
            fresh_alloc: true,
        });
    }

    if !work.fragment.cleared {
        events.push(TraceEvent {
            op: MemOp::FramebufferReload,
            bytes: u64::from(work.fragment.width) * u64::from(work.fragment.height) * 4,
            at: timing.frag_start,
            fresh_alloc: false,
        });
    }

    if work.fragment.skip.signature_bytes > 0 {
        events.push(TraceEvent {
            op: MemOp::TileSignatureRead,
            bytes: work.fragment.skip.signature_bytes,
            at: timing.frag_start,
            fresh_alloc: false,
        });
    }

    let shaded = work
        .fragment
        .fragments
        .saturating_sub(work.fragment.skip.skipped_fragments);
    let out_bytes = (shaded as f64 * work.fragment.profile.output_bytes) as u64;
    match work.target {
        RenderTarget::Framebuffer { .. } => {
            events.push(TraceEvent {
                op: MemOp::FramebufferWriteback,
                bytes: out_bytes,
                at: timing.frag_start,
                fresh_alloc: false,
            });
            if let (Some(copy), Some((cs, _))) = (&work.copy_out, timing.copy) {
                events.push(TraceEvent {
                    op: MemOp::CopyFramebufferToTexture,
                    bytes: copy.bytes,
                    at: cs,
                    fresh_alloc: copy.alloc == AllocKind::Fresh,
                });
            }
        }
        RenderTarget::Texture { fresh, .. } => {
            events.push(TraceEvent {
                op: MemOp::TileToTexture,
                bytes: out_bytes,
                at: timing.frag_start,
                fresh_alloc: fresh,
            });
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::Platform;
    use crate::sched::PipelineSim;
    use crate::work::{CopyOut, FragmentProfile, ResourceId, Upload};

    fn base_frame() -> FrameWork {
        FrameWork::simple(
            64,
            64,
            FragmentProfile {
                alu_cycles: 4.0,
                output_bytes: 4.0,
                ..FragmentProfile::default()
            },
        )
    }

    #[test]
    fn fb_frame_with_copy_hits_steps_3_and_4() {
        let mut c = 0;
        let mut f = base_frame();
        f.copy_out = Some(CopyOut {
            dest: ResourceId::next(&mut c),
            bytes: 64 * 64 * 4,
            alloc: AllocKind::Fresh,
        });
        let mut sim = PipelineSim::new(Platform::videocore_iv());
        let t = sim.submit(&f);
        let steps: Vec<u8> = annotate_frame(&f, &t)
            .iter()
            .map(|e| e.op.paper_step())
            .collect();
        assert!(steps.contains(&3));
        assert!(steps.contains(&4));
        assert!(!steps.contains(&5));
    }

    #[test]
    fn rtt_frame_hits_step_5_not_3() {
        let mut c = 0;
        let mut f = base_frame();
        f.target = RenderTarget::Texture {
            storage: ResourceId::next(&mut c),
            fresh: true,
        };
        let mut sim = PipelineSim::new(Platform::sgx_545());
        let t = sim.submit(&f);
        let steps: Vec<u8> = annotate_frame(&f, &t)
            .iter()
            .map(|e| e.op.paper_step())
            .collect();
        assert!(steps.contains(&5));
        assert!(!steps.contains(&3));
        assert!(!steps.contains(&4));
    }

    #[test]
    fn preserve_frame_hits_step_6() {
        let mut f = base_frame();
        f.fragment.cleared = false;
        let mut sim = PipelineSim::new(Platform::sgx_545());
        let t = sim.submit(&f);
        let events = annotate_frame(&f, &t);
        assert!(events.iter().any(|e| e.op == MemOp::FramebufferReload));
    }

    #[test]
    fn uploads_become_step_2_events() {
        let mut c = 0;
        let mut f = base_frame();
        f.uploads.push(Upload::reuse(ResourceId::next(&mut c), 999));
        let mut sim = PipelineSim::new(Platform::sgx_545());
        let t = sim.submit(&f);
        let events = annotate_frame(&f, &t);
        let up = events
            .iter()
            .find(|e| e.op == MemOp::TextureUpload)
            .expect("upload event");
        assert_eq!(up.bytes, 999);
        assert!(!up.fresh_alloc);
    }

    #[test]
    fn display_names_match_paper_steps() {
        assert_eq!(
            MemOp::CopyFramebufferToTexture.to_string(),
            "step 4: framebuffer -> texture memory"
        );
        for (op, n) in [
            (MemOp::VertexUpload, 1),
            (MemOp::TextureUpload, 2),
            (MemOp::FramebufferWriteback, 3),
            (MemOp::CopyFramebufferToTexture, 4),
            (MemOp::TileToTexture, 5),
            (MemOp::FramebufferReload, 6),
            (MemOp::TileSignatureRead, 7),
        ] {
            assert_eq!(op.paper_step(), n);
        }
    }

    #[test]
    fn skipped_frame_reports_signature_reads_and_smaller_writeback() {
        use crate::work::SkipWork;
        let mut f = base_frame();
        f.fragment.skip = SkipWork {
            skipped_fragments: 32 * 64,
            skipped_tiles: 2,
            signature_bytes: 256,
        };
        let mut sim = PipelineSim::new(Platform::videocore_iv());
        let t = sim.submit(&f);
        let events = annotate_frame(&f, &t);
        let sig = events
            .iter()
            .find(|e| e.op == MemOp::TileSignatureRead)
            .expect("signature event");
        assert_eq!(sig.bytes, 256);
        let wb = events
            .iter()
            .find(|e| e.op == MemOp::FramebufferWriteback)
            .expect("writeback event");
        assert_eq!(wb.bytes, (64 * 64 - 32 * 64) * 4);
        // A frame without skips emits no signature event at all.
        let clean = base_frame();
        let mut sim2 = PipelineSim::new(Platform::videocore_iv());
        let t2 = sim2.submit(&clean);
        assert!(annotate_frame(&clean, &t2)
            .iter()
            .all(|e| e.op != MemOp::TileSignatureRead));
    }
}
