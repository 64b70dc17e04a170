//! Direct calls into single layers, each wrapped in a span, for the
//! traced run: shader compile stages, plan builds, a direct-GL pass chain,
//! frame replay through the timing scheduler, and the float↔RGBA8 codec.

use std::collections::BTreeMap;

use mgpu_gles::{DrawQuad, FramebufferId, Gl, GlError, ProgramId, TextureFormat, TextureId};
use mgpu_gpgpu::{Encoding, Range};
use mgpu_prop::Rng;
use mgpu_shader::{
    check_limits, ir::Shader, lower, optimize, parse, specialize, CompiledProgram, Limits,
    OptOptions, UniformValues,
};
use mgpu_tbdr::{PipelineSim, Platform, SimReport};

use crate::trace::span;

/// Layer facts a workload measured directly (counts, ratios, simulated
/// statistics), keyed by per-layer metric name.
pub type Facts = BTreeMap<&'static str, f64>;

/// An independent, reproducible random stream for `tag` under run seed
/// `seed`.
#[must_use]
pub fn rng(seed: u64, tag: u64) -> Rng {
    Rng::new(seed ^ tag.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.usize_in(0, i + 1));
    }
}

/// FNV-1a over `bytes`, folded into `state` (start from [`DIGEST_INIT`]).
#[must_use]
pub fn digest(state: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(state, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// FNV-1a offset basis.
pub const DIGEST_INIT: u64 = 0xCBF2_9CE4_8422_2325;

/// The platform's shader limits in the compiler's terms (what `Gl`
/// enforces when it creates a program).
#[must_use]
pub fn limits_of(platform: &Platform) -> Limits {
    let sl = &platform.shader_limits;
    Limits {
        max_instructions: sl.max_instructions,
        max_texture_fetches: sl.max_texture_fetches,
        max_uniform_vectors: sl.max_uniform_vectors,
        max_varying_vectors: sl.max_varying_vectors,
    }
}

/// Compiles every distinct source stage by stage, `reps` times each, under
/// spans `shader.parse`, `shader.lower`, `shader.optimize` and
/// `shader.check_limits`. Records `shader.ir_instrs` (mean over sources)
/// and returns the optimised shaders that pass the limits.
///
/// # Errors
///
/// A source that fails to parse or lower (every workload kernel is valid).
pub fn compile_stages(
    sources: &[String],
    limits: &Limits,
    reps: usize,
    facts: &mut Facts,
) -> Result<Vec<Shader>, String> {
    let mut distinct: Vec<&String> = sources.iter().collect();
    distinct.sort();
    distinct.dedup();
    let mut passing = Vec::new();
    let mut instrs = 0usize;
    for src in &distinct {
        let mut last = None;
        for _ in 0..reps {
            let program = {
                let _s = span("shader.parse");
                parse(src)
            }
            .map_err(|e| format!("kernel does not parse: {e}"))?;
            let mut shader = {
                let _s = span("shader.lower");
                lower(&program)
            }
            .map_err(|e| format!("kernel does not lower: {e}"))?;
            {
                let _s = span("shader.optimize");
                optimize(&mut shader, &OptOptions::full());
            }
            let fits = {
                let _s = span("shader.check_limits");
                check_limits(&shader, limits).is_ok()
            };
            last = Some((shader, fits));
        }
        if let Some((shader, fits)) = last {
            instrs += shader.instruction_count();
            if fits {
                passing.push(shader);
            }
        }
    }
    facts.insert(
        "shader.ir_instrs",
        instrs as f64 / distinct.len().max(1) as f64,
    );
    Ok(passing)
}

/// Builds the compiled engine's plan for each shader, `reps` times, under
/// span `shader.plan_build`: bind-time specialisation against the
/// uniforms, then closure lowering — the work a plan-cache miss costs.
///
/// # Errors
///
/// A shader the compiled engine cannot build.
pub fn plan_builds(shaders: &[Shader], reps: usize) -> Result<(), String> {
    for shader in shaders {
        let mut uniforms = UniformValues::new();
        for slot in shader.uniform_slots() {
            uniforms.set(&slot.name, [0.25; 4]);
        }
        for _ in 0..reps {
            let _s = span("shader.plan_build");
            let specialised = specialize(shader, &uniforms).map_err(|e| e.to_string())?;
            CompiledProgram::build(&specialised, &uniforms).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// What a direct pass binds to a sampler unit.
#[derive(Debug, Clone, Copy)]
pub enum Bind {
    /// An uploaded texture.
    Tex(TextureId),
    /// The chain's latest output.
    Prev,
}

/// A double-buffered render-to-texture chain driven through `Gl` calls
/// alone — the same GL sequence the operators issue under texture
/// rendering without swaps, so its output bytes must equal theirs.
pub struct Direct {
    /// The context (frame recording may be switched on by the caller).
    pub gl: Gl,
    n: u32,
    tex: [TextureId; 2],
    fbo: FramebufferId,
    idx: usize,
}

impl Direct {
    /// A fresh `n`×`n` context on `platform` (span `gles.context_new`).
    #[must_use]
    pub fn new(platform: &Platform, n: u32, functional: bool) -> Self {
        let mut gl = {
            let _s = span("gles.context_new");
            Gl::new(platform.clone(), n, n)
        };
        gl.set_functional(functional);
        let tex = [gl.create_texture(), gl.create_texture()];
        let fbo = gl.create_framebuffer();
        Direct {
            gl,
            n,
            tex,
            fbo,
            idx: 0,
        }
    }

    /// Uploads an RGBA8 `n`×`n` texture (span `gles.tex_image_2d`).
    ///
    /// # Errors
    ///
    /// GL failures.
    pub fn upload(&mut self, bytes: &[u8]) -> Result<TextureId, GlError> {
        let tex = self.gl.create_texture();
        let _s = span("gles.tex_image_2d");
        self.gl
            .tex_image_2d(tex, self.n, self.n, TextureFormat::Rgba8, Some(bytes))?;
        Ok(tex)
    }

    /// Seeds the chain's latest slot (span `gles.tex_image_2d`).
    ///
    /// # Errors
    ///
    /// GL failures.
    pub fn seed(&mut self, bytes: &[u8]) -> Result<(), GlError> {
        let _s = span("gles.tex_image_2d");
        self.gl.tex_image_2d(
            self.tex[self.idx],
            self.n,
            self.n,
            TextureFormat::Rgba8,
            Some(bytes),
        )
    }

    /// Compiles `source` and binds its samplers to units in order.
    ///
    /// # Errors
    ///
    /// GL failures, including compile errors.
    pub fn program(&mut self, source: &str, samplers: &[&str]) -> Result<ProgramId, GlError> {
        let prog = self.gl.create_program_with(source, &OptOptions::full())?;
        for (unit, name) in samplers.iter().enumerate() {
            self.gl.set_sampler(prog, name, unit as u32)?;
        }
        Ok(prog)
    }

    /// Runs one pass into fresh storage; the draw is timed under
    /// `gles.draw_quad_cold` (first use of this program and uniforms, a
    /// plan-cache miss) or `gles.draw_quad_warm`.
    ///
    /// # Errors
    ///
    /// GL failures.
    pub fn pass(
        &mut self,
        prog: ProgramId,
        binds: &[Bind],
        uniforms: &[(&str, f32)],
        cold: bool,
    ) -> Result<(), GlError> {
        for (name, value) in uniforms {
            self.gl.set_uniform_scalar(prog, name, *value)?;
        }
        for (unit, bind) in binds.iter().enumerate() {
            let tex = match bind {
                Bind::Tex(t) => *t,
                Bind::Prev => self.tex[self.idx],
            };
            self.gl.bind_texture(unit as u32, Some(tex))?;
        }
        self.gl.use_program(Some(prog))?;
        let next = 1 - self.idx;
        self.gl
            .tex_image_2d(self.tex[next], self.n, self.n, TextureFormat::Rgba8, None)?;
        self.gl.bind_framebuffer(Some(self.fbo))?;
        self.gl.framebuffer_texture_2d(self.tex[next])?;
        self.gl.discard_framebuffer()?;
        {
            let _s = span(if cold {
                "gles.draw_quad_cold"
            } else {
                "gles.draw_quad_warm"
            });
            self.gl.draw_quad(&DrawQuad::fullscreen())?;
        }
        self.idx = next;
        self.gl.flush();
        Ok(())
    }

    /// Reads the render target (span `gles.read_pixels`), copies it into a
    /// scratch texture (span `gles.copy_tex_image_2d`) and returns the
    /// latest output's bytes.
    ///
    /// # Errors
    ///
    /// GL failures.
    pub fn finish(&mut self) -> Result<Vec<u8>, GlError> {
        {
            let _s = span("gles.read_pixels");
            self.gl.read_pixels()?;
        }
        let scratch = self.gl.create_texture();
        {
            let _s = span("gles.copy_tex_image_2d");
            self.gl.copy_tex_image_2d(scratch, TextureFormat::Rgba8)?;
        }
        self.gl.read_texture(self.tex[self.idx])
    }
}

/// The paper's blocked sgemm issued through direct GL calls: `reps`
/// multiplications (the first draws cold, later ones warm), returning the
/// last product's bytes. Mirrors `Sgemm::multiply` under texture
/// rendering without swaps.
///
/// # Errors
///
/// GL failures.
pub fn direct_sgemm(
    platform: &Platform,
    n: u32,
    block: u32,
    a: &[f32],
    b: &[f32],
    functional: bool,
    reps: usize,
) -> Result<(Vec<u8>, Direct), GlError> {
    let enc = Encoding::Fp32;
    let range_out = Range::new(0.0, n as f32);
    let src = mgpu_gpgpu::kernels::sgemm_kernel(enc, n, block, &Range::unit(), &range_out);
    let mut d = Direct::new(platform, n, functional);
    let prog = d.program(&src, &["u_a", "u_b", "u_interm"])?;
    let ta = d.upload(&enc.encode(a, &Range::unit()))?;
    let tb = d.upload(&enc.encode(b, &Range::unit()))?;
    let zero = enc.encode(&vec![0.0; (n as usize) * (n as usize)], &range_out);
    let binds = [Bind::Tex(ta), Bind::Tex(tb), Bind::Prev];
    for rep in 0..reps {
        d.seed(&zero)?;
        for pass in 0..n / block {
            let blk_n = (pass * block) as f32 / n as f32;
            d.pass(prog, &binds, &[("blk_n", blk_n)], rep == 0)?;
        }
    }
    let bytes = d.finish()?;
    Ok((bytes, d))
}

/// Replays a context's recorded frames through a fresh scheduler (span
/// `tbdr.submit` per frame). Any frame whose timing differs from the
/// recording is a problem: the replay would then time different work
/// than the workload ran.
pub fn check_replay(platform: &Platform, gl: &Gl, problems: &mut Vec<String>) {
    let frames = gl.recorded_frames();
    let mut sim = PipelineSim::new(platform.clone());
    let mut mismatches = 0;
    for (work, timing) in frames {
        let replayed = {
            let _s = span("tbdr.submit");
            sim.submit(work)
        };
        if replayed != *timing {
            mismatches += 1;
        }
    }
    if frames.is_empty() || mismatches > 0 {
        problems.push(format!(
            "tbdr replay: {mismatches} of {} recorded frames retimed differently",
            frames.len()
        ));
    }
}

/// Simulated-GPU totals over one or more contexts' reports.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimTotals {
    busy_ns: [u64; 4],
    total_ns: u64,
    traffic_bytes: u64,
    stall_ns: u64,
    flushes: u64,
    frames: u64,
}

impl SimTotals {
    /// Adds one context's report.
    pub fn add(&mut self, report: &SimReport) {
        let b = &report.busy;
        for (slot, t) in self
            .busy_ns
            .iter_mut()
            .zip([b.cpu, b.vertex, b.fragment, b.copy])
        {
            *slot += t.as_nanos();
        }
        self.total_ns += report.total_time.as_nanos();
        self.traffic_bytes += report.traffic.total();
        for f in &report.frames {
            self.stall_ns += (f.vsync_wait + f.upload_stall).as_nanos();
            self.flushes += u64::from(f.dependency_flush);
        }
        self.frames += report.frames.len() as u64;
    }

    /// Records the `tbdr.*` facts, normalised per op where the name says.
    pub fn record(&self, ops: f64, facts: &mut Facts) {
        let total = self.total_ns.max(1) as f64;
        for (name, busy) in [
            "tbdr.busy_frac.cpu",
            "tbdr.busy_frac.vertex",
            "tbdr.busy_frac.fragment",
            "tbdr.busy_frac.copy",
        ]
        .into_iter()
        .zip(self.busy_ns)
        {
            facts.insert(name, busy as f64 / total);
        }
        let ops = ops.max(1.0);
        facts.insert("tbdr.frames_per_op", self.frames as f64 / ops);
        facts.insert(
            "tbdr.traffic_mib",
            self.traffic_bytes as f64 / (1024.0 * 1024.0) / ops,
        );
        facts.insert("tbdr.stall_s", self.stall_ns as f64 / 1e9 / ops);
        facts.insert("tbdr.dependency_flushes", self.flushes as f64 / ops);
    }
}

/// Encodes and decodes `values` `reps` times under spans `gpgpu.encode`
/// and `gpgpu.decode`; records the encoded size for the MB/s derivation.
pub fn codec(values: &[f32], range: &Range, reps: usize, facts: &mut Facts) {
    let enc = Encoding::Fp32;
    let mut bytes = Vec::new();
    for _ in 0..reps {
        bytes = {
            let _s = span("gpgpu.encode");
            enc.encode(values, range)
        };
        let decoded = {
            let _s = span("gpgpu.decode");
            enc.decode(&bytes, range)
        };
        std::hint::black_box(decoded);
    }
    facts.insert("codec_bytes", bytes.len() as f64);
}

/// Times `gl.elapsed()` under span `name` (the call copies the context's
/// whole frame history, so its cost grows with the history).
pub fn time_elapsed(gl: &Gl, name: &'static str) {
    let _s = span(name);
    std::hint::black_box(gl.elapsed());
}

/// Records a context's plan-cache counters (summed over `gls`).
pub fn plan_cache_facts<'a>(gls: impl IntoIterator<Item = &'a Gl>, facts: &mut Facts) {
    let (mut hits, mut lookups) = (0u64, 0u64);
    for gl in gls {
        let s = gl.plan_cache_stats();
        hits += s.hits;
        lookups += s.hits + s.misses;
    }
    facts.insert("gles.plan_cache_hits", hits as f64);
    facts.insert("gles.plan_cache_lookups", lookups as f64);
    facts.insert(
        "gles.plan_cache_hit_ratio",
        crate::report::ratio(hits as f64, lookups as f64),
    );
}

/// Kernel sources of a pipeline builder, in pass order. The builder keeps
/// its passes private; its `Debug` form lists each pass's `source`, which
/// is unescaped here.
///
/// # Errors
///
/// No source found, or an escape this reader does not know.
pub fn pipeline_sources(builder: &mgpu_gpgpu::PipelineBuilder) -> Result<Vec<String>, String> {
    let text = format!("{builder:?}");
    let mut sources = Vec::new();
    let mut rest = text.as_str();
    while let Some(at) = rest.find("source: \"") {
        let mut chars = rest[at + 9..].char_indices();
        let mut src = String::new();
        let end = loop {
            let (i, c) = chars.next().ok_or("unterminated source string")?;
            match c {
                '"' => break i,
                '\\' => {
                    let (_, e) = chars.next().ok_or("dangling escape")?;
                    src.push(match e {
                        'n' => '\n',
                        't' => '\t',
                        'r' => '\r',
                        '0' => '\0',
                        '"' | '\\' | '\'' => e,
                        other => return Err(format!("unknown escape \\{other}")),
                    });
                }
                c => src.push(c),
            }
        };
        sources.push(src);
        rest = &rest[at + 9 + end + 1..];
    }
    if sources.is_empty() {
        return Err("pipeline builder lists no pass sources".to_owned());
    }
    Ok(sources)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_reproducible_and_shuffles_a_permutation() {
        let mut a = rng(42, 1);
        assert_eq!(a.next_u64(), rng(42, 1).next_u64());
        assert_ne!(rng(42, 2).next_u64(), rng(42, 1).next_u64());
        let mut v: Vec<u32> = (0..32).collect();
        shuffle(&mut a, &mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn pipeline_sources_round_trip_through_debug() {
        let src = "uniform sampler2D u_x;\nvarying vec2 v_coord;\nvoid main() { gl_FragColor = texture2D(u_x, v_coord); }\n";
        let builder = mgpu_gpgpu::Pipeline::builder(4)
            .input("x", &[0.5; 16], Range::unit())
            .pass(src, &[("u_x", mgpu_gpgpu::Source::Input("x".into()))], &[])
            .pass(src, &[("u_x", mgpu_gpgpu::Source::Previous)], &[]);
        assert_eq!(
            pipeline_sources(&builder).expect("sources"),
            vec![src.to_owned(), src.to_owned()]
        );
    }

    #[test]
    fn direct_sgemm_matches_the_operator_bytes() {
        use mgpu_gpgpu::{OptConfig, Sgemm};
        let n = 8u32;
        let a = mgpu_workloads::random_matrix(8, 1, 0.0, 1.0);
        let b = mgpu_workloads::random_matrix(8, 2, 0.0, 1.0);
        let platform = Platform::videocore_iv();
        let mut gl = Gl::new(platform.clone(), n, n);
        let cfg = OptConfig::baseline().without_swap();
        let mut op = Sgemm::new(&mut gl, &cfg, n, 4, a.data(), b.data()).expect("builds");
        op.multiply(&mut gl).expect("multiplies");
        let want = op.snapshot_bytes(&mut gl).expect("reads");
        let (got, _) = direct_sgemm(&platform, n, 4, a.data(), b.data(), true, 2).expect("direct");
        assert_eq!(got, want);
    }

    #[test]
    fn recorded_frames_replay_exactly() {
        let platform = Platform::sgx_545();
        let mut gl = Gl::new(platform.clone(), 8, 8);
        gl.set_frame_recording(true);
        let a = mgpu_workloads::random_matrix(8, 3, 0.0, 1.0);
        let cfg = mgpu_gpgpu::OptConfig::baseline();
        let mut op =
            mgpu_gpgpu::Sgemm::new(&mut gl, &cfg, 8, 2, a.data(), a.data()).expect("builds");
        op.multiply(&mut gl).expect("multiplies");
        let mut problems = Vec::new();
        check_replay(&platform, &gl, &mut problems);
        assert!(problems.is_empty(), "{problems:?}");
    }
}
