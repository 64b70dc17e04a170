//! A generic multi-pass GPGPU pipeline — the paper's §III framework as a
//! library: user-written kernels chained through encoded textures, with
//! the double-buffered intermediate scheme (and the OpenGL ES 2
//! no-feedback rule) handled automatically.
//!
//! Each pass is a fragment kernel whose samplers bind either to a named
//! external input texture or to the previous pass's output. The built-in
//! operators ([`Sum`](crate::Sum), [`Sgemm`](crate::Sgemm), ...) are
//! hand-tuned instances of this pattern; `Pipeline` opens it to arbitrary
//! user kernels.
//!
//! Kernel sources typically splice in
//! [`Encoding::decode_fn_source`](crate::Encoding::decode_fn_source) /
//! [`Encoding::encode_fn_source`](crate::Encoding::encode_fn_source) for
//! the float↔RGBA8 conversions.

use mgpu_gles::{Gl, ProgramId, TextureFormat, TextureId};
use mgpu_shader::OptOptions;

use crate::config::OptConfig;
use crate::encoding::{Encoding, Range};
use crate::error::GpgpuError;
use crate::ops::{
    apply_setup, check_target, convert_cost, draw_banded, encode_input, quad_for, vbo_for,
    OutputChain,
};

/// What a pass binds to one of its samplers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Source {
    /// A named external input registered with
    /// [`PipelineBuilder::input`].
    Input(String),
    /// The output of the previous pass (the double-buffered chain).
    Previous,
    /// The *retained* output of an earlier pass of the current repeat
    /// (0-based pass index, strictly before the reading pass). The
    /// referenced pass's output is copied into a dedicated texture right
    /// after its draw, so deep chains — e.g. a training step whose
    /// backward passes sample forward activations — can reach past the
    /// double-buffered chain without breaking the ES 2 no-feedback rule.
    Pass(usize),
}

/// One pass under construction.
#[derive(Debug, Clone)]
struct PassSpec {
    source: String,
    bindings: Vec<(String, Source)>,
    uniforms: Vec<(String, f32)>,
    label: String,
}

/// Builder for [`Pipeline`].
#[derive(Debug, Clone)]
pub struct PipelineBuilder {
    n: u32,
    inputs: Vec<(String, Vec<f32>, Range)>,
    raw_inputs: Vec<(String, Vec<u8>)>,
    seed: Option<(Vec<f32>, Range)>,
    passes: Vec<PassSpec>,
    repeats: usize,
}

impl PipelineBuilder {
    /// Registers a named `n`×`n` input with its value range.
    #[must_use]
    pub fn input(mut self, name: &str, data: &[f32], range: Range) -> Self {
        self.inputs.push((name.to_owned(), data.to_vec(), range));
        self
    }

    /// Registers a named raw RGBA8 `n`×`n` input — an unencoded image for
    /// computer-vision pipelines (`bytes.len()` must be `n * n * 4`;
    /// validated at build). Raw-image pipelines require the default
    /// [`Encoding::Fp32`] (RGBA8) chain format.
    #[must_use]
    pub fn input_raw(mut self, name: &str, bytes: &[u8]) -> Self {
        self.raw_inputs.push((name.to_owned(), bytes.to_vec()));
        self
    }

    /// Repeats the whole pass chain `repeats` times per run (at least
    /// once): pass programs are compiled once and re-issued, giving
    /// iterative solvers and training loops pass-granular checkpoints
    /// without per-iteration compilation. [`Source::Pass`] indices refer
    /// to passes *within the current repeat*.
    #[must_use]
    pub fn repeats(mut self, repeats: usize) -> Self {
        self.repeats = repeats.max(1);
        self
    }

    /// Pre-populates the output chain, so the *first* pass of the first
    /// run may already read [`Source::Previous`] — how the paper's sgemm
    /// seeds its zeroed intermediate texture.
    #[must_use]
    pub fn seed(mut self, data: &[f32], range: Range) -> Self {
        self.seed = Some((data.to_vec(), range));
        self
    }

    /// Number of passes one run executes: passes added so far times the
    /// configured repeat count.
    #[must_use]
    pub fn pass_count(&self) -> usize {
        self.passes.len() * self.repeats.max(1)
    }

    /// Appends a pass: `kernel_source` with each sampler bound per
    /// `bindings` (sampler name → source) and scalar `uniforms` preset.
    #[must_use]
    pub fn pass(
        mut self,
        kernel_source: &str,
        bindings: &[(&str, Source)],
        uniforms: &[(&str, f32)],
    ) -> Self {
        self.passes.push(PassSpec {
            source: kernel_source.to_owned(),
            bindings: bindings
                .iter()
                .map(|(n, s)| ((*n).to_owned(), s.clone()))
                .collect(),
            uniforms: uniforms
                .iter()
                .map(|(n, v)| ((*n).to_owned(), *v))
                .collect(),
            label: format!("pipeline pass {}", self.passes.len()),
        });
        self
    }

    /// Compiles every pass, uploads every input and prepares the chain.
    ///
    /// # Errors
    ///
    /// [`GpgpuError::Config`] for unknown input names, samplers without a
    /// binding, size mismatches (including a window surface that is not
    /// `n`×`n` under framebuffer rendering), forward or self
    /// [`Source::Pass`] references, raw-image inputs under a non-RGBA8
    /// encoding, or an empty pipeline; [`GpgpuError::Gl`] for compilation
    /// failures (including shader limits).
    pub fn build(self, gl: &mut Gl, cfg: &OptConfig) -> Result<Pipeline, GpgpuError> {
        if self.passes.is_empty() {
            return Err(GpgpuError::Config("pipeline has no passes".to_owned()));
        }
        check_target(gl, cfg, self.n)?;
        let enc = cfg.encoding;
        if !self.raw_inputs.is_empty() && enc != Encoding::Fp32 {
            return Err(GpgpuError::Config(
                "raw RGBA8 image inputs require the Fp32 (RGBA8) chain format".to_owned(),
            ));
        }
        apply_setup(gl, cfg);

        // Upload inputs.
        let mut inputs: Vec<(String, TextureId)> = Vec::new();
        for (name, data, range) in &self.inputs {
            if data.len() != (self.n as usize) * (self.n as usize) {
                return Err(GpgpuError::Config(format!(
                    "input `{name}` has {} elements, expected {n}x{n}",
                    data.len(),
                    n = self.n
                )));
            }
            let encoded = encode_input(gl, enc, data, range);
            gl.add_cpu_work(convert_cost(encoded.len() as u64));
            let tex = gl.create_texture();
            gl.tex_image_2d(tex, self.n, self.n, enc.texture_format(), Some(&encoded))?;
            inputs.push((name.clone(), tex));
        }
        for (name, bytes) in &self.raw_inputs {
            if bytes.len() != (self.n as usize) * (self.n as usize) * 4 {
                return Err(GpgpuError::Config(format!(
                    "raw input `{name}` has {} bytes, expected {n}x{n}x4",
                    bytes.len(),
                    n = self.n
                )));
            }
            let tex = gl.create_texture();
            gl.tex_image_2d(tex, self.n, self.n, TextureFormat::Rgba8, Some(bytes))?;
            inputs.push((name.clone(), tex));
        }

        // Which passes must retain their output for a later Source::Pass
        // reader. References must point strictly backwards.
        let mut retained_set = vec![false; self.passes.len()];
        for (pass_idx, spec) in self.passes.iter().enumerate() {
            for (sampler, source) in &spec.bindings {
                if let Source::Pass(i) = source {
                    if *i >= pass_idx {
                        return Err(GpgpuError::Config(format!(
                            "pass {pass_idx} binds sampler `{sampler}` to Pass({i}): \
                             retained references must point to an earlier pass"
                        )));
                    }
                    retained_set[*i] = true;
                }
            }
        }
        let format = enc.texture_format();
        let texel_bytes = format.bytes_per_texel() as usize;
        let zeroed = vec![0u8; (self.n as usize) * (self.n as usize) * texel_bytes];
        let mut retained: Vec<Option<TextureId>> = Vec::with_capacity(self.passes.len());
        for keep in &retained_set {
            retained.push(if *keep {
                let tex = gl.create_texture();
                // Zero-filled so snapshots taken before the producing pass
                // has run this attempt are still well-defined.
                gl.tex_image_2d(tex, self.n, self.n, format, Some(&zeroed))?;
                Some(tex)
            } else {
                None
            });
        }

        // Compile passes and resolve bindings.
        let opt = if cfg.mad_fusion {
            OptOptions::full()
        } else {
            OptOptions::without_mad_fusion()
        };
        let mut passes = Vec::new();
        for spec in &self.passes {
            let prog = gl.create_program_with(&spec.source, &opt)?;
            let mut resolved = Vec::new();
            // Bindings are validated against the kernel's declared samplers
            // by set_sampler below (unknown names error out).
            for (unit, (sampler, source)) in spec.bindings.iter().enumerate() {
                gl.set_sampler(prog, sampler, unit as u32)?;
                let binding = match source {
                    Source::Previous => Binding::Chain,
                    Source::Pass(i) => Binding::Retained(*i),
                    Source::Input(name) => Binding::Tex(
                        inputs
                            .iter()
                            .find(|(n, _)| n == name)
                            .map(|(_, t)| *t)
                            .ok_or_else(|| {
                                GpgpuError::Config(format!(
                                    "pass binds sampler `{sampler}` to unknown input `{name}`"
                                ))
                            })?,
                    ),
                };
                resolved.push(binding);
            }
            for (name, value) in &spec.uniforms {
                gl.set_uniform_scalar(prog, name, *value)?;
            }
            passes.push(Pass {
                prog,
                bindings: resolved,
                label: spec.label.clone(),
            });
        }

        let mut chain = OutputChain::new(gl, self.n, format);
        let mut seed_bytes = None;
        if let Some((data, range)) = &self.seed {
            if data.len() != (self.n as usize) * (self.n as usize) {
                return Err(GpgpuError::Config(format!(
                    "seed has {} elements, expected {n}x{n}",
                    data.len(),
                    n = self.n
                )));
            }
            let encoded = encode_input(gl, enc, data, range);
            gl.add_cpu_work(convert_cost(encoded.len() as u64));
            chain.seed(gl, &encoded)?;
            seed_bytes = Some(encoded);
        }
        let vbo = vbo_for(gl, cfg, 4)?;
        Ok(Pipeline {
            cfg: *cfg,
            n: self.n,
            passes,
            repeats: self.repeats.max(1),
            chain,
            retained,
            format,
            vbo,
            seed_bytes,
            run_count: 0,
        })
    }
}

/// What a compiled pass's sampler unit reads.
#[derive(Debug, Clone, Copy)]
enum Binding {
    /// An external input texture.
    Tex(TextureId),
    /// The double-buffered chain's latest output.
    Chain,
    /// The retained output of pass `i` (spec index).
    Retained(usize),
}

#[derive(Debug)]
struct Pass {
    prog: ProgramId,
    /// One entry per sampler unit.
    bindings: Vec<Binding>,
    label: String,
}

/// A compiled multi-pass pipeline over `n`×`n` encoded data.
///
/// # Examples
///
/// A two-pass pipeline — square the input, then average with a second
/// input — written directly in the kernel language:
///
/// ```
/// use mgpu_gles::Gl;
/// use mgpu_gpgpu::{Encoding, OptConfig, Pipeline, Range, Source};
/// use mgpu_tbdr::Platform;
///
/// # fn main() -> Result<(), mgpu_gpgpu::GpgpuError> {
/// let enc = Encoding::Fp32;
/// let square = format!(
///     "uniform sampler2D u_x;\nvarying vec2 v_coord;\n{}{}\
///      void main() {{\n  float x = unpack(texture2D(u_x, v_coord));\n  gl_FragColor = pack(x * x);\n}}\n",
///     enc.decode_fn_source(), enc.encode_fn_source());
/// let average = format!(
///     "uniform sampler2D u_a;\nuniform sampler2D u_b;\nvarying vec2 v_coord;\n{}{}\
///      void main() {{\n  float a = unpack(texture2D(u_a, v_coord));\n  float b = unpack(texture2D(u_b, v_coord));\n  gl_FragColor = pack((a + b) * 0.5);\n}}\n",
///     enc.decode_fn_source(), enc.encode_fn_source());
///
/// let mut gl = Gl::new(Platform::videocore_iv(), 8, 8);
/// let x = vec![0.5f32; 64];
/// let y = vec![0.25f32; 64];
/// let mut pipeline = Pipeline::builder(8)
///     .input("x", &x, Range::unit())
///     .input("y", &y, Range::unit())
///     .pass(&square, &[("u_x", Source::Input("x".into()))], &[])
///     .pass(
///         &average,
///         &[("u_a", Source::Previous), ("u_b", Source::Input("y".into()))],
///         &[],
///     )
///     .build(&mut gl, &OptConfig::baseline().without_swap())?;
/// pipeline.run_once(&mut gl)?;
/// let out = pipeline.output(&mut gl, &Range::unit())?;
/// assert!((out[0] - 0.25).abs() < 1e-4); // (0.5^2 + 0.25) / 2
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Pipeline {
    cfg: OptConfig,
    n: u32,
    passes: Vec<Pass>,
    /// How many times one run re-issues the whole pass chain.
    repeats: usize,
    chain: OutputChain,
    /// Per-spec retained-output textures (only specs some later
    /// [`Source::Pass`] reads get one).
    retained: Vec<Option<TextureId>>,
    format: TextureFormat,
    vbo: Option<mgpu_gles::BufferId>,
    /// Encoded seed data, kept so a replayed run can restore the chain's
    /// initial contents.
    seed_bytes: Option<Vec<u8>>,
    run_count: u64,
}

impl Pipeline {
    /// Starts building a pipeline over `n`×`n` data.
    #[must_use]
    pub fn builder(n: u32) -> PipelineBuilder {
        PipelineBuilder {
            n,
            inputs: Vec::new(),
            raw_inputs: Vec::new(),
            seed: None,
            passes: Vec::new(),
            repeats: 1,
        }
    }

    /// Number of passes one run executes (specs × repeats).
    #[must_use]
    pub fn passes(&self) -> usize {
        self.passes.len() * self.repeats
    }

    /// Executes every pass once, in order (all repeats).
    ///
    /// # Errors
    ///
    /// [`GpgpuError::Config`] if a pass binds [`Source::Previous`] but no
    /// pass has produced output yet, or the pipeline was built on a
    /// timing-only context that is now functional; GL failures otherwise.
    pub fn run_once(&mut self, gl: &mut Gl) -> Result<(), GpgpuError> {
        self.chain.guard(gl)?;
        self.run_count += 1;
        for i in 0..self.passes.len() * self.repeats {
            self.run_pass(gl, i, 1)?;
        }
        Ok(())
    }

    /// Starts a run for pass-by-pass execution via [`Pipeline::run_pass`]:
    /// bumps the run counter and restores the seed contents (if the
    /// pipeline was seeded), so a replayed run starts from the same chain
    /// state as the first.
    ///
    /// [`Pipeline::run_once`] does *not* re-seed between runs — iterative
    /// algorithms rely on the chain carrying over. Use this entry point
    /// when a run must be independent of earlier (possibly failed) runs.
    ///
    /// # Errors
    ///
    /// [`GpgpuError::Config`] when the pipeline was built on a timing-only
    /// context that is now functional; GL failures from the seed upload.
    pub fn begin_run(&mut self, gl: &mut Gl) -> Result<(), GpgpuError> {
        self.chain.guard(gl)?;
        self.run_count += 1;
        if let Some(bytes) = &self.seed_bytes {
            gl.add_cpu_work(convert_cost(bytes.len() as u64));
            self.chain.seed(gl, bytes)?;
        }
        Ok(())
    }

    /// Executes pass `i` of the current run (a *logical* index over
    /// specs × repeats; the spec is `i % spec_count`), issuing the draw as
    /// `bands` row-band sub-draws (`bands <= 1` = one full draw). When the
    /// pass's output is retained for a later [`Source::Pass`] reader, the
    /// copy-out happens inside the same pass.
    ///
    /// # Errors
    ///
    /// [`GpgpuError::Config`] for an out-of-range index, if the pass binds
    /// [`Source::Previous`] before any output exists, or if built on a
    /// timing-only context that is now functional; GL failures otherwise.
    pub fn run_pass(&mut self, gl: &mut Gl, i: usize, bands: u32) -> Result<(), GpgpuError> {
        self.chain.guard(gl)?;
        let total = self.passes.len() * self.repeats;
        if i >= total {
            return Err(GpgpuError::Config(format!(
                "pass index {i} out of range ({total} passes)"
            )));
        }
        let spec_idx = i % self.passes.len();
        let pass = &self.passes[spec_idx];
        for (unit, binding) in pass.bindings.iter().enumerate() {
            let tex = match binding {
                Binding::Tex(t) => *t,
                Binding::Retained(j) => self.retained[*j].ok_or_else(|| {
                    GpgpuError::Config(format!("pass {spec_idx} reads unretained Pass({j})"))
                })?,
                Binding::Chain => {
                    if self.run_count <= 1 && i == 0 && self.seed_bytes.is_none() {
                        return Err(GpgpuError::Config(
                            "the first pass of the first run cannot read Previous: seed the pipeline or bind an input"
                                .to_owned(),
                        ));
                    }
                    self.chain.latest()
                }
            };
            gl.bind_texture(unit as u32, Some(tex))?;
        }
        gl.use_program(Some(pass.prog))?;
        let label = format!("{}#{}", pass.label, self.run_count);
        let quad = quad_for(&self.cfg, self.vbo, &label);
        let cfg = self.cfg;
        let n = self.n;
        let keep = self.retained[spec_idx];
        self.chain
            .render_pass_with_copy(gl, &cfg, keep, |gl| draw_banded(gl, &quad, bands, n))?;
        Ok(())
    }

    /// Reads back the raw encoded bytes of the latest output *plus* every
    /// retained pass texture, concatenated in spec order — a pass-granular
    /// checkpoint for the resilient runner that fully captures the state a
    /// later pass can sample. All chunks are `n * n * bytes_per_texel`, so
    /// no framing is needed.
    ///
    /// # Errors
    ///
    /// Propagates GL failures; [`GpgpuError::Config`] if built on a
    /// timing-only context that is now functional.
    pub fn snapshot_bytes(&mut self, gl: &mut Gl) -> Result<Vec<u8>, GpgpuError> {
        let mut bytes = self.chain.read_latest(gl)?;
        for tex in self.retained.iter().flatten() {
            bytes.extend_from_slice(&gl.read_texture(*tex)?);
        }
        Ok(bytes)
    }

    /// Reads back only the latest output's raw encoded bytes — the
    /// pipeline's *result*, excluding retained-pass checkpoint payload.
    ///
    /// # Errors
    ///
    /// Propagates GL failures; [`GpgpuError::Config`] if built on a
    /// timing-only context that is now functional.
    pub fn output_bytes(&mut self, gl: &mut Gl) -> Result<Vec<u8>, GpgpuError> {
        self.chain.read_latest(gl)
    }

    /// Uploads previously snapshotted bytes back into the latest-result
    /// slot and every retained pass texture (inverse of
    /// [`Pipeline::snapshot_bytes`]).
    ///
    /// # Errors
    ///
    /// [`GpgpuError::Config`] when the blob's length does not match this
    /// pipeline's snapshot shape; GL failures otherwise.
    pub fn restore_bytes(&mut self, gl: &mut Gl, bytes: &[u8]) -> Result<(), GpgpuError> {
        let chunk = (self.n as usize) * (self.n as usize) * self.format.bytes_per_texel() as usize;
        let retained_count = self.retained.iter().flatten().count();
        let want = chunk * (1 + retained_count);
        if bytes.len() != want {
            return Err(GpgpuError::Config(format!(
                "snapshot blob has {} bytes, expected {want} (1 chain + {retained_count} retained chunks of {chunk})",
                bytes.len()
            )));
        }
        self.chain.seed(gl, &bytes[..chunk])?;
        let mut off = chunk;
        for tex in self.retained.iter().flatten() {
            gl.tex_image_2d(
                *tex,
                self.n,
                self.n,
                self.format,
                Some(&bytes[off..off + chunk]),
            )?;
            off += chunk;
        }
        Ok(())
    }

    /// Updates a scalar uniform of pass `pass_index` (e.g. a per-run block
    /// offset, like the paper's `blk_n`).
    ///
    /// # Errors
    ///
    /// [`GpgpuError::Config`] for an out-of-range pass index; GL errors for
    /// unknown uniform names.
    pub fn set_uniform(
        &mut self,
        gl: &mut Gl,
        pass_index: usize,
        name: &str,
        value: f32,
    ) -> Result<(), GpgpuError> {
        let pass = self.passes.get(pass_index).ok_or_else(|| {
            GpgpuError::Config(format!(
                "pass index {pass_index} out of range ({} passes)",
                self.passes.len()
            ))
        })?;
        gl.set_uniform_scalar(pass.prog, name, value)?;
        Ok(())
    }

    /// Reads back and decodes the latest output with the given range.
    ///
    /// # Errors
    ///
    /// Propagates GL failures; [`GpgpuError::Config`] if built on a
    /// timing-only context that is now functional.
    pub fn output(&mut self, gl: &mut Gl, range: &Range) -> Result<Vec<f32>, GpgpuError> {
        let bytes = self.chain.read_latest(gl)?;
        gl.add_cpu_work(convert_cost(bytes.len() as u64));
        Ok(self.cfg.encoding.decode(&bytes, range))
    }
}
