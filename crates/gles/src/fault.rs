//! Deterministic fault injection for the GL layer.
//!
//! Real GPGPU deployments on low-end mobile GPUs fight driver failures the
//! happy path never shows: EGL context loss on compositor churn, watchdog
//! kills of long fragment passes, texture-allocation failure under memory
//! pressure, transient shader-compiler hiccups, and silent bit corruption
//! in RGBA8 round-trips. This module lets tests and benchmarks schedule
//! exactly those failures, **deterministically**: a [`FaultPlan`] names the
//! operation indices (or per-operation probabilities) at which each fault
//! class fires, and the [`FaultInjector`] installed on a
//! [`Gl`](crate::Gl) context replays the plan from a seeded SplitMix64
//! stream, recording every injected fault in an ordered trail.
//!
//! Determinism contract: the same plan over the same sequence of GL calls
//! produces the same faults and the same [`FaultEvent`] trail — retries
//! included, because indices count *attempts*, not successes. With no plan
//! installed every hook is a no-op and the context behaves (and times)
//! bit-identically to a build without this module.
//!
//! Plans can also come from the environment: `MGPU_FAULTS` holds a compact
//! spec parsed by [`FaultPlan::parse`], e.g.
//! `MGPU_FAULTS="seed=7,ctx@5,oom@3,compile@0,corrupt@9,watchdog=800us,p_ctx=0.01"`.

use std::fmt;

use mgpu_prop::Rng;
use mgpu_tbdr::SimTime;

/// The failure classes the injector can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The EGL context is lost; every GL object dies with it and all calls
    /// fail with [`GlError::ContextLost`](crate::GlError::ContextLost)
    /// until [`Gl::recreate`](crate::Gl::recreate).
    ContextLoss,
    /// An allocation (texture storage or buffer data) fails.
    Oom,
    /// The shader compiler fails transiently (driver hiccup, not a source
    /// error) — retrying the same source may succeed.
    CompileFail,
    /// A draw's estimated GPU time exceeded the per-draw watchdog budget
    /// and the driver killed it before execution.
    Watchdog,
    /// Bits in the just-rendered target storage were flipped after the
    /// draw completed (silent corruption; only checksums can see it).
    Corruption,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultKind::ContextLoss => "context-loss",
            FaultKind::Oom => "oom",
            FaultKind::CompileFail => "compile-fail",
            FaultKind::Watchdog => "watchdog",
            FaultKind::Corruption => "corruption",
        };
        f.write_str(s)
    }
}

/// Where in the GL call stream a fault fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A `draw_quad` call.
    Draw,
    /// A `tex_image_2d` / `tex_sub_image_2d` / `buffer_data` call.
    Upload,
    /// A `create_program*` call.
    Compile,
    /// A `read_texture` / `read_pixels` call.
    Readback,
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultSite::Draw => "draw",
            FaultSite::Upload => "upload",
            FaultSite::Compile => "compile",
            FaultSite::Readback => "readback",
        };
        f.write_str(s)
    }
}

/// One injected fault: what fired, where, and at which operation index.
///
/// Displays as `kind@site#index`, e.g. `context-loss@draw#5`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultEvent {
    /// The failure class.
    pub kind: FaultKind,
    /// The call site category.
    pub site: FaultSite,
    /// Zero-based index of the *attempt* within that site category
    /// (retries advance the index, keeping replay deterministic).
    pub index: u64,
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}#{}", self.kind, self.site, self.index)
    }
}

/// A structured parse error for the `MGPU_FAULTS` grammar.
///
/// Each variant carries the offending directive token verbatim, so callers
/// can surface exactly which part of the spec was rejected (and tests can
/// assert the failure *class*, not just "some error").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultSpecError {
    /// The directive matched no known prefix.
    UnknownDirective(String),
    /// An `@<n>` or `seed=<n>` operand was not a `u64`.
    BadInteger(String),
    /// A `p_*=<f64>` operand was not a float.
    BadProbability(String),
    /// A `p_*` value fell outside `[0, 1]`.
    ProbabilityRange(String),
    /// A `watchdog=<time>` operand was not a number (with optional
    /// `ns`/`us`/`ms`/`s` suffix).
    BadDuration(String),
    /// A `watchdog=<time>` operand was negative or non-finite.
    DurationRange(String),
}

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultSpecError::UnknownDirective(tok) => {
                write!(f, "unknown MGPU_FAULTS directive `{tok}`")
            }
            FaultSpecError::BadInteger(tok) => {
                write!(f, "bad integer in MGPU_FAULTS directive `{tok}`")
            }
            FaultSpecError::BadProbability(tok) => {
                write!(f, "bad probability in MGPU_FAULTS directive `{tok}`")
            }
            FaultSpecError::ProbabilityRange(tok) => {
                write!(f, "probability out of [0,1] in `{tok}`")
            }
            FaultSpecError::BadDuration(tok) => {
                write!(
                    f,
                    "bad duration in MGPU_FAULTS directive `{tok}` (use e.g. 800us)"
                )
            }
            FaultSpecError::DurationRange(tok) => {
                write!(f, "negative or non-finite duration in `{tok}`")
            }
        }
    }
}

impl std::error::Error for FaultSpecError {}

/// A deterministic schedule of faults to inject into one [`Gl`](crate::Gl)
/// context.
///
/// Faults trigger at explicit operation indices (zero-based, counted per
/// call-site category, attempts included) and/or probabilistically per
/// operation from the seeded stream. The default plan injects nothing.
///
/// # Examples
///
/// ```
/// use mgpu_gles::FaultPlan;
/// use mgpu_tbdr::SimTime;
///
/// let plan = FaultPlan::seeded(7)
///     .ctx_loss_at_draw(5)
///     .oom_at_upload(3)
///     .watchdog_budget(SimTime::from_micros(800));
/// assert_eq!(plan, FaultPlan::parse("seed=7,ctx@5,oom@3,watchdog=800us").unwrap());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed of the probabilistic and corruption-pattern streams.
    pub seed: u64,
    /// Draw indices at which the context is lost.
    pub ctx_loss_draws: Vec<u64>,
    /// Upload indices at which allocation fails.
    pub oom_uploads: Vec<u64>,
    /// Compile indices at which the compiler fails transiently.
    pub compile_fails: Vec<u64>,
    /// Draw indices after which the rendered target storage is corrupted.
    pub corrupt_draws: Vec<u64>,
    /// Per-draw GPU-time budget; draws estimated above it are killed.
    pub watchdog: Option<SimTime>,
    /// Per-draw context-loss probability.
    pub p_ctx_loss: f64,
    /// Per-upload allocation-failure probability.
    pub p_oom: f64,
    /// Per-draw corruption probability.
    pub p_corrupt: f64,
}

impl FaultPlan {
    /// An empty plan (injects nothing) with the given seed.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Loses the context at the given draw index.
    #[must_use]
    pub fn ctx_loss_at_draw(mut self, index: u64) -> Self {
        self.ctx_loss_draws.push(index);
        self
    }

    /// Fails allocation at the given upload index.
    #[must_use]
    pub fn oom_at_upload(mut self, index: u64) -> Self {
        self.oom_uploads.push(index);
        self
    }

    /// Fails shader compilation transiently at the given compile index.
    #[must_use]
    pub fn compile_fail_at(mut self, index: u64) -> Self {
        self.compile_fails.push(index);
        self
    }

    /// Corrupts the rendered target storage after the given draw index.
    #[must_use]
    pub fn corrupt_at_draw(mut self, index: u64) -> Self {
        self.corrupt_draws.push(index);
        self
    }

    /// Kills draws whose estimated GPU time exceeds `budget`.
    #[must_use]
    pub fn watchdog_budget(mut self, budget: SimTime) -> Self {
        self.watchdog = Some(budget);
        self
    }

    /// Loses the context with probability `p` per draw.
    #[must_use]
    pub fn p_ctx_loss(mut self, p: f64) -> Self {
        self.p_ctx_loss = p;
        self
    }

    /// Fails allocation with probability `p` per upload.
    #[must_use]
    pub fn p_oom(mut self, p: f64) -> Self {
        self.p_oom = p;
        self
    }

    /// Corrupts the rendered target with probability `p` per draw.
    #[must_use]
    pub fn p_corrupt(mut self, p: f64) -> Self {
        self.p_corrupt = p;
        self
    }

    /// Whether the plan can inject anything at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ctx_loss_draws.is_empty()
            && self.oom_uploads.is_empty()
            && self.compile_fails.is_empty()
            && self.corrupt_draws.is_empty()
            && self.watchdog.is_none()
            && self.p_ctx_loss <= 0.0
            && self.p_oom <= 0.0
            && self.p_corrupt <= 0.0
    }

    /// Parses the compact `MGPU_FAULTS` spec: comma-separated directives
    /// from the grammar
    ///
    /// ```text
    /// seed=<u64>        stream seed (default 0)
    /// ctx@<n>           context loss at draw n        (repeatable)
    /// oom@<n>           allocation failure at upload n (repeatable)
    /// compile@<n>       transient compile failure at compile n (repeatable)
    /// corrupt@<n>       storage corruption after draw n (repeatable)
    /// watchdog=<time>   per-draw budget; suffix ns|us|ms|s (e.g. 800us)
    /// p_ctx=<f64>       per-draw context-loss probability
    /// p_oom=<f64>       per-upload allocation-failure probability
    /// p_corrupt=<f64>   per-draw corruption probability
    /// ```
    ///
    /// The inverse of [`FaultPlan::parse`]: any plan formats to a spec
    /// string that parses back to an equal plan (`Display` is canonical —
    /// watchdog budgets render in nanoseconds, zero seeds and zero
    /// probabilities are omitted).
    ///
    /// # Errors
    ///
    /// Returns a [`FaultSpecError`] naming the offending directive.
    pub fn parse(spec: &str) -> Result<Self, FaultSpecError> {
        let mut plan = FaultPlan::default();
        for raw in spec.split(',') {
            let tok = raw.trim();
            if tok.is_empty() {
                continue;
            }
            if let Some(v) = tok.strip_prefix("seed=") {
                plan.seed = parse_u64(v, tok)?;
            } else if let Some(v) = tok.strip_prefix("ctx@") {
                plan.ctx_loss_draws.push(parse_u64(v, tok)?);
            } else if let Some(v) = tok.strip_prefix("oom@") {
                plan.oom_uploads.push(parse_u64(v, tok)?);
            } else if let Some(v) = tok.strip_prefix("compile@") {
                plan.compile_fails.push(parse_u64(v, tok)?);
            } else if let Some(v) = tok.strip_prefix("corrupt@") {
                plan.corrupt_draws.push(parse_u64(v, tok)?);
            } else if let Some(v) = tok.strip_prefix("watchdog=") {
                plan.watchdog = Some(parse_time(v, tok)?);
            } else if let Some(v) = tok.strip_prefix("p_ctx=") {
                plan.p_ctx_loss = parse_prob(v, tok)?;
            } else if let Some(v) = tok.strip_prefix("p_oom=") {
                plan.p_oom = parse_prob(v, tok)?;
            } else if let Some(v) = tok.strip_prefix("p_corrupt=") {
                plan.p_corrupt = parse_prob(v, tok)?;
            } else {
                return Err(FaultSpecError::UnknownDirective(tok.to_owned()));
            }
        }
        Ok(plan)
    }
}

impl fmt::Display for FaultPlan {
    /// Renders the canonical `MGPU_FAULTS` spec for this plan, such that
    /// `FaultPlan::parse(&plan.to_string())` reproduces `plan` exactly.
    ///
    /// Defaults are omitted (`seed=0`, zero probabilities, no watchdog);
    /// the empty plan renders as the empty string. Watchdog budgets render
    /// as whole nanoseconds, which survive the f64 duration parser for any
    /// budget below 2^53 ns (~104 days of simulated time).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        if self.seed != 0 {
            parts.push(format!("seed={}", self.seed));
        }
        for i in &self.ctx_loss_draws {
            parts.push(format!("ctx@{i}"));
        }
        for i in &self.oom_uploads {
            parts.push(format!("oom@{i}"));
        }
        for i in &self.compile_fails {
            parts.push(format!("compile@{i}"));
        }
        for i in &self.corrupt_draws {
            parts.push(format!("corrupt@{i}"));
        }
        if let Some(w) = self.watchdog {
            parts.push(format!("watchdog={}ns", w.as_nanos()));
        }
        // `{:?}` prints the shortest decimal that parses back to the same
        // f64, so probabilities round-trip bit-exactly through the grammar.
        if self.p_ctx_loss > 0.0 {
            parts.push(format!("p_ctx={:?}", self.p_ctx_loss));
        }
        if self.p_oom > 0.0 {
            parts.push(format!("p_oom={:?}", self.p_oom));
        }
        if self.p_corrupt > 0.0 {
            parts.push(format!("p_corrupt={:?}", self.p_corrupt));
        }
        f.write_str(&parts.join(","))
    }
}

fn parse_u64(v: &str, tok: &str) -> Result<u64, FaultSpecError> {
    v.parse::<u64>()
        .map_err(|_| FaultSpecError::BadInteger(tok.to_owned()))
}

fn parse_prob(v: &str, tok: &str) -> Result<f64, FaultSpecError> {
    let p: f64 = v
        .parse()
        .map_err(|_| FaultSpecError::BadProbability(tok.to_owned()))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(FaultSpecError::ProbabilityRange(tok.to_owned()));
    }
    Ok(p)
}

fn parse_time(v: &str, tok: &str) -> Result<SimTime, FaultSpecError> {
    let (num, scale_ns) = if let Some(n) = v.strip_suffix("ns") {
        (n, 1.0)
    } else if let Some(n) = v.strip_suffix("us") {
        (n, 1e3)
    } else if let Some(n) = v.strip_suffix("ms") {
        (n, 1e6)
    } else if let Some(n) = v.strip_suffix('s') {
        (n, 1e9)
    } else {
        // Bare numbers are nanoseconds.
        (v, 1.0)
    };
    let x: f64 = num
        .trim()
        .parse()
        .map_err(|_| FaultSpecError::BadDuration(tok.to_owned()))?;
    if !(x >= 0.0 && x.is_finite()) {
        return Err(FaultSpecError::DurationRange(tok.to_owned()));
    }
    Ok(SimTime::from_nanos((x * scale_ns).round() as u64))
}

/// Replays a [`FaultPlan`] against one context's call stream.
///
/// Owned by [`Gl`](crate::Gl) once installed; survives
/// [`Gl::recreate`](crate::Gl::recreate) so the trail and operation
/// counters span context losses.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng_ctx: Rng,
    rng_oom: Rng,
    rng_corrupt: Rng,
    draws: u64,
    uploads: u64,
    compiles: u64,
    readbacks: u64,
    trail: Vec<FaultEvent>,
}

impl FaultInjector {
    /// Creates an injector replaying `plan`.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        // Independent decorrelated streams per fault class, so adding a
        // probabilistic knob for one class never shifts another's draws.
        let stream = |tag: u64| Rng::new(Rng::new(plan.seed ^ tag).next_u64());
        FaultInjector {
            rng_ctx: stream(0x11),
            rng_oom: stream(0x22),
            rng_corrupt: stream(0x33),
            plan,
            draws: 0,
            uploads: 0,
            compiles: 0,
            readbacks: 0,
            trail: Vec::new(),
        }
    }

    /// The plan being replayed.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Every fault injected so far, in order.
    #[must_use]
    pub fn trail(&self) -> &[FaultEvent] {
        &self.trail
    }

    /// Operation counts seen so far as `(draws, uploads, compiles,
    /// readbacks)` — attempts, not successes.
    #[must_use]
    pub fn counters(&self) -> (u64, u64, u64, u64) {
        (self.draws, self.uploads, self.compiles, self.readbacks)
    }

    pub(crate) fn record(&mut self, kind: FaultKind, site: FaultSite, index: u64) {
        self.trail.push(FaultEvent { kind, site, index });
    }

    /// Registers a draw attempt and returns its index.
    pub(crate) fn next_draw(&mut self) -> u64 {
        let i = self.draws;
        self.draws += 1;
        i
    }

    /// Registers an upload attempt and returns its index.
    pub(crate) fn next_upload(&mut self) -> u64 {
        let i = self.uploads;
        self.uploads += 1;
        i
    }

    /// Registers a compile attempt and returns its index.
    pub(crate) fn next_compile(&mut self) -> u64 {
        let i = self.compiles;
        self.compiles += 1;
        i
    }

    /// Registers a readback attempt and returns its index.
    pub(crate) fn next_readback(&mut self) -> u64 {
        let i = self.readbacks;
        self.readbacks += 1;
        i
    }

    /// Whether the context is lost at draw `index`.
    pub(crate) fn ctx_loss_at(&mut self, index: u64) -> bool {
        let mut hit = self.plan.ctx_loss_draws.contains(&index);
        if self.plan.p_ctx_loss > 0.0 {
            // Always consume exactly one decision draw per attempt so the
            // stream stays aligned with the attempt counter.
            hit |= self.rng_ctx.f64(0.0, 1.0) < self.plan.p_ctx_loss;
        }
        hit
    }

    /// Whether allocation fails at upload `index`.
    pub(crate) fn oom_at(&mut self, index: u64) -> bool {
        let mut hit = self.plan.oom_uploads.contains(&index);
        if self.plan.p_oom > 0.0 {
            hit |= self.rng_oom.f64(0.0, 1.0) < self.plan.p_oom;
        }
        hit
    }

    /// Whether compilation fails transiently at compile `index`.
    pub(crate) fn compile_fail_at(&self, index: u64) -> bool {
        self.plan.compile_fails.contains(&index)
    }

    /// The per-draw watchdog budget, if armed.
    pub(crate) fn watchdog_budget(&self) -> Option<SimTime> {
        self.plan.watchdog
    }

    /// If draw `index` is scheduled for corruption, returns the seeded bit
    /// flips to apply to the `len`-byte target storage as `(offset, xor
    /// mask)` pairs.
    pub(crate) fn corruption_at(&mut self, index: u64, len: usize) -> Option<Vec<(usize, u8)>> {
        let mut hit = self.plan.corrupt_draws.contains(&index);
        if self.plan.p_corrupt > 0.0 {
            hit |= self.rng_corrupt.f64(0.0, 1.0) < self.plan.p_corrupt;
        }
        if !hit || len == 0 {
            return None;
        }
        let flips = self.rng_corrupt.usize_in(1, 9);
        let mut out = Vec::with_capacity(flips);
        for _ in 0..flips {
            let offset = self.rng_corrupt.usize_in(0, len);
            let mask = 1u8 << self.rng_corrupt.u32_in(0, 8);
            out.push((offset, mask));
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_builder() {
        let plan = FaultPlan::seeded(7)
            .ctx_loss_at_draw(5)
            .oom_at_upload(3)
            .compile_fail_at(0)
            .corrupt_at_draw(9)
            .watchdog_budget(SimTime::from_micros(800))
            .p_ctx_loss(0.01);
        let parsed =
            FaultPlan::parse("seed=7,ctx@5,oom@3,compile@0,corrupt@9,watchdog=800us,p_ctx=0.01")
                .unwrap();
        assert_eq!(plan, parsed);
    }

    #[test]
    fn parse_time_suffixes() {
        let p = |s: &str| FaultPlan::parse(s).unwrap().watchdog.unwrap();
        assert_eq!(p("watchdog=100ns"), SimTime::from_nanos(100));
        assert_eq!(p("watchdog=2us"), SimTime::from_micros(2));
        assert_eq!(p("watchdog=3ms"), SimTime::from_millis(3));
        assert_eq!(p("watchdog=1s"), SimTime::from_secs_f64(1.0));
        assert_eq!(p("watchdog=1.5us"), SimTime::from_nanos(1500));
        assert_eq!(p("watchdog=250"), SimTime::from_nanos(250));
    }

    #[test]
    fn parse_rejects_garbage_with_typed_errors() {
        assert_eq!(
            FaultPlan::parse("ctx@x"),
            Err(FaultSpecError::BadInteger("ctx@x".into()))
        );
        assert_eq!(
            FaultPlan::parse("seed=-1"),
            Err(FaultSpecError::BadInteger("seed=-1".into()))
        );
        assert_eq!(
            FaultPlan::parse("frobnicate=1"),
            Err(FaultSpecError::UnknownDirective("frobnicate=1".into()))
        );
        assert_eq!(
            FaultPlan::parse("p_ctx=maybe"),
            Err(FaultSpecError::BadProbability("p_ctx=maybe".into()))
        );
        assert_eq!(
            FaultPlan::parse("p_ctx=1.5"),
            Err(FaultSpecError::ProbabilityRange("p_ctx=1.5".into()))
        );
        assert_eq!(
            FaultPlan::parse("watchdog=fast"),
            Err(FaultSpecError::BadDuration("watchdog=fast".into()))
        );
        assert_eq!(
            FaultPlan::parse("watchdog=-5us"),
            Err(FaultSpecError::DurationRange("watchdog=-5us".into()))
        );
        // An error anywhere poisons the whole spec, even after valid
        // directives.
        assert_eq!(
            FaultPlan::parse("seed=7,ctx@2,bogus"),
            Err(FaultSpecError::UnknownDirective("bogus".into()))
        );
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse(" , ").unwrap().is_empty());
    }

    #[test]
    fn display_emits_canonical_spec() {
        let plan = FaultPlan::seeded(7)
            .ctx_loss_at_draw(5)
            .oom_at_upload(3)
            .compile_fail_at(0)
            .corrupt_at_draw(9)
            .watchdog_budget(SimTime::from_micros(800))
            .p_ctx_loss(0.01);
        assert_eq!(
            plan.to_string(),
            "seed=7,ctx@5,oom@3,compile@0,corrupt@9,watchdog=800000ns,p_ctx=0.01"
        );
        assert_eq!(FaultPlan::default().to_string(), "");
    }

    /// Grammar property: `parse` is a left inverse of `Display` over the
    /// whole plan space (structured equality, not just string agreement).
    #[test]
    fn spec_format_parse_round_trips() {
        mgpu_prop::run_cases(512, |rng| {
            let mut plan = FaultPlan::seeded(if rng.bool() { rng.next_u64() } else { 0 });
            for _ in 0..rng.usize_in(0, 4) {
                plan = plan.ctx_loss_at_draw(rng.u64_in(0, 1_000));
            }
            for _ in 0..rng.usize_in(0, 4) {
                plan = plan.oom_at_upload(rng.u64_in(0, 1_000));
            }
            for _ in 0..rng.usize_in(0, 4) {
                plan = plan.compile_fail_at(rng.u64_in(0, 1_000));
            }
            for _ in 0..rng.usize_in(0, 4) {
                plan = plan.corrupt_at_draw(rng.u64_in(0, 1_000));
            }
            if rng.bool() {
                // Anything below 2^53 ns survives the f64 duration parser.
                plan = plan.watchdog_budget(SimTime::from_nanos(rng.u64_in(0, 1 << 53)));
            }
            if rng.bool() {
                plan = plan.p_ctx_loss(rng.f64(0.0, 1.0));
            }
            if rng.bool() {
                plan = plan.p_oom(rng.f64(0.0, 1.0));
            }
            if rng.bool() {
                plan = plan.p_corrupt(rng.f64(0.0, 1.0));
            }
            let spec = plan.to_string();
            let parsed =
                FaultPlan::parse(&spec).unwrap_or_else(|e| panic!("`{spec}` rejected: {e}"));
            assert_eq!(parsed, plan, "spec `{spec}` did not round-trip");
        });
    }

    /// Grammar property: malformed operands are rejected with the error
    /// variant matching the directive class, never a panic or silent skip.
    #[test]
    fn malformed_operands_map_to_typed_errors() {
        mgpu_prop::run_cases(256, |rng| {
            // Letters that can never assemble into a parseable float
            // ("inf"/"nan") or a known directive name.
            const JUNK: [char; 8] = ['g', 'h', 'j', 'k', 'q', 'r', 'w', 'z'];
            let junk: String = (0..rng.usize_in(1, 6)).map(|_| *rng.pick(&JUNK)).collect();
            let (spec, want) = match rng.u32_in(0, 5) {
                0 => {
                    let tok = format!(
                        "{}@{junk}",
                        *rng.pick(&["ctx", "oom", "compile", "corrupt"])
                    );
                    (tok.clone(), FaultSpecError::BadInteger(tok))
                }
                1 => {
                    let tok = format!("p_ctx={junk}");
                    (tok.clone(), FaultSpecError::BadProbability(tok))
                }
                2 => {
                    let out = if rng.bool() {
                        rng.f64(1.0, 100.0) + 1e-9
                    } else {
                        -rng.f64(1e-9, 100.0)
                    };
                    let tok = format!("p_oom={out:?}");
                    (tok.clone(), FaultSpecError::ProbabilityRange(tok))
                }
                3 => {
                    let tok = format!("watchdog={junk}ms");
                    (tok.clone(), FaultSpecError::BadDuration(tok))
                }
                _ => {
                    let tok = format!("{junk}=1");
                    (tok.clone(), FaultSpecError::UnknownDirective(tok))
                }
            };
            assert_eq!(FaultPlan::parse(&spec), Err(want), "spec `{spec}`");
        });
    }

    #[test]
    fn injector_replays_indices_deterministically() {
        let plan = FaultPlan::seeded(3).ctx_loss_at_draw(2).oom_at_upload(1);
        let run = || {
            let mut inj = FaultInjector::new(plan.clone());
            let mut hits = Vec::new();
            for _ in 0..5 {
                let i = inj.next_draw();
                if inj.ctx_loss_at(i) {
                    inj.record(FaultKind::ContextLoss, FaultSite::Draw, i);
                    hits.push(i);
                }
            }
            for _ in 0..3 {
                let i = inj.next_upload();
                if inj.oom_at(i) {
                    inj.record(FaultKind::Oom, FaultSite::Upload, i);
                }
            }
            (hits, inj.trail().to_vec())
        };
        let (hits_a, trail_a) = run();
        let (hits_b, trail_b) = run();
        assert_eq!(hits_a, vec![2]);
        assert_eq!(hits_a, hits_b);
        assert_eq!(trail_a, trail_b);
        assert_eq!(trail_a.len(), 2);
        assert_eq!(trail_a[0].to_string(), "context-loss@draw#2");
        assert_eq!(trail_a[1].to_string(), "oom@upload#1");
    }

    #[test]
    fn probabilistic_faults_are_seed_deterministic() {
        let plan = FaultPlan::seeded(99).p_ctx_loss(0.3);
        let decisions = |plan: &FaultPlan| {
            let mut inj = FaultInjector::new(plan.clone());
            (0..64)
                .map(|_| {
                    let i = inj.next_draw();
                    inj.ctx_loss_at(i)
                })
                .collect::<Vec<_>>()
        };
        let a = decisions(&plan);
        let b = decisions(&plan);
        assert_eq!(a, b);
        assert!(a.iter().any(|&x| x), "p=0.3 over 64 draws should fire");
        assert!(!a.iter().all(|&x| x));
        let c = decisions(&FaultPlan::seeded(100).p_ctx_loss(0.3));
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn corruption_flips_are_seeded_and_bounded() {
        let plan = FaultPlan::seeded(5).corrupt_at_draw(0);
        let mut a = FaultInjector::new(plan.clone());
        let mut b = FaultInjector::new(plan);
        let ia = a.next_draw();
        let fa = a.corruption_at(ia, 256).unwrap();
        let ib = b.next_draw();
        let fb = b.corruption_at(ib, 256).unwrap();
        assert_eq!(fa, fb);
        assert!(!fa.is_empty() && fa.len() <= 8);
        for &(off, mask) in &fa {
            assert!(off < 256);
            assert_eq!(mask.count_ones(), 1);
        }
        let ia2 = a.next_draw();
        assert!(a.corruption_at(ia2, 256).is_none());
    }
}
