//! Execution configuration for the functional fragment engine.
//!
//! The timing simulation in [`mgpu_tbdr`] models the *GPU's* parallelism
//! and is always single-threaded and bit-exact. This module only controls
//! how many **host** threads the functional rasteriser uses to compute
//! fragment colours. Because every fragment of a GPGPU quad is a pure
//! function of its coordinates, the parallel schedule cannot change any
//! output byte — it only changes wall-clock time.
//!
//! The thread count comes from, in priority order:
//!
//! 1. an explicit [`Gl::set_exec_config`](crate::Gl::set_exec_config) call,
//! 2. the `MGPU_THREADS` environment variable (a positive integer),
//! 3. [`std::thread::available_parallelism`].
//!
//! Every draw runs through one dispatcher: a cached or freshly built draw
//! plan executed over the context's persistent worker pool. One thread
//! (`MGPU_THREADS=1`, or [`ExecConfig::serial`]) shades on the calling
//! thread and never spawns a pool.
//!
//! **Every** `MGPU_*` knob of this crate (`MGPU_ENGINE`,
//! `MGPU_PLAN_CACHE`, `MGPU_TILE_SKIP`, `MGPU_THREADS`, `MGPU_FAULTS`) is
//! resolved **once per process** into a single cached snapshot: mutating
//! the environment mid-run can never flip the engine, plan cache, thread
//! default or fault plan between draws or desynchronise two configs built
//! at different times. An explicit builder call
//! ([`ExecConfig::with_engine`], [`ExecConfig::with_tile_skip`]) is the
//! supported way to change them at run time.
//!
//! Invalid knob values are **errors**, not silent fallbacks: the snapshot
//! records a typed [`EnvKnobError`] naming the variable, the offending
//! value and the grammar it violated, and context creation
//! ([`Gl::try_new`](crate::Gl::try_new)) surfaces it as
//! [`GlError::InvalidEnv`](crate::GlError::InvalidEnv).

use crate::fault::FaultPlan;
use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// Environment variable overriding the functional thread count.
pub const THREADS_ENV: &str = "MGPU_THREADS";

/// Environment variable selecting the fragment engine (`scalar` or
/// `compiled`; anything else is an [`EnvKnobError`] at context creation).
pub const ENGINE_ENV: &str = "MGPU_ENGINE";

/// Environment variable installing a deterministic fault plan on every
/// context created by the process (see
/// [`FaultPlan::parse`](crate::FaultPlan::parse) for the grammar).
/// Resolved once per process like every other knob; a malformed spec is
/// an [`EnvKnobError`] at context creation.
pub const FAULTS_ENV: &str = "MGPU_FAULTS";

/// Environment variable disabling the per-context draw-plan cache
/// (`off`/`0`/`false`/`no`): every draw then rebuilds its lowered
/// program, column table and engine seats.
pub const PLAN_CACHE_ENV: &str = "MGPU_PLAN_CACHE";

/// Environment variable enabling tile-level redundancy elimination
/// (`on`/`1`/`true`/`yes`; **default off**, unlike the other switches):
/// draws then consult the per-context tile-signature cache and replay the
/// cached bytes of any tile whose inputs are provably unchanged instead of
/// shading it, and the timing simulation charges skipped tiles their
/// signature reads instead of fragment shading. Outputs are byte-identical
/// either way (the conformance lattice holds skip-on against skip-off);
/// simulated timing legitimately improves.
pub const TILE_SKIP_ENV: &str = "MGPU_TILE_SKIP";

/// Which functional fragment interpreter computes fragment colours.
///
/// Both engines are bit-exact with each other — the scalar engine is the
/// reference semantics, and the compiled engine a bind-time lowering of
/// the same f32 expressions into fused native closures — so this knob
/// only changes wall-clock time, never an output byte. The determinism
/// tests at the workspace root and the conformance lattice hold the two
/// engines against each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// The original per-fragment scalar interpreter, uniforms resolved at
    /// bind time: the reference path, and the resilient runner's
    /// fallback.
    Scalar,
    /// The straight-line IR lowered at bind time into a chain of fused,
    /// monomorphised native closures over [`LANES`](mgpu_shader::LANES)
    /// fragments (`mgpu_shader::compile`): no per-instruction decode or
    /// scratch traffic at all. The throughput path, and the default.
    #[default]
    Compiled,
}

/// An invalid `MGPU_*` environment-knob value, recorded in the
/// process-wide snapshot and surfaced as
/// [`GlError::InvalidEnv`](crate::GlError::InvalidEnv) at context
/// creation. Carries the variable, the offending value and the grammar it
/// violated, so harness typos (`MGPU_ENGINE=typo`, `MGPU_THREADS=0`)
/// fail loudly instead of silently falling back to defaults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvKnobError {
    /// The environment variable that failed to parse.
    pub var: &'static str,
    /// Its verbatim value.
    pub value: String,
    /// What the grammar expected.
    pub reason: String,
}

impl EnvKnobError {
    fn new(var: &'static str, value: &str, reason: impl Into<String>) -> Self {
        EnvKnobError {
            var,
            value: value.to_owned(),
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for EnvKnobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid {} value `{}`: {}",
            self.var, self.value, self.reason
        )
    }
}

impl std::error::Error for EnvKnobError {}

/// Process-wide snapshot of **every** `MGPU_*` environment knob, read and
/// validated exactly once. Engine and cache selection must stay
/// constant across a run for the byte-identity and plan-reuse invariants
/// to be meaningful; caching the thread default and fault plan alongside
/// them means two configs (or contexts) built at different times can
/// never desynchronise through a mid-process `set_var`.
#[derive(Debug, Clone)]
struct EnvKnobs {
    engine: Engine,
    plan_cache: bool,
    /// `MGPU_TILE_SKIP` — the only switch that defaults **off**: tile
    /// skipping changes simulated timing (that is its point), so it must
    /// be asked for.
    tile_skip: bool,
    /// `MGPU_THREADS`, when set (explicit configs still override it).
    threads: Option<usize>,
    /// `MGPU_FAULTS`, when set and non-empty.
    faults: Option<FaultPlan>,
}

impl EnvKnobs {
    /// Resolves the knob snapshot through `get` (the environment in
    /// production, a table in the grammar property tests).
    fn resolve(get: impl Fn(&'static str) -> Option<String>) -> Result<EnvKnobs, EnvKnobError> {
        let engine = match get(ENGINE_ENV) {
            Some(s) => {
                parse_engine(&s).ok_or_else(|| EnvKnobError::new(ENGINE_ENV, &s, ENGINE_GRAMMAR))?
            }
            None => Engine::default(),
        };
        let threads = match get(THREADS_ENV) {
            Some(s) => Some(
                parse_thread_count(&s)
                    .ok_or_else(|| EnvKnobError::new(THREADS_ENV, &s, THREADS_GRAMMAR))?,
            ),
            None => None,
        };
        let faults = match get(FAULTS_ENV) {
            Some(s) if !s.trim().is_empty() => Some(
                FaultPlan::parse(&s)
                    .map_err(|e| EnvKnobError::new(FAULTS_ENV, &s, e.to_string()))?,
            ),
            _ => None,
        };
        Ok(EnvKnobs {
            engine,
            plan_cache: resolve_switch_or(&get, PLAN_CACHE_ENV, true)?,
            tile_skip: resolve_switch_or(&get, TILE_SKIP_ENV, false)?,
            threads,
            faults,
        })
    }
}

const ENGINE_GRAMMAR: &str = "expected `scalar` or `compiled`";
const THREADS_GRAMMAR: &str = "expected a positive integer";
const SWITCH_GRAMMAR: &str = "expected `on`/`1`/`true`/`yes` or `off`/`0`/`false`/`no`";

/// `scalar`/`compiled`, case-insensitive and trimmed.
fn parse_engine(value: &str) -> Option<Engine> {
    let v = value.trim();
    if v.eq_ignore_ascii_case("scalar") {
        Some(Engine::Scalar)
    } else if v.eq_ignore_ascii_case("compiled") {
        Some(Engine::Compiled)
    } else {
        None
    }
}

/// `on`/`1`/`true`/`yes` or `off`/`0`/`false`/`no`, case-insensitive and
/// trimmed. Anything else is a grammar error — an `MGPU_PLAN_CACHE=offf`
/// typo must not silently leave the cache on.
fn parse_switch(value: &str) -> Option<bool> {
    match value.trim().to_ascii_lowercase().as_str() {
        "on" | "1" | "true" | "yes" => Some(true),
        "off" | "0" | "false" | "no" => Some(false),
        _ => None,
    }
}

/// A positive integer, trimmed. Zero is a grammar error (a thread count
/// of zero is meaningless, and silently clamping it would mask the typo).
fn parse_thread_count(value: &str) -> Option<usize> {
    value.trim().parse::<usize>().ok().filter(|&n| n >= 1)
}

fn resolve_switch_or(
    get: &impl Fn(&'static str) -> Option<String>,
    var: &'static str,
    default: bool,
) -> Result<bool, EnvKnobError> {
    match get(var) {
        Some(s) => parse_switch(&s).ok_or_else(|| EnvKnobError::new(var, &s, SWITCH_GRAMMAR)),
        None => Ok(default),
    }
}

/// The once-per-process knob snapshot (or the first validation error).
fn env_knobs() -> &'static Result<EnvKnobs, EnvKnobError> {
    static KNOBS: OnceLock<Result<EnvKnobs, EnvKnobError>> = OnceLock::new();
    KNOBS.get_or_init(|| EnvKnobs::resolve(|var| std::env::var(var).ok()))
}

/// The snapshot, panicking on an invalid environment — for the infallible
/// legacy constructors; fallible paths go through
/// [`ExecConfig::try_from_env`].
fn env_knobs_or_panic() -> &'static EnvKnobs {
    match env_knobs() {
        Ok(knobs) => knobs,
        Err(e) => panic!("mgpu-gles: {e}"),
    }
}

impl Engine {
    /// The engine selected by `MGPU_ENGINE`, defaulting to
    /// [`Engine::Compiled`] when unset. Resolved **once** per process and
    /// cached thereafter, so a mid-run environment mutation can never
    /// flip engines between draws.
    ///
    /// # Panics
    ///
    /// Panics if `MGPU_ENGINE` (or any other `MGPU_*` knob) holds an
    /// invalid value; use [`ExecConfig::try_from_env`] /
    /// [`Gl::try_new`](crate::Gl::try_new) to handle that as a typed
    /// error instead.
    #[must_use]
    pub fn from_env() -> Self {
        env_knobs_or_panic().engine
    }
}

/// The process-wide `MGPU_PLAN_CACHE` default (resolved once; an invalid
/// environment reports through context creation, so default to on here).
pub(crate) fn plan_cache_default() -> bool {
    env_knobs().as_ref().map(|k| k.plan_cache).unwrap_or(true)
}

/// The process-wide `MGPU_FAULTS` plan (resolved once), or the knob error
/// context creation should surface.
pub(crate) fn env_fault_plan() -> Result<Option<FaultPlan>, EnvKnobError> {
    match env_knobs() {
        Ok(knobs) => Ok(knobs.faults.clone()),
        Err(e) => Err(e.clone()),
    }
}

/// Fixed row-chunk granularity of the parallel rasteriser.
///
/// The framebuffer is partitioned into chunks of this many rows; the
/// chunk→rows (and therefore chunk→bytes) mapping depends only on the
/// target size and band, never on scheduling — whichever worker claims a
/// chunk, every byte it writes is the same.
pub const CHUNK_ROWS: u32 = 16;

/// How the functional fragment engine executes kernels on the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExecConfig {
    threads: usize,
    engine: Engine,
    tile_skip: bool,
}

impl ExecConfig {
    /// The single-threaded scalar reference path: one thread on the
    /// reference engine, tile skipping off.
    #[must_use]
    pub const fn serial() -> Self {
        ExecConfig {
            threads: 1,
            engine: Engine::Scalar,
            tile_skip: false,
        }
    }

    /// Executes fragments on `threads` worker threads (clamped to ≥ 1),
    /// with the environment-selected engine and tile-skip mode.
    ///
    /// # Panics
    ///
    /// Panics if any `MGPU_*` knob holds an invalid value (see
    /// [`ExecConfig::try_from_env`] for the fallible path).
    #[must_use]
    pub fn with_threads(threads: usize) -> Self {
        let knobs = env_knobs_or_panic();
        ExecConfig {
            threads: threads.max(1),
            engine: knobs.engine,
            tile_skip: knobs.tile_skip,
        }
    }

    /// The environment-driven configuration: `MGPU_THREADS` (falling back
    /// to the machine's available parallelism), `MGPU_ENGINE` and
    /// `MGPU_TILE_SKIP`, all from the once-per-process snapshot.
    ///
    /// # Errors
    ///
    /// Returns the [`EnvKnobError`] recorded in the snapshot when any
    /// `MGPU_*` knob holds an invalid value.
    pub fn try_from_env() -> Result<Self, EnvKnobError> {
        let knobs = match env_knobs() {
            Ok(knobs) => knobs,
            Err(e) => return Err(e.clone()),
        };
        let threads = knobs.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        });
        Ok(ExecConfig {
            threads: threads.max(1),
            engine: knobs.engine,
            tile_skip: knobs.tile_skip,
        })
    }

    /// [`ExecConfig::try_from_env`] for infallible call sites.
    ///
    /// # Panics
    ///
    /// Panics if any `MGPU_*` knob holds an invalid value; prefer
    /// [`ExecConfig::try_from_env`] (or
    /// [`Gl::try_new`](crate::Gl::try_new)) where the error can be
    /// handled.
    #[must_use]
    pub fn from_env() -> Self {
        match ExecConfig::try_from_env() {
            Ok(cfg) => cfg,
            Err(e) => panic!("mgpu-gles: {e}"),
        }
    }

    /// This configuration with the thread count replaced (clamped to ≥ 1).
    #[must_use]
    pub fn with_thread_count(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// This configuration with the fragment engine replaced.
    #[must_use]
    pub const fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// This configuration with tile-level redundancy elimination switched
    /// on or off. Unlike the other knobs this is **not** purely a
    /// wall-clock switch: skipped tiles legitimately change the simulated
    /// timing (signature reads instead of fragment shading) — the promise
    /// is byte-identical *outputs*, held by the conformance lattice.
    #[must_use]
    pub const fn with_tile_skip(mut self, tile_skip: bool) -> Self {
        self.tile_skip = tile_skip;
        self
    }

    /// The configured worker-thread count (≥ 1).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The configured fragment engine.
    #[must_use]
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Whether draws consult the per-context tile-signature cache and
    /// replay provably-unchanged tiles instead of shading them.
    #[must_use]
    pub fn tile_skip(&self) -> bool {
        self.tile_skip
    }
}

impl Default for ExecConfig {
    /// The environment-driven configuration ([`ExecConfig::from_env`]).
    fn default() -> Self {
        ExecConfig::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_is_one_thread() {
        assert_eq!(ExecConfig::serial().threads(), 1);
    }

    #[test]
    fn with_threads_clamps_to_one() {
        assert_eq!(ExecConfig::with_threads(0).threads(), 1);
        assert_eq!(ExecConfig::with_threads(8).threads(), 8);
    }

    #[test]
    fn from_env_is_at_least_one() {
        // Whatever the environment says, the result is a usable config.
        assert!(ExecConfig::from_env().threads() >= 1);
        assert!(ExecConfig::default().threads() >= 1);
    }

    #[test]
    fn serial_uses_the_scalar_reference_engine() {
        assert_eq!(ExecConfig::serial().engine(), Engine::Scalar);
    }

    #[test]
    fn engine_builder_round_trips() {
        let cfg = ExecConfig::with_threads(4).with_engine(Engine::Scalar);
        assert_eq!(cfg.engine(), Engine::Scalar);
        assert_eq!(cfg.threads(), 4);
        let cfg = cfg.with_engine(Engine::Compiled).with_thread_count(2);
        assert_eq!(cfg.engine(), Engine::Compiled);
        assert_eq!(cfg.threads(), 2);
    }

    #[test]
    fn tile_skip_builder_round_trips() {
        assert!(!ExecConfig::serial().tile_skip());
        let cfg = ExecConfig::with_threads(4).with_tile_skip(true);
        assert!(cfg.tile_skip());
        assert!(!cfg.with_tile_skip(false).tile_skip());
        // Toggling tile skipping leaves the other knobs alone.
        assert_eq!(cfg.threads(), 4);
        assert_eq!(cfg.engine(), ExecConfig::with_threads(4).engine());
    }

    /// Resolves a snapshot in which exactly one knob is set.
    fn resolve_one(var: &'static str, value: &str) -> Result<EnvKnobs, EnvKnobError> {
        let value = value.to_owned();
        EnvKnobs::resolve(move |v| (v == var).then(|| value.clone()))
    }

    /// Every case/whitespace spelling of every valid token parses, for
    /// every knob — the property the old ad-hoc readers only held for a
    /// few hard-coded strings.
    #[test]
    fn knob_grammar_accepts_every_valid_spelling() {
        let spellings = |token: &str| -> Vec<String> {
            vec![
                token.to_owned(),
                token.to_uppercase(),
                format!("{}{}", token[..1].to_uppercase(), token[1..].to_lowercase()),
                format!("  {token} "),
                format!("\t{}\n", token.to_uppercase()),
            ]
        };
        for (token, engine) in [("scalar", Engine::Scalar), ("compiled", Engine::Compiled)] {
            for s in spellings(token) {
                assert_eq!(parse_engine(&s), Some(engine), "engine `{s}`");
                let knobs = resolve_one(ENGINE_ENV, &s).unwrap();
                assert_eq!(knobs.engine, engine);
            }
        }
        for (token, on) in [
            ("on", true),
            ("1", true),
            ("true", true),
            ("yes", true),
            ("off", false),
            ("0", false),
            ("false", false),
            ("no", false),
        ] {
            for s in spellings(token) {
                assert_eq!(parse_switch(&s), Some(on), "switch `{s}`");
                for var in [PLAN_CACHE_ENV, TILE_SKIP_ENV] {
                    let knobs = resolve_one(var, &s).unwrap();
                    let got = match var {
                        PLAN_CACHE_ENV => knobs.plan_cache,
                        _ => knobs.tile_skip,
                    };
                    assert_eq!(got, on, "{var}=`{s}`");
                }
            }
        }
        for n in [1usize, 2, 7, 64, 10_000] {
            let s = format!(" {n} ");
            assert_eq!(parse_thread_count(&s), Some(n));
            assert_eq!(resolve_one(THREADS_ENV, &s).unwrap().threads, Some(n));
        }
        let knobs = resolve_one(FAULTS_ENV, "seed=9,ctx@3").unwrap();
        assert_eq!(knobs.faults, Some(FaultPlan::seeded(9).ctx_loss_at_draw(3)));
        // Unset and empty both mean "no plan", not an error.
        assert_eq!(resolve_one(FAULTS_ENV, "  ").unwrap().faults, None);
        let defaults = EnvKnobs::resolve(|_| None).unwrap();
        assert_eq!(defaults.engine, Engine::Compiled);
        assert!(defaults.plan_cache);
        assert!(!defaults.tile_skip, "tile skipping must default off");
        assert_eq!(defaults.threads, None);
        assert_eq!(defaults.faults, None);
    }

    /// Everything outside the grammar is a typed error naming the
    /// variable and its verbatim value — never a silent default.
    #[test]
    fn knob_grammar_rejects_invalid_values_with_typed_errors() {
        // Old `.case` files and scripts may still say `batched`: it must
        // fail like any other unknown name, not fall back to a default.
        let engine_bad = [
            "typo",
            "vliw",
            "scalarr",
            "batched",
            "scalar compiled",
            "2",
            "",
        ];
        for v in engine_bad {
            assert_eq!(parse_engine(v), None, "engine `{v}`");
            let err = resolve_one(ENGINE_ENV, v).unwrap_err();
            assert_eq!(err.var, ENGINE_ENV);
            assert_eq!(err.value, v);
            assert!(err.to_string().contains(ENGINE_ENV), "{err}");
        }
        let switch_bad = ["offf", "enabled", "2", "-1", "o n", ""];
        for v in switch_bad {
            assert_eq!(parse_switch(v), None, "switch `{v}`");
            for var in [PLAN_CACHE_ENV, TILE_SKIP_ENV] {
                let err = resolve_one(var, v).unwrap_err();
                assert_eq!((err.var, err.value.as_str()), (var, v));
            }
        }
        let threads_bad = ["0", "-3", "two", "1.5", "1e3", "", "0x8"];
        for v in threads_bad {
            assert_eq!(parse_thread_count(v), None, "threads `{v}`");
            let err = resolve_one(THREADS_ENV, v).unwrap_err();
            assert_eq!((err.var, err.value.as_str()), (THREADS_ENV, v));
        }
        let err = resolve_one(FAULTS_ENV, "seed=bogus").unwrap_err();
        assert_eq!(err.var, FAULTS_ENV);
        assert!(err.reason.contains("seed=bogus"), "{err}");
        let err = resolve_one(FAULTS_ENV, "frobnicate@1").unwrap_err();
        assert_eq!(err.var, FAULTS_ENV);
    }

    /// The first invalid knob wins even when several are set, and valid
    /// knobs resolve together.
    #[test]
    fn snapshot_resolves_all_knobs_together() {
        let knobs = EnvKnobs::resolve(|var| {
            let v = match var {
                ENGINE_ENV => "compiled",
                THREADS_ENV => "3",
                PLAN_CACHE_ENV => "off",
                TILE_SKIP_ENV => "yes",
                FAULTS_ENV => "seed=4",
                _ => return None,
            };
            Some(v.to_owned())
        })
        .unwrap();
        assert_eq!(knobs.engine, Engine::Compiled);
        assert_eq!(knobs.threads, Some(3));
        assert!(!knobs.plan_cache);
        assert!(knobs.tile_skip);
        assert_eq!(knobs.faults, Some(FaultPlan::seeded(4)));

        let err = EnvKnobs::resolve(|var| match var {
            ENGINE_ENV => Some("compiled".to_owned()),
            THREADS_ENV => Some("zero".to_owned()),
            _ => None,
        })
        .unwrap_err();
        assert_eq!(err.var, THREADS_ENV);
    }

    #[test]
    fn engine_resolution_is_stable_across_calls() {
        // The env snapshot is taken once: two configs built at different
        // times always agree on engine and tile-skip mode.
        let a = ExecConfig::with_threads(2);
        let b = ExecConfig::with_threads(7);
        assert_eq!(a.engine(), b.engine());
        assert_eq!(a.tile_skip(), b.tile_skip());
        assert_eq!(Engine::from_env(), a.engine());
    }
}
