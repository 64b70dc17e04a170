//! End-to-end and per-layer host-time benchmark of the mgpu stack.
//!
//! ```text
//! perfbench --workload <paper-sim|shade|pipelines|fleet> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload for about `--seconds` of timed ops, checks every
//! output, and prints as its last line one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` records spans around every call the
//! benchmark makes into a layer, writes them to
//! `perfbench/out/trace-<workload>-<seed>.json`, and reports the
//! per-layer metrics derived from them. See `perfbench/README.md` for why
//! each workload exists.

mod fleet;
mod paper_sim;
mod pipelines;
mod probe;
mod report;
mod shade;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use probe::Facts;
use report::{Tally, Timed};

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 4] = ["paper-sim", "shade", "pipelines", "fleet"];

/// Fewest set-ups per run; the median is reported.
pub const SETUP_REPS: usize = 5;

/// Set-ups repeat until this many seconds have passed, so that a cheap
/// set-up's median spans more than one burst of host noise.
pub const SETUP_MIN_S: f64 = 1.0;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Input seed: every generated input derives from it.
    pub seed: u64,
    /// Target length of the timed phase.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown argument {flag} {value}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or(format!("--workload is one of {WORKLOADS:?}"))?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The `MGPU_*` names among environment variable `names`. Any such knob
/// would silently make the benchmark measure a different program than the
/// library defaults.
fn stray_knobs(names: impl IntoIterator<Item = String>) -> Vec<String> {
    names
        .into_iter()
        .filter(|k| k.starts_with("MGPU_"))
        .collect()
}

/// The checkout's git revision, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let rev = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_owned(),
    };
    let rev = rev.trim();
    if rev.is_empty() {
        "unknown".to_owned()
    } else {
        rev.to_owned()
    }
}

/// What one workload run produced.
#[derive(Debug)]
pub struct Outcome {
    /// The timed phase.
    pub timed: Timed,
    /// Host seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Ops attempted and failed.
    pub tally: Tally,
    /// Correctness checks that did not hold.
    pub problems: Vec<String>,
    /// Directly measured layer facts (traced run).
    pub facts: Facts,
    /// Digest of the verified outputs (same seed, same digest).
    pub digest: u64,
    /// Simulated seconds of one cycle of the workload's ops.
    pub sim_s: f64,
}

impl Outcome {
    /// An outcome with no problems, facts or digest yet.
    #[must_use]
    pub fn new(timed: Timed, setup_s: Vec<f64>, tally: Tally) -> Self {
        Outcome {
            timed,
            setup_s,
            tally,
            problems: Vec::new(),
            facts: Facts::new(),
            digest: 0,
            sim_s: 0.0,
        }
    }
}

/// Runs `setup` at least [`SETUP_REPS`] times and for at least
/// [`SETUP_MIN_S`], timing each, and keeps the last state (earlier ones
/// are dropped before the next starts).
///
/// # Errors
///
/// The first set-up failure.
pub fn repeat_setup<S>(
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<(S, Vec<f64>), String> {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut state = None;
    while times.len() < SETUP_REPS || start.elapsed().as_secs_f64() < SETUP_MIN_S {
        drop(state.take());
        let t = Instant::now();
        state = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((state.ok_or("no set-up ran")?, times))
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(out: &Outcome) -> BTreeMap<&'static str, f64> {
    let t = &out.timed;
    BTreeMap::from([
        ("ops_per_s", t.ops_per_s()),
        ("op_p50_ms", report::percentile(&t.lat_ms, 0.5)),
        ("op_p90_ms", report::percentile(&t.lat_ms, 0.9)),
        ("setup_s", report::median(&out.setup_s)),
        ("peak_rss_mib", report::peak_rss_mib()),
    ])
}

/// The per-layer metrics of a traced run: span self-time medians, facts
/// the workload measured directly, and 0 for layers it never reaches.
fn per_layer(out: &Outcome, spans: &[trace::Span]) -> BTreeMap<&'static str, f64> {
    let by_name = trace::self_times_by_name(spans);
    let med_us = |name: &str| by_name.get(name).map_or(0.0, |v| report::median_us(v));
    let fact = |name: &str| out.facts.get(name).copied().unwrap_or(0.0);
    let per_sec = |work: f64, us: f64| if us > 0.0 { work / (us / 1e6) } else { 0.0 };

    let mut m: BTreeMap<&'static str, f64> =
        report::PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect();
    for (metric, span) in [
        ("shader.parse_us", "shader.parse"),
        ("shader.lower_us", "shader.lower"),
        ("shader.optimize_us", "shader.optimize"),
        ("shader.check_limits_us", "shader.check_limits"),
        ("shader.plan_build_us", "shader.plan_build"),
        ("gles.tex_image_2d_us", "gles.tex_image_2d"),
        ("gles.draw_quad_cold_us", "gles.draw_quad_cold"),
        ("gles.draw_quad_warm_us", "gles.draw_quad_warm"),
        ("gles.read_pixels_us", "gles.read_pixels"),
        ("gles.copy_tex_image_2d_us", "gles.copy_tex_image_2d"),
        ("gles.elapsed_us.first_wave", "gles.elapsed.first"),
        ("gles.elapsed_us.last_wave", "gles.elapsed.last"),
        ("tbdr.submit_us_per_frame", "tbdr.submit"),
        ("service.submit_us", "service.submit"),
    ] {
        m.insert(metric, med_us(span));
    }
    for (metric, span) in [
        ("gles.context_new_ms", "gles.context_new"),
        ("gpgpu.op_build_ms", "gpgpu.op_build"),
        (
            "workloads.run_once_ms.pyramid",
            "workloads.run_once.pyramid",
        ),
        ("workloads.run_once_ms.jacobi", "workloads.run_once.jacobi"),
        ("workloads.run_once_ms.train", "workloads.run_once.train"),
    ] {
        m.insert(metric, med_us(span) / 1e3);
    }
    let jobs_per_wave = fact("jobs_per_wave").max(1.0);
    m.insert(
        "service.drain_us_per_job.first_wave",
        med_us("service.drain.first_wave") / jobs_per_wave,
    );
    m.insert(
        "service.drain_us_per_job.last_wave",
        med_us("service.drain.last_wave") / jobs_per_wave,
    );
    m.insert(
        "service.overhead_us_per_job",
        med_us("service.drain.noop") / fact("noop_jobs").max(1.0),
    );
    m.insert(
        "gles.frags_per_s",
        per_sec(fact("frags_per_draw"), med_us("gles.draw_quad_warm")),
    );
    let mb = fact("codec_bytes") / 1e6;
    m.insert("gpgpu.encode_mb_s", per_sec(mb, med_us("gpgpu.encode")));
    m.insert("gpgpu.decode_mb_s", per_sec(mb, med_us("gpgpu.decode")));
    // Passes per second over every run_once span of the pipelines loop.
    let (mut passes, mut ns) = (0.0, 0u64);
    for (span, per_run) in [
        ("workloads.run_once.pyramid", "passes.pyramid"),
        ("workloads.run_once.jacobi", "passes.jacobi"),
        ("workloads.run_once.train", "passes.train"),
    ] {
        if let Some(v) = by_name.get(span) {
            passes += v.len() as f64 * fact(per_run);
            ns += v.iter().sum::<u64>();
        }
    }
    m.insert("workloads.passes_per_s", per_sec(passes, ns as f64 / 1e3));

    for (name, value) in &out.facts {
        if m.contains_key(name) {
            m.insert(name, *value);
        }
    }
    m.insert("sim_s", out.sim_s);
    m.insert("fail_frac", out.tally.fail_frac());
    m.insert("trace.overhead_frac", out.timed.trace_overhead());
    m
}

fn write_trace(args: &Args, spans: &[trace::Span]) -> Result<String, String> {
    let dir = std::path::Path::new("perfbench").join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
    std::fs::write(&path, trace::chrome_json(spans))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn run(args: &Args) -> Result<String, String> {
    let knobs = stray_knobs(std::env::vars_os().map(|(k, _)| k.to_string_lossy().into_owned()));
    if !knobs.is_empty() {
        return Err(format!(
            "refusing to run with {} set: the benchmark measures the library defaults",
            knobs.join(", ")
        ));
    }
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "perfbench workload={} seed={} seconds={} trace={} rev={} nproc={nproc} default_engine={:?}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_rev(),
        mgpu_gles::Engine::from_env(),
    );
    let out = match args.workload.as_str() {
        "paper-sim" => paper_sim::run(args)?,
        "shade" => shade::run(args)?,
        "pipelines" => pipelines::run(args)?,
        _ => fleet::run(args)?,
    };
    let t = &out.timed;
    let pct = |p: f64| report::percentile(&t.lat_ms, p);
    println!(
        "ops={} cycles={} busy_s={:.3} op_ms min/p10/p50/p90/max={:.3}/{:.3}/{:.3}/{:.3}/{:.3} samples_beyond_p90={} attempted={} failed={} digest={:016x} sim_s={}",
        t.lat_ms.len(),
        t.cycles,
        t.busy_s,
        pct(0.0),
        pct(0.1),
        pct(0.5),
        pct(0.9),
        pct(1.0),
        report::samples_beyond(t.lat_ms.len(), 0.9),
        out.tally.attempted,
        out.tally.failed,
        out.digest,
        out.sim_s,
    );
    for p in &out.problems {
        println!("problem: {p}");
    }
    let correct = out.problems.is_empty() && out.tally.failed == 0;
    if args.trace {
        let spans = trace::take();
        let path = write_trace(args, &spans)?;
        println!("trace: {} spans written to {path}", spans.len());
        report::result_line(
            correct,
            out.tally,
            report::PER_LAYER,
            &per_layer(&out, &spans),
        )
    } else {
        report::result_line(correct, out.tally, report::END_TO_END, &end_to_end(&out))
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a =
            parse_args(&argv("--workload shade --seed 7 --seconds 10 --trace 1")).expect("valid");
        assert_eq!(
            a,
            Args {
                workload: "shade".to_owned(),
                seed: 7,
                seconds: 10.0,
                trace: true,
            }
        );
        assert!(parse_args(&argv("--workload nope --seed 7 --seconds 10")).is_err());
        assert!(parse_args(&argv("--workload shade --seed x --seconds 10")).is_err());
        assert!(parse_args(&argv("--workload shade --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload shade --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload shade --seed 1")).is_err());
    }

    #[test]
    fn any_mgpu_variable_is_a_stray_knob() {
        let names = ["PATH", "MGPU_ENGINE", "HOME", "MGPU_THREADS", "XMGPU_X"];
        assert_eq!(
            stray_knobs(names.map(str::to_owned)),
            vec!["MGPU_ENGINE".to_owned(), "MGPU_THREADS".to_owned()]
        );
    }

    /// The same seed gives the same outputs and simulated figures.
    #[test]
    fn same_seed_same_digest_and_simulated_figures() {
        for workload in ["shade", "fleet"] {
            let args = Args {
                workload: workload.to_owned(),
                seed: 5,
                seconds: 0.01,
                trace: false,
            };
            let run = || {
                match workload {
                    "shade" => shade::run(&args),
                    _ => fleet::run(&args),
                }
                .expect("runs")
            };
            let (a, b) = (run(), run());
            assert!(
                a.problems.is_empty() && a.tally.failed == 0,
                "{:?}",
                a.problems
            );
            assert_eq!(a.digest, b.digest, "{workload}");
            assert_eq!(a.sim_s, b.sim_s, "{workload}");
            assert_eq!(a.facts, b.facts, "{workload}");
            assert_eq!(a.tally.fail_frac(), b.tally.fail_frac(), "{workload}");
        }
    }
}
