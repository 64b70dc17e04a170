//! Metric catalogue, statistics and the result line.
//!
//! The metric names and units here are the ones `BENCHMARK.json` declares;
//! a unit test holds the two in step.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::trace;

/// End-to-end metrics, printed by the untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "op/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by the traced run (`--trace 1`). A metric of
/// a layer the workload never reaches reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("shader.parse_us", "us"),
    ("shader.lower_us", "us"),
    ("shader.optimize_us", "us"),
    ("shader.check_limits_us", "us"),
    ("shader.plan_build_us", "us"),
    ("shader.ir_instrs", "count"),
    ("gles.context_new_ms", "ms"),
    ("gles.tex_image_2d_us", "us"),
    ("gles.draw_quad_cold_us", "us"),
    ("gles.draw_quad_warm_us", "us"),
    ("gles.frags_per_s", "frag/s"),
    ("gles.read_pixels_us", "us"),
    ("gles.copy_tex_image_2d_us", "us"),
    ("gles.plan_cache_hit_ratio", "ratio"),
    ("gles.plan_cache_hits", "count"),
    ("gles.plan_cache_lookups", "count"),
    ("gles.tile_skip_hit_ratio.pyramid", "ratio"),
    ("gles.tile_skip_hit_ratio.jacobi", "ratio"),
    ("gles.tile_skip_hit_ratio.train", "ratio"),
    ("gles.elapsed_us.first_wave", "us"),
    ("gles.elapsed_us.last_wave", "us"),
    ("tbdr.submit_us_per_frame", "us"),
    ("tbdr.frames_per_op", "count"),
    ("tbdr.busy_frac.cpu", "ratio"),
    ("tbdr.busy_frac.vertex", "ratio"),
    ("tbdr.busy_frac.fragment", "ratio"),
    ("tbdr.busy_frac.copy", "ratio"),
    ("tbdr.traffic_mib", "MiB"),
    ("tbdr.stall_s", "sim-s"),
    ("tbdr.dependency_flushes", "count"),
    ("gpgpu.encode_mb_s", "MB/s"),
    ("gpgpu.decode_mb_s", "MB/s"),
    ("gpgpu.op_build_ms", "ms"),
    ("gpgpu.recovery_events_per_job", "count"),
    ("gpgpu.faults_per_job", "count"),
    ("workloads.run_once_ms.pyramid", "ms"),
    ("workloads.run_once_ms.jacobi", "ms"),
    ("workloads.run_once_ms.train", "ms"),
    ("workloads.passes_per_s", "1/s"),
    ("service.submit_us", "us"),
    ("service.drain_us_per_job.first_wave", "us"),
    ("service.drain_us_per_job.last_wave", "us"),
    ("service.overhead_us_per_job", "us"),
    ("service.quarantines", "count"),
    ("service.rejected", "count"),
    ("service.displaced", "count"),
    ("service.job_fail_frac", "ratio"),
    ("service.job_sim_p99_ms", "sim-ms"),
    ("sim_s", "sim-s"),
    ("fail_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Whether `name` follows the metric-name grammar: 1 to 64 characters of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
#[must_use]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    name.len() <= 64
        && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Nearest-rank percentile (`p` in `0..=1`) of unsorted samples; 0 for an
/// empty set.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Samples strictly beyond the nearest-rank `p` percentile. The benchmark
/// reports a percentile only when at least ten samples lie beyond it.
#[must_use]
pub fn samples_beyond(count: usize, p: f64) -> usize {
    let rank = ((p * count as f64).ceil() as usize).clamp(1, count.max(1));
    count.saturating_sub(rank)
}

/// Fewest ops a run times: the p90 then has at least ten samples beyond it.
pub const MIN_OPS: usize = 100;

/// Median of unsorted samples (nearest rank); 0 for an empty set.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Median of nanosecond samples, in microseconds.
#[must_use]
pub fn median_us(ns: &[u64]) -> f64 {
    let v: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e3).collect();
    median(&v)
}

/// `part / whole`, or 0 when nothing was attempted.
#[must_use]
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// What one cycle of a workload's ops produced.
#[derive(Debug, Default)]
pub struct Cycle {
    /// Host latency of each op, in milliseconds.
    pub lat_ms: Vec<f64>,
    /// Host seconds spent inside ops (verification excluded).
    pub busy_s: f64,
    /// Ops whose output was wrong or that returned an unexpected error.
    pub failed: u64,
}

/// The timed phase: every op of every cycle run.
#[derive(Debug, Default)]
pub struct Timed {
    /// Per-op host latencies, in milliseconds.
    pub lat_ms: Vec<f64>,
    /// Host seconds spent inside ops.
    pub busy_s: f64,
    /// Failed ops.
    pub failed: u64,
    /// Cycles run.
    pub cycles: u64,
    /// Ops and busy seconds of cycles run with tracing on.
    pub traced: (usize, f64),
    /// Ops and busy seconds of cycles run with tracing off.
    pub untraced: (usize, f64),
    /// Ops per busy second of each completed window of whole cycles
    /// spanning at least [`WINDOW_S`] busy seconds.
    pub window_rates: Vec<f64>,
}

/// Busy seconds a throughput window spans at least.
pub const WINDOW_S: f64 = 0.5;

impl Timed {
    /// Ops per host second inside ops.
    #[must_use]
    pub fn ops_per_s(&self) -> f64 {
        ratio(self.lat_ms.len() as f64, self.busy_s)
    }

    /// Relative throughput lost to tracing: `1 - traced / untraced` ops/s.
    #[must_use]
    pub fn trace_overhead(&self) -> f64 {
        let rate = |(ops, s): (usize, f64)| ratio(ops as f64, s);
        let off = rate(self.untraced);
        if off > 0.0 {
            1.0 - rate(self.traced) / off
        } else {
            0.0
        }
    }
}

/// Runs whole cycles until `seconds` have passed and at least [`MIN_OPS`]
/// ops were timed. Each cycle is the same fixed work, so a run's figures
/// do not depend on where the clock stopped. In a traced run, even cycles
/// record spans and odd cycles do not, which measures the tracing
/// overhead inside one process.
/// Seconds one run of a fixed CPU kernel takes: xorshift updates
/// scattered over a freshly allocated 1 MiB table.
#[must_use]
pub fn calibration_s() -> f64 {
    let t = Instant::now();
    let mut table = vec![0u32; 1 << 18];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..400_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & (table.len() - 1);
        table[i] = table[i].wrapping_mul(31).wrapping_add(x as u32);
    }
    std::hint::black_box(&table);
    t.elapsed().as_secs_f64()
}

fn cal3() -> f64 {
    median(&[calibration_s(), calibration_s(), calibration_s()])
}

pub fn timed_loop(seconds: f64, traced: bool, mut cycle: impl FnMut(u64) -> Cycle) -> Timed {
    let start = Instant::now();
    let mut t = Timed::default();
    let mut cal_before = cal3();
    let (mut w_ops, mut w_busy) = (0usize, 0.0f64);
    while start.elapsed().as_secs_f64() < seconds || t.lat_ms.len() < MIN_OPS {
        let on = traced && t.cycles % 2 == 0;
        trace::set_enabled(on);
        let c = cycle(t.cycles);
        trace::set_enabled(false);
        w_ops += c.lat_ms.len();
        w_busy += c.busy_s;
        if w_busy >= WINDOW_S {
            let cal_after = cal3();
            let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
            let f: Vec<&str> = stat.rsplit(')').next().unwrap_or("").split_whitespace().collect();
            eprintln!(
                "WIN t={:.2} rate={:.4} cal_ms={:.4} minflt={} utime={} stime={}",
                start.elapsed().as_secs_f64(),
                w_ops as f64 / w_busy,
                (cal_before + cal_after) * 500.0,
                f.get(7).unwrap_or(&""),
                f.get(11).unwrap_or(&""),
                f.get(12).unwrap_or(&""),
            );
            t.window_rates.push(w_ops as f64 / w_busy);
            cal_before = cal_after;
            w_ops = 0;
            w_busy = 0.0;
        }
        let side = if on { &mut t.traced } else { &mut t.untraced };
        side.0 += c.lat_ms.len();
        side.1 += c.busy_s;
        t.busy_s += c.busy_s;
        t.failed += c.failed;
        t.lat_ms.extend(c.lat_ms);
        t.cycles += 1;
    }
    t
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Counts the run's outcome: ops attempted and ops failed. A failed op is
/// one whose output was wrong or that returned an error the workload does
/// not expect; an expected rejection (the block-32 shader limit) is a
/// success.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
}

impl Tally {
    /// `failed / attempted`, 0 when nothing was attempted.
    #[must_use]
    pub fn fail_frac(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }
}

/// The final result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, with every metric of `catalogue` taken from `values`.
///
/// # Errors
///
/// Names a catalogue metric with an invalid name, missing from `values`,
/// or holding a non-finite number.
pub fn result_line(
    correct: bool,
    tally: Tally,
    catalogue: &[(&str, &str)],
    values: &BTreeMap<&'static str, f64>,
) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(catalogue.len());
    for (name, unit) in catalogue {
        if !valid_name(name) {
            return Err(format!("metric name {name:?} breaks the name grammar"));
        }
        let v = *values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite: {v}"));
        }
        metrics.push(format!("\"{name}\":{{\"value\":{v},\"unit\":\"{unit}\"}}"));
    }
    Ok(format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.attempted,
        tally.failed,
        metrics.join(",")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 100.0);
        assert_eq!(percentile(&v, 0.9), 180.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(percentile(&[], 0.9), 0.0);
    }

    #[test]
    fn the_minimum_run_leaves_ten_samples_beyond_p90() {
        assert_eq!(samples_beyond(MIN_OPS, 0.9), 10);
        assert!(samples_beyond(MIN_OPS - 1, 0.9) < 10);
        assert_eq!(samples_beyond(0, 0.9), 0);
    }

    #[test]
    fn fail_frac_counts_against_attempts() {
        let none = Tally::default();
        assert_eq!(none.fail_frac(), 0.0);
        let t = Tally {
            attempted: 200,
            failed: 3,
        };
        assert_eq!(t.fail_frac(), 0.015);
    }

    #[test]
    fn metric_names_follow_the_grammar_and_caps() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit}"
            );
        }
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "metric names must be unique");
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let section = |key: &str| -> String {
            let from = json.find(&format!("\"{key}\"")).expect("section present");
            let rest = &json[from..];
            rest[..rest.find(']').expect("section closes")].to_owned()
        };
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let s = section(key);
            assert_eq!(
                s.matches("\"name\"").count(),
                catalogue.len(),
                "{key}: BENCHMARK.json and the catalogue list different metric counts"
            );
            for (name, unit) in catalogue {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(
                    s.contains(&entry),
                    "{key}: {entry} missing from BENCHMARK.json"
                );
            }
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut values = BTreeMap::new();
        values.insert("ops_per_s", 12.5);
        let line = result_line(
            true,
            Tally {
                attempted: 4,
                failed: 0,
            },
            &[("ops_per_s", "op/s")],
            &values,
        )
        .expect("complete");
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":4,\"failed\":0,\"metrics\":{\"ops_per_s\":{\"value\":12.5,\"unit\":\"op/s\"}}}"
        );
        assert!(result_line(true, Tally::default(), &[("missing", "s")], &values).is_err());
        values.insert("nan", f64::NAN);
        assert!(result_line(true, Tally::default(), &[("nan", "s")], &values).is_err());
    }
}
