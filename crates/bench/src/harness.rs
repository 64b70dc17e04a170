//! Shared command line, statistics and output format for the wall-clock
//! and simulated-time gate binaries.
//!
//! Each bin reads its arguments with [`parse_args`], runs its own timing
//! loop, summarises the samples with [`Stats`] and reports them two ways
//! through [`emit_bench_json`]:
//!
//! * a human one-liner with mean / median / p95 / p99 / min / max;
//! * a machine-readable `BENCH {...}` JSON line (see [`bench_json_line`])
//!   so the perf trajectory can be scraped and tracked across commits.

use std::time::Duration;

/// Summary statistics over one benchmark's timed samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stats {
    /// Arithmetic mean per iteration.
    pub mean: Duration,
    /// Median (50th percentile) per iteration.
    pub median: Duration,
    /// 95th percentile per iteration (nearest-rank).
    pub p95: Duration,
    /// 99th percentile per iteration (nearest-rank) — the tail-latency
    /// figure service-level gates compare.
    pub p99: Duration,
    /// Fastest sample.
    pub min: Duration,
    /// Slowest sample.
    pub max: Duration,
    /// Number of timed samples.
    pub samples: usize,
}

impl Stats {
    /// Computes summary statistics; an empty sample set yields all zeros.
    #[must_use]
    pub fn from_samples(samples: &[Duration]) -> Self {
        if samples.is_empty() {
            return Stats {
                mean: Duration::ZERO,
                median: Duration::ZERO,
                p95: Duration::ZERO,
                p99: Duration::ZERO,
                min: Duration::ZERO,
                max: Duration::ZERO,
                samples: 0,
            };
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let n = sorted.len();
        let total: Duration = sorted.iter().sum();
        // Nearest-rank percentiles: ceil(p * n) - 1, clamped into range.
        let rank = |p: f64| -> Duration {
            let r = ((p * n as f64).ceil() as usize).clamp(1, n);
            sorted[r - 1]
        };
        Stats {
            mean: total / n as u32,
            median: rank(0.50),
            p95: rank(0.95),
            p99: rank(0.99),
            min: sorted[0],
            max: sorted[n - 1],
            samples: n,
        }
    }

    /// Computes summary statistics from nanosecond samples — the form
    /// per-job **simulated** latencies arrive in (service records carry
    /// `SimTime`, not wall-clock `Duration`).
    #[must_use]
    pub fn from_nanos(samples_ns: &[u64]) -> Self {
        let samples: Vec<Duration> = samples_ns
            .iter()
            .map(|&ns| Duration::from_nanos(ns))
            .collect();
        Stats::from_samples(&samples)
    }
}

/// Reads a bench binary's command line: unsigned integers replace the
/// `positionals` defaults in order, and `--gate` sets the returned flag if
/// `gate_flag` allows it. A non-numeric token, a surplus positional or an
/// unknown flag prints `usage: {usage}` to stderr and exits with status 2,
/// before the binary has printed anything.
#[must_use]
pub fn parse_args<const N: usize>(
    usage: &str,
    mut positionals: [u32; N],
    gate_flag: bool,
) -> ([u32; N], bool) {
    let mut gate = false;
    let mut next = 0;
    for arg in std::env::args().skip(1) {
        if gate_flag && arg == "--gate" {
            gate = true;
        } else if let (Some(slot), Ok(v)) = (positionals.get_mut(next), arg.parse()) {
            *slot = v;
            next += 1;
        } else {
            eprintln!("usage: {usage}");
            std::process::exit(2);
        }
    }
    (positionals, gate)
}

/// Escapes a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats one machine-readable benchmark record: a single line starting
/// with `BENCH ` followed by a JSON object with nanosecond statistics.
/// Durations beyond ~584 years saturate at `u64::MAX` nanoseconds.
#[must_use]
pub fn bench_json_line(group: &str, id: &str, stats: &Stats) -> String {
    let ns = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
    format!(
        "BENCH {{\"group\":\"{}\",\"id\":\"{}\",\"samples\":{},\"mean_ns\":{},\"median_ns\":{},\"p95_ns\":{},\"p99_ns\":{},\"min_ns\":{},\"max_ns\":{}}}",
        json_escape(group),
        json_escape(id),
        stats.samples,
        ns(stats.mean),
        ns(stats.median),
        ns(stats.p95),
        ns(stats.p99),
        ns(stats.min),
        ns(stats.max),
    )
}

/// Prints the human summary line and the `BENCH {...}` JSON line for one
/// benchmark, so every bin's output stays scrapable by the same tooling.
pub fn emit_bench_json(group: &str, id: &str, stats: &Stats) {
    println!(
        "  {group}/{id}: mean {:?} median {:?} p95 {:?} p99 {:?} min {:?} max {:?} ({} samples)",
        stats.mean, stats.median, stats.p95, stats.p99, stats.min, stats.max, stats.samples
    );
    println!("{}", bench_json_line(group, id, stats));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_of_known_samples() {
        let ms = Duration::from_millis;
        let samples: Vec<Duration> = (1..=10).map(ms).collect();
        let s = Stats::from_samples(&samples);
        assert_eq!(s.samples, 10);
        assert_eq!(s.min, ms(1));
        assert_eq!(s.max, ms(10));
        assert_eq!(s.median, ms(5)); // nearest-rank: ceil(0.5 * 10) = 5
        assert_eq!(s.p95, ms(10)); // ceil(0.95 * 10) = 10
        assert_eq!(s.p99, ms(10)); // ceil(0.99 * 10) = 10
        assert_eq!(s.mean, Duration::from_micros(5500));
    }

    /// Percentiles against hand-computed nearest-rank values on a sample
    /// set large enough to split p95 from p99 from max.
    #[test]
    fn percentiles_match_hand_computed_ranks() {
        // 200 samples: 1ns..=200ns. Nearest-rank: p50 = sample #100,
        // p95 = #190, p99 = #198 (ceil(0.99 * 200)).
        let ns: Vec<u64> = (1..=200).collect();
        let s = Stats::from_nanos(&ns);
        assert_eq!(s.samples, 200);
        assert_eq!(s.median, Duration::from_nanos(100));
        assert_eq!(s.p95, Duration::from_nanos(190));
        assert_eq!(s.p99, Duration::from_nanos(198));
        assert_eq!(s.max, Duration::from_nanos(200));
        // Order must not matter.
        let mut shuffled = ns.clone();
        shuffled.reverse();
        shuffled.swap(3, 170);
        assert_eq!(Stats::from_nanos(&shuffled), s);
        // A skewed tail: 99 fast samples and one slow one — p95 already
        // sits in the fast cluster, p99 lands on the outlier.
        let mut tail = vec![10u64; 99];
        tail.push(1_000_000);
        let t = Stats::from_nanos(&tail);
        assert_eq!(t.p95, Duration::from_nanos(10));
        assert_eq!(t.p99, Duration::from_nanos(10)); // ceil(0.99*100) = 99
        assert_eq!(t.max, Duration::from_micros(1000));
        let mut tail2 = vec![10u64; 98];
        tail2.extend([500_000, 1_000_000]);
        let t2 = Stats::from_nanos(&tail2);
        assert_eq!(t2.p99, Duration::from_nanos(500_000)); // rank 99 of 100
    }

    #[test]
    fn stats_of_empty_and_single() {
        let s = Stats::from_samples(&[]);
        assert_eq!(s.samples, 0);
        assert_eq!(s.mean, Duration::ZERO);
        let one = Stats::from_samples(&[Duration::from_nanos(42)]);
        assert_eq!(one.median, Duration::from_nanos(42));
        assert_eq!(one.p95, Duration::from_nanos(42));
    }

    #[test]
    fn bench_line_is_valid_shape() {
        let s = Stats::from_samples(&[Duration::from_nanos(100), Duration::from_nanos(200)]);
        let line = bench_json_line("g", "sum/n=64", &s);
        assert!(line.starts_with("BENCH {\"group\":\"g\""));
        assert!(line.contains("\"id\":\"sum/n=64\""));
        assert!(line.contains("\"samples\":2"));
        assert!(line.contains("\"min_ns\":100"));
        assert!(line.contains("\"max_ns\":200"));
        assert!(line.ends_with('}'));
    }

    #[test]
    fn json_escaping_handles_quotes_and_controls() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny"), "x\\u000ay");
    }
}
