//! Argument handling of the gate binaries: a non-numeric token, a surplus
//! positional or an unknown flag must print the usage line and exit 2
//! before any output, never fall back to defaults or shift later values.
//!
//! The numeric arguments are small, so a binary that wrongly accepted its
//! arguments would still finish quickly (and fail the exit-code check).

use std::process::Command;

#[test]
fn gate_bins_reject_malformed_arguments() {
    let cases: [(&str, &[&str]); 11] = [
        (env!("CARGO_BIN_EXE_kernel_throughput"), &["8", "x"]),
        (env!("CARGO_BIN_EXE_kernel_throughput"), &["8", "1", "2"]),
        (
            env!("CARGO_BIN_EXE_draw_overhead"),
            &["32", "four", "20", "--gate"],
        ),
        (
            env!("CARGO_BIN_EXE_draw_overhead"),
            &["16", "1", "1", "--fast"],
        ),
        (env!("CARGO_BIN_EXE_tile_skip"), &["64", "x", "1"]),
        (env!("CARGO_BIN_EXE_tile_skip"), &["16", "16", "1", "1"]),
        (env!("CARGO_BIN_EXE_workloads"), &["8", "reps"]),
        (env!("CARGO_BIN_EXE_workloads"), &["8", "1", "--fast"]),
        (env!("CARGO_BIN_EXE_chaos"), &["thirty-two", "3"]),
        (env!("CARGO_BIN_EXE_chaos"), &["8", "1", "--gate"]),
        (env!("CARGO_BIN_EXE_service_throughput"), &["8", "1", "1"]),
    ];
    for (bin, args) in cases {
        let out = Command::new(bin).args(args).output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{bin} {args:?}: expected exit 2; stderr: {stderr}"
        );
        assert!(stderr.contains("usage:"), "{bin} {args:?}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{bin} {args:?} printed before rejecting its arguments"
        );
    }
}
