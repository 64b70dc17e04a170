//! The differential test matrix: every workload family's GPU output
//! compared against its CPU reference across fragment engines {scalar,
//! compiled} × both platforms × tile-skip {on, off}, under each family's
//! declared error policy — plus a cross-point byte-identity assertion
//! that is independent of the CPU tolerance (engines are bit-exact and
//! functional results are platform-invariant, so all eight matrix points
//! must produce the same bytes).

use mgpu_gles::{Engine, Gl};
use mgpu_gpgpu::OptConfig;
use mgpu_tbdr::Platform;
use mgpu_workloads::{
    run_workload, verify_output, DenseTraining, ErrorPolicy, GaussianPyramid, JacobiInpaint,
    Workload,
};

const ENGINES: [Engine; 2] = [Engine::Scalar, Engine::Compiled];

fn platforms() -> [Platform; 2] {
    [Platform::videocore_iv(), Platform::sgx_545()]
}

/// Runs `workload` at every matrix point, checks the declared policy at
/// each, and asserts all points agree byte-for-byte.
fn run_matrix(workload: &dyn Workload) {
    let cfg = OptConfig::baseline().without_swap();
    let mut all: Vec<(String, Vec<u8>)> = Vec::new();
    for platform in platforms() {
        for engine in ENGINES {
            for tile_skip in [false, true] {
                let point = format!("{}/{engine:?}/skip={tile_skip}", platform.name);
                let cfg = cfg.with_engine(engine).with_tile_skip(tile_skip);
                let mut gl = Gl::new(platform.clone(), workload.n(), workload.n());
                let bytes = run_workload(&mut gl, workload, &cfg)
                    .unwrap_or_else(|e| panic!("{point}: {e}"));
                verify_output(workload, &bytes).unwrap_or_else(|e| panic!("{point}: {e}"));
                all.push((point, bytes));
            }
        }
    }
    // Cross-engine (and cross-platform) byte identity, independent of the
    // CPU-reference tolerance.
    let (first_point, first) = &all[0];
    for (point, bytes) in &all[1..] {
        assert_eq!(
            bytes, first,
            "bytes diverged between matrix points {first_point} and {point}"
        );
    }
}

#[test]
fn pyramid_matches_reference_at_every_matrix_point() {
    run_matrix(&GaussianPyramid::new(16, 3, 11));
}

#[test]
fn jacobi_matches_reference_at_every_matrix_point() {
    run_matrix(&JacobiInpaint::new(16, 25, 12));
}

#[test]
fn training_matches_reference_at_every_matrix_point() {
    run_matrix(&DenseTraining::new(8, 4, 3, 13));
}

#[test]
fn training_block_sizes_all_verify() {
    // The tunable: every legal chunk size satisfies the same policy (the
    // reference reproduces each block's accumulation order).
    let cfg = OptConfig::baseline().without_swap();
    for block in [1u32, 2, 4, 8] {
        let w = DenseTraining::new(8, block, 2, 21);
        let mut gl = Gl::new(Platform::videocore_iv(), 8, 8);
        let bytes = run_workload(&mut gl, &w, &cfg).unwrap();
        verify_output(&w, &bytes).unwrap_or_else(|e| panic!("block {block}: {e}"));
    }
}

#[test]
fn declared_policies_are_the_advertised_ones() {
    // The matrix above is only meaningful if the policies stay as
    // documented: byte identity for the raw-RGBA8 pyramid, tolerances
    // for the re-encoding families.
    assert_eq!(
        GaussianPyramid::new(8, 2, 1).policy(),
        ErrorPolicy::ByteIdentity
    );
    assert!(matches!(
        JacobiInpaint::new(8, 5, 1).policy(),
        ErrorPolicy::Tolerance { .. }
    ));
    assert!(matches!(
        DenseTraining::new(8, 2, 1, 1).policy(),
        ErrorPolicy::Tolerance { .. }
    ));
}

#[test]
fn pyramid_under_framebuffer_rendering_still_byte_identical() {
    // The copy-out path (framebuffer strategy) must not perturb the raw
    // image bytes either.
    let w = GaussianPyramid::new(16, 2, 31);
    let cfg = OptConfig::baseline()
        .with_swap_interval_0()
        .with_framebuffer_rendering();
    let mut gl = Gl::new(Platform::sgx_545(), 16, 16);
    let bytes = run_workload(&mut gl, &w, &cfg).unwrap();
    verify_output(&w, &bytes).unwrap();
}
