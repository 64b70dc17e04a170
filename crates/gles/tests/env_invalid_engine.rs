//! An invalid `MGPU_ENGINE` value must surface as a typed error at
//! context creation, not fall back to a default. Lives in its own binary:
//! the knob snapshot is process-global, so this test owns the process.

use mgpu_gles::{Gl, GlError};
use mgpu_tbdr::Platform;

#[test]
fn invalid_engine_value_fails_context_creation() {
    std::env::set_var("MGPU_ENGINE", "typo");
    let err = match Gl::try_new(Platform::sgx_545(), 8, 8) {
        Err(e) => e,
        Ok(_) => panic!("MGPU_ENGINE=typo must not create a context"),
    };
    let GlError::InvalidEnv(e) = &err else {
        panic!("expected InvalidEnv, got {err}");
    };
    assert_eq!(e.var, "MGPU_ENGINE");
    assert_eq!(e.value, "typo");
    let msg = err.to_string();
    assert!(msg.contains("MGPU_ENGINE"), "{msg}");
    assert!(
        msg.contains("scalar") && msg.contains("compiled"),
        "the error must teach the grammar: {msg}"
    );

    // The snapshot latches the first resolution — the error is stable
    // even after the variable is fixed, because configuration is
    // once-per-process by design.
    std::env::set_var("MGPU_ENGINE", "scalar");
    assert!(Gl::try_new(Platform::sgx_545(), 8, 8).is_err());
    std::env::remove_var("MGPU_ENGINE");
}
