//! Parallel functional execution: the `MGPU_THREADS` knob.
//!
//! Functional fragment execution (the part that computes actual pixel
//! values) can run on a host worker pool; the timing simulation is
//! untouched. This example runs the same kernel serially and at four
//! threads and demonstrates both guarantees: byte-identical outputs and
//! an unchanged simulated time.
//!
//! Run with `cargo run --release --example parallel_exec`; set
//! `MGPU_THREADS` to control the default thread count of every context.

use mgpu::gpgpu::Sum;
use mgpu::{ExecConfig, Gl, OptConfig, Platform, SimTime};

fn run(threads: usize) -> (Vec<f32>, SimTime) {
    let n = 64;
    let a = vec![0.25f32; (n * n) as usize];
    let b: Vec<f32> = (0..n * n).map(|i| (i % 89) as f32 / 178.0).collect();

    let mut gl = Gl::new(Platform::videocore_iv(), n, n);
    gl.set_exec_config(ExecConfig::with_threads(threads));
    let cfg = OptConfig::baseline().without_swap();
    let mut sum = Sum::builder(n)
        .build(&mut gl, &cfg, &a, &b)
        .expect("builds");
    sum.step(&mut gl).expect("runs");
    let result = sum.result(&mut gl).expect("result");
    gl.finish();
    (result, gl.elapsed())
}

fn main() {
    println!(
        "default exec config: {} thread(s) (MGPU_THREADS or available parallelism)",
        ExecConfig::from_env().threads()
    );

    let (serial, t_serial) = run(1);
    let (parallel, t_parallel) = run(4);

    assert!(serial
        .iter()
        .zip(&parallel)
        .all(|(a, b)| a.to_bits() == b.to_bits()));
    assert_eq!(t_serial, t_parallel);
    println!(
        "serial and 4-thread outputs are bit-identical ({} values)",
        serial.len()
    );
    println!("simulated time is thread-count-invariant: {t_serial:?}");
    println!("sum[0] = {}", serial[0]);
}
