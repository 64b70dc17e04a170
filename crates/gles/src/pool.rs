//! A persistent, condvar-parked worker pool for the functional rasteriser.
//!
//! Spawning fresh OS threads inside a [`std::thread::scope`] on **every
//! draw** would let thread spawn and join dominate per-draw overhead on
//! multi-pass GPGPU pipelines (a block-16 sgemm at 1024² makes 64 draws
//! per multiply). This pool spawns its workers once, parks them on a
//! condvar between draws, and hands each draw out as a borrowed job
//! closure — the steady-state cost of a dispatch is one mutex round-trip
//! and a `notify_all`.
//!
//! ## Lifecycle
//!
//! The pool is owned by the [`Gl`](crate::Gl) context and sized by its
//! [`ExecConfig`](crate::exec::ExecConfig). Workers are spawned **lazily**
//! on the first parallel dispatch — *not* in `set_exec_config` — because
//! the auto-tuner builds many short-lived, timing-only contexts that never
//! rasterise in parallel; eager spawning would tax them for nothing. A
//! resize (or shrink-to-zero) happens by dropping and rebuilding the pool.
//! The pool deliberately **survives** [`Gl::recreate`](crate::Gl::recreate)
//! after fault injection: context loss destroys GPU state, not host
//! threads, and re-spawning on every recovery would hand the resilience
//! layer a needless penalty.
//!
//! ## Soundness of the borrowed-job handoff
//!
//! `run` lends workers a `&(dyn Fn(usize) + Sync)` whose lifetime is the
//! `run` call itself, type-erased to a raw pointer so it can sit in the
//! shared slot (a `'static` closure would force the caller to move or
//! clone its borrows — the rasteriser's jobs borrow the framebuffer).
//! The erasure is sound because `run` **does not return** until every
//! participant has finished the job: the caller participates as seat 0,
//! then blocks on the `done` condvar until `remaining == 0`. No worker can
//! touch the pointer after `run` returns, so the pointee outlives every
//! dereference. The only `unsafe` in the workspace lives in this module:
//! the lifetime-erasing transmute in [`WorkerPool::run`], the worker's
//! dereference of the erased pointer, and the `Send` impl shipping it —
//! all three legs of that one argument.
//!
//! Worker panics are caught per-seat, recorded, and reported by `run`'s
//! return value — a panicking job poisons no state and the pool stays
//! usable for the next draw.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// A type-erased borrowed job: `usize` is the participant seat index.
///
/// Holds a raw pointer to a `dyn Fn` that lives on `run`'s caller's stack;
/// see the module docs for why workers may dereference it.
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared-call-safe from any thread) and
// `run`'s completion barrier guarantees it outlives every dereference, so
// shipping the pointer to worker threads is safe.
unsafe impl Send for Job {}

/// Shared pool state behind the mutex.
struct State {
    /// The job of the current dispatch, if one is in flight.
    job: Option<Job>,
    /// Bumped once per dispatch so parked workers can tell a fresh job
    /// from the one they just finished.
    generation: u64,
    /// Seats participating in the current dispatch (caller is seat 0).
    participants: usize,
    /// Participants that have not yet finished the current job.
    remaining: usize,
    /// Whether any participant panicked during the current dispatch.
    panicked: bool,
    /// Set once, at pool drop, to release the workers for join.
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Workers park here between dispatches.
    work: Condvar,
    /// The dispatching caller parks here until `remaining == 0`.
    done: Condvar,
}

/// Locks poison-tolerantly: a panic in a *job* is already caught per-seat,
/// so a poisoned mutex only means some thread panicked while holding the
/// lock for bookkeeping — the counters it protects are still the best
/// information available, and refusing to proceed would deadlock `drop`.
fn lock(m: &Mutex<State>) -> MutexGuard<'_, State> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A persistent pool of `size` worker threads executing borrowed jobs.
pub(crate) struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.handles.len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns `size` parked workers (0 is valid: a pool that never helps).
    ///
    /// A failed spawn is tolerated — the pool just ends up smaller, and
    /// `run` clamps participation to the seats that exist, so every chunk
    /// still executes (work-stealing redistributes the load).
    pub(crate) fn new(size: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                job: None,
                generation: 0,
                participants: 0,
                remaining: 0,
                panicked: false,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let mut handles = Vec::with_capacity(size);
        for index in 0..size {
            let shared = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name(format!("mgpu-raster-{index}"))
                .spawn(move || worker_loop(&shared, index));
            if let Ok(handle) = spawned {
                handles.push(handle);
            }
        }
        WorkerPool { shared, handles }
    }

    /// Worker threads in the pool (may be fewer than requested).
    #[cfg(test)]
    pub(crate) fn size(&self) -> usize {
        self.handles.len()
    }

    /// Runs `job` once per participant seat — the calling thread takes
    /// seat 0, up to `participants - 1` workers take seats 1.. — and
    /// returns after **all** seats have finished. Returns `true` if any
    /// seat panicked (the job's side effects may then be incomplete; the
    /// pool itself remains usable).
    ///
    /// `participants` is clamped to the seats that actually exist
    /// (workers + the caller). The job must treat seats symmetrically:
    /// with work-stealing dispatch, any seat may execute any chunk.
    pub(crate) fn run(&self, participants: usize, job: &(dyn Fn(usize) + Sync)) -> bool {
        let participants = participants.clamp(1, self.handles.len() + 1);
        // SAFETY: pure lifetime erasure (identical layout); the completion
        // barrier below keeps `job` alive past every use of the erased
        // pointer — see the module docs.
        let erased: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(job) };
        {
            let mut state = lock(&self.shared.state);
            state.job = Some(Job(erased as *const _));
            state.generation = state.generation.wrapping_add(1);
            state.participants = participants;
            state.remaining = participants;
            state.panicked = false;
        }
        self.shared.work.notify_all();

        // The caller is seat 0; its panic must not skip the completion
        // barrier below, or workers could outlive the job borrow.
        let caller_result = catch_unwind(AssertUnwindSafe(|| job(0)));

        let panicked = {
            let mut state = lock(&self.shared.state);
            if caller_result.is_err() {
                state.panicked = true;
            }
            state.remaining -= 1;
            if state.remaining == 0 {
                state.job = None;
                self.shared.done.notify_all();
            }
            while state.remaining > 0 {
                state = match self.shared.done.wait(state) {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
            state.panicked
        };
        panicked
    }
}

/// A cloneable handle to a shared [`WorkerPool`]: the executor that
/// multiplexes rasterisation work from any number of `Gl` contexts over
/// one set of host threads.
///
/// Historically every `Gl` context owned its own pool, so a fleet of N
/// simulated devices cost N × threads parked OS threads. An `Executor` is
/// an `Arc` around one pool plus a dispatch lock: clone the handle from
/// one context ([`Gl::executor`](crate::Gl::executor)) and install it on
/// the others ([`Gl::install_executor`](crate::Gl::install_executor)) and
/// they all draw through the same workers. Concurrent dispatches from
/// different contexts serialise on the lock — `WorkerPool::run` supports
/// one job in flight at a time — so sharing is safe from any thread,
/// and byte-determinism is unaffected because chunk→bytes assignment is
/// index-based regardless of which seat executes a chunk.
#[derive(Clone)]
pub struct Executor {
    inner: Arc<ExecutorInner>,
}

struct ExecutorInner {
    /// Serialises dispatches: the pool supports one job in flight.
    dispatch: Mutex<()>,
    pool: WorkerPool,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("workers", &self.workers())
            .field("handles", &Arc::strong_count(&self.inner))
            .finish()
    }
}

impl Executor {
    /// Spawns an executor backed by `workers` parked worker threads (the
    /// dispatching caller always participates as seat 0, so `workers = 0`
    /// is a valid, caller-only executor).
    #[must_use]
    pub fn new(workers: usize) -> Self {
        Executor {
            inner: Arc::new(ExecutorInner {
                dispatch: Mutex::new(()),
                pool: WorkerPool::new(workers),
            }),
        }
    }

    /// Worker threads backing this executor (may be fewer than requested
    /// if spawning failed; dispatch clamps participation accordingly).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.inner.pool.handles.len()
    }

    /// Live handles to this executor, this one included — i.e. how many
    /// contexts (or other owners) currently share the pool.
    #[must_use]
    pub fn handles(&self) -> usize {
        Arc::strong_count(&self.inner)
    }

    /// Dispatches `job` across `participants` seats; see
    /// [`WorkerPool::run`]. Takes the dispatch lock so overlapping calls
    /// from different contexts serialise instead of corrupting the
    /// in-flight job slot.
    pub(crate) fn run(&self, participants: usize, job: &(dyn Fn(usize) + Sync)) -> bool {
        let _guard = match self.inner.dispatch.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        self.inner.pool.run(participants, job)
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = lock(&self.shared.state);
            state.shutdown = true;
        }
        self.shared.work.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared, index: usize) {
    let mut seen_generation = 0u64;
    loop {
        let job = {
            let mut state = lock(&shared.state);
            loop {
                if state.shutdown {
                    return;
                }
                if state.generation != seen_generation && state.job.is_some() {
                    break;
                }
                state = match shared.work.wait(state) {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
            seen_generation = state.generation;
            if index + 1 >= state.participants {
                // Not a seat in this dispatch; go back to sleep without
                // touching the job or the remaining count.
                continue;
            }
            match state.job {
                Some(job) => job,
                // Unreachable (checked above), but never panic here.
                None => continue,
            }
        };

        // SAFETY: `run` does not return until `remaining` hits zero, and
        // this worker only decrements `remaining` *after* the call below
        // completes — so the closure behind the pointer is still alive on
        // the caller's stack for the whole call.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)(index + 1) }));

        let mut state = lock(&shared.state);
        if result.is_err() {
            state.panicked = true;
        }
        state.remaining -= 1;
        if state.remaining == 0 {
            state.job = None;
            shared.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_seat_runs_exactly_once() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.size(), 3);
        let seats: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        let panicked = pool.run(4, &|seat| {
            seats[seat].fetch_add(1, Ordering::SeqCst);
        });
        assert!(!panicked);
        for seat in &seats {
            assert_eq!(seat.load(Ordering::SeqCst), 1);
        }
    }

    #[test]
    fn dispatches_can_repeat_and_vary_participation() {
        let pool = WorkerPool::new(4);
        for participants in [1, 3, 5, 2, 5] {
            let count = AtomicUsize::new(0);
            let panicked = pool.run(participants, &|_seat| {
                count.fetch_add(1, Ordering::SeqCst);
            });
            assert!(!panicked);
            assert_eq!(count.load(Ordering::SeqCst), participants);
        }
    }

    #[test]
    fn participation_is_clamped_to_existing_seats() {
        let pool = WorkerPool::new(2);
        let count = AtomicUsize::new(0);
        pool.run(64, &|_seat| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 3, "2 workers + the caller");
    }

    #[test]
    fn zero_sized_pool_still_runs_on_the_caller() {
        let pool = WorkerPool::new(0);
        let count = AtomicUsize::new(0);
        let panicked = pool.run(8, &|seat| {
            assert_eq!(seat, 0);
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert!(!panicked);
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn worker_panic_is_reported_and_pool_survives() {
        // Keep the panic message out of test output.
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let pool = WorkerPool::new(2);
        let panicked = pool.run(3, &|seat| {
            if seat == 1 {
                panic!("injected worker failure");
            }
        });
        std::panic::set_hook(prev_hook);
        assert!(panicked);

        // The pool is still fully usable afterwards.
        let count = AtomicUsize::new(0);
        let panicked = pool.run(3, &|_seat| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert!(!panicked);
        assert_eq!(count.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn caller_panic_is_reported_and_pool_survives() {
        let prev_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(3, &|seat| {
                if seat == 0 {
                    panic!("injected caller failure");
                }
            })
        }));
        std::panic::set_hook(prev_hook);
        // run() reports rather than unwinding: the caller's panic is
        // caught so the completion barrier always executes.
        assert_eq!(result.ok(), Some(true));
        assert!(!pool.run(2, &|_| {}));
    }

    #[test]
    fn executor_counts_workers_and_handles() {
        let exec = Executor::new(2);
        assert_eq!(exec.workers(), 2);
        assert_eq!(exec.handles(), 1);
        let clone = exec.clone();
        assert_eq!(exec.handles(), 2);
        assert_eq!(clone.workers(), 2);
        drop(clone);
        assert_eq!(exec.handles(), 1);
    }

    #[test]
    fn executor_serialises_concurrent_dispatches() {
        // Two threads dispatching through the same executor at once must
        // not corrupt each other's job slot: every dispatch still runs
        // once per seat.
        let exec = Executor::new(3);
        let total = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..2 {
                let exec = exec.clone();
                let total = &total;
                s.spawn(move || {
                    for _ in 0..50 {
                        let panicked = exec.run(4, &|_seat| {
                            total.fetch_add(1, Ordering::SeqCst);
                        });
                        assert!(!panicked);
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), 2 * 50 * 4);
    }

    #[test]
    fn jobs_may_borrow_the_callers_stack() {
        let pool = WorkerPool::new(3);
        let mut data = vec![0u32; 64];
        let chunks: Vec<Mutex<Option<&mut [u32]>>> =
            data.chunks_mut(16).map(|c| Mutex::new(Some(c))).collect();
        let ticket = AtomicUsize::new(0);
        pool.run(4, &|_seat| loop {
            let i = ticket.fetch_add(1, Ordering::Relaxed);
            if i >= chunks.len() {
                break;
            }
            let taken = match chunks[i].lock() {
                Ok(mut slot) => slot.take(),
                Err(_) => None,
            };
            if let Some(chunk) = taken {
                // Which seat claims chunk `i` varies run to run; the bytes
                // written for chunk `i` must not.
                for v in chunk.iter_mut() {
                    *v = (i as u32) * 100;
                }
            }
        });
        for (i, chunk) in data.chunks(16).enumerate() {
            assert!(chunk.iter().all(|&v| v == (i as u32) * 100));
        }
    }
}
