//! Deterministic fork-join runner for independent experiment configs.
//!
//! Experiment sweeps (figure curves, fault/overload grids) are bags of
//! independent simulation runs. [`par_map`] fans such a bag across a
//! worker pool built on [`std::thread::scope`] — no external
//! dependencies — and collects results **in input order**, so a sweep
//! run with N workers is byte-identical to the serial run.
//!
//! The determinism contract:
//!
//! * every item is mapped by a pure-per-item function `f(index, item)`
//!   whose output must not depend on execution order (each simulation
//!   run owns its RNG streams and event queue);
//! * results land in a slot table indexed by input position, so
//!   collection order is independent of completion order;
//! * with one worker (the default), `f` runs inline on the caller's
//!   thread in input order — the exact serial code path.
//!
//! The worker count is a process-global knob ([`set_threads`]) so deep
//! call chains (`repro` → experiment → `Suite` helper) need no
//! plumbing. Nested [`par_map`] calls run serially on their worker:
//! only the outermost sweep fans out, which bounds the pool at the
//! configured size.
//!
//! ```
//! use dmx_sim::par;
//! let squares = par::par_map(&[1u64, 2, 3, 4], |_, x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Process-global worker count (1 = serial).
static THREADS: AtomicUsize = AtomicUsize::new(1);

thread_local! {
    /// True while this thread is inside a `par_map` fan-out; nested
    /// calls then run serially instead of spawning a second pool.
    static IN_PAR: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Sets the process-global worker count used by [`par_map`]. Zero is
/// clamped to one. Returns the previous value.
pub fn set_threads(n: usize) -> usize {
    THREADS.swap(n.max(1), Ordering::Relaxed)
}

/// The current process-global worker count.
pub fn threads() -> usize {
    THREADS.load(Ordering::Relaxed)
}

/// Maps `f` over `items` with the global worker count, collecting
/// results in input order. See [`par_map_with`].
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_with(threads(), items, f)
}

/// Maps `f` over `items` on `workers` scoped threads, collecting
/// results **in input order** regardless of completion order.
///
/// `f` receives `(input index, item)`. With `workers <= 1`, a single
/// item, or when called from inside another `par_map`, `f` runs inline
/// on the current thread in input order — the serial path. Worker
/// threads claim items from a shared counter, so the assignment of
/// items to threads is racy, but the *output* is not: each result is
/// written to the slot of its input index.
///
/// # Panics
///
/// Propagates the first panic from `f` (by input order among the
/// panics that occurred) after all workers have stopped.
pub fn par_map_with<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let nested = IN_PAR.with(|g| g.get());
    if workers <= 1 || items.len() <= 1 || nested {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let workers = workers.min(items.len());
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<R, usize>>>> =
        items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                IN_PAR.with(|g| g.set(true));
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    // Catch panics so one failed item cannot poison the
                    // slot table; the first failure (by input order) is
                    // re-raised below on the caller's thread.
                    let out =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i, &items[i])));
                    // Item panics are caught above, so the only writer
                    // of a slot can never die holding its lock.
                    *slots[i]
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) =
                        Some(out.map_err(|_| i));
                }
                IN_PAR.with(|g| g.set(false));
            });
        }
    });
    slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            match s
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .expect("par_map worker pool exited without visiting every item")
            {
                Ok(r) => r,
                Err(_) => panic!("par_map worker panicked on item {i}"),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = par_map_with(8, &items, |i, x| {
            // Stagger completion so late items finish first.
            std::thread::sleep(std::time::Duration::from_micros(100 - x));
            (i, x * 2)
        });
        for (i, (idx, v)) in out.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*v, items[i] * 2);
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let items: Vec<u64> = (0..37).collect();
        let serial = par_map_with(1, &items, |i, x| format!("{i}:{}", x * x));
        for workers in [2, 3, 8, 64] {
            let par = par_map_with(workers, &items, |i, x| format!("{i}:{}", x * x));
            assert_eq!(par, serial, "workers={workers}");
        }
    }

    #[test]
    fn more_workers_than_items() {
        let out = par_map_with(16, &[5u32, 6], |_, x| x + 1);
        assert_eq!(out, vec![6, 7]);
    }

    #[test]
    fn empty_and_single() {
        let none: Vec<u32> = par_map_with(4, &[], |_, x: &u32| *x);
        assert!(none.is_empty());
        assert_eq!(par_map_with(4, &[9u32], |_, x| x * 3), vec![27]);
    }

    #[test]
    fn nested_calls_run_serially() {
        let outer: Vec<usize> = (0..4).collect();
        let out = par_map_with(4, &outer, |_, o| {
            let inner: Vec<usize> = (0..4).collect();
            // Inside a fan-out, this must take the serial path (and in
            // particular must not deadlock or explode the pool).
            par_map_with(4, &inner, |_, i| o * 10 + i)
        });
        assert_eq!(out[1], vec![10, 11, 12, 13]);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn global_knob_roundtrip() {
        let prev = set_threads(3);
        assert_eq!(threads(), 3);
        assert_eq!(set_threads(0), 3); // clamped to 1
        assert_eq!(threads(), 1);
        set_threads(prev.max(1));
    }

    #[test]
    #[should_panic(expected = "par_map worker panicked on item")]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..8).collect();
        par_map_with(4, &items, |_, x| {
            assert!(*x != 5, "boom");
            *x
        });
    }
}
