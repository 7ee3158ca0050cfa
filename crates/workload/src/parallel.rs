//! Deterministic parallel map for parameter sweeps.
//!
//! Experiment grids (policy × RU count × seed) are embarrassingly
//! parallel: each cell is an independent, internally deterministic
//! simulation. [`parallel_map`] fans the cells out over scoped threads
//! that pull the next unclaimed cell from one shared cursor, and returns
//! results in input order, so sweep output is identical to a sequential
//! run regardless of scheduling. Pulling one cell at a time balances
//! uneven per-cell cost (an LFD oracle cell is far more expensive than
//! an LRU cell) without any up-front partitioning.

use std::any::Any;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// A captured panic payload, tagged with the input index it came from.
type CellPanic = (usize, Box<dyn Any + Send + 'static>);

/// Best-effort extraction of the human-readable message from a panic
/// payload (`panic!` produces `&str` or `String` payloads).
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("<non-string panic payload>")
}

/// Re-raises a captured per-cell panic, prefixed with the failing cell
/// index so sweep failures name the cell instead of aborting opaquely.
fn resume_cell_panic(idx: usize, payload: Box<dyn Any + Send + 'static>) -> ! {
    panic!(
        "parallel_map: cell {idx} panicked: {}",
        panic_message(payload.as_ref())
    );
}

/// Applies `f` to every item, using up to `workers` threads, preserving
/// input order in the result.
///
/// Each worker takes the next unclaimed item from a shared cursor, so
/// uneven per-item cost (an LFD oracle cell is far more expensive than
/// an LRU cell) balances automatically.
///
/// # Panics
/// If `f` panics on some item, the panic is captured per cell, the
/// remaining items still drain (workers keep going), and the panic of
/// the lowest failing index is re-raised on the caller's thread with
/// the cell index and original message attached.
pub fn parallel_map<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    parallel_map_with(items, workers, || (), |(), item| f(item))
}

/// [`parallel_map`] with per-worker mutable state: `init` runs once on
/// each worker thread and the resulting state is threaded through every
/// item that worker processes.
///
/// This is what lets a sweep hand each worker its own carrier — a
/// [`CellRunner`](crate::runner::CellRunner) holding a handle to the
/// shared design-time registry — without any locking: each worker owns
/// its state exclusively. Results are still returned in input order,
/// and per-cell determinism is unaffected as long as the state does not
/// leak information between cells (a `CellRunner` builds a fresh
/// engine for every cell).
///
/// # Panics
/// Propagates item panics exactly like [`parallel_map`] (lowest failing
/// index wins, tagged with the cell index).
pub fn parallel_map_with<T, R, S, I, F>(items: Vec<T>, workers: usize, init: I, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, n);
    if workers == 1 {
        let mut state = init();
        return items
            .into_iter()
            .enumerate()
            .map(|(idx, item)| {
                catch_unwind(AssertUnwindSafe(|| f(&mut state, item)))
                    .unwrap_or_else(|payload| resume_cell_panic(idx, payload))
            })
            .collect();
    }

    // The shared cursor hands out cells in input order, one at a time.
    let cursor = Mutex::new(items.into_iter().enumerate());
    // The lowest panicked index so far (`usize::MAX` = none). Cells
    // above it are skipped without running `f` — a long sweep fails
    // fast — while cells below it, already handed out, still finish, so
    // the lowest-indexed failing cell always wins.
    let panic_floor = AtomicUsize::new(usize::MAX);
    let per_worker: Vec<Vec<(usize, thread::Result<R>)>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut done = Vec::new();
                    loop {
                        let next = cursor
                            .lock()
                            .expect("no worker panics while holding the cursor")
                            .next();
                        let Some((idx, item)) = next else { break };
                        if idx > panic_floor.load(Ordering::Relaxed) {
                            continue; // a lower cell already failed
                        }
                        // Catch per-cell panics so one bad cell neither
                        // poisons the scope join nor loses its origin.
                        let out = catch_unwind(AssertUnwindSafe(|| f(&mut state, item)));
                        if out.is_err() {
                            panic_floor.fetch_min(idx, Ordering::Relaxed);
                        }
                        done.push((idx, out));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("workers catch their own panics"))
            .collect()
    });

    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let mut first_panic: Option<CellPanic> = None;
    for (idx, out) in per_worker.into_iter().flatten() {
        match out {
            Ok(val) => slots[idx] = Some(val),
            Err(payload) => {
                if first_panic.as_ref().is_none_or(|(i, _)| idx < *i) {
                    first_panic = Some((idx, payload));
                }
            }
        }
    }
    if let Some((idx, payload)) = first_panic {
        resume_cell_panic(idx, payload);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index produced a result"))
        .collect()
}

/// A sensible default worker count: available parallelism, at least 1.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(items, 8, |x| x * x);
        assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<u64>>());
    }

    #[test]
    fn runs_every_item_exactly_once() {
        let counter = AtomicUsize::new(0);
        let out = parallel_map((0..57).collect::<Vec<_>>(), 4, |x| {
            counter.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 57);
        assert_eq!(counter.load(Ordering::Relaxed), 57);
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = parallel_map(Vec::<u32>::new(), 4, |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_worker_is_sequential() {
        let out = parallel_map(vec![3, 1, 2], 1, |x| x + 1);
        assert_eq!(out, vec![4, 2, 3]);
    }

    #[test]
    fn more_workers_than_items() {
        let out = parallel_map(vec![1, 2], 16, |x| x * 10);
        assert_eq!(out, vec![10, 20]);
    }

    #[test]
    fn uneven_work_balances() {
        // Items with wildly different cost still return in order.
        let out = parallel_map((0..20u64).collect::<Vec<_>>(), 4, |x| {
            if x % 5 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            x
        });
        assert_eq!(out, (0..20).collect::<Vec<u64>>());
    }

    #[test]
    fn default_workers_positive() {
        assert!(default_workers() >= 1);
    }

    #[test]
    fn with_state_preserves_order_and_reuses_state() {
        // Each worker counts how many items it has processed; the
        // per-item result proves the state persisted (counter > 0 after
        // the first item) while output order stays input order.
        let out = parallel_map_with(
            (0..64u64).collect::<Vec<_>>(),
            4,
            || 0u64,
            |seen, x| {
                *seen += 1;
                (x, *seen)
            },
        );
        assert_eq!(out.len(), 64);
        for (i, &(x, seen)) in out.iter().enumerate() {
            assert_eq!(x, i as u64);
            assert!(seen >= 1);
        }
        // Across 4 workers and 64 items, at least one worker processed
        // more than one item — the state really is reused.
        assert!(out.iter().any(|&(_, seen)| seen > 1));
    }

    #[test]
    fn slow_cells_spread_across_workers_and_keep_order() {
        // Every cell of the first half waits at a two-party barrier,
        // which only opens once the other worker holds a slow cell too.
        // Both workers pull from the same cursor, so the slow cells split
        // between them; results stay in input order and every worker's
        // state threads through its cells.
        let n = 16usize;
        let slow = std::sync::Barrier::new(2);
        let out = parallel_map_with(
            (0..n).collect::<Vec<_>>(),
            2,
            || 0usize,
            |seen, x| {
                *seen += 1;
                if x < n / 2 {
                    slow.wait();
                }
                (x, *seen, std::thread::current().id())
            },
        );
        assert_eq!(out.len(), n);
        for (i, &(x, seen, _)) in out.iter().enumerate() {
            assert_eq!(x, i, "results keep input order");
            assert!(seen >= 1, "per-worker state threads through");
        }
        let slow_threads: std::collections::BTreeSet<_> = out[..n / 2]
            .iter()
            .map(|&(_, _, id)| format!("{id:?}"))
            .collect();
        assert_eq!(
            slow_threads.len(),
            2,
            "the slow cells split across both workers"
        );
    }

    #[test]
    fn with_state_sequential_path_uses_one_state() {
        let out = parallel_map_with(vec![10u32, 20, 30], 1, Vec::new, |log: &mut Vec<u32>, x| {
            log.push(x);
            log.len()
        });
        assert_eq!(out, vec![1, 2, 3], "one state threads through all items");
    }

    #[test]
    fn with_state_propagates_cell_index_on_panic() {
        let err = quiet_panics(|| {
            catch_unwind(AssertUnwindSafe(|| {
                parallel_map_with(
                    (0..12u32).collect::<Vec<_>>(),
                    3,
                    || (),
                    |(), x| {
                        assert!(x != 5, "stateful boom");
                        x
                    },
                )
            }))
            .expect_err("a cell panicked")
        });
        let msg = panic_message(err.as_ref());
        assert!(msg.contains("cell 5"), "missing index: {msg}");
    }

    /// Runs `op` with the default panic hook silenced, so expected-panic
    /// tests do not spam stderr with worker backtraces. The hook is
    /// process-global state and tests run on parallel threads, so
    /// swap/restore is serialised through a mutex — otherwise two
    /// overlapping calls could capture each other's silent hook and
    /// leave it installed for the rest of the test run.
    fn quiet_panics<R>(op: impl FnOnce() -> R) -> R {
        static HOOK_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = HOOK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        // `op` contains its panics via catch_unwind, so the restore
        // below always runs under the lock.
        let out = op();
        std::panic::set_hook(prev);
        out
    }

    #[test]
    fn panicking_cell_reports_its_index() {
        // Regression: a worker panic used to surface as an opaque
        // "worker threads do not panic" abort with no failing cell.
        let err = quiet_panics(|| {
            catch_unwind(AssertUnwindSafe(|| {
                parallel_map((0..20u64).collect::<Vec<_>>(), 4, |x| {
                    assert!(x != 13, "unlucky cell");
                    x
                })
            }))
            .expect_err("a cell panicked")
        });
        let msg = panic_message(err.as_ref());
        assert!(msg.contains("cell 13"), "missing index: {msg}");
        assert!(msg.contains("unlucky cell"), "missing original: {msg}");
    }

    #[test]
    fn lowest_failing_index_wins() {
        let err = quiet_panics(|| {
            catch_unwind(AssertUnwindSafe(|| {
                parallel_map((0..40u64).collect::<Vec<_>>(), 8, |x| {
                    assert!(x % 10 != 7, "boom {x}");
                    x
                })
            }))
            .expect_err("cells panicked")
        });
        let msg = panic_message(err.as_ref());
        assert!(
            msg.contains("cell 7 panicked"),
            "expected lowest index: {msg}"
        );
    }

    #[test]
    fn sequential_path_reports_index_too() {
        let err = quiet_panics(|| {
            catch_unwind(AssertUnwindSafe(|| {
                parallel_map(vec![1u32, 2, 3], 1, |x| {
                    assert!(x != 2, "sequential boom");
                    x
                })
            }))
            .expect_err("a cell panicked")
        });
        let msg = panic_message(err.as_ref());
        assert!(msg.contains("cell 1"), "missing index: {msg}");
    }
}
