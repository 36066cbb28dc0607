//! Structured data-parallel helpers over `std::thread::scope`.
//!
//! The batched evaluation engine splits scenario sweeps across cores. The
//! usual crate for this is `rayon`, but the build environment has no
//! crates.io access, so these helpers provide the two shapes the engine
//! needs — indexed map and chunked in-place fill — on scoped threads.
//! They degrade to straight serial loops when `available_parallelism` is 1
//! (or the input is tiny), so single-core containers pay no thread cost.

use crate::cancel::CancelToken;
use crate::faults;
use std::any::Any;
use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::thread;

thread_local! {
    /// Scoped thread-count override installed by [`with_threads`].
    static THREADS_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Number of worker threads to use. Resolution order: a [`with_threads`]
/// scope on the calling thread, then the `COBRA_THREADS` environment
/// variable (useful for benchmarking scaling curves and for exercising
/// both the single- and multi-worker code paths in CI), then the detected
/// hardware parallelism.
pub fn num_threads() -> usize {
    if let Some(n) = THREADS_OVERRIDE.with(Cell::get) {
        return n.max(1);
    }
    if let Ok(v) = std::env::var("COBRA_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(1);
        }
    }
    thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Runs `f` with [`num_threads`] pinned to `n` **on the calling thread**
/// (nested scopes restore the previous value on exit, including on
/// panic). Unlike setting `COBRA_THREADS`, this is race-free under
/// concurrent tests: only dispatch decisions made by the calling thread
/// observe the override, which is exactly where every `par` entry point
/// reads it.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREADS_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(THREADS_OVERRIDE.with(|c| c.replace(Some(n.max(1)))));
    f()
}

/// Maps `f` over `items` (with the item index), preserving order.
/// Parallelises across contiguous chunks when multiple cores are available.
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    let threads = num_threads().min(items.len()).max(1);
    if threads == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let per = items.len().div_ceil(threads);
    let parts: Vec<Vec<U>> = thread::scope(|s| {
        let handles: Vec<_> = items
            .chunks(per)
            .enumerate()
            .map(|(ci, chunk)| {
                let f = &f;
                s.spawn(move || {
                    chunk
                        .iter()
                        .enumerate()
                        .map(|(i, t)| f(ci * per + i, t))
                        .collect::<Vec<U>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("par_map worker panicked"))
            .collect()
    });
    parts.into_iter().flatten().collect()
}

/// Splits `data` into consecutive chunks of `chunk_len` (the final chunk
/// may be shorter) and calls `f(chunk_index, chunk)` for each, distributing
/// whole chunks across threads. Chunk indices are global and chunks are
/// disjoint, so `f` may fill its chunk without synchronisation.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let n_chunks = data.len().div_ceil(chunk_len);
    let threads = num_threads().min(n_chunks).max(1);
    if threads == 1 {
        for (i, c) in data.chunks_mut(chunk_len).enumerate() {
            f(i, c);
        }
        return;
    }
    let chunks_per_thread = n_chunks.div_ceil(threads);
    thread::scope(|s| {
        let mut rest = data;
        let mut chunk_base = 0usize;
        while !rest.is_empty() {
            let take = (chunks_per_thread * chunk_len).min(rest.len());
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(take);
            rest = tail;
            let base = chunk_base;
            chunk_base += chunks_per_thread;
            let f = &f;
            s.spawn(move || {
                for (i, c) in head.chunks_mut(chunk_len).enumerate() {
                    f(base + i, c);
                }
            });
        }
    });
}

/// Splits the index range `0..n` into at most [`num_threads`] contiguous
/// spans — each span a whole number of `align`-sized chunks (the final
/// span takes the remainder) — and hands every span to its own worker
/// together with **worker-owned mutable state** built by `init` on the
/// worker's thread. Returns the states in span order (ascending indices),
/// so order-sensitive reductions can combine them deterministically.
///
/// This is the scope plumbing the parallel fold engines ride: each worker
/// owns its scenario binder, batch buffers and fold replica (no sharing,
/// no synchronisation), and the caller merges the returned partial
/// accumulators in ascending span order — making results independent of
/// the thread count. Degrades to a single inline `init` + `work` call
/// when one thread suffices, so single-core machines pay no thread cost.
///
/// # Panics
/// Panics if `align == 0`, or if a worker panics (the worker's panic is
/// resumed on the calling thread; see [`try_par_owned_spans`] for the
/// panic-isolating variant the budgeted sweep engines use).
pub fn par_owned_spans<S, I, W>(n: usize, align: usize, init: I, work: W) -> Vec<S>
where
    S: Send,
    I: Fn() -> S + Sync,
    W: Fn(&mut S, Range<usize>) + Sync,
{
    let abort = CancelToken::new();
    match try_par_owned_spans(n, align, &abort, init, work) {
        Ok(states) => states,
        Err(payload) => resume_unwind(payload),
    }
}

/// The payload of a worker panic caught by [`try_par_owned_spans`] — what
/// `std::panic::catch_unwind` returns, re-raisable via
/// `std::panic::resume_unwind`.
pub type WorkerPanic = Box<dyn Any + Send + 'static>;

/// Best-effort human-readable message of a caught worker panic (`&str`
/// and `String` payloads, which cover `panic!`/`assert!`/`expect`).
pub fn panic_message(payload: &WorkerPanic) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// [`par_owned_spans`] with **worker panic isolation**: every worker runs
/// its span under `catch_unwind`, and a panicking worker — instead of
/// unwinding through `thread::scope` and aborting the whole call — trips
/// `abort` so cooperative siblings (sweep workers poll their budget at
/// block granularity) stop early, then surfaces as `Err` with the first
/// panic's payload (in ascending span order, so the error is
/// deterministic when several workers fail). All workers are joined
/// before returning either way; no thread outlives the call.
///
/// The fault-injection harness ([`crate::faults`]) hooks every span start,
/// which is how the panic-isolation path stays permanently exercised.
///
/// `abort` is also honored on entry: a pre-tripped token still runs
/// `init` (returning one empty-progress state per span) but skips `work`,
/// mirroring what cooperative workers do when they observe cancellation
/// at their first block boundary.
///
/// # Panics
/// Panics if `align == 0`.
pub fn try_par_owned_spans<S, I, W>(
    n: usize,
    align: usize,
    abort: &CancelToken,
    init: I,
    work: W,
) -> Result<Vec<S>, WorkerPanic>
where
    S: Send,
    I: Fn() -> S + Sync,
    W: Fn(&mut S, Range<usize>) + Sync,
{
    assert!(align > 0, "span alignment must be positive");
    let chunks = n.div_ceil(align);
    let threads = num_threads().min(chunks).max(1);
    let run_span = |state: &mut S, range: Range<usize>| -> Result<(), WorkerPanic> {
        let result = catch_unwind(AssertUnwindSafe(|| {
            faults::point(faults::Site::SpanStart);
            work(state, range);
        }));
        if let Err(payload) = result {
            abort.cancel();
            return Err(payload);
        }
        Ok(())
    };
    if threads == 1 {
        let mut state = init();
        if n > 0 && !abort.is_cancelled() {
            run_span(&mut state, 0..n)?;
        }
        return Ok(vec![state]);
    }
    let span = chunks.div_ceil(threads) * align;
    let results: Vec<Result<S, WorkerPanic>> = thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .step_by(span)
            .map(|start| {
                let end = (start + span).min(n);
                let (init, run_span) = (&init, &run_span);
                s.spawn(move || {
                    let mut state = init();
                    if abort.is_cancelled() {
                        return Ok(state);
                    }
                    run_span(&mut state, start..end)?;
                    Ok(state)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(result) => result,
                // run_span catches panics from `work`; a join error can
                // only come from `init` panicking on the worker thread.
                Err(payload) => {
                    abort.cancel();
                    Err(payload)
                }
            })
            .collect()
    });
    let mut states = Vec::with_capacity(results.len());
    for result in results {
        states.push(result?);
    }
    Ok(states)
}

/// Maps contiguous index spans to partial results and reduces the
/// partials **in ascending span order** — the deterministic fan-out shape
/// candidate scoring rides (e.g. the planner's exhaustive cut scorer):
/// each worker scans its own span of `0..n` and produces one partial
/// (a running best, a per-key table, …), and `reduce` combines them left
/// to right, so the result is independent of the thread count whenever
/// `reduce` is associative. Returns `None` for `n == 0`.
///
/// Built on [`par_owned_spans`]; degrades to one inline `map(0..n)` call
/// on a single thread.
pub fn par_map_reduce<T, M, R>(n: usize, align: usize, map: M, reduce: R) -> Option<T>
where
    T: Send,
    M: Fn(Range<usize>) -> T + Sync,
    R: Fn(T, T) -> T,
{
    if n == 0 {
        return None;
    }
    let partials = par_owned_spans(
        n,
        align,
        || None,
        |slot: &mut Option<T>, range| *slot = Some(map(range)),
    );
    partials
        .into_iter()
        .flatten()
        .reduce(reduce)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The span engines call `faults::point`, whose plan is process-global:
    // every test below that runs one holds `faults::exclude_scopes()` so the
    // fault-injection tests of this crate cannot fire inside it (nor lose
    // a span index to it).

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map(&items, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
        assert!(par_map::<usize, usize, _>(&[], |_, &x| x).is_empty());
    }

    #[test]
    fn par_chunks_fill_disjoint() {
        let mut data = vec![0usize; 103];
        par_chunks_mut(&mut data, 8, |ci, chunk| {
            for (j, slot) in chunk.iter_mut().enumerate() {
                *slot = ci * 8 + j;
            }
        });
        assert_eq!(data, (0..103).collect::<Vec<_>>());
    }

    #[test]
    fn with_threads_overrides_and_restores() {
        let outer = num_threads();
        let inner = with_threads(3, || {
            // nested override wins, then restores to the enclosing one
            assert_eq!(with_threads(7, num_threads), 7);
            num_threads()
        });
        assert_eq!(inner, 3);
        assert_eq!(num_threads(), outer);
        assert_eq!(with_threads(0, num_threads), 1); // clamped
    }

    #[test]
    fn owned_spans_cover_all_indices_in_order() {
        let _disarmed = faults::exclude_scopes();
        for threads in [1usize, 2, 5] {
            for (n, align) in [(0usize, 4usize), (3, 4), (64, 4), (103, 8), (7, 100)] {
                let spans = with_threads(threads, || {
                    par_owned_spans(
                        n,
                        align,
                        Vec::new,
                        |seen: &mut Vec<usize>, range| seen.extend(range),
                    )
                });
                // alignment: every span but the last starts and ends on a
                // chunk boundary, and concatenation reproduces 0..n
                let flat: Vec<usize> = spans.iter().flatten().copied().collect();
                assert_eq!(flat, (0..n).collect::<Vec<_>>(), "n={n} t={threads}");
                for s in &spans[..spans.len().saturating_sub(1)] {
                    assert_eq!(s.len() % align, 0, "n={n} t={threads}");
                }
                assert!(spans.len() <= threads.max(1));
            }
        }
    }

    #[test]
    fn map_reduce_is_thread_count_independent() {
        let _disarmed = faults::exclude_scopes();
        // argmax with a left-biased tie-break: only deterministic if the
        // partials merge in ascending span order
        let score = |i: usize| (i * 7919) % 1000;
        let expected = (0..5000).map(|i| (score(i), std::cmp::Reverse(i))).max();
        for threads in [1usize, 2, 3, 8] {
            let got = with_threads(threads, || {
                par_map_reduce(
                    5000,
                    64,
                    |range| range.map(|i| (score(i), std::cmp::Reverse(i))).max().unwrap(),
                    std::cmp::max,
                )
            });
            assert_eq!(got, expected, "threads {threads}");
        }
        assert_eq!(
            par_map_reduce(0, 4, |_| 0u32, |a, b| a + b),
            None
        );
        // sums reduce associatively regardless of span boundaries
        let total = with_threads(4, || {
            par_map_reduce(103, 8, |r| r.sum::<usize>(), |a, b| a + b)
        });
        assert_eq!(total, Some((0..103).sum()));
    }

    #[test]
    fn try_spans_catch_worker_panics() {
        let _disarmed = faults::exclude_scopes();
        for threads in [1usize, 2, 4] {
            let abort = CancelToken::new();
            let result = with_threads(threads, || {
                try_par_owned_spans(
                    1000,
                    1,
                    &abort,
                    || 0usize,
                    |done, range| {
                        for i in range {
                            assert!(i != 170, "injected");
                            *done += 1;
                        }
                    },
                )
            });
            let payload = result.expect_err("worker panic must surface as Err");
            assert!(panic_message(&payload).contains("injected"), "t={threads}");
            assert!(abort.is_cancelled(), "panic must trip the abort token");
        }
    }

    #[test]
    fn try_spans_pretripped_token_skips_work() {
        let _disarmed = faults::exclude_scopes();
        let abort = CancelToken::new();
        abort.cancel();
        let spans = with_threads(3, || {
            try_par_owned_spans(
                300,
                1,
                &abort,
                || 0usize,
                |done, range| *done += range.len(),
            )
        })
        .expect("no panic");
        assert!(spans.iter().all(|&d| d == 0), "work must be skipped");
    }

    #[test]
    fn try_spans_match_plain_spans_when_nothing_fails() {
        let _disarmed = faults::exclude_scopes();
        for threads in [1usize, 2, 5] {
            let abort = CancelToken::new();
            let sums = with_threads(threads, || {
                try_par_owned_spans(
                    103,
                    8,
                    &abort,
                    || 0usize,
                    |sum, range| *sum += range.sum::<usize>(),
                )
            })
            .expect("no panic");
            assert_eq!(sums.iter().sum::<usize>(), (0..103).sum::<usize>());
            assert!(!abort.is_cancelled());
        }
    }

    #[test]
    fn plain_spans_resume_worker_panics() {
        let _disarmed = faults::exclude_scopes();
        let result = std::panic::catch_unwind(|| {
            with_threads(2, || {
                par_owned_spans(
                    100,
                    1,
                    || (),
                    |(), range| {
                        if range.contains(&99) {
                            panic!("legacy path still panics");
                        }
                    },
                )
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn chunk_sizes_cover_tail() {
        let mut data = vec![0u8; 10];
        par_chunks_mut(&mut data, 4, |_, chunk| {
            assert!(chunk.len() == 4 || chunk.len() == 2);
            chunk.fill(1);
        });
        assert!(data.iter().all(|&b| b == 1));
    }
}
