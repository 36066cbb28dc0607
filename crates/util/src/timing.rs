//! Wall-clock measurement helpers for the assignment-speedup experiments.
//!
//! The paper reports "assignment speedup" — the relative reduction in the
//! time to apply a valuation to the compressed vs. the full provenance.
//! These helpers centralize the measurement discipline: warm-up, repeated
//! runs, and best-of/median aggregation to damp scheduler noise.

use std::time::{Duration, Instant};

/// A simple running stopwatch.
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Elapsed time since start.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed time in fractional milliseconds.
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed().as_secs_f64() * 1e3
    }
}

/// Times a single run of `f`, returning `(result, duration)`.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let sw = Stopwatch::start();
    let out = f();
    (out, sw.elapsed())
}

/// Runs `f` `warmup + runs` times and returns the minimum duration over the
/// measured runs together with the last result.
///
/// Minimum (not mean) is the conventional low-noise estimator for CPU-bound
/// microbenchmarks; the repository's benchmark (`BENCHMARK.json`) takes the
/// statistically rigorous numbers from repeated fresh-process runs.
pub fn time_best_of<T>(warmup: usize, runs: usize, mut f: impl FnMut() -> T) -> (T, Duration) {
    assert!(runs > 0, "need at least one measured run");
    for _ in 0..warmup {
        std::hint::black_box(f());
    }
    let mut best = Duration::MAX;
    let mut out = None;
    for _ in 0..runs {
        let sw = Stopwatch::start();
        let r = std::hint::black_box(f());
        let d = sw.elapsed();
        if d < best {
            best = d;
        }
        out = Some(r);
    }
    (out.expect("runs > 0"), best)
}

/// Computes the paper-style speedup percentage of `fast` relative to `slow`:
/// `(slow − fast) / slow × 100`. A value of 79 means "79% faster" in the
/// paper's phrasing (time reduced by 79%).
pub fn speedup_percent(slow: Duration, fast: Duration) -> f64 {
    if slow.is_zero() {
        return 0.0;
    }
    (slow.as_secs_f64() - fast.as_secs_f64()) / slow.as_secs_f64() * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_once_returns_result() {
        let (v, d) = time_once(|| 2 + 2);
        assert_eq!(v, 4);
        assert!(d >= Duration::ZERO);
    }

    #[test]
    fn best_of_runs_all_iterations() {
        let mut count = 0;
        let (_, d) = time_best_of(2, 3, || {
            count += 1;
        });
        assert_eq!(count, 5);
        assert!(d < Duration::from_secs(1));
    }

    #[test]
    fn speedup_formula() {
        let slow = Duration::from_millis(100);
        let fast = Duration::from_millis(21);
        let s = speedup_percent(slow, fast);
        assert!((s - 79.0).abs() < 1e-9);
        assert_eq!(speedup_percent(Duration::ZERO, fast), 0.0);
    }
}
