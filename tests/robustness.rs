//! Robustness pins for the budgeted, cancellable, fault-isolated sweep
//! engine: interrupted parallel folds must return `SweepOutcome::Partial`
//! **bit-identical** to a sequential fold over the same scenario prefix
//! at any thread count, injected worker panics must surface as
//! `CoreError::WorkerPanicked` with the process and session still live,
//! and the Higham running-error bound must dominate the measured error.
//!
//! Every test that runs a sweep wraps it in `faults::with_faults` — even
//! the ones that inject nothing (`FaultPlan::default()`): the fault
//! scope arms a process-global plan, so the scope lock doubles as the
//! serialization point keeping concurrent tests in this binary from
//! observing each other's injected faults.

use std::time::Duration;

use cobra::core::folds::{self, MergeFold, SweepFold};
use cobra::core::{
    Approx, Certified, CobraSession, CoreError, Exact, FoldItem, Precision, ScenarioSet,
    StopReason, SweepBudget, SweepOutcome,
};
use cobra::provenance::Coeff;
use cobra::util::faults::{self, with_faults, FaultPlan, INJECTED_PANIC};
use cobra::util::{par, CancelToken, Rat};

/// An order-sensitive fold: records every item verbatim (scenario index
/// plus both result rows via `Debug`, which round-trips `f64` exactly),
/// so two folds compare equal iff they saw the **same scenarios with the
/// same bits in the same order** — the sharpest possible witness for the
/// partial-prefix bit-identity contract.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Trace(Vec<(usize, String, String)>);

impl SweepFold for Trace {
    type Output = Self;
    fn accept<C: Coeff>(&mut self, item: FoldItem<'_, C>) {
        self.0.push((
            item.scenario,
            format!("{:?}", item.full),
            format!("{:?}", item.compressed),
        ));
    }
    fn finish(self) -> Self {
        self
    }
}

impl MergeFold for Trace {
    fn init(&self) -> Self {
        Trace::default()
    }
    fn merge(&mut self, later: Self) {
        self.0.extend(later.0);
    }
}

/// The paper's P1 with the Fig. 2 tree, compressed at bound 2 — the same
/// fixture the sweep doctests use.
fn session() -> CobraSession {
    let mut s =
        CobraSession::from_text("P1 = 208.8*p1*m1 + 240*p1*m3 + 42*v*m1 + 24.2*v*m3").unwrap();
    s.add_tree_text("Plans(Standard(p1,p2), v)").unwrap();
    s.set_bound(2);
    s.compress().unwrap();
    s
}

/// An `n_m3 × n_p1` integer grid over two variables (one inside the
/// abstraction group, one outside), so full and compressed sides differ.
fn grid(s: &mut CobraSession, n_m3: i64, n_p1: i64) -> ScenarioSet {
    let m3 = s.registry_mut().var("m3");
    let p1 = s.registry_mut().var("p1");
    ScenarioSet::grid()
        .axis([m3], (1..=n_m3).map(Rat::int).collect::<Vec<_>>())
        .axis([p1], (1..=n_p1).map(Rat::int).collect::<Vec<_>>())
        .build()
        .unwrap()
}

/// The unbudgeted parallel exact fold of the whole set into a [`Trace`].
fn par_exact(s: &CobraSession, set: &ScenarioSet) -> Result<Trace, CoreError> {
    let (outcome, ()) = s.fold_par::<Exact, _>(set, &SweepBudget::unlimited(), Trace::default())?;
    Ok(outcome.into_fold())
}

/// The one contract behind every budgeted surface, with the precision as
/// the parameter: `fold_par::<P>` at 1/2/4 threads is bit-identical to
/// `fold::<P>` under the same budget — fold state, `scenarios_done`,
/// `StopReason` **and** `P::Report` (divergence probes, Higham bound) —
/// for an unlimited budget, a pre-cancelled token, an expired deadline,
/// and scenario caps on, inside, and past block boundaries (blocks are
/// 1024 scenarios here).
fn par_fold_equals_ordered_fold_over_the_same_prefix<P: Precision>() {
    with_faults(FaultPlan::default(), || {
        let mut s = session();
        let set = grid(&mut s, 60, 50); // 3000 scenarios ⇒ several blocks
        let n = set.len();
        let tripped = CancelToken::new();
        tripped.cancel();
        let mut budgets = vec![
            SweepBudget::unlimited(),
            SweepBudget::unlimited().with_cancel_token(tripped),
            SweepBudget::unlimited().with_deadline(Duration::ZERO),
        ];
        budgets.extend(
            [1usize, 7, 1024, 1500, 2048, 2999, n, n + 512]
                .map(|cap| SweepBudget::unlimited().with_scenario_cap(cap)),
        );
        for budget in &budgets {
            let (seq, seq_report) = s
                .fold::<P, _>(&set, budget, Trace::default(), folds::step)
                .unwrap();
            match budget.scenario_cap() {
                Some(cap) if cap < n => {
                    assert_eq!(seq.scenarios_done(), Some(cap));
                    assert_eq!(seq.stop_reason(), Some(StopReason::ScenarioCap));
                    assert_eq!(seq.fold().0.len(), cap);
                }
                Some(_) => {
                    assert!(seq.is_complete());
                    assert_eq!(seq.fold().0.len(), n);
                }
                None => {}
            }
            for threads in [1, 2, 4] {
                let (par_outcome, par_report) = par::with_threads(threads, || {
                    s.fold_par::<P, _>(&set, budget, Trace::default()).unwrap()
                });
                assert_eq!(par_outcome, seq, "{budget:?} × {threads} threads");
                // `Debug` round-trips `f64` exactly: equal strings, equal bits
                assert_eq!(
                    format!("{par_report:?}"),
                    format!("{seq_report:?}"),
                    "{budget:?} × {threads} threads"
                );
            }
        }
    });
}

#[test]
fn capped_partial_is_exact_prefix_at_any_thread_count() {
    par_fold_equals_ordered_fold_over_the_same_prefix::<Exact>();
}

#[test]
fn capped_f64_partial_matches_sequential_including_divergence() {
    par_fold_equals_ordered_fold_over_the_same_prefix::<Approx>();
}

#[test]
fn capped_certified_partial_matches_sequential_including_bound() {
    par_fold_equals_ordered_fold_over_the_same_prefix::<Certified>();
}

/// A token tripped before the sweep starts yields an empty exact partial
/// (zero scenarios, the fold's identity) — and the session answers the
/// next, unbudgeted call correctly.
#[test]
fn pre_tripped_token_and_expired_deadline_stop_before_work() {
    with_faults(FaultPlan::default(), || {
        let mut s = session();
        let set = grid(&mut s, 20, 10);
        let token = CancelToken::new();
        token.cancel();
        let budget = SweepBudget::unlimited().with_cancel_token(token);
        for threads in [1, 4] {
            let (outcome, ()) = par::with_threads(threads, || {
                s.fold_par::<Exact, _>(&set, &budget, Trace::default())
                    .unwrap()
            });
            assert_eq!(
                outcome,
                SweepOutcome::Partial {
                    fold: Trace::default(),
                    scenarios_done: 0,
                    reason: StopReason::Cancelled,
                }
            );
        }
        // an already-expired deadline behaves the same, with its own reason
        let expired = SweepBudget::unlimited().with_deadline(Duration::ZERO);
        let (outcome, ()) = s
            .fold::<Exact, _>(&set, &expired, Trace::default(), folds::step)
            .unwrap();
        assert_eq!(outcome.stop_reason(), Some(StopReason::Deadline));
        assert_eq!(outcome.scenarios_done(), Some(0));
        // the exhausted budget poisons nothing: the next call is complete
        let count = s.sweep_fold(&set, 0usize, |n, _| n + 1).unwrap();
        assert_eq!(count, set.len());
    });
}

/// A token tripped *mid-flight* (from another thread, with injected block
/// delays stretching the sweep) stops at a block boundary; whatever
/// prefix completed, re-running with that exact scenario cap must
/// reproduce the partial fold bit for bit.
#[test]
fn mid_flight_cancel_partial_equals_capped_rerun() {
    let plan = FaultPlan {
        block_delay: Some(Duration::from_millis(2)),
        ..FaultPlan::default()
    };
    with_faults(plan, || {
        let mut s = session();
        let set = grid(&mut s, 60, 50); // 3000 scenarios ⇒ ~3 delayed blocks/span
        let token = CancelToken::new();
        let budget = SweepBudget::unlimited().with_cancel_token(token.clone());
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(3));
            token.cancel();
        });
        let (outcome, ()) = par::with_threads(4, || {
            s.fold_par::<Exact, _>(&set, &budget, Trace::default())
                .unwrap()
        });
        canceller.join().unwrap();
        match outcome {
            SweepOutcome::Partial {
                ref fold,
                scenarios_done,
                reason,
            } => {
                assert_eq!(reason, StopReason::Cancelled);
                assert_eq!(fold.0.len(), scenarios_done);
                if scenarios_done == 0 {
                    return; // nothing completed before the trip — fine
                }
                let (rerun, ()) = s
                    .fold::<Exact, _>(
                        &set,
                        &SweepBudget::unlimited().with_scenario_cap(scenarios_done),
                        Trace::default(),
                        folds::step,
                    )
                    .unwrap();
                assert_eq!(fold, rerun.fold());
            }
            // the cancel landed after the last block: completeness is the
            // contract then, so check against the plain sequential run
            SweepOutcome::Complete(ref fold) => {
                let seq = s
                    .sweep_fold(&set, Trace::default(), |mut t, item| {
                        t.accept(item);
                        t
                    })
                    .unwrap();
                assert_eq!(*fold, seq);
            }
        }
    });
}

/// An injected worker panic is caught at the span boundary, cancels the
/// sibling workers, and surfaces as `CoreError::WorkerPanicked` carrying
/// the panic message — with the process and the session both still live.
#[test]
fn injected_span_panic_surfaces_as_worker_panicked() {
    let mut s = session();
    let set = grid(&mut s, 20, 10);
    let result = with_faults(FaultPlan::panic_on_span(1), || {
        par::with_threads(4, || par_exact(&s, &set))
    });
    match result {
        Err(CoreError::WorkerPanicked(msg)) => {
            assert!(msg.contains(INJECTED_PANIC), "unexpected payload: {msg}")
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    // the session answers the next call correctly, on both engines
    with_faults(FaultPlan::default(), || {
        let seq = s
            .sweep_fold(&set, Trace::default(), |mut t, item| {
                t.accept(item);
                t
            })
            .unwrap();
        let par_fold = par::with_threads(4, || par_exact(&s, &set).unwrap());
        assert_eq!(par_fold, seq);
        assert_eq!(seq.0.len(), set.len());
    });
}

/// The same isolation on the `f64` fast path, with the panic injected at
/// a *block* boundary inside a worker's stream loop.
#[test]
fn injected_block_panic_is_isolated_on_f64_path() {
    let mut s = session();
    let set = grid(&mut s, 60, 40);
    let result = with_faults(FaultPlan::panic_on_block(2), || {
        par::with_threads(4, || s.sweep_fold_f64_par(&set, Trace::default()))
    });
    match result {
        Err(CoreError::WorkerPanicked(msg)) => {
            assert!(msg.contains(INJECTED_PANIC), "unexpected payload: {msg}")
        }
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    with_faults(FaultPlan::default(), || {
        let (fold, div) =
            par::with_threads(4, || s.sweep_fold_f64_par(&set, Trace::default()).unwrap());
        assert_eq!(fold.0.len(), set.len());
        assert!(div.max_rel_divergence < 1e-9);
    });
}

/// Injected *delays* (no panics) skew worker interleavings without
/// changing a single bit of any result.
#[test]
fn injected_delays_never_change_results() {
    let mut s = session();
    let set = grid(&mut s, 30, 20);
    let reference = with_faults(FaultPlan::default(), || {
        s.sweep_fold(&set, Trace::default(), |mut t, item| {
            t.accept(item);
            t
        })
        .unwrap()
    });
    let plan = FaultPlan {
        span_delay: Some(Duration::from_micros(200)),
        block_delay: Some(Duration::from_micros(50)),
        ..FaultPlan::default()
    };
    let delayed = with_faults(plan, || {
        assert!(faults::armed());
        par::with_threads(4, || par_exact(&s, &set).unwrap())
    });
    assert_eq!(delayed, reference);
}

/// The Higham running-error certificate is *sound*: on a dyadic grid
/// (rows bind to `f64` exactly, so the exact rational sweep is the true
/// value of what the kernel computed) the measured error of every
/// scenario is dominated by the reported bound — and the bound itself is
/// bit-identical between the sequential and parallel bounded engines.
#[test]
fn higham_bound_dominates_measured_error_and_is_deterministic() {
    with_faults(FaultPlan::default(), || {
        let mut s = session();
        let m3 = s.registry_mut().var("m3");
        let p1 = s.registry_mut().var("p1");
        let quarter = |i: i64| Rat::int(i) / Rat::int(4); // dyadic values
        let set = ScenarioSet::grid()
            .axis([m3], (1..=40).map(quarter).collect::<Vec<_>>())
            .axis([p1], (1..=16).map(quarter).collect::<Vec<_>>())
            .build()
            .unwrap();
        let (outcome, bound) = s
            .sweep_fold_f64_bounded(
                &set,
                SweepBudget::unlimited(),
                Vec::new(),
                |mut rows, item| {
                    rows.push((item.full.to_vec(), item.compressed.to_vec()));
                    rows
                },
            )
            .unwrap();
        let rows = outcome.into_fold();
        assert_eq!(bound.scenarios, set.len());
        assert!(bound.max_rel_bound.is_finite() && bound.max_rel_bound < 1e-12);
        assert!(bound.argmax_rel.is_some());

        // soundness: |computed − exact| ≤ max_abs_bound for every value
        // (plus half an ulp for rounding the exact rational to f64)
        let exact = s.sweep(&set).unwrap();
        for (i, (full, compressed)) in rows.iter().enumerate() {
            for (side, approx) in [(exact.full_row(i), full), (exact.compressed_row(i), compressed)]
            {
                for (e, a) in side.iter().zip(approx) {
                    let e = e.to_f64();
                    let slack = f64::EPSILON * e.abs();
                    assert!(
                        (e - a).abs() <= bound.max_abs_bound + slack,
                        "scenario {i}: |{e} − {a}| exceeds bound {}",
                        bound.max_abs_bound
                    );
                }
            }
        }

        // determinism: the parallel bounded engine reproduces the exact
        // same certificate at any thread count
        for threads in [1, 2, 4] {
            let (par_outcome, par_bound) = par::with_threads(threads, || {
                s.fold_par::<Certified, _>(&set, &SweepBudget::unlimited(), Trace::default())
                    .unwrap()
            });
            assert!(par_outcome.is_complete());
            assert_eq!(par_bound.scenarios, bound.scenarios);
            assert_eq!(par_bound.max_abs_bound.to_bits(), bound.max_abs_bound.to_bits());
            assert_eq!(par_bound.max_rel_bound.to_bits(), bound.max_rel_bound.to_bits());
            assert_eq!(par_bound.argmax_rel, bound.argmax_rel);
        }
    });
}

/// Deadline budgets on the multi-tree forest surface degrade exactly the
/// same way: partial prefix, then full answers on the next call.
#[test]
fn forest_sweep_honours_budgets_too() {
    with_faults(FaultPlan::default(), || {
        use cobra::core::{apply_cuts, optimize_forest_descent, CompiledComparison};
        use cobra::provenance::{parse_polyset, Valuation, VarRegistry};

        let mut reg = VarRegistry::new();
        let set = parse_polyset("P1 = 2*a*x + 3*b*x + 5*c*y + 7*d*y", &mut reg).unwrap();
        let t1 = cobra::core::AbstractionTree::parse("T(a,b)", &mut reg).unwrap();
        let t2 = cobra::core::AbstractionTree::parse("U(c,d)", &mut reg).unwrap();
        let solution = optimize_forest_descent(&set, &[&t1, &t2], 2, &mut reg, 16).unwrap();
        let pairs: Vec<_> = [&t1, &t2].into_iter().zip(solution.cuts.iter()).collect();
        let applied = apply_cuts(&set, &pairs, &mut reg);
        let x = reg.var("x");
        let scenarios = ScenarioSet::grid()
            .axis([x], (1..=50).map(Rat::int).collect::<Vec<_>>())
            .build()
            .unwrap();
        let budget = SweepBudget::unlimited().with_scenario_cap(13);
        let (outcome, ()) = CompiledComparison::compile(&set, &applied.compressed)
            .fold::<Exact, _>(
                (),
                (&applied.meta_vars, &Valuation::with_default(Rat::ONE)),
                &scenarios,
                &budget,
                0usize,
                |n, _| n + 1,
            )
            .unwrap();
        assert_eq!(outcome.scenarios_done(), Some(13));
        assert_eq!(*outcome.fold(), 13);
    });
}
