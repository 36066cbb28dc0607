//! Failure-path coverage for the session pipeline: every misuse and
//! infeasibility mode surfaces as a typed, actionable error (the demo UI
//! relies on these to guide the analyst's bound choice).

use cobra::core::{Approx, CobraSession, CoreError, Exact, ScenarioSet, SweepBudget};
use cobra::provenance::Valuation;
use cobra::util::faults::{with_faults, FaultPlan, INJECTED_PANIC};
use cobra::util::{par, CancelToken, Rat};
use std::time::Duration;

const POLYS: &str = "P1 = 2*a*x + 3*b*x\nP2 = 5*a*y";

#[test]
fn missing_inputs_in_order() {
    let mut s = CobraSession::from_text(POLYS).unwrap();
    // no bound
    assert!(matches!(s.compress(), Err(CoreError::Session(_))));
    s.set_bound(10);
    // no tree
    assert!(matches!(s.compress(), Err(CoreError::Session(_))));
    // results before compression
    assert!(matches!(s.meta_summary(), Err(CoreError::Session(_))));
    assert!(matches!(
        s.assign(Valuation::with_default(Rat::ONE)),
        Err(CoreError::Session(_))
    ));
    assert!(matches!(
        s.measure_speedup(Valuation::with_default(Rat::ONE), 0, 1),
        Err(CoreError::Session(_))
    ));
}

#[test]
fn infeasible_bound_reports_minimum_achievable() {
    let mut s = CobraSession::from_text(POLYS).unwrap();
    s.add_tree_text("T(a,b)").unwrap();
    // coarsest abstraction: P1 → {T·x}, P2 → {T·y} ⇒ minimum size 2
    s.set_bound(1);
    match s.compress() {
        Err(CoreError::InfeasibleBound { min_achievable }) => {
            assert_eq!(min_achievable, 2)
        }
        other => panic!("{other:?}"),
    }
    // raising the bound to the reported minimum succeeds
    s.set_bound(2);
    let report = s.compress().unwrap();
    assert_eq!(report.compressed_size, 2);
}

#[test]
fn malformed_inputs_are_parse_errors() {
    assert!(matches!(
        CobraSession::from_text("not a polynomial line"),
        Err(CoreError::Session(_))
    ));
    let mut s = CobraSession::from_text(POLYS).unwrap();
    assert!(matches!(
        s.add_tree_text("T(a,"),
        Err(CoreError::TreeParse { .. })
    ));
    assert!(matches!(
        s.add_tree_text("T(a, a)"),
        Err(CoreError::DuplicateNodeName(_))
    ));
}

#[test]
fn spanning_monomial_is_rejected_with_context() {
    // a·b in one monomial while a and b are leaves of the same tree
    let mut s = CobraSession::from_text("P = 2*a*b").unwrap();
    s.add_tree_text("T(a,b)").unwrap();
    s.set_bound(1);
    match s.compress() {
        Err(CoreError::MonomialSpansTree { poly, .. }) => assert_eq!(poly, "P"),
        other => panic!("{other:?}"),
    }
}

#[test]
fn recompression_invalidates_stale_state() {
    let mut s = CobraSession::from_text(POLYS).unwrap();
    s.add_tree_text("T(a,b)").unwrap();
    s.set_bound(10);
    s.compress().unwrap();
    assert!(s.meta_summary().is_ok());
    // changing the bound invalidates compressed state until recompression
    s.set_bound(2);
    assert!(matches!(s.meta_summary(), Err(CoreError::Session(_))));
    s.compress().unwrap();
    assert!(s.meta_summary().is_ok());
    // adding a tree also invalidates
    s.add_tree_text("U(x,y)").unwrap();
    assert!(matches!(s.meta_summary(), Err(CoreError::Session(_))));
}

#[test]
fn error_messages_are_actionable() {
    let err = CoreError::InfeasibleBound { min_achievable: 42 };
    assert!(err.to_string().contains("42"));
    let err = CoreError::UnknownNode("Bizness".into());
    assert!(err.to_string().contains("Bizness"));
    let err = CoreError::TooManyCuts { limit: 7 };
    assert!(err.to_string().contains('7'));
    // the budget/robustness variants guide the caller too
    assert!(CoreError::Cancelled.to_string().contains("Partial"));
    assert!(CoreError::DeadlineExceeded.to_string().contains("deadline"));
    let err = CoreError::WorkerPanicked("boom".into());
    assert!(err.to_string().contains("boom"));
    assert!(err.to_string().contains("session remains usable"));
    let err = CoreError::InfeasibleBudget("cap is 0".into());
    assert!(err.to_string().contains("cap is 0"));
}

/// A compressed session with a 20-scenario grid over a grouped variable.
fn sweep_fixture() -> (CobraSession, ScenarioSet) {
    let mut s = CobraSession::from_text(POLYS).unwrap();
    s.add_tree_text("T(a,b)").unwrap();
    s.set_bound(2);
    s.compress().unwrap();
    let x = s.registry_mut().var("x");
    let grid = ScenarioSet::grid()
        .axis([x], (1..=20).map(Rat::int).collect::<Vec<_>>())
        .build()
        .unwrap();
    (s, grid)
}

#[test]
fn zero_scenario_cap_is_infeasible_budget() {
    let (s, grid) = sweep_fixture();
    let budget = SweepBudget::unlimited().with_scenario_cap(0);
    assert!(matches!(
        s.fold::<Exact, _>(&grid, &budget, 0usize, |n, _| n + 1),
        Err(CoreError::InfeasibleBudget(_))
    ));
    assert!(matches!(
        s.fold_par::<Approx, _>(&grid, &budget, cobra::core::folds::MaxAbsError::new()),
        Err(CoreError::InfeasibleBudget(_))
    ));
}

#[test]
fn demanding_completeness_maps_partials_to_typed_errors() {
    // `with_faults(default)` injects nothing; its scope lock serializes
    // this sweep against the fault-injecting test below.
    with_faults(FaultPlan::default(), || {
        let (s, grid) = sweep_fixture();
        // an expired deadline → Partial → DeadlineExceeded on into_complete
        let expired = SweepBudget::unlimited().with_deadline(Duration::ZERO);
        let (outcome, ()) = s
            .fold::<Exact, _>(&grid, &expired, 0usize, |n, _| n + 1)
            .unwrap();
        assert!(matches!(
            outcome.into_complete(),
            Err(CoreError::DeadlineExceeded)
        ));
        // a pre-tripped token → Partial → Cancelled
        let token = CancelToken::new();
        token.cancel();
        let cancelled = SweepBudget::unlimited().with_cancel_token(token);
        let (outcome, ()) = s
            .fold::<Exact, _>(&grid, &cancelled, 0usize, |n, _| n + 1)
            .unwrap();
        assert!(matches!(outcome.into_complete(), Err(CoreError::Cancelled)));
        // exhausting a budget poisons nothing: the *next* call is complete
        // and correct
        let count = s.sweep_fold(&grid, 0usize, |n, _| n + 1).unwrap();
        assert_eq!(count, grid.len());
    });
}

#[test]
fn worker_panic_is_a_typed_error_and_session_survives() {
    let (s, grid) = sweep_fixture();
    let result = with_faults(FaultPlan::panic_on_span(0), || {
        par::with_threads(4, || {
            s.fold_par::<Exact, _>(
                &grid,
                &SweepBudget::unlimited(),
                cobra::core::folds::MaxAbsError::new(),
            )
        })
    });
    match result {
        Err(CoreError::WorkerPanicked(msg)) => assert!(msg.contains(INJECTED_PANIC)),
        other => panic!("expected WorkerPanicked, got {other:?}"),
    }
    // the process did not abort and the session still answers correctly
    with_faults(FaultPlan::default(), || {
        let count = s.sweep_fold(&grid, 0usize, |n, _| n + 1).unwrap();
        assert_eq!(count, grid.len());
    });
}

/// An exact *product* that leaves `i128` — no sum is involved: the one
/// term `2^100·a·m` at `a = 2^100`. `Rat`'s multiplication used to wrap
/// it silently in release builds (the "exact" engines answered with a
/// wrong value) and to panic with a message the session does not remap in
/// debug builds; it is the same typed, survivable error as an overflowing
/// sum on every surface that runs exact arithmetic.
#[test]
fn exact_product_overflow_is_typed_and_survivable() {
    const TWO_POW_100: &str = "1267650600228229401496703205376";
    let mut s = CobraSession::from_text(&format!("P = {TWO_POW_100}*a*m + b*m")).unwrap();
    s.add_tree_text("T(a,b)").unwrap();
    s.set_bound(2);
    s.compress().unwrap();
    let a = s.registry().lookup("a").unwrap();
    let big = Valuation::with_default(Rat::ONE).bind(a, Rat::parse(TWO_POW_100).unwrap());
    let grid = ScenarioSet::from(vec![big.clone()]);
    let unlimited = SweepBudget::unlimited();

    assert!(matches!(s.assign(&big), Err(CoreError::ExactOverflow(_))));
    assert!(matches!(
        s.fold::<Exact, _>(&grid, &unlimited, (), |(), _| ()),
        Err(CoreError::ExactOverflow(_))
    ));
    // the approximate precision runs the same products in its exact probes
    assert!(matches!(
        s.fold::<Approx, _>(&grid, &unlimited, (), |(), _| ()),
        Err(CoreError::ExactOverflow(_))
    ));
    // the session still answers, exactly
    let half = Valuation::with_default(Rat::ONE).bind(a, Rat::new(1, 2));
    let cmp = s.assign(&half).unwrap();
    assert_eq!(cmp.rows[0].full, Rat::new(1i128 << 99, 1) + Rat::ONE);
}
