//! Stateful model test of `CobraSession`: seeded random operation
//! sequences over small random polynomial sets — on one abstraction tree,
//! on a two-tree forest, and on one tree with signed coefficients whose
//! merged sums cancel — checked after **every** step against a
//! session rebuilt from scratch over the live session's current registry
//! and polynomials, with the same trees, plan, bound, selection and DAG
//! mode (the [`Model`]).
//!
//! Per step, the two must agree on
//! * the operation's own outcome: each op also runs on the previous
//!   step's rebuilt session, and its result (or typed error) must match;
//! * the current report (`report(None)`), or the same typed error;
//! * the planned frontier or staircase sizes;
//! * exact `assign` rows on three scenarios, bit for bit;
//! * `fold::<Approx>` rows of the flat engines, bit for bit. With DAG mode
//!   armed, the DAG engines' rows agree to rounding: the rewrite of a
//!   delta-patched program numbers its locals differently from a fresh
//!   compile and so factors differently — exact answers stay
//!   bit-identical, `f64` ones stay within the rounding certificate.
//!
//! Std-only and deterministic: a fixed number of seeded cases.

use cobra::core::{
    restore_session_from_bytes, snapshot_session, Approx, CobraSession, CoreError, PolyDelta,
    ResultRow, ScenarioSet, SweepBudget,
};
use cobra::provenance::{Monomial, PolySet, Polynomial, Valuation, Var, VarRegistry};
use cobra::util::{Rat, SplitMix64};
use std::fmt::Debug;

const TREE: &str = "T(A(a1,a2,a3), B(b1,b2), c)";
const MONTHS: &str = "M(Q(m1,m2), m3)";
const LEAVES: [&str; 6] = ["a1", "a2", "a3", "b1", "b2", "c"];
const MONTH_VARS: [&str; 3] = ["m1", "m2", "m3"];
const CONTEXT: [&str; 2] = ["x", "y"];

const CASES: u64 = 40;
const STEPS: usize = 40;

/// How the current compression was made.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Selection {
    /// `set_bound` + `compress` (the one-shot optimizer).
    Compressed,
    /// `select_bound` against the planned frontier or staircase.
    Selected,
}

/// Everything a from-scratch rebuild needs to reach the live session's
/// state; updated from each op's outcome by [`step`].
#[derive(Clone, Debug)]
struct Model {
    trees: Vec<&'static str>,
    planned: bool,
    bound: Option<u64>,
    selection: Option<Selection>,
    dag: bool,
}

impl Model {
    fn rebuild(&self, live: &CobraSession) -> CobraSession {
        let mut s = CobraSession::new(live.registry().clone(), live.polynomials().clone());
        for tree in &self.trees {
            s.add_tree_text(tree).unwrap();
        }
        if self.planned {
            plan(&mut s).expect("the live session planned these polynomials");
        }
        if let Some(bound) = self.bound {
            s.set_bound(bound);
        }
        match self.selection {
            Some(Selection::Compressed) => {
                s.compress()
                    .expect("the live session compressed at this bound");
            }
            Some(Selection::Selected) => {
                let bound = self.bound.expect("a selection records its bound");
                s.select_bound(bound)
                    .expect("the live session selected this bound");
            }
            None => {}
        }
        s.set_dag_mode(self.dag);
        s
    }
}

#[derive(Clone, Debug)]
enum Op {
    Plan,
    SelectBound(u64),
    SetBoundCompress(u64),
    Delta(PolyDelta<Rat>),
    CompileDag,
    DagOff,
    Intern(String),
    SnapshotRestore,
    /// Snapshot → restore, then a coefficient-only delta, which must patch
    /// a restored frontier selection's compressed program in place.
    RestoreThenDelta(PolyDelta<Rat>),
}

/// An error as the two sessions must agree on it: its variant, plus the
/// payload where the payload is part of the contract.
fn kind(e: &CoreError) -> String {
    match e {
        CoreError::InfeasibleBound { min_achievable } => {
            format!("InfeasibleBound({min_achievable})")
        }
        other => format!("{other:?}")
            .split(['(', ' ', '{'])
            .next()
            .unwrap_or_default()
            .to_owned(),
    }
}

fn outcome<T: Debug>(r: Result<T, CoreError>) -> Result<String, String> {
    r.map(|v| format!("{v:?}")).map_err(|e| kind(&e))
}

fn plan(s: &mut CobraSession) -> Result<Vec<u64>, CoreError> {
    if s.trees().len() == 1 {
        Ok(s.compress_frontier()?
            .points()
            .iter()
            .map(|p| p.size)
            .collect())
    } else {
        Ok(s.compress_forest_frontier()?
            .points()
            .iter()
            .map(|p| p.size)
            .collect())
    }
}

/// Runs `op` on `s` and advances `m` by what the outcome says the
/// session now holds.
fn step(s: &mut CobraSession, m: &mut Model, op: &Op) -> Result<String, String> {
    match op {
        Op::Plan => {
            let r = plan(s);
            m.planned |= r.is_ok();
            outcome(r)
        }
        Op::SelectBound(bound) => {
            let r = s.select_bound(*bound);
            if r.is_ok() {
                m.bound = Some(*bound);
                m.selection = Some(Selection::Selected);
            }
            outcome(r)
        }
        Op::SetBoundCompress(bound) => {
            s.set_bound(*bound);
            m.bound = Some(*bound);
            let r = s.compress();
            m.selection = r.is_ok().then_some(Selection::Compressed);
            outcome(r)
        }
        Op::Delta(delta) => {
            let r = s.apply_delta(delta);
            match &r {
                // Forest staircases are cleared by any delta; a tree plan
                // is refreshed and a selection re-derived in place.
                Ok(report) if !report.is_noop() && m.trees.len() > 1 && m.planned => {
                    m.planned = false;
                    m.selection = None;
                }
                // The documented exception to atomicity: the polynomials
                // and plan are updated, the selection is cleared.
                Err(CoreError::InfeasibleBound { .. }) => m.selection = None,
                _ => {}
            }
            outcome(r)
        }
        Op::CompileDag => {
            let r = s.compile_dag();
            m.dag |= r.is_ok();
            outcome(r.map(|_| ()))
        }
        Op::DagOff => {
            s.set_dag_mode(false);
            m.dag = false;
            Ok(String::new())
        }
        Op::Intern(name) => Ok(format!("{:?}", s.registry_mut().var(name))),
        Op::SnapshotRestore => {
            let r = snapshot_session(s).and_then(|bytes| restore_session_from_bytes(&bytes));
            match r {
                Ok(restored) => {
                    // A frontier selection persists with its bound; a
                    // one-shot compression does not.
                    *s = restored;
                    if m.selection != Some(Selection::Selected) {
                        m.bound = None;
                        m.selection = None;
                    }
                    Ok(String::new())
                }
                Err(e) => Err(kind(&e)),
            }
        }
        Op::RestoreThenDelta(delta) => {
            step(s, m, &Op::SnapshotRestore)?;
            let before = s.compressed_program().cloned();
            let r = step(s, m, &Op::Delta(delta.clone()));
            if let (Some(before), true) = (before, r.is_ok()) {
                // The restored selection's cells are kept and patched in
                // place: positive coefficients never cancel, so the
                // compressed program keeps every shape array.
                let after = s.compressed_program().expect("the selection cells are kept");
                assert!(after.shares_shape(&before), "the selection was rebuilt");
            }
            r
        }
    }
}

/// What a caller can read off a session.
#[derive(Debug, PartialEq)]
struct Observation {
    report: Result<String, String>,
    frontier: Result<Vec<u64>, String>,
    assign: Vec<Result<Vec<ResultRow>, String>>,
    approx: Result<Vec<u64>, String>,
}

struct Probes {
    scenarios: Vec<Valuation<Rat>>,
    grid: ScenarioSet,
}

impl Probes {
    fn new(reg: &VarRegistry) -> Probes {
        let var = |name: &str| reg.lookup(name).expect("every probe variable is interned");
        let rat = |s: &str| Rat::parse(s).unwrap();
        let ones = Valuation::with_default(Rat::ONE);
        let scenarios = vec![
            ones.clone(),
            ones.clone()
                .bind(var("a1"), rat("0.8"))
                .bind(var("b2"), rat("1.5")),
            ones.bind(var("m1"), rat("1.2"))
                .bind(var("c"), rat("0.5"))
                .bind(var("x"), rat("2")),
        ];
        let grid = ScenarioSet::grid()
            .axis([var("a2")], [rat("0.5"), rat("1"), rat("2")])
            .axis([var("m3"), var("y")], [rat("1"), rat("3")])
            .build()
            .unwrap();
        Probes { scenarios, grid }
    }

    fn approx(&self, s: &CobraSession) -> Result<Vec<f64>, CoreError> {
        s.fold::<Approx, _>(
            &self.grid,
            &SweepBudget::unlimited(),
            Vec::new(),
            |mut acc, item| {
                acc.extend(item.full.iter().chain(item.compressed));
                acc
            },
        )
        .map(|(out, _)| out.into_fold())
    }

    /// The observation (read with DAG mode disarmed, which drops nothing)
    /// and, if DAG mode is armed, the DAG engines' `fold::<Approx>` rows.
    fn observe(&self, s: &mut CobraSession) -> (Observation, Option<Result<Vec<f64>, String>>) {
        let dag = s.dag_mode().then(|| self.approx(s).map_err(|e| kind(&e)));
        s.set_dag_mode(false);
        let observation = self.read(s);
        s.set_dag_mode(dag.is_some());
        (observation, dag)
    }

    fn read(&self, s: &CobraSession) -> Observation {
        let frontier = if s.trees().len() == 1 {
            s.frontier()
                .map(|f| f.points().iter().map(|p| p.size).collect())
        } else {
            s.forest_frontier()
                .map(|f| f.points().iter().map(|p| p.size).collect())
        };
        let approx = self
            .approx(s)
            .map(|rows| rows.iter().map(|v| v.to_bits()).collect());
        Observation {
            report: outcome(s.report(None)),
            frontier: frontier.map_err(|e| kind(&e)),
            assign: self
                .scenarios
                .iter()
                .map(|v| s.assign(v).map(|c| c.rows).map_err(|e| kind(&e)))
                .collect(),
            approx: approx.map_err(|e| kind(&e)),
        }
    }
}

fn pick<T: Copy>(rng: &mut SplitMix64, items: &[T]) -> T {
    items[rng.gen_range(items.len() as u64) as usize]
}

/// A positive coefficient (merged coefficients never cancel, so the
/// planner's additive size formula holds).
fn coeff(rng: &mut SplitMix64) -> Rat {
    Rat::new(1 + rng.gen_range(40) as i128, pick(rng, &[1, 2, 5]))
}

/// A random in-setting monomial: at most one leaf of each tree, plus
/// context variables.
fn monomial(rng: &mut SplitMix64, reg: &VarRegistry) -> Monomial {
    let var = |name: &str| reg.lookup(name).unwrap();
    let mut factors: Vec<(Var, u32)> = Vec::new();
    if rng.gen_range(5) > 0 {
        factors.push((var(pick(rng, &LEAVES)), 1 + (rng.gen_range(6) == 0) as u32));
    }
    if rng.gen_range(5) > 0 {
        factors.push((var(pick(rng, &MONTH_VARS)), 1));
    }
    if factors.is_empty() || rng.gen_range(4) == 0 {
        factors.push((var(pick(rng, &CONTEXT)), 1));
    }
    Monomial::from_pairs(factors)
}

fn random_polys(rng: &mut SplitMix64, reg: &VarRegistry) -> PolySet<Rat> {
    let mut set = PolySet::new();
    for p in 0..2 + rng.gen_range(2) {
        let terms: Vec<(Monomial, Rat)> = (0..3 + rng.gen_range(6))
            .map(|_| (monomial(rng, reg), coeff(rng)))
            .collect();
        set.push(format!("P{p}"), Polynomial::from_terms(terms));
    }
    set
}

/// `(poly, monomial)` of a random existing term, if any.
fn existing_term(rng: &mut SplitMix64, set: &PolySet<Rat>) -> Option<(usize, Monomial)> {
    let terms: Vec<(usize, &Monomial)> = set
        .iter()
        .enumerate()
        .flat_map(|(p, (_, poly))| poly.terms().iter().map(move |(m, _)| (p, m)))
        .collect();
    (!terms.is_empty()).then(|| {
        let (p, m) = terms[rng.gen_range(terms.len() as u64) as usize];
        (p, m.clone())
    })
}

fn coeff_delta(rng: &mut SplitMix64, set: &PolySet<Rat>) -> PolyDelta<Rat> {
    let mut delta = PolyDelta::new();
    for _ in 0..1 + rng.gen_range(2) {
        if let Some((p, m)) = existing_term(rng, set) {
            if rng.gen_range(2) == 0 {
                delta.set(p, m, coeff(rng));
            } else {
                delta.add(p, m, coeff(rng));
            }
        }
    }
    delta
}

fn structural_delta(rng: &mut SplitMix64, s: &CobraSession) -> PolyDelta<Rat> {
    let set = s.polynomials();
    let mut delta = PolyDelta::new();
    for _ in 0..1 + rng.gen_range(3) {
        let p = rng.gen_range(set.len() as u64) as usize;
        match rng.gen_range(8) {
            0..=2 => delta.add(p, monomial(rng, s.registry()), coeff(rng)),
            3 => delta.set(p, monomial(rng, s.registry()), coeff(rng)),
            4..=5 => {
                if let Some((p, m)) = existing_term(rng, set) {
                    delta.remove(p, m);
                }
            }
            // deleting every term of a polynomial
            6 => {
                for (m, _) in set.poly(p).unwrap().terms() {
                    delta.remove(p, m.clone());
                }
            }
            // an out-of-range polynomial: rejected atomically
            _ => delta.add(9, monomial(rng, s.registry()), coeff(rng)),
        }
    }
    delta
}

/// A valid edit followed by a term mentioning two leaves of one
/// registered tree — the whole delta must be rejected, changing nothing.
fn spanning_delta(rng: &mut SplitMix64, s: &CobraSession) -> PolyDelta<Rat> {
    let mut delta = coeff_delta(rng, s.polynomials());
    let var = |name: &str| s.registry().lookup(name).unwrap();
    let leaves: &[&str] = if s.trees().len() > 1 && rng.gen_range(2) == 0 {
        &MONTH_VARS
    } else {
        &LEAVES
    };
    let first = rng.gen_range(leaves.len() as u64) as usize;
    let second = (first + 1 + rng.gen_range(leaves.len() as u64 - 1) as usize) % leaves.len();
    let m = Monomial::from_pairs([(var(leaves[first]), 1), (var(leaves[second]), 1)]);
    let p = rng.gen_range(s.polynomials().len() as u64) as usize;
    delta.add(p, m, Rat::int(1000));
    delta
}

fn gen_op(rng: &mut SplitMix64, s: &CobraSession, k: usize) -> Op {
    let total = s.polynomials().total_monomials() as u64;
    match rng.gen_range(100) {
        0..=9 => Op::Plan,
        10..=29 => Op::SelectBound(1 + rng.gen_range(total + 2)),
        30..=39 => Op::SetBoundCompress(1 + rng.gen_range(total + 2)),
        40..=52 => Op::Delta(coeff_delta(rng, s.polynomials())),
        53..=66 => Op::Delta(structural_delta(rng, s)),
        67..=72 => Op::Delta(spanning_delta(rng, s)),
        73..=79 => Op::CompileDag,
        80..=83 => Op::DagOff,
        84..=88 => Op::Intern(format!("user{k}")),
        _ => Op::SnapshotRestore,
    }
}

fn run_case(seed: u64, trees: &[&'static str]) {
    run_history(seed, trees, random_polys, gen_op);
}

/// One seeded history: polynomials from `make_polys`, then [`STEPS`] ops
/// from `next_op`, each checked against a fresh rebuild.
fn run_history(
    seed: u64,
    trees: &[&'static str],
    make_polys: fn(&mut SplitMix64, &VarRegistry) -> PolySet<Rat>,
    next_op: fn(&mut SplitMix64, &CobraSession, usize) -> Op,
) {
    let mut rng = SplitMix64::new(seed);
    let mut reg = VarRegistry::new();
    for name in LEAVES.iter().chain(&MONTH_VARS).chain(&CONTEXT) {
        reg.var(name);
    }
    let polys = make_polys(&mut rng, &reg);
    let probes = Probes::new(&reg);
    let mut model = Model {
        trees: trees.to_vec(),
        planned: false,
        bound: None,
        selection: None,
        dag: false,
    };
    let mut live = CobraSession::new(reg, polys);
    for tree in trees {
        live.add_tree_text(tree).unwrap();
    }
    let mut shadow = model.rebuild(&live);
    let mut log: Vec<String> = Vec::new();
    for k in 0..STEPS {
        let op = next_op(&mut rng, &live, k);
        log.push(format!("{op:?}"));
        let got = step(&mut live, &mut model, &op);
        let want = step(&mut shadow, &mut model.clone(), &op);
        let context = || {
            format!(
                "seed {seed}, trees {trees:?}, ops so far:\n  {}",
                log.join("\n  ")
            )
        };
        assert_eq!(
            got,
            want,
            "op outcome diverges from a fresh session; {}",
            context()
        );
        let mut fresh = model.rebuild(&live);
        let (got, got_dag) = probes.observe(&mut live);
        let (want, want_dag) = probes.observe(&mut fresh);
        assert_eq!(
            got,
            want,
            "state diverges from a fresh rebuild ({model:?}); {}",
            context()
        );
        match (got_dag, want_dag) {
            (Some(Ok(got)), Some(Ok(want))) => {
                for (g, w) in got.iter().zip(&want) {
                    assert!(
                        (g - w).abs() <= 1e-12 * w.abs(),
                        "DAG rows {g} vs {w}; {}",
                        context()
                    );
                }
            }
            (got, want) => assert_eq!(
                got.map(|r| r.map(|_| ())),
                want.map(|r| r.map(|_| ())),
                "DAG mode diverges; {}",
                context()
            ),
        }
        shadow = fresh;
    }
}

#[test]
fn single_tree_sessions_match_fresh_rebuilds_after_every_op() {
    for seed in 0..CASES {
        run_case(0x5e55_0000 + seed, &[TREE]);
    }
}

#[test]
fn forest_sessions_match_fresh_rebuilds_after_every_op() {
    for seed in 0..CASES {
        run_case(0xf0e5_7000 + seed, &[TREE, MONTHS]);
    }
}

/// The leaves under each inner node of [`TREE`].
const UNDER: [&[&str]; 3] = [&["a1", "a2", "a3"], &["b1", "b2"], &LEAVES];

/// A coefficient of either sign.
fn signed_coeff(rng: &mut SplitMix64) -> Rat {
    let c = coeff(rng);
    if rng.gen_range(2) == 0 {
        -c
    } else {
        c
    }
}

/// Polynomials with signed coefficients, half of them seeded with a pair
/// of `A` leaves whose coefficients cancel under any cut above `a1, a2`.
fn signed_polys(rng: &mut SplitMix64, reg: &VarRegistry) -> PolySet<Rat> {
    let var = |name: &str| reg.lookup(name).unwrap();
    let mut set = PolySet::new();
    for p in 0..2 + rng.gen_range(2) {
        let mut terms: Vec<(Monomial, Rat)> = (0..3 + rng.gen_range(6))
            .map(|_| (monomial(rng, reg), signed_coeff(rng)))
            .collect();
        if rng.gen_range(2) == 0 {
            let (context, c) = (var(pick(rng, &CONTEXT)), signed_coeff(rng));
            terms.push((Monomial::from_pairs([(var("a1"), 1), (context, 1)]), c));
            terms.push((Monomial::from_pairs([(var("a2"), 1), (context, 1)]), -c));
        }
        set.push(format!("P{p}"), Polynomial::from_terms(terms));
    }
    set
}

/// A coefficient-only edit of one existing term: mostly the coefficient
/// that drives the sum of its group's members under one inner node to
/// zero, otherwise a fresh signed coefficient — which un-cancels a sum an
/// earlier edit drove to zero.
fn cancelling_delta(rng: &mut SplitMix64, s: &CobraSession) -> PolyDelta<Rat> {
    let (set, reg) = (s.polynomials(), s.registry());
    let mut delta = PolyDelta::new();
    let Some((p, m)) = existing_term(rng, set) else {
        return delta;
    };
    let leaf = LEAVES
        .into_iter()
        .find(|&name| m.contains(reg.lookup(name).unwrap()));
    let mut c = signed_coeff(rng);
    if let Some(leaf) = leaf.filter(|_| rng.gen_range(4) > 0) {
        let nodes: Vec<&[&str]> = UNDER.into_iter().filter(|n| n.contains(&leaf)).collect();
        let node = nodes[rng.gen_range(nodes.len() as u64) as usize];
        let group = m.without(reg.lookup(leaf).unwrap());
        let others: Rat = (set.poly(p).unwrap().terms().iter())
            .filter(|(n, _)| *n != m)
            .filter(|(n, _)| {
                let member = |name: &&str| {
                    let v = reg.lookup(name).unwrap();
                    n.contains(v) && n.without(v) == group
                };
                node.iter().any(member)
            })
            .map(|(_, c)| *c)
            .sum();
        if others != Rat::ZERO {
            c = -others;
        }
    }
    delta.set(p, m, c);
    delta
}

/// Mostly hops between planned frontier points, so stashed points see
/// deltas before they are re-selected.
fn gen_signed_op(rng: &mut SplitMix64, s: &CobraSession, k: usize) -> Op {
    let total = s.polynomials().total_monomials() as u64;
    let sizes: Vec<u64> = s
        .frontier()
        .map_or(Vec::new(), |f| f.points().iter().map(|p| p.size).collect());
    match rng.gen_range(100) {
        0..=7 => Op::Plan,
        8..=29 if !sizes.is_empty() => Op::SelectBound(pick(rng, &sizes)),
        8..=44 => Op::SelectBound(1 + rng.gen_range(total + 2)),
        45..=50 => Op::SetBoundCompress(1 + rng.gen_range(total + 2)),
        51..=88 => Op::Delta(cancelling_delta(rng, s)),
        89..=94 => Op::Delta(structural_delta(rng, s)),
        95..=96 => Op::Intern(format!("user{k}")),
        _ => Op::SnapshotRestore,
    }
}

/// Signed coefficients on one tree: coefficient-only deltas drive merged
/// coefficients to zero and back, so the compressed side is patched in
/// place, spliced where a merged term cancels or returns, and stashed
/// points absorb the deltas when re-selected — every step against a
/// fresh rebuild, and every report structural on both selection paths.
#[test]
fn single_tree_sessions_with_cancelling_coefficients_match_fresh_rebuilds() {
    for seed in 0..CASES {
        run_history(0xca9c_e100 + seed, &[TREE], signed_polys, gen_signed_op);
    }
}

/// Inner-node names of [`TREE`]: a user variable sharing one must never
/// be aliased by that node's meta-variable, before or after a restore.
const NODE_NAMES: [&str; 3] = ["T", "A", "B"];

/// Mostly plans, selects frontier points and sends the session through
/// snapshot → restore, often with a coefficient-only delta straight
/// after.
fn gen_restore_op(rng: &mut SplitMix64, s: &CobraSession, k: usize) -> Op {
    let total = s.polynomials().total_monomials() as u64;
    let sizes: Vec<u64> = s
        .frontier()
        .map_or(Vec::new(), |f| f.points().iter().map(|p| p.size).collect());
    match rng.gen_range(100) {
        0..=9 => Op::Plan,
        10..=29 if !sizes.is_empty() => Op::SelectBound(pick(rng, &sizes)),
        10..=34 => Op::SelectBound(1 + rng.gen_range(total + 2)),
        35..=39 => Op::SetBoundCompress(1 + rng.gen_range(total + 2)),
        40..=54 => Op::Delta(coeff_delta(rng, s.polynomials())),
        55..=61 => Op::Delta(structural_delta(rng, s)),
        62..=65 => Op::CompileDag,
        66..=67 => Op::DagOff,
        68..=71 => Op::Intern(pick(rng, &NODE_NAMES).to_owned()),
        72..=74 => Op::Intern(format!("user{k}")),
        75..=84 => Op::SnapshotRestore,
        _ => Op::RestoreThenDelta(coeff_delta(rng, s.polynomials())),
    }
}

/// One tree, with snapshot → restore as an op in the sequence: a restored
/// session — its selection included — must match a fresh rebuild, and a
/// coefficient-only delta after a restore patches the selection's cells
/// in place instead of dropping them.
#[test]
fn restored_sessions_match_fresh_rebuilds_after_every_op() {
    for seed in 0..CASES {
        run_history(0x4e57_0e00 + seed, &[TREE], random_polys, gen_restore_op);
    }
}
