//! Algebraic compression: rewriting a flat CSR program into a
//! shared-subterm **DAG program**.
//!
//! Cut-based abstraction (the paper's axis) shrinks provenance by merging
//! variables; this module adds the orthogonal *algebraic* axis. A flat
//! [`EvalProgram`] re-multiplies the same subproducts for every monomial
//! of every polynomial — at paper scale the telephony workload evaluates
//! the same `plan × usage` power product once per zip code, 139,260
//! times per scenario. [`rewrite`] factors that redundancy into explicit
//! **slot rows** (see [`EvalProgram`]'s type-level docs) in three passes:
//!
//! 1. **Power-product CSE** — hash-conses every complete power product
//!    that occurs in ≥ 2 terms into a coefficient-1 slot; the terms
//!    collapse to `c · slot`. Keying on the power product alone (never
//!    the coefficient) is what makes this effective across polynomials
//!    that price the same product differently.
//! 2. **Pair mining** — bounded greedy extraction of the most frequent
//!    `(factor, factor)` pair across all rows (slot rows included, so
//!    chains of extractions build deeper shared subproducts), repeated
//!    while any pair is shared by ≥ 2 terms.
//! 3. **Horner restructuring** — per output row, recursively factors the
//!    highest-frequency variable `v` out of the terms containing it:
//!    `P = v^e·Q + R`, lifting `Q` into a sum slot when it keeps ≥ 2
//!    terms.
//!
//! The result is an [`EvalProgram`] whose slot rows are topologically
//! ordered, so every existing kernel evaluates it by computing slots
//! first — batch dispatch, parallel spans, sweep folds and deadline
//! budgets thread through unchanged. Rearrangement is **exact in the
//! ring**: the `Rat` path of a DAG program produces the identical
//! canonical rationals as the flat walk, while the `f64` path carries
//! its own slot-aware Higham certificate
//! ([`EvalProgram::rounding_op_counts`]).

use crate::compile::EvalProgram;
use crate::poly::Coeff;
use std::collections::{BTreeMap, HashMap};

/// Tuning knobs for [`rewrite`]. [`DagOptions::default`] enables every
/// pass at bounds that keep the rewrite near-linear in program size.
#[derive(Clone, Debug)]
pub struct DagOptions {
    /// Pass 1: hash-consed power-product CSE.
    pub product_cse: bool,
    /// Pass 2: greedy shared-pair extraction.
    pub pair_mining: bool,
    /// Pass 3: recursive Horner restructuring per output row.
    pub horner: bool,
    /// Maximum pair-extraction rounds (each round scans every term once
    /// and extracts one pair).
    pub max_pair_rounds: usize,
    /// Maximum Horner recursion depth per output row.
    pub horner_depth: usize,
    /// Minimum number of terms sharing a variable before Horner factors
    /// it out.
    pub min_group: usize,
}

impl Default for DagOptions {
    fn default() -> DagOptions {
        DagOptions {
            product_cse: true,
            pair_mining: true,
            horner: true,
            max_pair_rounds: 32,
            horner_depth: 4,
            min_group: 3,
        }
    }
}

impl DagOptions {
    /// CSE only: passes 2 and 3 disabled — the ablation baseline.
    pub fn cse_only() -> DagOptions {
        DagOptions {
            pair_mining: false,
            horner: false,
            ..DagOptions::default()
        }
    }
}

/// What the rewrite bought, in the units the acceptance gate measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DagStats {
    /// Output rows (identical between flat and DAG program).
    pub num_polys: usize,
    /// Shared-subterm slot rows the rewrite introduced.
    pub num_slots: usize,
    /// Terms of the flat source program.
    pub flat_terms: usize,
    /// Terms of the DAG program, slot rows included.
    pub dag_terms: usize,
    /// Static multiplies one flat scenario evaluation performs.
    pub flat_multiply_ops: u64,
    /// Static multiplies one DAG scenario evaluation performs.
    pub dag_multiply_ops: u64,
}

impl DagStats {
    /// `flat_multiply_ops / dag_multiply_ops` — the op-reduction factor
    /// (> 1.0 whenever the rewrite found shareable structure).
    pub fn op_ratio(&self) -> f64 {
        if self.dag_multiply_ops == 0 {
            1.0
        } else {
            self.flat_multiply_ops as f64 / self.dag_multiply_ops as f64
        }
    }
}

/// A rewritten program plus its [`DagStats`].
#[derive(Clone, Debug)]
pub struct DagBuild<C: Coeff> {
    /// The slot program (`num_slots() == 0` only if nothing was
    /// shareable — the program is still a valid, equivalent rebuild).
    pub program: EvalProgram<C>,
    /// Size/op accounting of the rewrite.
    pub stats: DagStats,
}

/// One term during rewriting: factors are `(extended var id, exponent)`
/// pairs, sorted ascending by var, over the space `0..num_locals`
/// (scenario variables) ∪ `num_locals..` (slots, in creation order —
/// renumbered topologically at emission).
#[derive(Clone, Debug)]
struct Term<C> {
    coeff: C,
    factors: Vec<(u32, u32)>,
}

/// Rewrites a **flat** program into a shared-subterm DAG program.
///
/// The output program has the same labels, locals and binding surface
/// (`num_polys`, `num_locals`) as the input — scenario rows bound against
/// one evaluate against the other unchanged.
///
/// # Panics
/// Panics if `prog` already has slots (`num_slots() > 0`).
pub fn rewrite<C: Coeff>(prog: &EvalProgram<C>, opts: &DagOptions) -> DagBuild<C> {
    assert_eq!(prog.num_slots(), 0, "rewrite expects a flat program");
    let np = prog.num_polys();
    let nl = prog.num_locals() as u32;

    // Lower the CSR rows into mutable term lists.
    let mut outputs: Vec<Vec<Term<C>>> = Vec::with_capacity(np);
    for p in 0..np {
        let terms = prog.poly_offsets[p] as usize..prog.poly_offsets[p + 1] as usize;
        outputs.push(
            terms
                .map(|t| {
                    let factors =
                        prog.term_offsets[t] as usize..prog.term_offsets[t + 1] as usize;
                    Term {
                        coeff: prog.coeffs[t].clone(),
                        factors: factors.map(|f| (prog.var_ids[f], prog.exps[f])).collect(),
                    }
                })
                .collect(),
        );
    }
    let mut slots: Vec<Vec<Term<C>>> = Vec::new();

    if opts.product_cse {
        product_cse(&mut outputs, &mut slots, nl);
    }
    if opts.pair_mining {
        pair_mining(&mut outputs, &mut slots, nl, opts.max_pair_rounds);
    }
    if opts.horner {
        for row in &mut outputs {
            let terms = std::mem::take(row);
            *row = horner(terms, &mut slots, nl, opts.horner_depth, opts.min_group);
        }
    }

    let (flat_terms, flat_multiply_ops) = (prog.num_terms(), prog.multiply_ops());
    let program = emit(prog, outputs, slots, nl);
    let stats = DagStats {
        num_polys: np,
        num_slots: program.num_slots(),
        flat_terms,
        dag_terms: program.num_terms(),
        flat_multiply_ops,
        dag_multiply_ops: program.multiply_ops(),
    };
    DagBuild { program, stats }
}

/// Pass 1: hash-cons complete power products shared by ≥ 2 terms. A
/// product qualifies when evaluating it costs ≥ 2 multiplies (two or
/// more factors, or one factor with exponent > 1) — a lone `v¹` is
/// already a single lane read.
fn product_cse<C: Coeff>(outputs: &mut [Vec<Term<C>>], slots: &mut Vec<Vec<Term<C>>>, nl: u32) {
    fn qualifies(factors: &[(u32, u32)]) -> bool {
        factors.len() >= 2 || (factors.len() == 1 && factors[0].1 > 1)
    }
    let mut counts: HashMap<Vec<(u32, u32)>, u32> = HashMap::new();
    for terms in outputs.iter() {
        for term in terms {
            if qualifies(&term.factors) {
                *counts.entry(term.factors.clone()).or_insert(0) += 1;
            }
        }
    }
    // Allocate slots in first-encounter order (deterministic), then
    // rewrite every qualifying term to `c · slot`.
    let mut slot_of: HashMap<Vec<(u32, u32)>, u32> = HashMap::new();
    for terms in outputs.iter_mut() {
        for term in terms.iter_mut() {
            if counts.get(&term.factors).copied().unwrap_or(0) < 2 {
                continue;
            }
            let product = std::mem::take(&mut term.factors);
            let slot = *slot_of.entry(product).or_insert_with_key(|product| {
                slots.push(vec![Term {
                    coeff: C::one(),
                    factors: product.clone(),
                }]);
                nl + (slots.len() - 1) as u32
            });
            term.factors = vec![(slot, 1)];
        }
    }
}

/// Pass 2: bounded greedy pair extraction across all rows (slot rows
/// included, so chains of shared pairs compose). Each round counts every
/// unordered factor pair, extracts the most frequent one into a new slot
/// when it is shared by ≥ 2 terms, and substitutes it everywhere except
/// the new slot's own defining row.
///
/// The dependency graph stays acyclic: substituting the new slot `M`
/// into a row `X` adds the edge `X → M`, and `M`'s only out-edges go to
/// factors `X` already referenced directly — a path back from those to
/// `X` would have been a pre-existing cycle.
fn pair_mining<C: Coeff>(
    outputs: &mut [Vec<Term<C>>],
    slots: &mut Vec<Vec<Term<C>>>,
    nl: u32,
    max_rounds: usize,
) {
    /// An ordered pair of `(var, exp)` factors as they appear in a term.
    type FactorPair = ((u32, u32), (u32, u32));
    for _ in 0..max_rounds {
        // BTreeMap iteration order makes the argmax deterministic (the
        // first — smallest — pair wins ties).
        let mut counts: BTreeMap<FactorPair, u32> = BTreeMap::new();
        for terms in outputs.iter().chain(slots.iter()) {
            for term in terms {
                for i in 0..term.factors.len() {
                    for j in i + 1..term.factors.len() {
                        *counts
                            .entry((term.factors[i], term.factors[j]))
                            .or_insert(0) += 1;
                    }
                }
            }
        }
        let Some((&pair, &count)) = counts.iter().max_by_key(|&(_, &c)| c) else {
            break;
        };
        if count < 2 {
            break;
        }
        let slot = nl + slots.len() as u32;
        slots.push(vec![Term {
            coeff: C::one(),
            factors: vec![pair.0, pair.1],
        }]);
        // Skip the defining row just pushed — substituting there would
        // make the definition self-referential.
        let skip = outputs.len() + slots.len() - 1;
        for (row, terms) in outputs.iter_mut().chain(slots.iter_mut()).enumerate() {
            if row == skip {
                continue;
            }
            for term in terms.iter_mut() {
                substitute_pair(term, pair, slot);
            }
        }
    }
}

/// Replaces the occurrence of `pair` in `term` (both exact
/// `(var, exponent)` factors present) with `(slot, 1)`, keeping the
/// factor list sorted by var.
fn substitute_pair<C>(term: &mut Term<C>, pair: ((u32, u32), (u32, u32)), slot: u32) {
    let (a, b) = pair;
    let Some(ia) = term.factors.iter().position(|&f| f == a) else {
        return;
    };
    let Some(ib) = term.factors.iter().position(|&f| f == b) else {
        return;
    };
    debug_assert_ne!(ia, ib);
    let (first, second) = if ia < ib { (ia, ib) } else { (ib, ia) };
    term.factors.remove(second);
    term.factors.remove(first);
    let at = term.factors.partition_point(|&(v, _)| v < slot);
    term.factors.insert(at, (slot, 1));
}

/// Pass 3: recursive Horner restructuring of one term list. Factors the
/// most frequent variable out of the terms containing it (`P = v^e·Q +
/// R`) and lifts the quotient `Q` into a sum slot when it keeps ≥ 2
/// terms; `Q` and `R` recurse.
fn horner<C: Coeff>(
    terms: Vec<Term<C>>,
    slots: &mut Vec<Vec<Term<C>>>,
    nl: u32,
    depth: usize,
    min_group: usize,
) -> Vec<Term<C>> {
    if depth == 0 || terms.len() < min_group.max(2) {
        return terms;
    }
    let mut freq: BTreeMap<u32, usize> = BTreeMap::new();
    for term in &terms {
        for &(v, _) in &term.factors {
            *freq.entry(v).or_insert(0) += 1;
        }
    }
    let Some((&v, &count)) = freq.iter().max_by_key(|&(_, &c)| c) else {
        return terms;
    };
    if count < min_group {
        return terms;
    }
    let (group, rest): (Vec<Term<C>>, Vec<Term<C>>) = terms
        .into_iter()
        .partition(|t| t.factors.iter().any(|&(var, _)| var == v));
    let emin = group
        .iter()
        .map(|t| t.factors.iter().find(|&&(var, _)| var == v).unwrap().1)
        .min()
        .expect("group is non-empty by construction");
    let quotient: Vec<Term<C>> = group
        .into_iter()
        .map(|mut t| {
            let i = t.factors.iter().position(|&(var, _)| var == v).unwrap();
            if t.factors[i].1 == emin {
                t.factors.remove(i);
            } else {
                t.factors[i].1 -= emin;
            }
            t
        })
        .collect();
    let quotient = horner(quotient, slots, nl, depth - 1, min_group);
    let mut out = Vec::with_capacity(rest.len() + 1);
    if quotient.len() == 1 {
        // A single-term quotient needs no slot: fold `v^emin` back in.
        let mut t = quotient.into_iter().next().expect("len checked");
        merge_factor(&mut t, v, emin);
        out.push(t);
    } else {
        let slot = nl + slots.len() as u32;
        slots.push(quotient);
        let mut t = Term {
            coeff: C::one(),
            factors: vec![(v, emin)],
        };
        merge_factor(&mut t, slot, 1);
        out.push(t);
    }
    out.extend(horner(rest, slots, nl, depth - 1, min_group));
    out
}

/// Multiplies `v^e` into a term's factor list, merging exponents.
fn merge_factor<C>(term: &mut Term<C>, v: u32, e: u32) {
    match term.factors.binary_search_by_key(&v, |&(var, _)| var) {
        Ok(i) => term.factors[i].1 += e,
        Err(i) => term.factors.insert(i, (v, e)),
    }
}

/// Emits the rewritten rows as a CSR program: output rows first, then the
/// slot rows **renumbered into topological (dependencies-first) order** —
/// pair mining substitutes new slots into older slot rows, so creation
/// order alone does not satisfy the kernels' ordering contract.
fn emit<C: Coeff>(
    prog: &EvalProgram<C>,
    outputs: Vec<Vec<Term<C>>>,
    slots: Vec<Vec<Term<C>>>,
    nl: u32,
) -> EvalProgram<C> {
    let ns = slots.len();
    let deps: Vec<Vec<usize>> = slots
        .iter()
        .map(|terms| {
            terms
                .iter()
                .flat_map(|t| t.factors.iter())
                .filter(|&&(v, _)| v >= nl)
                .map(|&(v, _)| (v - nl) as usize)
                .collect()
        })
        .collect();
    // Iterative DFS post-order = topological order (the graph is acyclic
    // by construction; see `pair_mining`).
    let mut order: Vec<usize> = Vec::with_capacity(ns);
    let mut state = vec![0u8; ns]; // 0 unvisited / 1 on stack / 2 done
    for root in 0..ns {
        if state[root] != 0 {
            continue;
        }
        let mut stack = vec![(root, 0usize)];
        state[root] = 1;
        while let Some(&(s, next)) = stack.last() {
            if next < deps[s].len() {
                stack.last_mut().expect("non-empty").1 += 1;
                let d = deps[s][next];
                if state[d] == 0 {
                    state[d] = 1;
                    stack.push((d, 0));
                }
            } else {
                state[s] = 2;
                order.push(s);
                stack.pop();
            }
        }
    }
    debug_assert_eq!(order.len(), ns);
    let mut new_index = vec![0u32; ns];
    for (new, &old) in order.iter().enumerate() {
        new_index[old] = new as u32;
    }
    let remap = |v: u32| -> u32 {
        if v >= nl {
            nl + new_index[(v - nl) as usize]
        } else {
            v
        }
    };

    let np = outputs.len();
    let mut poly_offsets = Vec::with_capacity(np + ns + 1);
    let mut coeffs = Vec::new();
    let mut term_offsets = vec![0u32];
    let mut var_ids = Vec::new();
    let mut exps = Vec::new();
    poly_offsets.push(0);
    for terms in outputs.iter().chain(order.iter().map(|&s| &slots[s])) {
        for term in terms {
            coeffs.push(term.coeff.clone());
            let mut factors: Vec<(u32, u32)> =
                term.factors.iter().map(|&(v, e)| (remap(v), e)).collect();
            factors.sort_unstable();
            for (v, e) in factors {
                var_ids.push(v);
                exps.push(e);
            }
            term_offsets
                .push(u32::try_from(var_ids.len()).expect("DAG program exceeds u32 factors"));
        }
        poly_offsets.push(u32::try_from(coeffs.len()).expect("DAG program exceeds u32 terms"));
    }

    prog.with_rows(poly_offsets, coeffs, term_offsets, var_ids, exps, ns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monomial::Monomial;
    use crate::poly::Polynomial;
    use crate::polyset::PolySet;
    use crate::var::VarRegistry;
    use cobra_util::Rat;

    fn rat(s: &str) -> Rat {
        Rat::parse(s).unwrap()
    }

    /// Three polynomials sharing the `x·y` and `x·y·z` products with
    /// different coefficients — the telephony shape in miniature.
    fn shared_products() -> (VarRegistry, PolySet<Rat>) {
        let mut reg = VarRegistry::new();
        let x = reg.var("x");
        let y = reg.var("y");
        let z = reg.var("z");
        let w = reg.var("w");
        let mut set = PolySet::new();
        set.push(
            "A",
            Polynomial::from_terms([
                (Monomial::from_pairs([(x, 1), (y, 1)]), rat("3")),
                (Monomial::from_pairs([(x, 1), (y, 1), (z, 1)]), rat("5")),
                (Monomial::var(w), rat("1")),
            ]),
        );
        set.push(
            "B",
            Polynomial::from_terms([
                (Monomial::from_pairs([(x, 1), (y, 1)]), rat("-2")),
                (Monomial::from_pairs([(x, 1), (y, 1), (z, 1)]), rat("7")),
            ]),
        );
        set.push(
            "C",
            Polynomial::from_terms([
                (Monomial::from_pairs([(x, 1), (y, 1)]), rat("11")),
                (Monomial::from_pairs([(z, 2)]), rat("4")),
                (Monomial::one(), rat("-6")),
            ]),
        );
        (reg, set)
    }

    #[test]
    fn cse_shares_products_and_stays_exact() {
        let (mut reg, set) = shared_products();
        let flat = EvalProgram::compile(&set);
        let built = rewrite(&flat, &DagOptions::cse_only());
        let dag = &built.program;
        // x·y (3 uses) and x·y·z (2 uses) become slots; z² stays inline.
        assert!(dag.num_slots() >= 2, "slots: {}", dag.num_slots());
        assert_eq!(dag.num_polys(), flat.num_polys());
        assert_eq!(dag.num_locals(), flat.num_locals());
        assert_eq!(dag.labels(), flat.labels());
        assert!(built.stats.dag_multiply_ops < built.stats.flat_multiply_ops);
        assert!(built.stats.op_ratio() > 1.0);

        let x = reg.var("x");
        for i in 0..7 {
            let val = crate::Valuation::with_default(Rat::int(2))
                .bind(x, Rat::parse(&format!("{i}.5")).unwrap());
            let row = flat.bind(&val).unwrap();
            assert_eq!(dag.bind(&val).unwrap(), row, "identical binding surface");
            assert_eq!(dag.eval_scenario(&row), flat.eval_scenario(&row));
        }
    }

    #[test]
    fn full_rewrite_is_exact_on_dense_polynomials() {
        // Dense-ish polynomials with exponents: exercises pair mining and
        // Horner together with CSE, checked exactly against the flat walk.
        let mut reg = VarRegistry::new();
        let vars: Vec<_> = (0..5).map(|i| reg.var(&format!("v{i}"))).collect();
        let mut set = PolySet::new();
        for p in 0..6u32 {
            let terms: Vec<_> = (0..12u32)
                .map(|t| {
                    let m = Monomial::from_pairs((0..5usize).filter_map(|i| {
                        let e = (t + p * 3 + i as u32) % 4;
                        (e > 0).then_some((vars[i], e))
                    }));
                    (m, Rat::int(i64::from(t % 5) - 2))
                })
                .collect();
            set.push(format!("P{p}"), Polynomial::from_terms(terms));
        }
        let flat = EvalProgram::compile(&set);
        let built = rewrite(&flat, &DagOptions::default());
        let dag = &built.program;
        assert_eq!(dag.num_polys(), flat.num_polys());
        for i in 0..9i64 {
            let val = crate::Valuation::with_default(Rat::int(1)).bind(vars[0], Rat::int(i - 4));
            let row = flat.bind(&val).unwrap();
            assert_eq!(
                dag.eval_scenario(&row),
                flat.eval_scenario(&row),
                "scenario {i}"
            );
        }
    }

    #[test]
    fn rewrite_without_sharing_changes_nothing_observable() {
        // All-distinct monomials: no pass finds anything, the rebuild is
        // still equivalent (and slot-free).
        let mut reg = VarRegistry::new();
        let x = reg.var("x");
        let y = reg.var("y");
        let mut set = PolySet::new();
        set.push(
            "P",
            Polynomial::from_terms([
                (Monomial::var(x), rat("2")),
                (Monomial::var(y), rat("3")),
            ]),
        );
        let flat = EvalProgram::compile(&set);
        let built = rewrite(&flat, &DagOptions::default());
        assert_eq!(built.program.num_slots(), 0);
        assert_eq!(built.stats.flat_multiply_ops, built.stats.dag_multiply_ops);
        let val = crate::Valuation::with_default(rat("-1.5"));
        let row = flat.bind(&val).unwrap();
        assert_eq!(built.program.eval_scenario(&row), flat.eval_scenario(&row));
    }

    #[test]
    fn dag_f64_lane_kernels_match_generic_walk() {
        use crate::compile::BatchEvaluator;
        let (_, set) = shared_products();
        let flat = EvalProgram::compile(&set);
        let built = rewrite(&flat, &DagOptions::default());
        let dag64 = built.program.to_f64_program();
        let rows: Vec<Vec<f64>> = (0..19)
            .map(|i| {
                (0..dag64.num_locals())
                    .map(|v| 0.3 + (i * 7 + v) as f64 * 0.21)
                    .collect()
            })
            .collect();
        // Generic slot-aware walk vs the blocked lane kernels.
        let eval = BatchEvaluator::new(dag64.clone());
        let lane = eval.eval_batch_fast(&rows);
        for (s, row) in rows.iter().enumerate() {
            assert_eq!(lane.row(s), dag64.eval_scenario(row), "scenario {s}");
        }
    }

    #[test]
    fn slot_rows_are_topologically_ordered() {
        let (_, set) = shared_products();
        let flat = EvalProgram::compile(&set);
        let dag = rewrite(&flat, &DagOptions::default()).program;
        let np = dag.num_polys();
        let nl = dag.num_locals() as u32;
        for s in 0..dag.num_slots() {
            let row = np + s;
            let terms = dag.poly_offsets[row] as usize..dag.poly_offsets[row + 1] as usize;
            for t in terms {
                let factors = dag.term_offsets[t] as usize..dag.term_offsets[t + 1] as usize;
                for f in factors {
                    assert!(
                        dag.var_ids[f] < nl + s as u32,
                        "slot {s} references a not-yet-computed value"
                    );
                }
            }
        }
    }
}
