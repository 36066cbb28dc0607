//! Session persistence: snapshot a planned [`CobraSession`] into one
//! [`cobra_provenance::persist`] artifact and re-hydrate it — zero-copy —
//! into a session that answers **bit-identically**.
//!
//! A snapshot captures everything a single-tree session derived that is
//! expensive or impossible to recompute cheaply:
//!
//! * the variable registry (names in registration order, so re-registering
//!   reproduces identical [`Var`] ids),
//! * the abstraction-tree source text,
//! * the base valuation,
//! * the planned Pareto frontier (per-point cut node ids) together with
//!   the per-node group weights and invariant-variable count that bound
//!   re-selection needs,
//! * the compiled full-side programs (exact and `f64`), and
//! * any warm compressed-side engines accumulated by bound hopping.
//!
//! The input polynomials are **not** persisted: a restored session carries
//! the full compiled program and decompiles it lazily on the rare path
//! that needs polynomial form (a cold frontier selection's group
//! analysis). Restoring from a [`LoadedArtifact`] aliases the mapped file
//! for every CSR array — the cold-start cost is one `mmap` plus header
//! validation, not a recompilation (the benchmark's `reload_p25_ms`
//! against `prepare_p25_ms` is the gap).
//!
//! ```
//! use cobra_core::{restore_session_from_bytes, snapshot_session, CobraSession};
//!
//! let mut session = CobraSession::from_text(
//!     "P1 = 208.8*p1*m1 + 240*p1*m3 + 42*v*m1 + 24.2*v*m3",
//! ).unwrap();
//! session.add_tree_text("Plans(Standard(p1,p2), v)").unwrap();
//! session.compress_frontier().unwrap();
//! let bytes = snapshot_session(&session).unwrap();
//! let mut restored = restore_session_from_bytes(&bytes).unwrap();
//! let report = restored.select_bound(2).unwrap();
//! assert_eq!(report.compressed_size, session.select_bound(2).unwrap().compressed_size);
//! ```

use crate::cut::Cut;
use crate::error::{CoreError, Result};
use crate::planner::{CutFrontier, FrontierPoint};
use crate::session::{CobraSession, Plan, PlanKind, TreePlan, WarmPoint};
use crate::tree::AbstractionTree;
use cobra_provenance::persist::{self, tags};
use cobra_provenance::{
    ArtifactReader, ArtifactWriter, BatchEvaluator, LoadedArtifact, PolySet, Valuation, Var,
    VarRegistry,
};
use cobra_util::{AlignedBytes, FxHashMap, Rat};
use std::any::Any;
use std::cell::OnceCell;
use std::sync::Arc;

fn persist_err(e: impl std::fmt::Display) -> CoreError {
    CoreError::Session(format!("session artifact: {e}"))
}

/// Serializes a planned single-tree session into one persistence artifact
/// (see the module docs for what is captured). The session's full-side
/// engines are compiled first if they have not been already — a snapshot
/// is self-contained by construction.
///
/// # Errors
/// `Session` unless the session has exactly one tree, registered via
/// [`CobraSession::add_tree_text`] (the source text is what round-trips),
/// and a planned frontier
/// ([`CobraSession::compress_frontier`]). Forest staircases
/// ([`CobraSession::compress_forest_frontier`]) are in-memory only.
pub fn snapshot_session(session: &CobraSession) -> Result<Vec<u8>> {
    let plan = session.plan.as_ref();
    if plan.is_some_and(|p| p.tree().is_none()) {
        return Err(CoreError::Session(
            "forest sessions cannot be persisted (descent staircases are in-memory only)".into(),
        ));
    }
    if session.trees.len() != 1 {
        return Err(CoreError::Session(format!(
            "snapshot requires exactly one abstraction tree, got {}",
            session.trees.len()
        )));
    }
    let tree_text = session.tree_texts[0].as_deref().ok_or_else(|| {
        CoreError::Session(
            "snapshot requires the tree's source text; register it via add_tree_text".into(),
        )
    })?;
    let state = plan.and_then(Plan::tree).ok_or_else(|| {
        CoreError::Session("snapshot requires a planned frontier; call compress_frontier".into())
    })?;

    // Self-contained snapshots: force the session-invariant engines.
    let full_rat = session.full_engine_in(false);
    let full_f64 = session.full_f64_in(false);

    // Deterministic warm-engine order (the map iterates arbitrarily),
    // each entry with the deltas it has not absorbed yet patched in.
    let mut warm: Vec<(usize, WarmPoint)> = (state.warm.keys())
        .map(|&i| (i, session.warm_point(i).expect("a listed stash entry")))
        .collect();
    warm.sort_unstable_by_key(|&(i, _)| i);

    let mut w = ArtifactWriter::new();
    w.begin_section(tags::SESSION);

    // Registry: names in registration order re-register to identical ids.
    w.put_u32(session.reg.len() as u32);
    for (_, name) in session.reg.iter() {
        w.put_str(name);
    }

    w.put_str(tree_text);

    // Base valuation: optional default, then explicit bindings sorted by
    // variable id (the map iterates arbitrarily).
    match session.base_valuation.default_value() {
        Some(d) => {
            w.put_u32(1);
            w.put_i128(d.numer());
            w.put_i128(d.denom());
        }
        None => w.put_u32(0),
    }
    let mut bindings: Vec<(Var, Rat)> = session
        .base_valuation
        .iter()
        .map(|(v, r)| (v, *r))
        .collect();
    bindings.sort_unstable_by_key(|&(v, _)| v);
    w.put_u32(bindings.len() as u32);
    for (v, r) in bindings {
        w.put_u32(v.0);
        w.put_i128(r.numer());
        w.put_i128(r.denom());
    }

    // Plan-derived scalars the re-selection path needs without a group
    // analysis.
    w.put_u32(state.node_weight.len() as u32);
    for &weight in &state.node_weight {
        w.put_u64(weight);
    }
    w.put_u32(state.invariant_vars as u32);

    // The Pareto frontier: each point's achieved variables/size plus the
    // cut's node ids (cuts revalidate against the re-parsed tree).
    w.put_u32(state.frontier.len() as u32);
    for point in state.frontier.points() {
        w.put_u64(point.variables as u64);
        w.put_u64(point.size);
        let nodes: Vec<u32> = point.cut.nodes().iter().map(|n| n.0).collect();
        w.put_u32_slice(&nodes);
    }

    // Warm engine directory: frontier index + whether an f64 shadow rides
    // along; the programs themselves go in per-engine sections.
    w.put_u32(warm.len() as u32);
    for (idx, point) in &warm {
        w.put_u32(*idx as u32);
        w.put_u32(u32::from(point.f64.is_some()));
    }

    // v2: whether algebraic (DAG) compression was armed. The DAG programs
    // themselves are cheap deterministic rewrites of the flat programs, so
    // only the flag persists — restore re-derives them lazily.
    w.put_u32(u32::from(session.dag_mode));

    persist::write_program(&mut w, tags::PROGRAM_RAT, full_rat.program());
    persist::write_program(&mut w, tags::PROGRAM_F64, full_f64.program());
    for (k, (_, point)) in warm.iter().enumerate() {
        let base = tags::WARM_BASE + 2 * k as u32;
        persist::write_program(&mut w, base, point.compressed.program());
        if let Some(shadow) = &point.f64 {
            persist::write_program(&mut w, base + 1, shadow.program());
        }
    }
    Ok(w.finish())
}

/// Re-hydrates a session from a mapped artifact, aliasing the map for
/// every compiled program (no CSR array is re-allocated; the
/// [`LoadedArtifact`] stays alive as long as any engine does).
///
/// # Errors
/// `Session` if the artifact fails validation or its contents are
/// internally inconsistent.
pub fn restore_session(artifact: &LoadedArtifact) -> Result<CobraSession> {
    let reader = artifact.reader().map_err(persist_err)?;
    restore_from_reader(&reader, artifact.owner())
}

/// Re-hydrates a session from in-memory artifact bytes (copied once into
/// an aligned buffer the restored engines then alias).
///
/// # Errors
/// `Session` if the artifact fails validation or its contents are
/// internally inconsistent.
pub fn restore_session_from_bytes(bytes: &[u8]) -> Result<CobraSession> {
    let buf = Arc::new(AlignedBytes::copy_from(bytes));
    let reader = ArtifactReader::parse(buf.bytes()).map_err(persist_err)?;
    restore_from_reader(&reader, buf.clone())
}

fn restore_from_reader(
    reader: &ArtifactReader<'_>,
    owner: Arc<dyn Any + Send + Sync>,
) -> Result<CobraSession> {
    let mut s = reader.section(tags::SESSION).map_err(persist_err)?;

    // Registry: re-registering the persisted names in order reproduces
    // the exact Var ids every persisted structure refers to.
    let mut reg = VarRegistry::new();
    let num_vars = s.get_u32().map_err(persist_err)?;
    for _ in 0..num_vars {
        reg.var(s.get_str().map_err(persist_err)?);
    }
    if reg.len() != num_vars as usize {
        return Err(persist_err("duplicate registry names"));
    }

    let tree_text = s.get_str().map_err(persist_err)?.to_owned();
    let tree = AbstractionTree::parse(&tree_text, &mut reg)?;

    let mut base_valuation = match s.get_u32().map_err(persist_err)? {
        0 => Valuation::new(),
        _ => {
            let num = s.get_i128().map_err(persist_err)?;
            let den = s.get_i128().map_err(persist_err)?;
            Valuation::with_default(Rat::new(num, den))
        }
    };
    let num_bindings = s.get_u32().map_err(persist_err)?;
    for _ in 0..num_bindings {
        let var = Var(s.get_u32().map_err(persist_err)?);
        if var.index() >= reg.len() {
            return Err(persist_err("valuation binds an unregistered variable"));
        }
        let num = s.get_i128().map_err(persist_err)?;
        let den = s.get_i128().map_err(persist_err)?;
        base_valuation.set(var, Rat::new(num, den));
    }

    let num_weights = s.get_u32().map_err(persist_err)?;
    let mut node_weight = Vec::with_capacity(num_weights as usize);
    for _ in 0..num_weights {
        node_weight.push(s.get_u64().map_err(persist_err)?);
    }
    let invariant_vars = s.get_u32().map_err(persist_err)? as usize;

    let num_points = s.get_u32().map_err(persist_err)?;
    let mut points = Vec::with_capacity(num_points as usize);
    for _ in 0..num_points {
        let variables = s.get_u64().map_err(persist_err)? as usize;
        let size = s.get_u64().map_err(persist_err)?;
        let nodes: Vec<crate::tree::NodeId> = s
            .get_u32_slice()
            .map_err(persist_err)?
            .iter()
            .map(|&n| crate::tree::NodeId(n))
            .collect();
        let cut = Cut::new(&tree, nodes)?;
        points.push(FrontierPoint {
            variables,
            size,
            cut,
        });
    }
    let frontier = CutFrontier::from_points(points);
    if frontier.len() != num_points as usize {
        return Err(persist_err("frontier points are not a Pareto staircase"));
    }

    let num_warm = s.get_u32().map_err(persist_err)?;
    let mut warm_dir = Vec::with_capacity(num_warm as usize);
    for _ in 0..num_warm {
        let idx = s.get_u32().map_err(persist_err)? as usize;
        let has_f64 = s.get_u32().map_err(persist_err)? != 0;
        if idx >= frontier.len() {
            return Err(persist_err(
                "warm engine for an out-of-range frontier index",
            ));
        }
        warm_dir.push((idx, has_f64));
    }

    // v1 artifacts predate algebraic compression: their SESSION section
    // ends at the warm directory, so the flag is read only from v2 on.
    let dag_mode = if reader.version() >= 2 {
        s.get_u32().map_err(persist_err)? != 0
    } else {
        false
    };

    let load = |tag: u32| -> Result<BatchEvaluator<Rat>> {
        let prog = persist::read_program_ref::<Rat>(reader, tag).map_err(persist_err)?;
        Ok(BatchEvaluator::new(prog.to_program(owner.clone())))
    };
    let load_f64 = |tag: u32| -> Result<BatchEvaluator<f64>> {
        let prog = persist::read_program_ref::<f64>(reader, tag).map_err(persist_err)?;
        Ok(BatchEvaluator::new(prog.to_program(owner.clone())))
    };

    let full = persist::read_program_ref::<Rat>(reader, tags::PROGRAM_RAT).map_err(persist_err)?;
    // The variables the terms mention: a delta-patched program keeps the
    // locals whose last term was deleted, so its variable table can
    // overcount the provenance's distinct variables.
    let mut mentioned = vec![false; full.locals.len() + full.num_slots];
    for &v in full.var_ids {
        mentioned[v as usize] = true;
    }
    let original_vars = mentioned[..full.locals.len()]
        .iter()
        .filter(|&&m| m)
        .count();
    let full_rat_engine = BatchEvaluator::new(full.to_program(owner.clone()));
    let full_f64_engine = load_f64(tags::PROGRAM_F64)?;
    if node_weight.len() != tree.num_nodes() {
        return Err(persist_err("node weights do not match the tree"));
    }

    let mut warm: FxHashMap<usize, WarmPoint> = FxHashMap::default();
    for (k, &(idx, has_f64)) in warm_dir.iter().enumerate() {
        let base = tags::WARM_BASE + 2 * k as u32;
        let point = WarmPoint {
            compressed: load(base)?,
            f64: if has_f64 { Some(load_f64(base + 1)?) } else { None },
            stale: Vec::new(),
        };
        warm.insert(idx, point);
    }

    // Derivable from the persisted full program — never stored.
    let plan = TreePlan {
        // Re-analyzed only if a cold selection materializes polynomials.
        analysis: OnceCell::new(),
        node_weight,
        frontier,
        reserved: full_rat_engine.program().vars().iter().copied().collect(),
        invariant_vars,
        // DP tables are not persisted: the first structural delta on a
        // re-hydrated session replans from scratch (and snapshots).
        plan_snapshot: None,
        reg_len_at_plan: reg.len(),
        subs: FxHashMap::default(),
        warm,
    };
    let original_size = full_rat_engine.program().num_terms() as u64;
    let mut session = CobraSession::new(reg, PolySet::new());
    // No polynomials: decompiled from the full engine on first need.
    session.polys = OnceCell::new();
    session.base_valuation = base_valuation;
    session.trees.push(tree);
    session.tree_texts.push(Some(tree_text));
    session.full.flat.rat = full_rat_engine.into();
    session.full.flat.f64 = full_f64_engine.into();
    session.plan = Some(Plan {
        original_vars,
        original_size,
        selected: None,
        kind: PlanKind::Tree(Box::new(plan)),
    });
    session.dag_mode = dag_mode;
    Ok(session)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario_set::ScenarioSet;

    const POLYS: &str = "\
P1 = 208.8*p1*m1 + 240*p1*m3 + 42*v*m1 + 24.2*v*m3
P2 = 100*p2*m1 + 70.4*p2*m3 + 42*v*m1 + 24.2*v*m3";
    const TREE: &str = "Plans(Standard(p1,p2), v)";

    fn planned_session() -> CobraSession {
        let mut s = CobraSession::from_text(POLYS).unwrap();
        s.add_tree_text(TREE).unwrap();
        s.compress_frontier().unwrap();
        s
    }

    fn sweep_totals(s: &CobraSession) -> Vec<Vec<(Rat, Rat)>> {
        let mut vars: Vec<Var> = s.polynomials().distinct_vars().into_iter().collect();
        vars.sort_unstable();
        let set = ScenarioSet::perturb_each(vars, Rat::int(3));
        let sweep = s.sweep(set).unwrap();
        (0..sweep.len())
            .map(|i| {
                sweep
                    .full_row(i)
                    .iter()
                    .zip(sweep.compressed_row(i))
                    .map(|(f, c)| (*f, *c))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn snapshot_requires_planning_and_tree_text() {
        let mut s = CobraSession::from_text(POLYS).unwrap();
        assert!(snapshot_session(&s).is_err());
        s.add_tree_text(TREE).unwrap();
        assert!(snapshot_session(&s).is_err(), "no frontier planned yet");
        s.compress_frontier().unwrap();
        assert!(snapshot_session(&s).is_ok());
    }

    #[test]
    fn restored_session_reports_bit_identically() {
        let mut fresh = planned_session();
        let bytes = snapshot_session(&fresh).unwrap();
        let mut restored = restore_session_from_bytes(&bytes).unwrap();

        // Identical registries, in order.
        let fresh_names: Vec<String> =
            fresh.registry().iter().map(|(_, n)| n.to_owned()).collect();
        let restored_names: Vec<String> = restored
            .registry()
            .iter()
            .map(|(_, n)| n.to_owned())
            .collect();
        assert_eq!(fresh_names, restored_names);

        // Identical frontier and identical reports across every bound.
        assert_eq!(
            fresh.frontier().unwrap().len(),
            restored.frontier().unwrap().len()
        );
        let sizes: Vec<u64> = fresh
            .frontier()
            .unwrap()
            .points()
            .iter()
            .map(|p| p.size)
            .collect();
        for bound in sizes {
            assert_eq!(
                format!("{:?}", fresh.select_bound(bound).unwrap()),
                format!("{:?}", restored.select_bound(bound).unwrap())
            );
        }
    }

    #[test]
    fn restored_session_sweeps_bit_identically() {
        let mut fresh = planned_session();
        let bytes = snapshot_session(&fresh).unwrap();
        let mut restored = restore_session_from_bytes(&bytes).unwrap();

        for s in [&mut fresh, &mut restored] {
            s.select_bound(4).unwrap();
        }
        assert_eq!(sweep_totals(&fresh), sweep_totals(&restored));
        // The restored session decompiles its polynomials only on demand,
        // and they match the originals exactly.
        assert_eq!(fresh.polynomials(), restored.polynomials());
    }

    #[test]
    fn warm_engines_round_trip() {
        let mut fresh = planned_session();
        // Hop bounds with evaluations in between so warm engines
        // accumulate.
        let sizes: Vec<u64> = fresh
            .frontier()
            .unwrap()
            .points()
            .iter()
            .map(|p| p.size)
            .collect();
        for &bound in &sizes {
            fresh.select_bound(bound).unwrap();
            let _ = sweep_totals(&fresh);
        }
        let bytes = snapshot_session(&fresh).unwrap();
        let mut restored = restore_session_from_bytes(&bytes).unwrap();
        for &bound in &sizes {
            fresh.select_bound(bound).unwrap();
            restored.select_bound(bound).unwrap();
            assert_eq!(sweep_totals(&fresh), sweep_totals(&restored));
        }
    }

    #[test]
    fn tampered_artifact_is_rejected() {
        let fresh = planned_session();
        let mut bytes = snapshot_session(&fresh).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        assert!(restore_session_from_bytes(&bytes).is_err());
    }
}
