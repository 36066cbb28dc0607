//! Session persistence: snapshot a planned [`CobraSession`] into one
//! [`cobra_provenance::persist`] artifact and re-hydrate it — zero-copy —
//! into a session that answers **bit-identically**.
//!
//! A snapshot captures what the derived-state table of
//! [`CobraSession`](crate::session) calls state, plus the engines that are
//! expensive to rebuild:
//!
//! * the variable registry (names in registration order, so re-registering
//!   reproduces identical [`Var`] ids),
//! * the abstraction-tree source text,
//! * the base valuation,
//! * the planned Pareto frontier (per-point cut node ids) together with
//!   the per-node group weights, invariant-variable count and reserved
//!   variables that bound re-selection needs,
//! * the compiled full-side programs (exact and `f64`),
//! * the warm compressed-side engines accumulated by bound hopping, each
//!   with the meta-variable identities it was compiled against, and
//! * (format v3) the selection: the bound of a frontier selection, whose
//!   point's engines ride in the warm directory like any stashed point's.
//!
//! Restoring ends with [`select_bound`](CobraSession::select_bound) at the
//! persisted bound, which re-installs the selected point from the warm
//! stash: a restored session answers at once, and a
//! [`warm_up`](CobraSession::warm_up) after it has nothing left to build.
//!
//! Re-derived instead of stored: the input polynomials (a restored
//! session carries the full compiled program and decompiles it on the
//! first path that needs polynomial form), the group analysis (built from
//! them on the first cold selection or coefficient-only delta), the
//! planner's DP tables (a structural delta replans from scratch), DAG
//! programs (deterministic rewrites; only the flag persists), and one-shot
//! [`compress`](CobraSession::compress) selections and forest staircases,
//! which do not persist. v1 and v2 artifacts restore with no selection.
//!
//! Restoring from a [`LoadedArtifact`] aliases the mapped file for every
//! CSR array — the cold-start cost is one `mmap` plus header validation,
//! not a recompilation (the benchmark's `reload_p25_ms` against
//! `prepare_p25_ms` is the gap).
//!
//! ```
//! use cobra_core::{restore_session_from_bytes, snapshot_session, CobraSession};
//! use cobra_provenance::Valuation;
//! use cobra_util::Rat;
//!
//! let mut session = CobraSession::from_text(
//!     "P1 = 208.8*p1*m1 + 240*p1*m3 + 42*v*m1 + 24.2*v*m3",
//! ).unwrap();
//! session.add_tree_text("Plans(Standard(p1,p2), v)").unwrap();
//! session.compress_frontier().unwrap();
//! session.select_bound(2).unwrap();
//! let bytes = snapshot_session(&session).unwrap();
//! let restored = restore_session_from_bytes(&bytes).unwrap();
//! // The selection came back with the session: it answers at once.
//! assert_eq!(restored.info().bound, Some(2));
//! let all_ones = Valuation::with_default(Rat::ONE);
//! assert_eq!(
//!     restored.assign(&all_ones).unwrap().rows,
//!     session.assign(&all_ones).unwrap().rows
//! );
//! ```

use crate::cut::Cut;
use crate::error::{CoreError, Result};
use crate::planner::{CutFrontier, FrontierPoint};
use crate::session::{CobraSession, Plan, PlanKind, TreePlan, WarmPoint};
use crate::tree::{AbstractionTree, NodeId};
use cobra_provenance::persist::{self, tags, EvalProgramRef};
use cobra_provenance::{
    ArtifactReader, ArtifactWriter, BatchEvaluator, EvalProgram, LoadedArtifact, PolySet,
    Valuation, Var, VarRegistry,
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

    // The frontier selection persists as its bound, and its point's
    // engines as one more warm entry: restoring re-installs it from the
    // stash, as any re-selection does. One-shot compressions do not
    // persist.
    let selected = plan.and_then(|p| p.selected);
    let installed = selected.zip(session.compressed.as_ref()).and_then(|(idx, c)| {
        let compressed = c.cells.flat.engines.get()?.compressed.clone();
        let f64 = c.cells.flat.f64.get().cloned();
        let stale = Vec::new();
        Some((idx, WarmPoint { compressed, f64, stale }))
    });
    // Deterministic warm-engine order (the map iterates arbitrarily),
    // each entry with the deltas it has not absorbed yet patched in.
    let skip = installed.as_ref().map(|&(idx, _)| idx);
    let mut warm: Vec<(usize, WarmPoint)> = (state.warm.keys())
        .filter(|&&i| Some(i) != skip)
        .map(|&i| (i, session.warm_point(i).expect("a listed stash entry")))
        .chain(installed)
        .collect();
    warm.sort_unstable_by_key(|&(i, _)| i);

    // The variables a re-selection must not alias a meta-variable onto:
    // the plan's, plus any interned since it last synced them.
    let tail = state.reg_len_at_plan as u32..session.reg.len() as u32;
    let mut reserved: Vec<u32> = state.reserved.iter().map(|v| v.0).chain(tail).collect();
    reserved.sort_unstable();

    let programs = [full_rat.program()]
        .into_iter()
        .chain(warm.iter().map(|(_, p)| p.compressed.program()));
    let bytes: usize = programs
        .map(|p| persist::program_len(p) + persist::shadow_len(p))
        .sum();
    let names: usize = session.reg.iter().map(|(_, name)| 8 + name.len()).sum();
    let cuts: usize = state.frontier.points().iter().map(|p| p.cut.len()).sum();
    let session_len = names
        + tree_text.len()
        + 48 * (session.base_valuation.len() + 1)
        + 8 * state.node_weight.len()
        + 4 * (reserved.len() + 2 * cuts)
        + 32 * (state.frontier.len() + warm.len())
        + 128;
    let mut w = ArtifactWriter::with_capacity(3 + 2 * warm.len(), session_len + bytes);
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

    // Warm engine directory: frontier index, whether an f64 shadow rides
    // along, and (v3) the point's meta-variables, one per cut node — none
    // for a point whose identities were never memoized. The programs
    // themselves go in per-engine sections.
    w.put_u32(warm.len() as u32);
    for (idx, point) in &warm {
        w.put_u32(*idx as u32);
        w.put_u32(u32::from(point.f64.is_some()));
        let metas = state.subs.get(idx).map_or(&[][..], |(_, metas)| metas);
        let vars: Vec<u32> = metas.iter().map(|m| m.var.0).collect();
        w.put_u32_slice(&vars);
    }

    // v2: whether algebraic (DAG) compression was armed. The DAG programs
    // themselves are cheap deterministic rewrites of the flat programs, so
    // only the flag persists — restore re-derives them lazily.
    w.put_u32(u32::from(session.dag_mode));

    // v3: the reserved variables, then the selection's bound, if any.
    w.put_u32_slice(&reserved);
    match selected.and(session.bound) {
        Some(bound) => {
            w.put_u32(1);
            w.put_u64(bound);
        }
        None => w.put_u32(0),
    }

    persist::write_program(&mut w, tags::PROGRAM_RAT, full_rat.program());
    persist::write_shadow(&mut w, tags::PROGRAM_F64, full_rat.program(), full_f64.program());
    for (k, (_, point)) in warm.iter().enumerate() {
        let base = tags::WARM_BASE + 2 * k as u32;
        let exact = point.compressed.program();
        persist::write_program(&mut w, base, exact);
        if let Some(shadow) = &point.f64 {
            persist::write_shadow(&mut w, base + 1, exact, shadow.program());
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

/// A persisted rational, rejected unless its denominator is positive.
fn get_rat(s: &mut persist::SectionReader<'_>) -> Result<Rat> {
    let num = s.get_i128().map_err(persist_err)?;
    let den = s.get_i128().map_err(persist_err)?;
    if den <= 0 {
        return Err(persist_err("a rational with a non-positive denominator"));
    }
    Ok(Rat::new(num, den))
}

/// A persisted flat program over `reg`'s variables, aliasing the
/// artifact. The checks are what evaluation relies on beyond the CSR
/// validation of [`persist::read_program_ref`].
fn load_program(
    view: &EvalProgramRef<'_, Rat>,
    reg: &VarRegistry,
    owner: &Arc<dyn Any + Send + Sync>,
) -> Result<EvalProgram<Rat>> {
    if view.num_slots != 0 {
        return Err(persist_err("a persisted program has shared-subterm slots"));
    }
    if view.locals.iter().any(|&v| v as usize >= reg.len()) {
        return Err(persist_err("a program mentions an unregistered variable"));
    }
    Ok(view.to_program(owner.clone()))
}

fn restore_from_reader(
    reader: &ArtifactReader<'_>,
    owner: Arc<dyn Any + Send + Sync>,
) -> Result<CobraSession> {
    let v3 = reader.version() >= 3;
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
        _ => Valuation::with_default(get_rat(&mut s)?),
    };
    let num_bindings = s.get_u32().map_err(persist_err)?;
    for _ in 0..num_bindings {
        let var = Var(s.get_u32().map_err(persist_err)?);
        if var.index() >= reg.len() {
            return Err(persist_err("valuation binds an unregistered variable"));
        }
        base_valuation.set(var, get_rat(&mut s)?);
    }

    let num_weights = s.get_u32().map_err(persist_err)?;
    if num_weights as usize != tree.num_nodes() {
        return Err(persist_err("node weights do not match the tree"));
    }
    let mut node_weight = Vec::with_capacity(tree.num_nodes());
    for _ in 0..num_weights {
        node_weight.push(s.get_u64().map_err(persist_err)?);
    }
    let invariant_vars = s.get_u32().map_err(persist_err)? as usize;

    // Each point takes at least 24 bytes, each warm entry 8: a count the
    // section cannot hold fails on the first missing field, not in the
    // allocator.
    let num_points = s.get_u32().map_err(persist_err)?;
    let mut points = Vec::with_capacity((num_points as usize).min(s.remaining() / 24));
    for _ in 0..num_points {
        let variables = s.get_u64().map_err(persist_err)? as usize;
        let size = s.get_u64().map_err(persist_err)?;
        let nodes = s.get_u32_slice().map_err(persist_err)?;
        let cut = Cut::new(&tree, nodes.iter().map(|&n| NodeId(n)).collect())?;
        points.push(FrontierPoint {
            variables,
            size,
            cut,
        });
    }
    let ascending = points.windows(2).all(|w| w[0].variables < w[1].variables);
    if points.is_empty() || !ascending {
        return Err(persist_err("frontier points are not a Pareto staircase"));
    }
    let frontier = CutFrontier::from_points(points);
    if frontier.len() != num_points as usize {
        return Err(persist_err("frontier points are not a Pareto staircase"));
    }

    let num_warm = s.get_u32().map_err(persist_err)?;
    let mut warm_dir = Vec::with_capacity((num_warm as usize).min(s.remaining() / 8));
    let mut subs = FxHashMap::default();
    for _ in 0..num_warm {
        let idx = s.get_u32().map_err(persist_err)? as usize;
        let has_f64 = s.get_u32().map_err(persist_err)? != 0;
        if idx >= frontier.len() {
            return Err(persist_err(
                "warm engine for an out-of-range frontier index",
            ));
        }
        // v3: the meta-variables the point's engines were compiled
        // against; a point that never memoized them has none.
        let metas = if v3 { s.get_u32_slice().map_err(persist_err)? } else { &[] };
        if !metas.is_empty() {
            let vars: Vec<Var> = metas.iter().map(|&v| Var(v)).collect();
            let sub = (frontier.points()[idx].cut)
                .substitution_with(&tree, &reg, &vars)
                .ok_or_else(|| persist_err("a warm point's meta-variables do not fit its cut"))?;
            subs.insert(idx, sub);
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
    // v3: the reserved variables and the selection's bound.
    let (reserved, bound) = if v3 {
        let reserved = s.get_u32_slice().map_err(persist_err)?;
        if reserved.iter().any(|&v| v as usize >= reg.len()) {
            return Err(persist_err("a reserved variable is unregistered"));
        }
        let bound = match s.get_u32().map_err(persist_err)? {
            0 => None,
            _ => Some(s.get_u64().map_err(persist_err)?),
        };
        (Some(reserved), bound)
    } else {
        (None, None)
    };

    let full = persist::read_program_ref::<Rat>(reader, tags::PROGRAM_RAT).map_err(persist_err)?;
    let full_program = load_program(&full, &reg, &owner)?;
    // Every term in the tree's setting: at most one leaf each, or a later
    // group analysis of the decompiled polynomials could not run.
    let is_leaf: Vec<bool> = (full.locals.iter()).map(|&v| tree.contains_var(Var(v))).collect();
    let spans = full.term_offsets.windows(2).any(|t| {
        let factors = &full.var_ids[t[0] as usize..t[1] as usize];
        factors.iter().filter(|&&v| is_leaf[v as usize]).count() > 1
    });
    if spans {
        return Err(persist_err("a term mentions two leaves of the tree"));
    }
    // The variables the terms mention: a delta-patched program keeps the
    // locals whose last term was deleted, so its variable table can
    // overcount the provenance's distinct variables.
    let mut mentioned = vec![false; full.locals.len()];
    for &v in full.var_ids {
        mentioned[v as usize] = true;
    }
    let original_vars = mentioned.iter().filter(|&&m| m).count();
    let full_f64 = persist::read_shadow(reader, tags::PROGRAM_F64, &full_program, owner.clone())
        .map_err(persist_err)?;

    let mut warm: FxHashMap<usize, WarmPoint> = FxHashMap::default();
    for (k, &(idx, has_f64)) in warm_dir.iter().enumerate() {
        let base = tags::WARM_BASE + 2 * k as u32;
        let view = persist::read_program_ref::<Rat>(reader, base).map_err(persist_err)?;
        let compressed = load_program(&view, &reg, &owner)?;
        if compressed.num_polys() != full_program.num_polys() {
            return Err(persist_err("a warm engine's polynomials differ from the full side's"));
        }
        let f64 = if has_f64 {
            let shadow = persist::read_shadow(reader, base + 1, &compressed, owner.clone());
            Some(BatchEvaluator::new(shadow.map_err(persist_err)?))
        } else {
            None
        };
        let point = WarmPoint {
            compressed: BatchEvaluator::new(compressed),
            f64,
            stale: Vec::new(),
        };
        warm.insert(idx, point);
    }

    // Before v3 the reserved set was not persisted: the provenance's own
    // variables are.
    let reserved = match reserved {
        Some(vars) => vars.iter().map(|&v| Var(v)).collect(),
        None => full_program.vars().iter().copied().collect(),
    };
    // Derivable from the persisted full program — never stored.
    let plan = TreePlan {
        // Analyzed only if a cold selection or a coefficient-only delta
        // needs it.
        analysis: OnceCell::new(),
        node_weight,
        frontier,
        reserved,
        invariant_vars,
        // DP tables are not persisted: the first structural delta on a
        // re-hydrated session replans from scratch (and snapshots).
        plan_snapshot: None,
        reg_len_at_plan: reg.len(),
        subs,
        warm,
    };
    let original_size = full_program.num_terms() as u64;
    let mut session = CobraSession::new(reg, PolySet::new());
    // No polynomials: decompiled from the full engine on first need.
    session.polys = OnceCell::new();
    session.base_valuation = base_valuation;
    session.trees.push(tree);
    session.tree_texts.push(Some(tree_text));
    session.full.flat.rat = BatchEvaluator::new(full_program).into();
    session.full.flat.f64 = BatchEvaluator::new(full_f64).into();
    session.plan = Some(Plan {
        original_vars,
        original_size,
        selected: None,
        kind: PlanKind::Tree(Box::new(plan)),
    });
    session.dag_mode = dag_mode;
    // The one way a selection is installed: the persisted point is in the
    // warm stash, so this re-selection builds nothing.
    if let Some(bound) = bound {
        session
            .select_bound(bound)
            .map_err(|e| persist_err(format!("the persisted selection: {e}")))?;
    }
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

    /// The program behind the current selection's flat compressed engine.
    fn selected_program(s: &CobraSession) -> &cobra_provenance::EvalProgram<Rat> {
        let state = s.compressed.as_ref().expect("a selection");
        state.cells.flat.engines.get().expect("installed").compressed.program()
    }

    #[test]
    fn the_selection_comes_back_installed() {
        let mut fresh = planned_session();
        fresh.select_bound(4).unwrap();
        fresh.warm_up().unwrap();
        let bytes = snapshot_session(&fresh).unwrap();
        let restored = restore_session_from_bytes(&bytes).unwrap();
        let info = restored.info();
        assert_eq!(info.bound, Some(4));
        assert_eq!(info.compressed_size, fresh.info().compressed_size);
        assert!(info.hydrated, "installing the selection decompiles nothing");
        assert_eq!(
            format!("{:?}", restored.report(None).unwrap()),
            format!("{:?}", fresh.report(None).unwrap())
        );
        // Every engine of the selection was installed from the warm
        // stash, so warm_up has nothing left to build.
        let state = restored.compressed.as_ref().unwrap();
        let f64: *const _ = state.cells.flat.f64.get().expect("installed shadow").program();
        let compressed: *const _ = selected_program(&restored);
        restored.warm_up().unwrap();
        assert!(std::ptr::eq(selected_program(&restored), compressed));
        let state = restored.compressed.as_ref().unwrap();
        assert!(std::ptr::eq(state.cells.flat.f64.get().unwrap().program(), f64));
        assert_eq!(sweep_totals(&fresh), sweep_totals(&restored));
    }

    #[test]
    fn shadows_share_their_exact_programs_shape() {
        let mut fresh = planned_session();
        fresh.select_bound(4).unwrap();
        fresh.warm_up().unwrap();
        let restored = restore_session_from_bytes(&snapshot_session(&fresh).unwrap()).unwrap();
        let full = restored.full_engine_in(false).program();
        assert!(restored.full_f64_in(false).program().shares_shape(full));
        let state = restored.compressed.as_ref().unwrap();
        let shadow = state.cells.flat.f64.get().unwrap().program();
        assert!(shadow.shares_shape(selected_program(&restored)));
    }

    #[test]
    fn a_coefficient_delta_after_restore_patches_the_selection() {
        let mut fresh = planned_session();
        fresh.select_bound(4).unwrap();
        fresh.warm_up().unwrap();
        let mut restored =
            restore_session_from_bytes(&snapshot_session(&fresh).unwrap()).unwrap();
        let before = selected_program(&restored).clone();
        let (p2, m3) = (restored.registry_mut().var("p2"), restored.registry_mut().var("m3"));
        let idx = restored.polynomials().index_of("P2").unwrap();
        let mut delta = cobra_provenance::PolyDelta::new();
        let march = cobra_provenance::Monomial::from_pairs([(p2, 1), (m3, 1)]);
        delta.set(idx, march, Rat::new(703, 10));
        assert!(!restored.apply_delta(&delta).unwrap().is_structural());
        fresh.apply_delta(&delta).unwrap();
        // Patched in place through the group analysis, not dropped.
        assert!(selected_program(&restored).shares_shape(&before));
        assert!(!std::ptr::eq(selected_program(&restored), &before));
        assert_eq!(sweep_totals(&fresh), sweep_totals(&restored));
    }

    #[test]
    fn restored_meta_variables_never_alias_user_variables() {
        // "Plans" is interned by the user after planning: the coarsest
        // point's meta-variable gets a fresh name, and a restored session
        // must reuse that identity rather than alias the user's variable.
        let mut fresh = planned_session();
        let user = fresh.registry_mut().var("Plans");
        let sizes: Vec<u64> = (fresh.frontier().unwrap().points().iter())
            .map(|p| p.size)
            .collect();
        let (coarse, fine) = (sizes[0], sizes[sizes.len() - 1]);
        fresh.select_bound(coarse).unwrap();
        fresh.warm_up().unwrap();
        fresh.select_bound(fine).unwrap(); // stash the coarsest point
        let mut restored =
            restore_session_from_bytes(&snapshot_session(&fresh).unwrap()).unwrap();
        let p1 = fresh.registry_mut().var("p1");
        let scenario = (Valuation::with_default(Rat::ONE))
            .bind(user, Rat::int(17))
            .bind(p1, Rat::int(2));
        for s in [&mut fresh, &mut restored] {
            s.select_bound(coarse).unwrap();
            assert!(s.compressed.as_ref().unwrap().meta_vars.iter().all(|m| m.var != user));
        }
        assert_eq!(
            fresh.assign(&scenario).unwrap().rows,
            restored.assign(&scenario).unwrap().rows
        );
    }

    #[test]
    fn a_zero_denominator_is_a_typed_error() {
        let mut fresh = planned_session();
        fresh.set_base_valuation(Valuation::with_default(Rat::new(7, 3)));
        let mut bytes = snapshot_session(&fresh).unwrap();
        let default: Vec<u8> = [7i128, 3].iter().flat_map(|v| v.to_le_bytes()).collect();
        let at = (bytes.windows(32).position(|w| w == default.as_slice()))
            .expect("the default valuation is in the artifact")
            + 16;
        bytes[at..at + 16].fill(0);
        let checksum = persist::fnv1a64(&bytes[16..]);
        bytes[8..16].copy_from_slice(&checksum.to_le_bytes());
        assert!(matches!(
            restore_session_from_bytes(&bytes),
            Err(CoreError::Session(_))
        ));
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
