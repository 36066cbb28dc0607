//! The adapter: every call the benchmark makes into the system.
//!
//! Nothing else in this directory names a `cobra_*` crate. Each function
//! below is a thin wrapper over one public entry point (or the wire
//! protocol), wrapped in a [`spans::span`] named after the module that
//! does the work, so a traced run sees one span per layer crossing. A
//! change that collapses or renames part of the public API edits this
//! file and nothing else here — the list in README.md ("entry points
//! that must stay callable") is this file's table of contents.

use crate::spans::{count, span};
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};

pub use cobra_core::folds::MaxAbsError;
pub use cobra_core::{
    AbstractionTree, AppliedAbstraction, Axis, CobraSession, CompiledComparison, CompressionReport,
    Cut, DagReport, DeltaReport, FoldItem, GroupAnalysis, MetaVar, NodeId, PairBinder, PolyDelta,
    ResultComparison, ScenarioSet,
};
pub use cobra_datagen::synthetic::{Synthetic, SyntheticConfig};
pub use cobra_datagen::telephony::TelephonyConfig;
pub use cobra_datagen::tpch::{InstrumentedTpch, TpchQuery};
pub use cobra_provenance::{
    BatchEvaluator, DagBuild, EvalProgram, FixedScratch, LaneScratch, LoadedArtifact, Monomial,
    PolySet, Valuation, Var, VarRegistry,
};
pub use cobra_server::json::Json;
pub use cobra_server::store::{Job, ReplyBody, SessionStore};
pub use cobra_server::Server;
pub use cobra_util::{FxHashSet, Rat, SplitMix64};

type CoreResult<T> = cobra_core::Result<T>;

/// The Fig. 2 plans tree of the paper, in the compact tree syntax.
pub const FIG2_TREE: &str =
    "Plans(Standard(p1,p2), Special(Y(y1,y2,y3), F(f1,f2), v), Business(SB(b1,b2), e))";

// ---------------------------------------------------------------- datagen

/// Telephony polynomials by the direct path (`Telephony::direct_polyset`).
pub fn telephony_polys(config: TelephonyConfig, reg: &mut VarRegistry) -> PolySet<Rat> {
    span("datagen.telephony.direct_polyset", || {
        cobra_datagen::Telephony::direct_polyset(config, reg).0
    })
}

/// The telephony database with real tables (`Telephony::generate`).
pub fn telephony_database(config: TelephonyConfig) -> cobra_datagen::Telephony {
    span("datagen.telephony.generate", || {
        cobra_datagen::Telephony::generate(config)
    })
}

/// The paper's revenue query, as SQL text.
pub const TELEPHONY_SQL: &str = cobra_datagen::Telephony::REVENUE_SQL;

pub fn synthetic(config: SyntheticConfig) -> Synthetic {
    span("datagen.synthetic.generate", || {
        cobra_datagen::synthetic::generate(config)
    })
}

/// `TpchDatabase::generate` + `InstrumentedTpch::new`.
pub fn tpch(scale_factor: f64, seed: u64) -> InstrumentedTpch {
    span("datagen.tpch.generate", || {
        let config = cobra_datagen::TpchConfig { scale_factor, seed };
        InstrumentedTpch::new(cobra_datagen::TpchDatabase::generate(config))
    })
}

pub fn tpch_queries() -> &'static [TpchQuery] {
    &cobra_datagen::tpch::TPCH_QUERIES
}

pub fn tpch_geography_tree(reg: &mut VarRegistry) -> AbstractionTree {
    cobra_datagen::tpch::geography_tree(reg)
}

pub fn tpch_time_tree(reg: &mut VarRegistry) -> AbstractionTree {
    cobra_datagen::tpch::time_tree(reg)
}

// ----------------------------------------------------------------- engine

pub use cobra_engine::{Database, Relation, Value};

pub type EngineResult<T> = Result<T, cobra_engine::EngineError>;

pub fn relation_from_rows(cols: &[&str], rows: Vec<Vec<Value>>) -> EngineResult<Relation> {
    Relation::from_rows(cols.iter().copied(), rows)
}

pub fn parameterize(
    rel: &mut Relation,
    column: &str,
    tagger: impl FnMut(&cobra_engine::Row) -> Option<Monomial>,
) -> EngineResult<usize> {
    cobra_engine::parameterize(rel, column, tagger)
}

/// `Database::sql`: parse, lower and execute over K-relations.
pub fn sql(db: &Database, query: &str) -> EngineResult<Relation> {
    span("engine.sql.exec", || db.sql(query))
}

/// `Relation::extract_polyset`.
pub fn extract_polyset(
    rel: &Relation,
    label_cols: &[&str],
    poly_col: &str,
) -> EngineResult<PolySet<Rat>> {
    span("engine.extract.polyset", || {
        rel.extract_polyset(label_cols, poly_col)
    })
}

/// `InstrumentedTpch::run`, split at its two layer crossings so a trace
/// sees the SQL engine and the extraction apart. Mirrors `run`'s
/// labelling of single-aggregate queries.
pub fn tpch_capture(inst: &InstrumentedTpch, query: &TpchQuery) -> EngineResult<PolySet<Rat>> {
    let rel = sql(&inst.tpch.db, query.sql)?;
    if !query.label_cols.is_empty() {
        return extract_polyset(&rel, query.label_cols, query.poly_col);
    }
    let set = extract_polyset(&rel, &[], query.poly_col)?;
    let mut named = PolySet::new();
    for (i, (_, p)) in set.iter().enumerate() {
        named.push(format!("{}#{i}", query.name), p.clone());
    }
    Ok(named)
}

/// The one-call form, kept so the split above can be checked against it.
pub fn tpch_run(inst: &InstrumentedTpch, query: &TpchQuery) -> EngineResult<PolySet<Rat>> {
    inst.run(query)
}

// ------------------------------------------------------------- provenance

pub fn parse_polyset(text: &str, reg: &mut VarRegistry) -> Result<PolySet<Rat>, String> {
    count("provenance.parse.bytes", text.len() as u64);
    span("provenance.parse", || {
        cobra_provenance::parse_polyset(text, reg).map_err(|e| e.to_string())
    })
}

/// The text interchange rendering (`PolySet::display`).
pub fn render_polyset(set: &PolySet<Rat>, reg: &VarRegistry) -> String {
    span("provenance.render", || set.display(reg).to_string())
}

pub fn compile_exact(set: &PolySet<Rat>) -> BatchEvaluator<Rat> {
    span("provenance.compile.exact", || BatchEvaluator::compile(set))
}

pub fn compile_f64(set: &PolySet<Rat>) -> BatchEvaluator<f64> {
    span("provenance.compile.f64", || {
        cobra_provenance::compile_f64(set)
    })
}

/// `dag::rewrite` with the default options.
pub fn dag_rewrite(prog: &EvalProgram<f64>) -> DagBuild<f64> {
    span("provenance.dag.rewrite", || {
        cobra_provenance::dag::rewrite(prog, &cobra_provenance::DagOptions::default())
    })
}

pub fn evaluator_from_program(prog: EvalProgram<f64>) -> BatchEvaluator<f64> {
    BatchEvaluator::new(prog)
}

/// The f64 lane kernel on pre-bound rows (`eval_batch_fast_serial_into`).
pub fn kernel_f64(
    engine: &BatchEvaluator<f64>,
    rows: &[Vec<f64>],
    out: &mut [f64],
    scratch: &mut LaneScratch,
) {
    span("provenance.kernel.f64", || {
        engine.eval_batch_fast_serial_into(rows, out, scratch)
    })
}

/// The exact kernel on pre-bound rows (`eval_batch_exact_serial_into`).
pub fn kernel_exact(
    engine: &BatchEvaluator<Rat>,
    rows: &[Vec<Rat>],
    out: &mut [Rat],
    scratch: &mut FixedScratch,
) {
    span("provenance.kernel.exact", || {
        engine.eval_batch_exact_serial_into(rows, out, scratch)
    })
}

pub fn polyset_apply_delta(
    set: &mut PolySet<Rat>,
    delta: &PolyDelta<Rat>,
) -> Result<DeltaReport, String> {
    span("provenance.delta.apply", || {
        set.apply_delta(delta).map_err(|e| e.to_string())
    })
}

/// `EvalProgram::patched_coeffs`: a coefficient-only CSR patch.
pub fn patched_coeffs(
    prog: &EvalProgram<Rat>,
    set: &PolySet<Rat>,
    touched: &[usize],
) -> EvalProgram<Rat> {
    span("provenance.delta.patched_coeffs", || {
        prog.patched_coeffs(set, touched)
    })
}

pub fn write_artifact(path: &Path, bytes: &[u8]) -> Result<(), String> {
    span("provenance.persist.write_file", || {
        cobra_provenance::persist::write_file(path, bytes).map_err(|e| e.to_string())
    })
}

pub fn open_artifact(path: &Path) -> Result<LoadedArtifact, String> {
    span("provenance.persist.open", || {
        LoadedArtifact::open(path).map_err(|e| e.to_string())
    })
}

// ------------------------------------------------------------------- core

pub fn session_new(reg: VarRegistry, polys: PolySet<Rat>) -> CobraSession {
    span("core.session.new", || CobraSession::new(reg, polys))
}

pub fn session_from_text(text: &str) -> CoreResult<CobraSession> {
    count("provenance.parse.bytes", text.len() as u64);
    span("core.session.from_text", || CobraSession::from_text(text))
}

pub fn add_tree_text(s: &mut CobraSession, tree: &str) -> CoreResult<()> {
    span("core.session.add_tree_text", || s.add_tree_text(tree))
}

/// Plans the frontier — single tree or forest, by the number of trees —
/// and returns `(points, smallest size, largest size)`.
pub fn plan_frontier(s: &mut CobraSession) -> CoreResult<(usize, u64, u64)> {
    if s.trees().len() > 1 {
        span("core.plan.forest_frontier", || {
            let f = s.compress_forest_frontier()?;
            let max = f.points().last().map_or(0, |p| p.size);
            Ok((f.len(), f.min_size(), max))
        })
    } else {
        span("core.plan.frontier", || {
            let f = s.compress_frontier()?;
            let max = f.points().last().map_or(0, |p| p.size);
            Ok((f.len(), f.min_size(), max))
        })
    }
}

/// The sizes of the planned frontier's points, ascending.
pub fn frontier_sizes(s: &CobraSession) -> CoreResult<Vec<u64>> {
    if s.trees().len() > 1 {
        Ok(s.forest_frontier()?
            .points()
            .iter()
            .map(|p| p.size)
            .collect())
    } else {
        Ok(s.frontier()?.points().iter().map(|p| p.size).collect())
    }
}

/// The witness cut of the single-tree frontier point selected by `bound`.
pub fn frontier_cut(s: &CobraSession, bound: u64) -> CoreResult<Option<Cut>> {
    Ok(s.frontier()?.select(bound).map(|p| p.cut.clone()))
}

pub fn select_bound(s: &mut CobraSession, bound: u64) -> CoreResult<CompressionReport> {
    span("core.session.select_bound", || s.select_bound(bound))
}

pub fn warm_up(s: &CobraSession) -> CoreResult<()> {
    span("core.session.warm_up", || s.warm_up())
}

pub fn compile_dag(s: &mut CobraSession) -> CoreResult<DagReport> {
    span("core.session.compile_dag", || s.compile_dag())
}

pub fn assign(s: &CobraSession, scenario: &Valuation<Rat>) -> CoreResult<ResultComparison> {
    span("core.session.assign", || s.assign(scenario))
}

/// `sweep_fold_f64` with the worst-error fold the explorer uses on grids.
pub fn sweep_f64_worst(s: &CobraSession, set: &ScenarioSet) -> CoreResult<(MaxAbsError, f64)> {
    count("core.sweep.f64_scenarios", set.len() as u64);
    span("core.session.sweep_fold_f64", || {
        let (fold, div) = s.sweep_fold_f64(set, MaxAbsError::new(), cobra_core::folds::step)?;
        Ok((fold, div.max_rel_divergence))
    })
}

/// `sweep_fold_f64` with the server's totals fold: per scenario the sums
/// of the full and of the compressed result tuples.
pub fn sweep_f64_totals(s: &CobraSession, set: &ScenarioSet) -> CoreResult<Vec<(f64, f64)>> {
    count("core.sweep.f64_scenarios", set.len() as u64);
    span("core.session.sweep_fold_f64", || {
        let fold = |mut acc: Vec<(f64, f64)>, item: FoldItem<'_, f64>| {
            acc.push((item.full.iter().sum(), item.compressed.iter().sum()));
            acc
        };
        Ok(s.sweep_fold_f64(set, Vec::new(), fold)?.0)
    })
}

/// The exact (`Rat`) fold sweep.
pub fn sweep_exact_worst(s: &CobraSession, set: &ScenarioSet) -> CoreResult<MaxAbsError> {
    count("core.sweep.exact_scenarios", set.len() as u64);
    span("core.session.sweep_fold", || {
        s.sweep_fold(set, MaxAbsError::new(), cobra_core::folds::step)
    })
}

/// `sweep_fold_f64_bounded` (the Higham shadow) under no budget.
pub fn sweep_f64_bounded(s: &CobraSession, set: &ScenarioSet) -> CoreResult<MaxAbsError> {
    span("core.session.sweep_fold_f64_bounded", || {
        let budget = cobra_core::SweepBudget::unlimited();
        let (out, _) =
            s.sweep_fold_f64_bounded(set, budget, MaxAbsError::new(), cobra_core::folds::step)?;
        Ok(out.into_fold())
    })
}

/// `sweep_fold_f64_par` at `threads` workers.
pub fn sweep_f64_par(
    s: &CobraSession,
    set: &ScenarioSet,
    threads: usize,
) -> CoreResult<MaxAbsError> {
    span("core.session.sweep_fold_f64_par", || {
        cobra_util::par::with_threads(threads, || {
            Ok(s.sweep_fold_f64_par(set, MaxAbsError::new())?.0)
        })
    })
}

pub fn session_apply_delta(
    s: &mut CobraSession,
    delta: &PolyDelta<Rat>,
) -> CoreResult<DeltaReport> {
    span("core.session.apply_delta", || s.apply_delta(delta))
}

pub fn snapshot_session(s: &CobraSession) -> CoreResult<Vec<u8>> {
    span("core.hydrate.snapshot", || cobra_core::snapshot_session(s))
}

pub fn restore_session(artifact: &LoadedArtifact) -> CoreResult<CobraSession> {
    span("core.hydrate.restore", || {
        cobra_core::restore_session(artifact)
    })
}

pub fn analyze_groups(set: &PolySet<Rat>, tree: &AbstractionTree) -> CoreResult<GroupAnalysis> {
    span("core.groups.analyze", || GroupAnalysis::analyze(set, tree))
}

pub fn apply_cut_with_groups(
    set: &PolySet<Rat>,
    tree: &AbstractionTree,
    analysis: &GroupAnalysis,
    cut: &Cut,
    reserved: &FxHashSet<Var>,
    reg: &mut VarRegistry,
) -> AppliedAbstraction<Rat> {
    span("core.apply.cut", || {
        cobra_core::apply::apply_cut_with_groups(set, tree, analysis, cut, reserved, reg)
    })
}

/// The sparse reference evaluation: `PolySet::eval` on both sides, with
/// the scenario projected onto the meta-variables by the documented rule
/// (base overridden by the scenario; metas take their group's average).
/// This is the oracle — it never touches a compiled engine.
pub fn reference_comparison(
    full: &PolySet<Rat>,
    compressed: &PolySet<Rat>,
    metas: &[MetaVar],
    base: &Valuation<Rat>,
    scenario: &Valuation<Rat>,
) -> ResultComparison {
    let leaf_val = base.overridden_by(scenario);
    let meta_val = leaf_val.overridden_by(&cobra_core::assign::project_scenario(metas, &leaf_val));
    ResultComparison::evaluate(full, &leaf_val, compressed, &meta_val)
}

pub fn compiled_comparison(full: &PolySet<Rat>, compressed: &PolySet<Rat>) -> CompiledComparison {
    CompiledComparison::compile(full, compressed)
}

// ------------------------------------------------------------------- util

pub fn write_frame(w: &mut impl io::Write, payload: &[u8]) -> io::Result<()> {
    cobra_util::framed::write_frame(w, payload)
}

pub fn read_frame(r: &mut impl io::Read) -> io::Result<Option<Vec<u8>>> {
    cobra_util::framed::read_frame(r, cobra_util::framed::DEFAULT_MAX_FRAME)
}

/// The f64 lane kernel the dispatch resolves to on this host.
pub fn resolved_kernel() -> &'static str {
    cobra_util::kernel::current().as_str()
}

pub fn avx2_available() -> bool {
    cobra_util::kernel::avx2_available()
}

pub fn fma_available() -> bool {
    cobra_util::kernel::fma_available()
}

// ----------------------------------------------------------------- server

/// Starts `serve()` on an ephemeral loopback port.
pub fn serve(store_dir: Option<PathBuf>, max_sessions: Option<usize>) -> io::Result<Server> {
    span("server.serve", || {
        cobra_server::serve(cobra_server::ServerConfig {
            store_dir,
            max_sessions,
            ..cobra_server::ServerConfig::default()
        })
    })
}

pub fn server_addr(server: &Server) -> SocketAddr {
    server.addr()
}

pub fn server_shutdown(server: Server) {
    server.shutdown();
}

pub fn json_parse(text: &str) -> Result<Json, String> {
    cobra_server::json::parse(text)
}

/// `proto::parse_request`, discarding the envelope.
pub fn proto_parse_request(text: &str) -> Result<(), String> {
    span("server.json.parse_request", || {
        cobra_server::proto::parse_request(text).map(|_| ())
    })
}

/// `proto::ok_reply`.
pub fn proto_ok_reply(id: &Json, members: Vec<(String, Json)>) -> String {
    span("server.json.ok_reply", || {
        cobra_server::proto::ok_reply(id, members)
    })
}

/// An in-process store (`SessionStore::with_limits`) under the ambient
/// kernel target.
pub fn store_new(dir: Option<PathBuf>, max_sessions: Option<usize>) -> SessionStore {
    SessionStore::with_limits(dir, cobra_util::kernel::target(), max_sessions)
}

pub fn store_prepare(store: &SessionStore, id: &str, polys: &str, tree: &str) -> ReplyBody {
    span("server.store.prepare", || {
        store.prepare(id, Some(polys), Some(tree), false, false)
    })
}

pub fn store_sweep(store: &SessionStore, id: &str, scenarios: &[(String, Rat)]) -> ReplyBody {
    span("server.store.dispatch.sweep", || {
        store.dispatch(id, |reply| Job::Sweep {
            scenarios: scenarios.to_vec(),
            deadline_ms: None,
            reply,
        })
    })
}

pub fn store_assign(store: &SessionStore, id: &str, scenario: &[(String, Rat)]) -> ReplyBody {
    span("server.store.dispatch.assign", || {
        store.dispatch(id, |reply| Job::Assign {
            scenario: scenario.to_vec(),
            reply,
        })
    })
}

pub fn store_select_bound(store: &SessionStore, id: &str, bound: u64) -> ReplyBody {
    span("server.store.dispatch.select_bound", || {
        store.dispatch(id, |reply| Job::SelectBound { bound, reply })
    })
}

/// `apply_delta` with `set` edits given as `(poly label, term text)`.
pub fn store_apply_delta(store: &SessionStore, id: &str, sets: &[(String, String)]) -> ReplyBody {
    use cobra_server::proto::{WireDeltaAction, WireDeltaOp};
    span("server.store.dispatch.apply_delta", || {
        store.dispatch(id, |reply| Job::ApplyDelta {
            ops: sets
                .iter()
                .map(|(poly, term)| WireDeltaOp {
                    poly: poly.clone(),
                    action: WireDeltaAction::Set,
                    term: term.clone(),
                })
                .collect(),
            reply,
        })
    })
}
