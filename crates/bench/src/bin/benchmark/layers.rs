//! The decomposition pass of a traced run: per-layer numbers, taken from
//! outside the program.
//!
//! For the workload's first dataset this re-executes, one at a time, the
//! public calls the end-to-end operations are made of — parse, group
//! analysis, planning, cut application, compile, DAG rewrite, bind, the
//! two kernels, the exact probes, delta patching, persist, hydrate, JSON,
//! store dispatch, the wire — on the same inputs, so a composite's self
//! time is the composite minus its re-executed children. These are
//! **not** in-situ measurements: caches are as warm as a repeat call
//! leaves them, and nothing inside a call is visible (coalesced batch
//! sizes, cache hits and overflow fallbacks cannot be seen from here).
//! Every workload reports every layer, each on its own data shape — the
//! layers a workload's journey never touches are exactly the ones whose
//! numbers must not explain a change in that workload's results.

use crate::data::{self, Bindings, Dataset};
use crate::journey::{self, Metric, Outcome};
use crate::spans::{self, Span};
use crate::stats;
use crate::surface::{
    self, CobraSession, Json, LaneScratch, PairBinder, PolySet, Rat, ScenarioSet, SplitMix64,
    TelephonyConfig, Value, VarRegistry,
};
use crate::wire::{self, Client};
use crate::workloads::{Capture, Probe};
use std::path::Path;
use std::time::{Duration, Instant};

/// `(name, unit, better)` of every layer metric, in report order.
pub const LAYER_METRICS: [(&str, &str, &str); 79] = [
    ("datagen.gen_ms", "ms", "lower"),
    ("engine.sql.exec_ms", "ms", "lower"),
    ("engine.extract.polyset_ms", "ms", "lower"),
    ("engine.extract.monomials", "count", "lower"),
    ("provenance.parse.ms", "ms", "lower"),
    ("provenance.parse.ns_per_monomial", "ns", "lower"),
    ("provenance.parse.mb_per_s", "MB/s", "higher"),
    ("provenance.compile.ms", "ms", "lower"),
    ("provenance.compile.terms", "count", "lower"),
    ("provenance.dag.rewrite_ms", "ms", "lower"),
    ("provenance.dag.compile_dag_ms", "ms", "lower"),
    ("provenance.dag.op_ratio", "ratio", "higher"),
    ("provenance.dag.slots", "count", "lower"),
    ("provenance.kernel.f64_ns_per_monomial", "ns", "lower"),
    ("provenance.kernel.f64_busy_ms", "ms", "lower"),
    ("provenance.kernel.dag_f64_ns_per_monomial", "ns", "lower"),
    ("provenance.kernel.f64_bytes_per_monomial", "bytes", "lower"),
    ("provenance.kernel.f64_mul_per_monomial", "count", "lower"),
    ("provenance.kernel.exact_us_per_scenario", "us", "lower"),
    ("provenance.delta.patch_ms", "ms", "lower"),
    ("provenance.persist.write_ms", "ms", "lower"),
    ("provenance.persist.open_ms", "ms", "lower"),
    ("provenance.persist.artifact_mb", "MiB", "lower"),
    ("core.groups.analyze_ms", "ms", "lower"),
    ("core.groups.count", "count", "lower"),
    ("core.plan.frontier_ms", "ms", "lower"),
    ("core.plan.frontier_points", "count", "higher"),
    ("core.plan.forest_frontier_ms", "ms", "lower"),
    ("core.apply.ms", "ms", "lower"),
    ("core.apply.compressed_fraction", "ratio", "lower"),
    ("core.apply.vars_retained", "count", "higher"),
    ("core.sweep.max_rel_error", "ratio", "lower"),
    ("core.select.cold_ms", "ms", "lower"),
    ("core.select.warm_ms", "ms", "lower"),
    ("core.bind.ns_per_scenario", "ns", "lower"),
    ("core.bind.busy_ms", "ms", "lower"),
    ("core.probes.ms", "ms", "lower"),
    ("core.probes.share", "ratio", "lower"),
    ("core.sweep.total_ms", "ms", "lower"),
    ("core.sweep.exact_scenarios_per_s", "1/s", "higher"),
    ("core.fold.self_ms", "ms", "lower"),
    ("core.fold.self_share", "ratio", "lower"),
    ("core.shadow.overhead_ratio", "ratio", "lower"),
    ("core.par.speedup", "ratio", "higher"),
    ("core.assign.full_ms", "ms", "lower"),
    ("core.assign.compressed_ms", "ms", "lower"),
    ("core.assign.speedup_pct", "%", "higher"),
    ("core.delta.apply_ms", "ms", "lower"),
    ("core.delta.structural_ms", "ms", "lower"),
    ("core.hydrate.snapshot_ms", "ms", "lower"),
    ("core.hydrate.restore_ms", "ms", "lower"),
    ("server.json.parse_us", "us", "lower"),
    ("server.json.encode_us", "us", "lower"),
    ("server.json.request_bytes", "bytes", "lower"),
    ("server.json.reply_bytes", "bytes", "lower"),
    ("server.json.prepare_parse_ms", "ms", "lower"),
    ("server.json.prepare_parse_mb_per_s", "MB/s", "higher"),
    ("server.store.prepare_ms", "ms", "lower"),
    ("server.store.dispatch_ms.sweep", "ms", "lower"),
    ("server.store.dispatch_ms.assign", "ms", "lower"),
    ("server.store.dispatch_ms.select_bound", "ms", "lower"),
    ("server.store.dispatch_ms.apply_delta", "ms", "lower"),
    ("server.store.evict_reload_ms", "ms", "lower"),
    ("server.wire.wait_ms.sweep", "ms", "lower"),
    ("server.wire.wait_ms.assign", "ms", "lower"),
    ("server.wire.wait_ms.select_bound", "ms", "lower"),
    ("server.wire.wait_ms.apply_delta", "ms", "lower"),
    ("util.framed.roundtrip_us", "us", "lower"),
    ("journey.sweep_request_p90_ms", "ms", "lower"),
    ("journey.sweep_request_p50_ms", "ms", "lower"),
    ("journey.prepare_p50_ms", "ms", "lower"),
    ("journey.assign_p50_ms", "ms", "lower"),
    ("journey.apply_delta_p50_ms", "ms", "lower"),
    ("journey.reload_p50_ms", "ms", "lower"),
    ("journey.f64_scenarios_per_s_p50", "1/s", "higher"),
    ("journey.dag_f64_scenarios_per_s_p50", "1/s", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.decompose_s", "s", "lower"),
];

/// Repeats `f` until it has three samples and a quarter second has gone
/// (at most 25 samples), or a whole second has — a step that takes a
/// second is sampled once. The median, in milliseconds.
fn measure<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut ms = Vec::new();
    let started = Instant::now();
    loop {
        let t = Instant::now();
        std::hint::black_box(f());
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        let spent = started.elapsed();
        let enough = ms.len() >= 3 && spent >= Duration::from_millis(250);
        if enough || ms.len() >= 25 || spent >= Duration::from_secs(1) {
            return stats::median(&ms);
        }
    }
}

/// Like [`measure`], for a fallible step: the first error ends it.
fn try_measure<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<f64, String> {
    let mut failed = None;
    let ms = measure(|| {
        if failed.is_none() {
            failed = f().err();
        }
    });
    failed.map_or(Ok(ms), Err)
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

struct Out(Vec<Metric>);

impl Out {
    fn put(&mut self, name: &str, value: f64) {
        let (_, unit, _) = LAYER_METRICS
            .iter()
            .find(|(n, ..)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a declared layer metric"));
        self.0.push(Metric::new(name, unit, value, 1));
    }
}

/// A session over `ds`'s polynomials and the first `trees` trees, planned
/// and selected at the primary bound, engines cold.
fn planned(ds: &Dataset, trees: &[String]) -> Result<(CobraSession, u64), String> {
    let mut s = surface::session_new(ds.reg.clone(), ds.polys.clone());
    for tree in trees {
        surface::add_tree_text(&mut s, tree).map_err(err)?;
    }
    let (_, min_size, _) = surface::plan_frontier(&mut s).map_err(err)?;
    let bound = journey::primary_bound(ds, min_size);
    surface::select_bound(&mut s, bound).map_err(err)?;
    Ok((s, bound))
}

/// A second tree over the off-tree variables, three to a group — what
/// turns a single-tree dataset into a forest for the forest planner.
fn off_tree(ds: &Dataset) -> String {
    let groups: Vec<String> = ds
        .others
        .chunks(3)
        .enumerate()
        .map(|(i, g)| format!("offgroup{i}({})", g.join(",")))
        .collect();
    format!("OffTree({})", groups.join(","))
}

/// The dataset's kind of provenance through the SQL engine:
/// `(sql ms, extract ms, monomials)`, and the generator's own time.
fn capture(kind: &Capture, ds: &Dataset, seed: u64) -> Result<(f64, f64, f64, f64), String> {
    match kind {
        Capture::Telephony { customers, zips } => {
            let gen_ms = measure(|| data::telephony(seed, *customers, *zips));
            // The engine path materialises customers × months call rows,
            // so it runs at a size the SQL engine finishes in a blink.
            let config = TelephonyConfig {
                customers: 2_000,
                zips: 20,
                months: 12,
                seed,
            };
            let db = surface::telephony_database(config);
            let mut last = None;
            let sql_ms = try_measure(|| {
                last = Some(surface::sql(&db.db, surface::TELEPHONY_SQL).map_err(err)?);
                Ok(())
            })?;
            let rel = last.expect("measured at least once");
            let mut set = PolySet::new();
            let extract_ms = try_measure(|| {
                set = surface::extract_polyset(&rel, &["Zip"], "revenue").map_err(err)?;
                Ok(())
            })?;
            let direct = surface::telephony_polys(config, &mut VarRegistry::new());
            if set != direct {
                return Err(
                    "telephony: the SQL capture differs from the direct polynomials".into(),
                );
            }
            Ok((sql_ms, extract_ms, set.total_monomials() as f64, gen_ms))
        }
        Capture::Synthetic(config) => {
            let gen_ms = measure(|| surface::synthetic(*config));
            // One row per monomial, its coefficient tagged with the
            // monomial: SUM … GROUP BY rebuilds the polynomials.
            let mut rows = Vec::new();
            let mut monomials = Vec::new();
            for (label, poly) in ds.polys.iter() {
                for (m, c) in poly.terms() {
                    rows.push(vec![
                        Value::str(label),
                        Value::Int(monomials.len() as i64),
                        Value::Num(*c),
                    ]);
                    monomials.push(m.clone());
                }
            }
            let mut rel = surface::relation_from_rows(&["P", "Term", "Val"], rows).map_err(err)?;
            surface::parameterize(&mut rel, "Val", |row| match row[1] {
                Value::Int(i) => Some(monomials[i as usize].clone()),
                _ => None,
            })
            .map_err(err)?;
            let mut db = surface::Database::new();
            db.insert("T", rel);
            let mut last = None;
            let sql_ms = try_measure(|| {
                let q = "SELECT P, SUM(Val) AS total FROM T GROUP BY P";
                last = Some(surface::sql(&db, q).map_err(err)?);
                Ok(())
            })?;
            let rel = last.expect("measured at least once");
            let mut set = PolySet::new();
            let extract_ms = try_measure(|| {
                set = surface::extract_polyset(&rel, &["P"], "total").map_err(err)?;
                Ok(())
            })?;
            for (label, poly) in ds.polys.iter() {
                if set.get(label) != Some(poly) {
                    return Err(format!(
                        "synthetic: the SQL capture of {label} differs from the input"
                    ));
                }
            }
            Ok((sql_ms, extract_ms, set.total_monomials() as f64, gen_ms))
        }
        Capture::Tpch { scale_factor } => {
            let db_seed = crate::workloads::TPCH_DATABASE_SEED;
            let gen_ms = measure(|| surface::tpch(*scale_factor, db_seed));
            let inst = surface::tpch(*scale_factor, db_seed);
            let (mut sql_ms, mut extract_ms, mut monomials) = (0.0, 0.0, 0.0);
            for query in surface::tpch_queries() {
                let mut last = None;
                sql_ms += try_measure(|| {
                    last = Some(surface::sql(&inst.tpch.db, query.sql).map_err(err)?);
                    Ok(())
                })?;
                let rel = last.expect("measured at least once");
                let mut set = PolySet::new();
                extract_ms += try_measure(|| {
                    set = surface::extract_polyset(&rel, query.label_cols, query.poly_col)
                        .map_err(err)?;
                    Ok(())
                })?;
                monomials += set.total_monomials() as f64;
                let split = surface::tpch_capture(&inst, query).map_err(err)?;
                if split != surface::tpch_run(&inst, query).map_err(err)? {
                    return Err(format!(
                        "tpch {}: the split capture differs from run()",
                        query.name
                    ));
                }
            }
            Ok((sql_ms, extract_ms, monomials, gen_ms))
        }
    }
}

fn reply_members(body: surface::ReplyBody) -> Result<Vec<(String, Json)>, String> {
    body.map_err(|(kind, msg)| format!("{kind}: {msg}"))
}

/// Runs the pass. `recorded` are the spans of the traced journey.
pub fn decompose(
    probe: &Probe,
    outcome: &Outcome,
    recorded: &[Span],
    seed: u64,
    tmp: &Path,
) -> Result<Vec<Metric>, String> {
    let pass_started = Instant::now();
    let ds = &probe.dataset;
    let mut out = Out(Vec::new());
    let mut rng = SplitMix64::new(seed ^ 0x6c61_7965_7273);
    let text = surface::render_polyset(&ds.polys, &ds.reg);
    let tree0 = &ds.trees[..1];
    let monomials = ds.polys.total_monomials() as f64;

    // ---- engine + datagen
    let (sql_ms, extract_ms, captured, gen_ms) = capture(&probe.capture, ds, seed)?;
    out.put("datagen.gen_ms", gen_ms);
    out.put("engine.sql.exec_ms", sql_ms);
    out.put("engine.extract.polyset_ms", extract_ms);
    out.put("engine.extract.monomials", captured);

    // ---- parse
    let parse_ms = try_measure(|| surface::parse_polyset(&text, &mut VarRegistry::new()))?;
    out.put("provenance.parse.ms", parse_ms);
    out.put(
        "provenance.parse.ns_per_monomial",
        parse_ms * 1e6 / monomials,
    );
    out.put(
        "provenance.parse.mb_per_s",
        text.len() as f64 / 1e6 / (parse_ms / 1e3),
    );

    // ---- the session the rest decomposes (single tree: every layer
    // below has a single-tree form; the forest planner is timed apart)
    let (mut session, bound) = planned(ds, tree0)?;
    surface::warm_up(&session).map_err(err)?;
    let compressed = session.compressed_polynomials().map_err(err)?.clone();
    let metas = session.abstraction().map_err(err)?.meta_vars.clone();
    let base = session.base_valuation().clone();

    // ---- compile
    let compile_ms = measure(|| {
        (
            surface::compile_exact(&ds.polys),
            surface::compile_f64(&ds.polys),
            surface::compile_exact(&compressed),
            surface::compile_f64(&compressed),
        )
    });
    let engines = surface::compiled_comparison(&ds.polys, &compressed);
    let full64 = surface::compile_f64(&ds.polys);
    let comp64 = surface::compile_f64(&compressed);
    let terms = (full64.program().num_terms() + comp64.program().num_terms()) as f64;
    out.put("provenance.compile.ms", compile_ms);
    out.put("provenance.compile.terms", terms);

    // ---- DAG rewrite
    let rewrite_ms = measure(|| surface::dag_rewrite(full64.program()));
    let dag_full = surface::dag_rewrite(full64.program());
    let dag_comp = surface::dag_rewrite(comp64.program());
    out.put("provenance.dag.rewrite_ms", rewrite_ms);
    out.put("provenance.dag.op_ratio", dag_full.stats.op_ratio());
    out.put("provenance.dag.slots", dag_full.stats.num_slots as f64);
    // Arming a warm flat session: rewrite plus the DAG engines' build.
    let mut arm_ms = Vec::new();
    for _ in 0..3 {
        let (mut s, _) = planned(ds, tree0)?;
        surface::warm_up(&s).map_err(err)?;
        let (armed, dt) = journey::timed(|| {
            surface::compile_dag(&mut s).map_err(err)?;
            surface::warm_up(&s).map_err(err)
        });
        armed?;
        arm_ms.push(dt.as_secs_f64() * 1e3);
    }
    out.put("provenance.dag.compile_dag_ms", stats::median(&arm_ms));

    // ---- bind, kernels, probes, fold: the parts of one f64 grid sweep
    let grid = data::grid(&mut session, &ds.axes, &probe.grid_steps);
    let n = grid.len();
    let block = n.min(256);
    let (wf, wc) = (full64.program().num_locals(), comp64.program().num_locals());
    let mut binder = PairBinder::new(&engines, &metas, &base, &grid);
    let mut rows_full = vec![vec![0.0f64; wf]; block];
    let mut rows_comp = vec![vec![0.0f64; wc]; block];
    for i in 0..block {
        binder.bind_pair_into_f64(i, &mut rows_full[i], &mut rows_comp[i]);
    }
    let (mut row_f, mut row_c) = (vec![0.0f64; wf], vec![0.0f64; wc]);
    let bind_ms = measure(|| {
        for i in 0..n {
            binder.bind_pair_into_f64(i, &mut row_f, &mut row_c);
        }
    });
    out.put("core.bind.ns_per_scenario", bind_ms * 1e6 / n as f64);
    out.put("core.bind.busy_ms", bind_ms);

    let mut out_full = vec![0.0f64; block * full64.program().num_polys()];
    let mut out_comp = vec![0.0f64; block * comp64.program().num_polys()];
    let mut scratch = LaneScratch::new();
    let kernel_ms = measure(|| {
        surface::kernel_f64(&full64, &rows_full, &mut out_full, &mut scratch);
        surface::kernel_f64(&comp64, &rows_comp, &mut out_comp, &mut scratch);
    });
    let kernel_busy = kernel_ms * n as f64 / block as f64;
    out.put(
        "provenance.kernel.f64_ns_per_monomial",
        kernel_ms * 1e6 / (block as f64 * terms),
    );
    out.put("provenance.kernel.f64_busy_ms", kernel_busy);
    let dag_full_engine = surface::evaluator_from_program(dag_full.program);
    let dag_comp_engine = surface::evaluator_from_program(dag_comp.program);
    let dag_kernel_ms = measure(|| {
        surface::kernel_f64(&dag_full_engine, &rows_full, &mut out_full, &mut scratch);
        surface::kernel_f64(&dag_comp_engine, &rows_comp, &mut out_comp, &mut scratch);
    });
    out.put(
        "provenance.kernel.dag_f64_ns_per_monomial",
        dag_kernel_ms * 1e6 / (block as f64 * terms),
    );
    // Computed, not measured: the CSR holds per term one f64
    // coefficient and one u32 offset, and per factor a u32 variable id
    // and a u32 exponent; the multiplies are `multiply_ops`.
    let muls = full64.program().multiply_ops() as f64 / full64.program().num_terms().max(1) as f64;
    out.put("provenance.kernel.f64_mul_per_monomial", muls);
    out.put(
        "provenance.kernel.f64_bytes_per_monomial",
        12.0 + 8.0 * muls,
    );

    // The probes: up to 16 evenly spaced scenarios bound and evaluated
    // exactly on both sides.
    let probes = n.min(16);
    let picks: Vec<usize> = (0..probes)
        .map(|k| k * (n - 1) / (probes - 1).max(1))
        .collect();
    let (ef, ec) = (engines.full.program(), engines.compressed.program());
    let mut exact_full = vec![vec![Rat::ZERO; ef.num_locals()]; probes];
    let mut exact_comp = vec![vec![Rat::ZERO; ec.num_locals()]; probes];
    let mut exact_out_f = vec![Rat::ZERO; probes * ef.num_polys()];
    let mut exact_out_c = vec![Rat::ZERO; probes * ec.num_polys()];
    let mut fixed = surface::FixedScratch::new();
    let probes_ms = measure(|| {
        for (k, &i) in picks.iter().enumerate() {
            binder.bind_pair_into(i, &mut exact_full[k], &mut exact_comp[k]);
        }
        surface::kernel_exact(&engines.full, &exact_full, &mut exact_out_f, &mut fixed);
        surface::kernel_exact(
            &engines.compressed,
            &exact_comp,
            &mut exact_out_c,
            &mut fixed,
        );
    });
    let exact_kernel_ms = measure(|| {
        surface::kernel_exact(&engines.full, &exact_full, &mut exact_out_f, &mut fixed);
        surface::kernel_exact(
            &engines.compressed,
            &exact_comp,
            &mut exact_out_c,
            &mut fixed,
        );
    });
    out.put(
        "provenance.kernel.exact_us_per_scenario",
        exact_kernel_ms * 1e3 / probes as f64,
    );
    let full_side = measure(|| {
        surface::kernel_exact(
            &engines.full,
            &exact_full[..1],
            &mut exact_out_f[..ef.num_polys()],
            &mut fixed,
        )
    });
    let comp_side = measure(|| {
        surface::kernel_exact(
            &engines.compressed,
            &exact_comp[..1],
            &mut exact_out_c[..ec.num_polys()],
            &mut fixed,
        )
    });
    out.put("core.assign.full_ms", full_side);
    out.put("core.assign.compressed_ms", comp_side);
    out.put(
        "core.assign.speedup_pct",
        (1.0 - comp_side / full_side) * 100.0,
    );

    let total_ms = try_measure(|| surface::sweep_f64_worst(&session, &grid).map_err(err))?;
    let self_ms = total_ms - bind_ms - kernel_busy - probes_ms;
    out.put("core.probes.ms", probes_ms);
    out.put("core.probes.share", probes_ms / total_ms);
    out.put("core.sweep.total_ms", total_ms);
    out.put("core.fold.self_ms", self_ms);
    out.put("core.fold.self_share", self_ms / total_ms);
    // The exact (`Rat`) fold over a small grid of the same axes.
    let exact_grid = data::grid(&mut session, &ds.axes, &vec![4; ds.axes.len()]);
    let exact_ms = try_measure(|| surface::sweep_exact_worst(&session, &exact_grid).map_err(err))?;
    out.put(
        "core.sweep.exact_scenarios_per_s",
        exact_grid.len() as f64 / (exact_ms / 1e3),
    );
    let bounded_ms = try_measure(|| surface::sweep_f64_bounded(&session, &grid).map_err(err))?;
    out.put("core.shadow.overhead_ratio", bounded_ms / total_ms);

    // Thread scaling on a grid four times as long (host-dependent).
    let mut long_steps = probe.grid_steps.clone();
    long_steps[0] *= 4;
    let long_grid = data::grid(&mut session, &ds.axes, &long_steps);
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let one = try_measure(|| surface::sweep_f64_par(&session, &long_grid, 1).map_err(err))?;
    let many = try_measure(|| surface::sweep_f64_par(&session, &long_grid, nproc).map_err(err))?;
    out.put("core.par.speedup", one / many);

    // ---- groups, planning, cut application, selection
    let tree = session.trees()[0].clone();
    let analyze_ms = try_measure(|| surface::analyze_groups(&ds.polys, &tree).map_err(err))?;
    let analysis = surface::analyze_groups(&ds.polys, &tree).map_err(err)?;
    out.put("core.groups.analyze_ms", analyze_ms);
    out.put("core.groups.count", analysis.num_groups() as f64);
    // The planner call alone, on a fresh session each time (a planned
    // session answers a second call from its cache).
    let time_plan = |trees: &[String]| -> Result<(f64, usize), String> {
        let mut samples = Vec::new();
        let mut points = 0;
        let started = Instant::now();
        while samples.len() < 5
            && (samples.is_empty() || started.elapsed() < Duration::from_secs(1))
        {
            let mut s = surface::session_new(ds.reg.clone(), ds.polys.clone());
            for t in trees {
                surface::add_tree_text(&mut s, t).map_err(err)?;
            }
            let (planned, dt) = journey::timed(|| surface::plan_frontier(&mut s).map_err(err));
            points = planned?.0;
            samples.push(dt.as_secs_f64() * 1e3);
        }
        Ok((stats::median(&samples), points))
    };
    let (frontier_ms, points) = time_plan(tree0)?;
    out.put("core.plan.frontier_ms", frontier_ms);
    out.put("core.plan.frontier_points", points as f64);
    let forest: Vec<String> = if ds.trees.len() > 1 {
        ds.trees.clone()
    } else {
        vec![ds.trees[0].clone(), off_tree(ds)]
    };
    out.put("core.plan.forest_frontier_ms", time_plan(&forest)?.0);

    let cut = surface::frontier_cut(&session, bound)
        .map_err(err)?
        .ok_or("the primary bound selects no frontier point")?;
    let reserved = ds.polys.distinct_vars();
    let apply_ms = measure(|| {
        let mut reg = session.registry().clone();
        surface::apply_cut_with_groups(&ds.polys, &tree, &analysis, &cut, &reserved, &mut reg)
    });
    out.put("core.apply.ms", apply_ms);
    for (name, value) in &outcome.quality {
        out.put(name, *value);
    }

    let sizes = surface::frontier_sizes(&session).map_err(err)?;
    let other = data::feasible(ds.bounds[1], sizes[0]);
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    for _ in 0..5 {
        let (mut s, bound) = planned(ds, tree0)?;
        let mut hop = |b: u64, into: &mut Vec<f64>| -> Result<(), String> {
            let (done, dt) = journey::timed(|| {
                surface::select_bound(&mut s, b).map_err(err)?;
                surface::warm_up(&s).map_err(err)
            });
            into.push(dt.as_secs_f64() * 1e3);
            done
        };
        hop(other, &mut cold)?;
        hop(bound, &mut cold)?;
        hop(other, &mut warm)?;
        hop(bound, &mut warm)?;
    }
    out.put("core.select.cold_ms", stats::median(&cold));
    out.put("core.select.warm_ms", stats::median(&warm));

    // ---- deltas: the polynomial patch, the session's coefficient-only
    // path, and a structural edit (one monomial removed, then put back)
    let targets = ds.delta_targets(&mut rng);
    let mut set = ds.polys.clone();
    let prog = engines.full.program();
    let mut round = 0;
    let patch_ms = try_measure(|| {
        round += 1;
        let report = surface::polyset_apply_delta(&mut set, &data::delta(&targets, round))?;
        Ok(surface::patched_coeffs(prog, &set, &report.touched()))
    })?;
    out.put("provenance.delta.patch_ms", patch_ms);
    let mut round = 0;
    let apply_delta_ms = try_measure(|| {
        round += 1;
        surface::session_apply_delta(&mut session, &data::delta(&targets, round)).map_err(err)
    })?;
    surface::session_apply_delta(&mut session, &data::delta(&targets, 0)).map_err(err)?;
    out.put("core.delta.apply_ms", apply_delta_ms);
    let (p, m, c) = targets[0].clone();
    let mut present = true;
    let structural_ms = try_measure(|| {
        let mut delta = surface::PolyDelta::new();
        if present {
            delta.remove(p, m.clone());
        } else {
            delta.add(p, m.clone(), c);
        }
        present = !present;
        surface::session_apply_delta(&mut session, &delta).map_err(err)
    })?;
    if !present {
        let mut delta = surface::PolyDelta::new();
        delta.add(p, m.clone(), c);
        surface::session_apply_delta(&mut session, &delta).map_err(err)?;
    }
    out.put("core.delta.structural_ms", structural_ms);

    // ---- persist and hydrate
    surface::warm_up(&session).map_err(err)?;
    let path = tmp.join("layers.cobra");
    let snapshot_ms = try_measure(|| surface::snapshot_session(&session).map_err(err))?;
    let bytes = surface::snapshot_session(&session).map_err(err)?;
    let write_ms = try_measure(|| surface::write_artifact(&path, &bytes))?;
    let open_ms = try_measure(|| surface::open_artifact(&path))?;
    let artifact = surface::open_artifact(&path)?;
    let restore_ms = try_measure(|| surface::restore_session(&artifact).map_err(err))?;
    out.put("provenance.persist.write_ms", write_ms);
    out.put("provenance.persist.open_ms", open_ms);
    out.put(
        "provenance.persist.artifact_mb",
        bytes.len() as f64 / (1024.0 * 1024.0),
    );
    out.put("core.hydrate.snapshot_ms", snapshot_ms);
    out.put("core.hydrate.restore_ms", restore_ms);

    // ---- server: JSON, store dispatch, the wire
    let sweep_b: Bindings = ds.perturbations(&mut rng, probe.sweep_width);
    let assign_b: Bindings = ds.assignment(&mut rng);
    let delta_sets = |round: u64| data::delta_wire(ds, &targets, round);
    let id = "probe";
    let store = surface::store_new(None, None);
    let mut fresh = 0;
    let prepare_ms = try_measure(|| {
        fresh += 1;
        reply_members(surface::store_prepare(
            &store,
            &format!("prep{fresh}"),
            &text,
            &ds.trees[0],
        ))
    })?;
    out.put("server.store.prepare_ms", prepare_ms);
    reply_members(surface::store_prepare(&store, id, &text, &ds.trees[0]))?;
    reply_members(surface::store_select_bound(&store, id, bound))?;
    let d_sweep = try_measure(|| reply_members(surface::store_sweep(&store, id, &sweep_b)))?;
    let d_assign = try_measure(|| reply_members(surface::store_assign(&store, id, &assign_b)))?;
    let mut flip = 0usize;
    let d_select = try_measure(|| {
        flip += 1;
        reply_members(surface::store_select_bound(
            &store,
            id,
            [other, bound][flip % 2],
        ))
    })?;
    let mut round = 0;
    let d_delta = try_measure(|| {
        round += 1;
        reply_members(surface::store_apply_delta(&store, id, &delta_sets(round)))
    })?;
    reply_members(surface::store_apply_delta(&store, id, &delta_sets(0)))?;
    reply_members(surface::store_select_bound(&store, id, bound))?;
    out.put("server.store.dispatch_ms.sweep", d_sweep);
    out.put("server.store.dispatch_ms.assign", d_assign);
    out.put("server.store.dispatch_ms.select_bound", d_select);
    out.put("server.store.dispatch_ms.apply_delta", d_delta);

    let request = wire::sweep(1, id, &sweep_b);
    let parse_us = try_measure(|| surface::proto_parse_request(request.text()))? * 1e3;
    let members = reply_members(surface::store_sweep(&store, id, &sweep_b))?;
    let reply_text = surface::proto_ok_reply(&Json::Num(1.0), members.clone());
    let mut copies: Vec<_> = (0..25).map(|_| members.clone()).collect();
    let encode_us =
        measure(|| surface::proto_ok_reply(&Json::Num(1.0), copies.pop().unwrap_or_default()))
            * 1e3;
    out.put("server.json.parse_us", parse_us);
    out.put("server.json.encode_us", encode_us);
    out.put("server.json.request_bytes", request.text().len() as f64);
    out.put("server.json.reply_bytes", reply_text.len() as f64);
    // A `prepare` request carries the polynomials as one JSON string;
    // parse one of at most 256 KiB (whole lines of the text) — the cost
    // grows with the square of the string at this commit, so the full
    // paper-scale text is out of reach.
    let cap = text.len().min(256 << 10);
    let cut = text[..cap].rfind('\n').map_or(cap, |i| i + 1);
    let big = wire::prepare(1, id, Some((&text[..cut], &ds.trees[0])), false);
    let big_ms = try_measure(|| surface::proto_parse_request(big.text()))?;
    out.put("server.json.prepare_parse_ms", big_ms);
    out.put(
        "server.json.prepare_parse_mb_per_s",
        big.text().len() as f64 / 1e6 / (big_ms / 1e3),
    );
    drop(store);

    // Two sessions against a live tier of one: every request finds its
    // session retired to disk.
    let tier = tmp.join("layers-store");
    std::fs::create_dir_all(&tier).map_err(err)?;
    let capped = surface::store_new(Some(tier), Some(1));
    for twin in ["evict-a", "evict-b"] {
        reply_members(surface::store_prepare(&capped, twin, &text, &ds.trees[0]))?;
        reply_members(surface::store_select_bound(&capped, twin, bound))?;
    }
    let mut turn = 0usize;
    let evict_ms = try_measure(|| {
        turn += 1;
        let twin = ["evict-a", "evict-b"][turn % 2];
        // A re-hydrated session has no selection: re-select, then ask.
        reply_members(surface::store_select_bound(&capped, twin, bound))?;
        reply_members(surface::store_sweep(&capped, twin, &sweep_b))
    })?;
    out.put("server.store.evict_reload_ms", evict_ms);
    drop(capped);

    // Through the disk tier, not as text: the server's JSON string
    // parser is quadratic in the string's length, and a paper-scale
    // `polys` string (2.3 MB) takes over a minute to parse.
    let tier = tmp.join("layers-wire");
    std::fs::create_dir_all(&tier).map_err(err)?;
    surface::write_artifact(&tier.join(format!("{id}.cobra")), &bytes)?;
    let server = surface::serve(Some(tier), None).map_err(err)?;
    let mut client = Client::connect(surface::server_addr(&server)).map_err(err)?;
    client
        .call(&wire::prepare(1, id, None, false))
        .map_err(err)?;
    client
        .call(&wire::select_bound(2, id, bound))
        .map_err(err)?;
    let mut next = 10u64;
    let mut rtt = |make: &mut dyn FnMut(u64) -> wire::Request| -> Result<f64, String> {
        let mut ms = Vec::new();
        for _ in 0..12 {
            next += 1;
            let reply = client.call(&make(next)).map_err(err)?;
            ms.push(reply.latency.as_secs_f64() * 1e3);
        }
        Ok(stats::median(&ms))
    };
    let json_ms = (parse_us + encode_us) / 1e3;
    let rtt_sweep = rtt(&mut |i| wire::sweep(i, id, &sweep_b))?;
    let rtt_assign = rtt(&mut |i| wire::assign(i, id, &assign_b))?;
    let mut flip = 0usize;
    let rtt_select = rtt(&mut |i| {
        flip += 1;
        wire::select_bound(i, id, [other, bound][flip % 2])
    })?;
    let mut round = 0;
    let rtt_delta = rtt(&mut |i| {
        round += 1;
        wire::apply_delta(i, id, &delta_sets(round))
    })?;
    // What is left of a round trip once the store's work and the JSON
    // of a sweep-sized message are taken out: the wire and its waits.
    out.put("server.wire.wait_ms.sweep", rtt_sweep - d_sweep - json_ms);
    out.put(
        "server.wire.wait_ms.assign",
        rtt_assign - d_assign - json_ms,
    );
    out.put(
        "server.wire.wait_ms.select_bound",
        rtt_select - d_select - json_ms,
    );
    out.put(
        "server.wire.wait_ms.apply_delta",
        rtt_delta - d_delta - json_ms,
    );
    drop(client);
    surface::server_shutdown(server);

    let payload = reply_text.as_bytes();
    let mut buf: Vec<u8> = Vec::with_capacity(payload.len() + 4);
    let framed_us = try_measure(|| {
        buf.clear();
        surface::write_frame(&mut buf, payload).map_err(err)?;
        surface::read_frame(&mut &buf[..]).map_err(err)
    })? * 1e3;
    out.put("util.framed.roundtrip_us", framed_us);

    // ---- what tracing itself costs: the interactive sweep, spans armed
    // and disarmed in turn
    for m in &outcome.extras {
        out.put(&m.name, m.value);
    }
    out.put("trace.spans", recorded.len() as f64);
    let set: ScenarioSet = data::perturbation_set(session.registry_mut(), &sweep_b);
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for k in 0..40 {
        let armed = k % 2 == 0;
        if armed {
            spans::arm();
        }
        let (done, dt) = journey::timed(|| surface::sweep_f64_totals(&session, &set).map_err(err));
        if armed {
            spans::disarm();
        }
        done?;
        if armed { &mut on } else { &mut off }.push(dt.as_secs_f64() * 1e3);
    }
    out.put(
        "trace.overhead_pct",
        (stats::median(&on) / stats::median(&off) - 1.0) * 100.0,
    );
    out.put("trace.decompose_s", pass_started.elapsed().as_secs_f64());

    let missing: Vec<&str> = LAYER_METRICS
        .iter()
        .map(|(n, ..)| *n)
        .filter(|n| !out.0.iter().any(|m| m.name == *n))
        .collect();
    if !missing.is_empty() {
        return Err(format!(
            "the decomposition pass produced no {}",
            missing.join(", ")
        ));
    }
    out.0
        .sort_by_key(|m| LAYER_METRICS.iter().position(|(n, ..)| *n == m.name));
    Ok(out.0)
}
