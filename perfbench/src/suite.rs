//! `suite`: back-to-back in-process passes of the paper suite — 36 rows,
//! 63 engine runs — through `suite::runner::run_rows_with` on a pool of
//! width nproc, exactly what `qava --suite` and `tables` run. Every task
//! compiles its row and gets a cold private LP session, so the convex
//! barrier, the LP backends and session, and Farkas generation all work
//! here while the daemon and dual reoptimization do not.

use crate::harness::{PassResult, Workload};
use crate::layers::layer_values;
use crate::reference::{engines_for, lp_counts, suite_rows, Reference, ENGINES, SUITE_TOL};
use crate::stats::Rng;
use crate::trace::{self, span};
use qava_convex::SolverOptions;
use qava_core::engine::{AnalysisRequest, EngineRegistry};
use qava_core::explinsyn::build_convex_program_in;
use qava_core::invariants::propagate_invariants;
use qava_core::suite::runner::run_rows_with;
use qava_core::suite::Benchmark;
use qava_core::template::TemplateSpace;
use qava_core::LogProb;
use qava_lp::{BackendChoice, LpSolver, LpStats};
use qava_pts::Pts;
use qavad::client::SUITE_INVARIANT_ITERS;
use std::collections::BTreeMap;
use std::time::Instant;

pub struct Suite;

pub struct Live {
    reference: Reference,
    rows: Vec<Benchmark>,
    registry: EngineRegistry,
    /// The latest untraced pass per (row, engine): what the traced pass
    /// must reproduce exactly.
    last: BTreeMap<(usize, &'static str), RunRecord>,
    /// Failed analyses of the warm-up pass, reported with the first pass.
    pending: Vec<String>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    pub ln: Result<f64, String>,
    pub solves: usize,
    pub pivots: usize,
}

impl RunRecord {
    pub fn new(ln: Result<f64, String>, lp: &LpStats) -> RunRecord {
        RunRecord {
            ln,
            solves: lp.solves,
            pivots: lp.pivots,
        }
    }

    pub fn bound(&self) -> Result<f64, &str> {
        self.ln.as_ref().copied().map_err(String::as_str)
    }
}

/// Row indices in a fresh seeded order: every pass schedules the rows
/// differently, so pass times sample the pool's scheduling rather than
/// one fixed order.
fn order(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    order
}

impl Workload for Suite {
    type Live = Live;
    const DETERMINISTIC: bool = true;
    const SINGLE_THREADED_TRACE: bool = true;

    fn setup(&self, rng: &mut Rng) -> Result<Live, String> {
        let mut live = Live {
            reference: Reference::load()?,
            rows: suite_rows(),
            registry: trace::traced_registry(),
            last: BTreeMap::new(),
            pending: Vec::new(),
        };
        live.pending = self.pass(&mut live, rng)?.failures;
        Ok(live)
    }

    fn pass(&self, live: &mut Live, rng: &mut Rng) -> Result<PassResult, String> {
        let order = order(live.rows.len(), rng);
        let rows: Vec<Benchmark> = order.iter().map(|&i| live.rows[i].clone()).collect();
        let t = Instant::now();
        let reports = run_rows_with(&rows, engines_for, BackendChoice::Auto);
        let mut r = PassResult {
            wall_s: t.elapsed().as_secs_f64(),
            ..PassResult::default()
        };

        r.problems.append(&mut live.pending);
        let mut total = LpStats::default();
        let mut engine_solves: BTreeMap<&str, usize> = BTreeMap::new();
        for (report, &i) in reports.iter().zip(&order) {
            let b = &live.rows[i];
            for run in &report.runs {
                r.attempted += 1;
                r.request_ms.push(run.seconds * 1e3);
                let ln = run.bound.as_ref().map(|p| p.ln()).map_err(Clone::clone);
                let record = RunRecord::new(ln, &run.lp);
                match live.reference.check(
                    (b.name, &b.label),
                    run.engine,
                    record.bound(),
                    SUITE_TOL,
                ) {
                    Ok(()) => r.certified += 1,
                    Err(e) => r.failures.push(e),
                }
                total.merge(&run.lp);
                *engine_solves.entry(run.engine).or_default() += run.lp.solves;
                live.last.insert((i, run.engine), record);
            }
        }
        lp_counts(&total, &mut r.counts);
        for engine in ENGINES {
            let solves = engine_solves.get(engine).copied().unwrap_or(0);
            r.counts
                .insert(format!("synth.{engine}.lp_solves"), solves as f64);
        }
        Ok(r)
    }

    fn traced_pass(&self, live: &mut Live, rng: &mut Rng) -> Result<PassResult, String> {
        let order = order(live.rows.len(), rng);
        let tasks: Vec<(usize, &'static str)> = order
            .iter()
            .flat_map(|&i| engines_for(&live.rows[i]).into_iter().map(move |e| (i, e)))
            .collect();
        let mark = trace::mark();
        let t = Instant::now();
        let done: Vec<Task> = tasks
            .iter()
            .map(|&(i, engine)| {
                trace::set_id(i);
                traced_task(&live.rows[i], engine, &live.registry)
            })
            .collect();
        let mut r = PassResult {
            wall_s: t.elapsed().as_secs_f64(),
            ..PassResult::default()
        };
        let spans = trace::since(mark);

        let mut lp_wall_ms: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (&(i, engine), task) in tasks.iter().zip(&done) {
            let b = &live.rows[i];
            r.attempted += 1;
            match live
                .reference
                .check((b.name, &b.label), engine, task.record.bound(), SUITE_TOL)
            {
                Ok(()) => r.certified += 1,
                Err(e) => r.failures.push(e),
            }
            if live.last.get(&(i, engine)) != Some(&task.record) {
                r.problems.push(format!(
                    "traced {} {} / {engine} gave {:?}, untraced {:?}",
                    b.name,
                    b.label,
                    task.record,
                    live.last.get(&(i, engine))
                ));
            }
            *lp_wall_ms.entry(engine).or_default() += task.lp_wall_s * 1e3;
            for (name, v) in &task.counts {
                *r.counts.entry(name.to_string()).or_default() += v;
            }
        }
        layer_values(&spans, r.wall_s, &lp_wall_ms, &mut r.values);
        Ok(r)
    }
}

/// One traced (row, engine) task.
struct Task {
    record: RunRecord,
    lp_wall_s: f64,
    counts: Vec<(&'static str, f64)>,
}

/// `Benchmark::compile` one public front-end call at a time, with a span
/// around each, counting the program's size.
pub fn compile_traced(b: &Benchmark, counts: &mut Vec<(&'static str, f64)>) -> Result<Pts, String> {
    let program =
        span("lang.parse", "", || qava_lang::parse(b.source)).map_err(|e| format!("parse: {e}"))?;
    let mut pts = span("lang.lower", "", || qava_lang::lower(&program, &b.params))
        .map_err(|e| format!("lower: {e}"))?;
    span("invariants.propagate", "", || {
        propagate_invariants(&mut pts, SUITE_INVARIANT_ITERS)
    });
    counts.push(("lang.pts_locations", pts.num_locations() as f64));
    counts.push(("lang.pts_transitions", pts.transitions().len() as f64));
    Ok(pts)
}

/// Compiles the row and runs the engine, as the suite runner does for
/// one task, with a span around each call. `explinsyn` runs through its
/// public decomposition so the template build and the convex solve get
/// spans of their own.
fn traced_task(b: &Benchmark, engine: &'static str, registry: &EngineRegistry) -> Task {
    let mut counts = Vec::new();
    let mut solver = LpSolver::with_choice(BackendChoice::Auto);
    let ln = (|| {
        let pts = compile_traced(b, &mut counts)?;
        if engine == "explinsyn" {
            return explinsyn_decomposed(&pts, &mut solver, &mut counts);
        }
        let e = registry
            .engine(engine)
            .ok_or_else(|| format!("unknown engine {engine}"))?;
        let report = e.run(&AnalysisRequest::new(&pts, e.direction()), &mut solver);
        report
            .outcome
            .map(|c| c.bound.ln())
            .map_err(|e| e.to_string())
    })();
    let lp = solver.take_stats();
    Task {
        lp_wall_s: lp.wall_seconds,
        record: RunRecord::new(ln, &lp),
        counts,
    }
}

/// `explinsyn` the way its engine runs it — template space, convex
/// program, interior-point solve — one public call at a time.
fn explinsyn_decomposed(
    pts: &Pts,
    solver: &mut LpSolver,
    counts: &mut Vec<(&'static str, f64)>,
) -> Result<f64, String> {
    trace::install(solver);
    span("synth", "explinsyn", || {
        if pts.is_absorbing(pts.initial_state().loc) {
            return Err("initial location is absorbing".to_string());
        }
        let space = TemplateSpace::new(pts, false);
        let problem = span("synth.explinsyn.build", "", || {
            build_convex_program_in(pts, &space, solver)
        })
        .map_err(|e| e.to_string())?;
        counts.push(("convex.constraints", problem.num_constraints() as f64));
        counts.push(("convex.vars", problem.num_vars() as f64));
        let sol = span("convex.solve", "", || {
            problem.solve(&SolverOptions::default())
        })
        .map_err(|e| e.to_string())?;
        counts.push(("convex.newton_iterations", sol.newton_iterations as f64));
        Ok(LogProb::from_ln(sol.objective).clamp_to_unit().ln())
    })
}
