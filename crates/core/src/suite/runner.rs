//! Parallel driver for the benchmark suite, built on the engine API.
//!
//! The paper's evaluation (Tables 1–2) runs several bound engines over
//! 36 program rows. In **sequential mode** each (row, engine) pair is an
//! independent piece of work: compilation, invariant propagation and
//! synthesis share nothing across pairs (the monomial interner and
//! Handelman product caches are thread-local by design, and every task
//! owns its private [`LpSolver`] session — warm-start bases and solver
//! statistics live in the session, not in ambient state). The driver
//! fans the pairs out over a rayon-style thread pool and reassembles the
//! results **in input order**, so the emitted tables are byte-identical
//! regardless of scheduling.
//!
//! In **race mode** ([`race_rows_with`]) the unit of work is a row: the
//! row's engines race in-process ([`crate::engine::race_with`]), the first
//! *certified* bound wins, the losers are cancelled cooperatively, and
//! the row reports the winner plus the losers' LP statistics in a
//! separate `abandoned` bucket — [`suite_lp_stats`] only ever counts
//! certified work, [`suite_abandoned_lp_stats`] only cancelled work, so
//! footers never double-count pivots spent by losing candidates.
//!
//! Both modes run through [`run_lineup`], the one driver that turns a
//! lineup of engine names into [`EngineRun`]s; `qava FILE` and the
//! `qavad` daemon's `analyze` requests run through it too, so a program
//! is analyzed the same way on every path.
//!
//! Engines are resolved by name through an [`EngineRegistry`]
//! ([`run_rows_in`] takes an explicit registry for externally registered
//! engines; the convenience wrappers use the built-ins). Used by the
//! `tables` binary (`crates/bench`) and the `qava --suite` CLI mode
//! (both expose `--lp-backend`/`--race` and forward them here); the
//! criterion benches keep calling the synthesis entry points directly so
//! that measured times stay single-threaded.

use crate::engine::{
    race_with, AnalysisReport, AnalysisRequest, Direction, EngineError, EngineRegistry,
};
use crate::logprob::LogProb;
use crate::suite::Benchmark;
use qava_lp::{BackendChoice, FaultPlan, LpSolver, LpStats};
use rayon::prelude::*;
use std::sync::Arc;
use std::time::Instant;

/// The engines the paper's tables run for a bound direction, by
/// registry name.
pub fn default_engines(direction: Direction) -> &'static [&'static str] {
    match direction {
        Direction::Upper => &["hoeffding-linear", "explinsyn"],
        Direction::Lower => &["explowsyn"],
    }
}

/// Outcome of one engine (or one race) on one table row.
#[derive(Debug, Clone)]
pub struct EngineRun {
    /// Engine that produced this outcome — in race mode, the winner.
    pub engine: &'static str,
    /// Certified bound, or the failure rendered as text.
    pub bound: Result<LogProb, String>,
    /// Wall-clock synthesis time (excluding compilation), seconds.
    pub seconds: f64,
    /// LP statistics behind the reported bound (the winner's session in
    /// race mode).
    pub lp: LpStats,
    /// LP statistics of cancelled/losing racers; empty in sequential
    /// mode. Kept apart from `lp` so suite totals stay honest.
    pub abandoned: LpStats,
    /// Every engine that raced for this outcome (empty in sequential
    /// mode), in race order.
    pub raced: Vec<&'static str>,
    /// The spec label of the fault plan that actually fired during this
    /// run (`"pivot-limit:2"`; chaos mode, [`run_rows_chaos`]), `None`
    /// when no plan was installed or its site was never reached. Only
    /// sequential runs report it.
    pub fault: Option<String>,
}

impl EngineRun {
    /// The one place an engine outcome becomes an [`EngineRun`]. The
    /// `answer` report speaks for the run, verdict, statistics and all:
    /// a sequential run's one report, or a race's winner. A race over
    /// `raced` that nothing certified has no answer; it names every
    /// racer's failure and keeps all its work in `abandoned`.
    fn settle(
        reports: &[AnalysisReport],
        answer: Option<usize>,
        raced: Vec<&'static str>,
        abandoned: LpStats,
        seconds: f64,
        fault: Option<String>,
    ) -> EngineRun {
        if let Some(answer) = answer {
            let report = &reports[answer];
            return EngineRun {
                engine: report.engine,
                bound: report.outcome.as_ref().map(|c| c.bound).map_err(ToString::to_string),
                seconds,
                lp: report.lp.clone(),
                abandoned,
                raced,
                fault,
            };
        }
        // Pure cancellations carry no verdict; they are named only when
        // nothing else is left to say.
        let msgs: Vec<String> = reports
            .iter()
            .filter(|r| !r.cancelled())
            .map(|r| {
                let why = r.outcome.as_ref().err().map_or_else(
                    || "uncertified".to_string(),
                    EngineError::to_string,
                );
                format!("{}: {why}", r.engine)
            })
            .collect();
        let message = match (msgs.is_empty(), reports.is_empty()) {
            (false, _) => msgs.join("; "),
            (true, true) => "no applicable engine".to_string(),
            (true, false) => "cancelled".to_string(),
        };
        EngineRun {
            engine: "race",
            bound: Err(message),
            seconds,
            lp: LpStats::default(),
            abandoned,
            raced,
            fault,
        }
    }
}

/// One [`EngineRun`] of [`run_lineup`] with the engine reports behind
/// it, for callers that print certificates or details.
#[derive(Debug, Clone)]
pub struct LineupRun {
    /// The run as the suite, the daemon and the footers report it.
    pub run: EngineRun,
    /// The one engine's report (sequential), or every racer's report in
    /// lineup order (race; engines the race screened out have none).
    pub reports: Vec<AnalysisReport>,
}

/// Runs the lineup `names` on `req`'s program: the one driver behind
/// the suite, the sweep, `qava FILE` and every daemon `analyze` request.
///
/// The engines are grouped by direction, upper before lower, and each
/// group runs with `req`'s budgets and its own direction, whatever
/// `req.direction` says. With `race` a group races
/// ([`race_with`]) and gives one run; otherwise its engines run one after
/// another in lineup order, one run each. Every engine gets a fresh
/// [`LpSolver`] session with `backend`, which `configure` sets up before
/// the engine starts: a cancel flag (attach it with
/// [`LpSolver::add_cancel_flag`], so a race's own flag stays), a shared
/// warm-start cache or a fault plan. A lineup naming an engine the
/// registry does not hold runs nothing and gives one failed run.
pub fn run_lineup(
    registry: &EngineRegistry,
    names: &[&'static str],
    req: &AnalysisRequest<'_>,
    backend: BackendChoice,
    race: bool,
    configure: &(dyn Fn(&mut LpSolver) + Sync),
) -> Vec<LineupRun> {
    if let Some(&unknown) = names.iter().find(|n| registry.engine(n).is_none()) {
        let report = AnalysisReport {
            engine: unknown,
            direction: req.direction,
            outcome: Err(EngineError::Failed(format!("unknown engine `{unknown}`"))),
            lp: LpStats::default(),
            wall_seconds: 0.0,
        };
        let (answer, raced) = if race { (None, names.to_vec()) } else { (Some(0), Vec::new()) };
        let reports = vec![report];
        let run = EngineRun::settle(&reports, answer, raced, LpStats::default(), 0.0, None);
        return vec![LineupRun { run, reports }];
    }
    let mut runs = Vec::new();
    for direction in [Direction::Upper, Direction::Lower] {
        let group: Vec<_> = names
            .iter()
            .filter_map(|n| registry.engine(n))
            .filter(|e| e.direction() == direction)
            .collect();
        if group.is_empty() {
            continue;
        }
        let req = AnalysisRequest { direction, ..req.clone() };
        if race {
            let raced = group.iter().map(|e| e.name()).collect();
            let t0 = Instant::now();
            let outcome = race_with(&group, &req, backend, Arc::default(), configure);
            let seconds = t0.elapsed().as_secs_f64();
            let (reports, winner) = (outcome.reports, outcome.winner);
            let run = EngineRun::settle(&reports, winner, raced, outcome.abandoned, seconds, None);
            runs.push(LineupRun { run, reports });
            continue;
        }
        for engine in group {
            let mut solver = LpSolver::with_choice(backend);
            configure(&mut solver);
            let t0 = Instant::now();
            let report = engine.run(&req, &mut solver);
            let seconds = t0.elapsed().as_secs_f64();
            let fault = solver.clear_fault_plan().filter(FaultPlan::fired).map(|p| p.label());
            let (reports, abandoned) = (vec![report], LpStats::default());
            let run = EngineRun::settle(&reports, Some(0), Vec::new(), abandoned, seconds, fault);
            runs.push(LineupRun { run, reports });
        }
    }
    runs
}

/// All requested engine outcomes for one table row, in request order.
#[derive(Debug, Clone)]
pub struct RowReport {
    /// Index of the row in the input slice.
    pub row: usize,
    /// Benchmark name (e.g. `Race`).
    pub name: &'static str,
    /// Row label (e.g. `Pr[T > 500]`).
    pub label: String,
    /// Published "previous results" number, for ratio columns.
    pub previous: Option<LogProb>,
    /// Bound direction of the row.
    pub direction: Direction,
    /// One entry per requested engine (or one racing entry per row).
    pub runs: Vec<EngineRun>,
}

impl RowReport {
    /// Returns the outcome of the engine with the given name, if it was
    /// scheduled (in race mode: if it won).
    pub fn run(&self, engine: &str) -> Option<&EngineRun> {
        self.runs.iter().find(|r| r.engine == engine)
    }
}

/// [`run_rows_with`] with the default backend policy.
pub fn run_rows(
    rows: &[Benchmark],
    engines: impl Fn(&Benchmark) -> Vec<&'static str> + Sync,
) -> Vec<RowReport> {
    run_rows_with(rows, engines, BackendChoice::default())
}

/// Sequential mode over the built-in registry: fans
/// `rows × engines(row)` out over the thread pool and returns one report
/// per row, in input order.
pub fn run_rows_with(
    rows: &[Benchmark],
    engines: impl Fn(&Benchmark) -> Vec<&'static str> + Sync,
    backend: BackendChoice,
) -> Vec<RowReport> {
    run_rows_in(&EngineRegistry::with_builtins(), rows, engines, backend)
}

/// Sequential mode with an explicit registry (externally registered
/// engines included). Every task runs inside its own [`LpSolver`]
/// session created with the given backend policy; the session's
/// statistics are attached to the task's [`EngineRun`] (merge them with
/// [`suite_lp_stats`] for a fleet-wide total).
///
/// `engines` picks the engine names per row; use [`default_engines`]
/// composed over [`Benchmark::direction`] for the paper's tables. An
/// unknown name reports as a failed run rather than panicking the
/// worker.
pub fn run_rows_in(
    registry: &EngineRegistry,
    rows: &[Benchmark],
    engines: impl Fn(&Benchmark) -> Vec<&'static str> + Sync,
    backend: BackendChoice,
) -> Vec<RowReport> {
    run_rows_inner(registry, rows, engines, backend, None)
}

/// Chaos mode: sequential mode over the built-in registry, with one
/// pseudo-random *recoverable* fault plan injected into every task's
/// solver session. The plan for a task is derived from `seed` and the
/// task's `(row, engine)` identity — never from scheduling — so the
/// same seed always injects the same faults regardless of thread
/// interleaving. The robustness contract under test: every row must
/// still certify, and every certified bound must agree with the
/// fault-free run (the `qava --suite --chaos` driver asserts both).
pub fn run_rows_chaos(
    rows: &[Benchmark],
    engines: impl Fn(&Benchmark) -> Vec<&'static str> + Sync,
    backend: BackendChoice,
    seed: u64,
) -> Vec<RowReport> {
    run_rows_inner(&EngineRegistry::with_builtins(), rows, engines, backend, Some(seed))
}

/// Mixes a suite-level chaos seed with a task's stable identity. FNV-1a
/// over the engine name folded into the row index keeps the per-task
/// seed independent of how rayon schedules the tasks.
fn chaos_task_seed(seed: u64, row: usize, engine: &str) -> u64 {
    let mut h = seed ^ (row as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for &byte in engine.as_bytes() {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn run_rows_inner(
    registry: &EngineRegistry,
    rows: &[Benchmark],
    engines: impl Fn(&Benchmark) -> Vec<&'static str> + Sync,
    backend: BackendChoice,
    chaos: Option<u64>,
) -> Vec<RowReport> {
    // Flatten to (row, engine) tasks so a slow row does not serialize
    // the engines behind it.
    let tasks: Vec<(usize, &'static str)> = rows
        .iter()
        .enumerate()
        .flat_map(|(i, b)| engines(b).into_iter().map(move |e| (i, e)))
        .collect();

    let outcomes: Vec<(usize, EngineRun)> = tasks
        .par_iter()
        .map(|&(i, name)| {
            let plan = chaos.map(|seed| FaultPlan::chaos(chaos_task_seed(seed, i, name)));
            (i, run_task(registry, &rows[i], name, backend, plan))
        })
        .collect();

    assemble(rows, outcomes)
}

/// Runs engine `name` on row `b` as one self-contained task of a pool:
/// the task compiles the row and solves it through [`run_lineup`] in its
/// own [`LpSolver`] session with the given backend policy and, in chaos
/// mode, fault plan. The suite's sequential mode and the sweep driver
/// ([`crate::sweep::run_sweeps_in`]) run every task through here. An
/// unknown engine name reports as a failed run.
pub(crate) fn run_task(
    registry: &EngineRegistry,
    b: &Benchmark,
    name: &'static str,
    backend: BackendChoice,
    plan: Option<FaultPlan>,
) -> EngineRun {
    // Compile per task: compilation is cheap next to synthesis, and it
    // keeps every task self-contained on its worker thread (monomial
    // ids never cross threads). The solver session is equally
    // task-private: one synthesis run is exactly the scope over which
    // warm starts are sound ideas and statistics are attributable.
    let pts = b.compile();
    let req = AnalysisRequest::new(&pts, b.direction);
    let install = |solver: &mut LpSolver| {
        if let Some(plan) = &plan {
            solver.install_fault_plan(plan.clone());
        }
    };
    let mut runs = run_lineup(registry, &[name], &req, backend, false, &install);
    runs.pop().expect("one engine, one run").run
}

/// Race mode over the built-in registry: one racing task per row, over
/// that row's [`default_engines`] lineup (falling back across every
/// registered engine of the direction would change which bound a row
/// reports; the default lineup mirrors what the paper's tables print).
pub fn race_rows_with(rows: &[Benchmark], backend: BackendChoice) -> Vec<RowReport> {
    race_rows_in(&EngineRegistry::with_builtins(), rows, |b| {
        default_engines(b.direction).to_vec()
    }, backend)
}

/// Race mode with an explicit registry and per-row lineup: each row's
/// engines race in-process, the first certified bound is reported under
/// the winner's name, and cancelled racers' LP statistics land in the
/// run's `abandoned` bucket.
pub fn race_rows_in(
    registry: &EngineRegistry,
    rows: &[Benchmark],
    engines: impl Fn(&Benchmark) -> Vec<&'static str> + Sync,
    backend: BackendChoice,
) -> Vec<RowReport> {
    let tasks: Vec<usize> = (0..rows.len()).collect();
    let outcomes: Vec<Vec<LineupRun>> = tasks
        .par_iter()
        .map(|&i| {
            let b = &rows[i];
            let pts = b.compile();
            let req = AnalysisRequest::new(&pts, b.direction);
            // An unknown name fails the row loudly, exactly like the
            // sequential driver — silently racing a smaller lineup would
            // report a winner the caller never asked to trust alone.
            run_lineup(registry, &engines(b), &req, backend, true, &|_| {})
        })
        .collect();
    let outcomes = outcomes
        .into_iter()
        .enumerate()
        .flat_map(|(i, runs)| runs.into_iter().map(move |r| (i, r.run)))
        .collect();

    assemble(rows, outcomes)
}

/// Sweep mode (`qava --sweep`): runs every parametric family of the
/// suite ([`crate::suite::sweep_families`]) through one call of the
/// sweep driver ([`crate::sweep::run_sweeps_in`]). Every point runs like
/// a sequential-mode row with its direction's
/// [`primary_engine`](crate::sweep::primary_engine), all points on one
/// pool. `check_cold` has no effect: every point is its own cold run.
/// It is left for the `sweep` benchmark workload, which still passes
/// it; the next benchmark change drops it.
pub fn sweep_families_with(
    backend: BackendChoice,
    check_cold: bool,
) -> Vec<crate::sweep::SweepReport> {
    let families = crate::suite::sweep_families();
    let reqs: Vec<_> = families
        .iter()
        .map(|rows| crate::sweep::SweepRequest { rows, engine: None, backend, check_cold })
        .collect();
    crate::sweep::run_sweeps_in(&EngineRegistry::with_builtins(), &reqs)
}

/// Reassembles per-task outcomes into per-row reports, in input order.
fn assemble(rows: &[Benchmark], outcomes: Vec<(usize, EngineRun)>) -> Vec<RowReport> {
    let mut reports: Vec<RowReport> = rows
        .iter()
        .enumerate()
        .map(|(i, b)| RowReport {
            row: i,
            name: b.name,
            label: b.label.clone(),
            previous: b.paper.previous,
            direction: b.direction,
            runs: Vec::new(),
        })
        .collect();
    // `outcomes` is in task order (the shim's parallel map is
    // order-preserving), which is row-major by construction.
    for (i, run) in outcomes {
        reports[i].runs.push(run);
    }
    reports
}

/// Merges every run's **certified** LP statistics into one suite-wide
/// total (the `qava --suite` stats footer). Abandoned racer work is
/// deliberately excluded; see [`suite_abandoned_lp_stats`].
pub fn suite_lp_stats(reports: &[RowReport]) -> LpStats {
    let mut total = LpStats::default();
    for report in reports {
        for run in &report.runs {
            total.merge(&run.lp);
        }
    }
    total
}

/// Merges every run's **abandoned** LP statistics (cancelled racers)
/// into one suite-wide total. Zero everywhere in sequential mode.
pub fn suite_abandoned_lp_stats(reports: &[RowReport]) -> LpStats {
    let mut total = LpStats::default();
    for report in reports {
        for run in &report.runs {
            total.merge(&run.abandoned);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{table1, table2};

    #[test]
    fn parallel_results_deterministic_and_ordered() {
        // Three quick rows from table 2 (the affine lower bound is the
        // fastest synthesis); run twice and compare bounds exactly.
        let rows: Vec<Benchmark> = table2().into_iter().take(3).collect();
        let a = run_rows(&rows, |b| default_engines(b.direction).to_vec());
        let b = run_rows(&rows, |b| default_engines(b.direction).to_vec());
        assert_eq!(a.len(), 3);
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.row, rb.row);
            assert_eq!(ra.name, rb.name);
            assert_eq!(ra.runs.len(), rb.runs.len());
            for (xa, xb) in ra.runs.iter().zip(&rb.runs) {
                assert_eq!(xa.engine, xb.engine);
                match (&xa.bound, &xb.bound) {
                    (Ok(pa), Ok(pb)) => assert_eq!(pa.ln(), pb.ln(), "{}", ra.name),
                    (Err(ea), Err(eb)) => assert_eq!(ea, eb),
                    _ => panic!("{}: run outcomes diverged across executions", ra.name),
                }
            }
        }
    }

    #[test]
    fn suite_collects_lp_stats_per_backend() {
        let rows: Vec<Benchmark> = table2().into_iter().take(1).collect();
        let reports = run_rows_with(
            &rows,
            |b| default_engines(b.direction).to_vec(),
            BackendChoice::Sparse,
        );
        let stats = suite_lp_stats(&reports);
        assert!(stats.solves > 0, "lower-bound synthesis must solve LPs");
        assert_eq!(stats.backends.len(), 1, "forced policy uses one backend");
        assert_eq!(stats.backends[0].name, "sparse");
        let per_run: usize = reports
            .iter()
            .flat_map(|r| &r.runs)
            .map(|run| run.lp.backends.iter().map(|t| t.solves).sum::<usize>())
            .sum();
        assert_eq!(stats.backends[0].solves, per_run, "merge must preserve totals");
        assert_eq!(suite_abandoned_lp_stats(&reports).solves, 0, "no racing, no abandonment");
    }

    #[test]
    fn upper_rows_get_two_engines() {
        let rows: Vec<Benchmark> = table1().into_iter().take(1).collect();
        let reports = run_rows(&rows, |b| default_engines(b.direction).to_vec());
        assert_eq!(reports[0].runs.len(), 2);
        assert_eq!(reports[0].runs[0].engine, "hoeffding-linear");
        assert_eq!(reports[0].runs[1].engine, "explinsyn");
        assert!(reports[0].run("explinsyn").is_some());
        assert!(reports[0].run("explowsyn").is_none());
    }

    #[test]
    fn unknown_engine_reports_failure_not_panic() {
        let rows: Vec<Benchmark> = table2().into_iter().take(1).collect();
        let reports = run_rows(&rows, |_| vec!["interior-point"]);
        let run = &reports[0].runs[0];
        assert!(run.bound.as_ref().unwrap_err().contains("unknown engine"));
    }

    #[test]
    fn chaos_mode_is_deterministic_and_value_preserving() {
        let rows: Vec<Benchmark> = table2().into_iter().take(2).collect();
        let clean = run_rows(&rows, |b| default_engines(b.direction).to_vec());
        let engines = |b: &Benchmark| default_engines(b.direction).to_vec();
        let a = run_rows_chaos(&rows, engines, BackendChoice::default(), 4242);
        let b = run_rows_chaos(&rows, engines, BackendChoice::default(), 4242);
        for ((ra, rb), rc) in a.iter().zip(&b).zip(&clean) {
            for ((xa, xb), xc) in ra.runs.iter().zip(&rb.runs).zip(&rc.runs) {
                assert_eq!(xa.fault, xb.fault, "{}: same seed, same plan fired", ra.name);
                let (la, lb) = (xa.bound.as_ref().unwrap().ln(), xb.bound.as_ref().unwrap().ln());
                assert_eq!(la, lb, "{}: chaos must be deterministic", ra.name);
                let lc = xc.bound.as_ref().unwrap().ln();
                assert!(
                    (la - lc).abs() <= 1e-7 * (1.0 + lc.abs()),
                    "{}: chaos bound {la} diverged from clean {lc}",
                    ra.name
                );
            }
        }
    }

    #[test]
    fn race_mode_reports_winner_and_abandoned_bucket() {
        let rows: Vec<Benchmark> = table2().into_iter().take(2).collect();
        let reports = race_rows_with(&rows, BackendChoice::default());
        for report in &reports {
            assert_eq!(report.runs.len(), 1, "one racing run per row");
            let run = &report.runs[0];
            let bound = run.bound.as_ref().expect("lower rows certify");
            assert_eq!(run.raced, vec!["explowsyn"], "lower lineup races explowsyn");
            assert_eq!(run.engine, "explowsyn");
            // Single-engine race: nothing abandoned; the sequential run
            // must agree exactly.
            assert_eq!(run.abandoned.solves, 0);
            let seq = run_rows(
                &rows[report.row..=report.row],
                |b| default_engines(b.direction).to_vec(),
            );
            let seq_bound = seq[0].runs[0].bound.as_ref().unwrap();
            assert_eq!(bound.ln(), seq_bound.ln(), "{}: race must not change the value", report.name);
        }
    }

    #[test]
    fn lineup_runs_upper_then_lower_and_races_each_direction() {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        let row = &table2()[0];
        let pts = row.compile();
        let req = AnalysisRequest::new(&pts, Direction::Upper);
        let registry = EngineRegistry::with_builtins();
        let lineup = ["explowsyn", "hoeffding-linear"];
        let sessions = AtomicUsize::new(0);
        let count = |_: &mut LpSolver| {
            sessions.fetch_add(1, Ordering::SeqCst);
        };
        let seq = run_lineup(&registry, &lineup, &req, BackendChoice::default(), false, &count);
        let engines: Vec<_> = seq.iter().map(|r| r.run.engine).collect();
        assert_eq!(engines, ["hoeffding-linear", "explowsyn"], "upper group first");
        assert_eq!(sessions.load(Ordering::SeqCst), 2, "one configured session per engine");
        let raced = run_lineup(&registry, &lineup, &req, BackendChoice::default(), true, &|_| {});
        let groups: Vec<_> = raced.iter().map(|r| r.run.raced.clone()).collect();
        assert_eq!(groups, [vec!["hoeffding-linear"], vec!["explowsyn"]], "one race per direction");
        for (s, r) in seq.iter().zip(&raced) {
            assert_eq!(s.run.engine, r.run.engine);
            let (a, b) = (s.run.bound.as_ref().unwrap(), r.run.bound.as_ref().unwrap());
            assert_eq!(a.ln(), b.ln(), "{}: racing alone changes nothing", s.run.engine);
        }
        // A race whose caller flag is up before it starts reports the
        // cancellation, not a missing engine.
        let up = Arc::new(AtomicBool::new(true));
        let cancel = |solver: &mut LpSolver| solver.add_cancel_flag(up.clone());
        let off = run_lineup(&registry, &lineup[1..], &req, BackendChoice::Auto, true, &cancel);
        assert_eq!(off[0].run.bound.as_ref().unwrap_err(), "cancelled");
        // An unknown name fails the whole lineup with one run.
        let names = ["azuma", "nope"];
        let bad = run_lineup(&registry, &names, &req, BackendChoice::Auto, true, &|_| {});
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].run.raced, ["azuma", "nope"]);
        assert!(bad[0].run.bound.as_ref().unwrap_err().contains("unknown engine `nope`"));
    }
}
