//! Conformance of the engine API against the algorithms' direct
//! session-threaded entry points and against ground truth.
//!
//! * **Differential**: for all 36 suite rows, registry-driven runs must
//!   report the same certified bounds (to 1e-9) and the same verdicts as
//!   direct calls of the `synthesize_*_in` functions with a fresh
//!   `LpSolver` session — the engine adapters are wiring, not
//!   reimplementation, and this pins it.
//! * **Racing**: `--race` semantics — every row certifies, the winner's
//!   value is identical to that engine run alone (whichever engine
//!   wins), and cancelled racers' statistics land in the `abandoned`
//!   bucket without double-counting.
//! * **Dominance**: on finite instances every certified upper-engine
//!   bound must lie above the value-iteration truth (Theorems 4.3/4.4),
//!   and every lower-engine bound below it — for *every* registered
//!   engine of the direction, not just the default lineup.

use qava_core::engine::{race, AnalysisRequest, Direction, EngineRegistry};
use qava_core::explinsyn::synthesize_upper_bound_in;
use qava_core::explowsyn::synthesize_lower_bound_in;
use qava_core::fixpoint::VpfOracle;
use qava_core::hoeffding::{synthesize_reprsm_bound_in, DEFAULT_SER_ITERATIONS};
use qava_core::suite::runner::{
    default_engines, race_rows_with, suite_abandoned_lp_stats, suite_lp_stats,
};
use qava_core::suite::{table1, table2, Benchmark};
use qava_core::BoundKind;
use qava_lp::{BackendChoice, LpSolver};
use std::collections::BTreeMap;

/// Runs one engine's algorithm by engine name on an already compiled
/// program, through its `*_in` function in a fresh session.
fn legacy_bound(engine: &str, pts: &qava_pts::Pts) -> Result<f64, String> {
    let solver = &mut LpSolver::new();
    let ser = DEFAULT_SER_ITERATIONS;
    match engine {
        "hoeffding-linear" => synthesize_reprsm_bound_in(pts, BoundKind::Hoeffding, ser, solver)
            .map(|r| r.bound.ln())
            .map_err(|e| e.to_string()),
        "azuma" => synthesize_reprsm_bound_in(pts, BoundKind::Azuma, ser, solver)
            .map(|r| r.bound.ln())
            .map_err(|e| e.to_string()),
        "explinsyn" => synthesize_upper_bound_in(pts, solver)
            .map(|r| r.bound.ln())
            .map_err(|e| e.to_string()),
        "explowsyn" => synthesize_lower_bound_in(pts, solver)
            .map(|r| r.bound.ln())
            .map_err(|e| e.to_string()),
        other => panic!("no direct entry point mapped for engine `{other}`"),
    }
}

/// The acceptance gate of the API redesign: all 36 rows, every default
/// engine, direct `*_in` call vs registry run, bounds to 1e-9 and
/// verdicts equal.
#[test]
fn all_36_rows_bitreproduce_direct_calls() {
    let rows: Vec<Benchmark> = table1().into_iter().chain(table2()).collect();
    assert_eq!(rows.len(), 36);
    let registry = EngineRegistry::with_builtins();
    let mut compared = 0usize;
    for row in &rows {
        let pts = row.compile();
        for &name in default_engines(row.direction) {
            let engine = registry.engine(name).expect("default engines are built in");
            let req = AnalysisRequest::new(&pts, engine.direction());
            let via_engine = registry
                .run_engine(name, &req, BackendChoice::default())
                .expect("built-in engine");
            let via_legacy = legacy_bound(name, &pts);
            match (&via_engine.outcome, &via_legacy) {
                (Ok(c), Ok(expected)) => {
                    assert!(
                        (c.bound.ln() - expected).abs() <= 1e-9,
                        "{} ({}) / {name}: engine ln {} vs direct ln {}",
                        row.name,
                        row.label,
                        c.bound.ln(),
                        expected
                    );
                }
                (Err(e), Err(expected)) => {
                    assert_eq!(
                        &e.to_string(),
                        expected,
                        "{} ({}) / {name}: verdicts diverge",
                        row.name,
                        row.label
                    );
                }
                (got, want) => panic!(
                    "{} ({}) / {name}: engine {:?} vs direct {:?}",
                    row.name,
                    row.label,
                    got.as_ref().map(|c| c.bound.ln()),
                    want
                ),
            }
            compared += 1;
        }
    }
    assert_eq!(compared, 63, "27 upper rows x 2 engines + 9 lower rows x 1");
}

/// `--race` over the full suite: every row certifies, the per-row report
/// names the winner and its lineup, and the winner's value equals that
/// engine run sequentially — whichever engine won.
#[test]
fn race_certifies_every_row_with_sequential_winner_value() {
    let rows: Vec<Benchmark> = table1().into_iter().chain(table2()).collect();
    let reports = race_rows_with(&rows, BackendChoice::default());
    assert_eq!(reports.len(), 36);
    let registry = EngineRegistry::with_builtins();
    for report in &reports {
        assert_eq!(report.runs.len(), 1);
        let run = &report.runs[0];
        let raced: Vec<&str> = run.raced.to_vec();
        assert_eq!(
            raced,
            default_engines(report.direction).to_vec(),
            "{}: lineup must be the direction's default engines",
            report.name
        );
        let bound = run
            .bound
            .as_ref()
            .unwrap_or_else(|e| panic!("{} ({}): race failed: {e}", report.name, report.label));
        // Bit-reproduce the winner sequentially.
        let pts = rows[report.row].compile();
        let req = AnalysisRequest::new(&pts, report.direction);
        let solo = registry
            .run_engine(run.engine, &req, BackendChoice::default())
            .expect("winner is registered")
            .bound()
            .expect("winner certified in the race, must certify alone");
        assert!(
            (bound.ln() - solo.ln()).abs() <= 1e-9,
            "{} ({}): race winner {} reported {} vs solo {}",
            report.name,
            report.label,
            run.engine,
            bound.ln(),
            solo.ln()
        );
    }
    // Honest accounting: certified totals exclude the abandoned bucket.
    let certified = suite_lp_stats(&reports);
    let abandoned = suite_abandoned_lp_stats(&reports);
    let per_run_winner: usize =
        reports.iter().flat_map(|r| &r.runs).map(|run| run.lp.solves).sum();
    let per_run_abandoned: usize =
        reports.iter().flat_map(|r| &r.runs).map(|run| run.abandoned.solves).sum();
    assert_eq!(certified.solves, per_run_winner);
    assert_eq!(abandoned.solves, per_run_abandoned);
    assert!(certified.solves > 0);
}

/// Race determinism across possible winners: for every engine in the
/// upper lineup, when that engine wins (forced here by racing it alone)
/// the reported bound equals its sequential value — so the *reported
/// certified bound of the winner* is independent of racing, whichever
/// engine wins a contested race.
#[test]
fn race_reported_value_is_winner_invariant() {
    let row = &table1()[0];
    let pts = row.compile();
    let registry = EngineRegistry::with_builtins();
    let req = AnalysisRequest::upper(&pts);
    for &name in default_engines(Direction::Upper) {
        let engine = registry.engine(name).unwrap();
        let solo = registry
            .run_engine(name, &req, BackendChoice::default())
            .unwrap()
            .bound()
            .expect("default upper engines certify the first RdAdder row");
        let outcome = race(&[engine], &req, BackendChoice::default());
        let won = outcome.winning_report().expect("single-engine race certifies");
        assert_eq!(won.engine, name);
        assert!(
            (won.bound().unwrap().ln() - solo.ln()).abs() <= 1e-9,
            "{name}: raced value {} vs solo {}",
            won.bound().unwrap().ln(),
            solo.ln()
        );
    }
    // And a contested race's winner agrees with its own solo value.
    let lineup: Vec<_> =
        default_engines(Direction::Upper).iter().map(|n| registry.engine(n).unwrap()).collect();
    let outcome = race(&lineup, &req, BackendChoice::default());
    let winner = outcome.winning_report().expect("contested race certifies");
    let solo = registry
        .run_engine(winner.engine, &req, BackendChoice::default())
        .unwrap()
        .bound()
        .unwrap();
    assert!((winner.bound().unwrap().ln() - solo.ln()).abs() <= 1e-9);
}

/// Finite instances where value iteration gives the truth: certified
/// upper bounds must dominate it, certified lower bounds must stay
/// below it — for every registered engine of each direction.
#[test]
fn every_registered_engine_respects_fixpoint_truth_on_finite_instances() {
    let programs: &[(&str, &str)] = &[
        ("coin_flip", "x := 0; if prob(0.3) { assert false; } else { exit; }"),
        (
            "gambler_ruin",
            r"
                x := 3;
                while x >= 1 and x <= 9 invariant x >= 0 and x <= 10 {
                    if prob(0.5) { x := x + 1; } else { x := x - 1; }
                }
                assert x >= 10;
            ",
        ),
        (
            "race_40",
            r"
                x := 40; y := 0;
                while x <= 99 and y <= 99 invariant x <= 100 and y <= 101 {
                    if prob(0.5) { x, y := x + 1, y + 2; } else { x := x + 1; }
                }
                assert x >= 100;
            ",
        ),
    ];
    let registry = EngineRegistry::with_builtins();
    let mut certified_upper = 0usize;
    let mut certified_lower = 0usize;
    for (name, src) in programs {
        let pts = qava_lang::compile(src, &BTreeMap::new()).unwrap();
        let oracle = VpfOracle::explore(&pts, 200_000).unwrap();
        let (truth_lo, truth_hi) = oracle.interval(100_000);
        for engine in registry.engines() {
            let req = AnalysisRequest::new(&pts, engine.direction());
            let Some(bound) = registry
                .run_engine(engine.name(), &req, BackendChoice::default())
                .unwrap()
                .bound()
            else {
                continue; // declining is allowed; certifying wrongly is not
            };
            match engine.direction() {
                Direction::Upper => {
                    certified_upper += 1;
                    assert!(
                        bound.to_f64() >= truth_lo - 1e-9,
                        "{name}/{}: upper bound {} below the truth {truth_lo}",
                        engine.name(),
                        bound.to_f64()
                    );
                }
                Direction::Lower => {
                    certified_lower += 1;
                    assert!(
                        bound.to_f64() <= truth_hi + 1e-9,
                        "{name}/{}: lower bound {} above the truth {truth_hi}",
                        engine.name(),
                        bound.to_f64()
                    );
                }
            }
        }
    }
    assert!(certified_upper >= 4, "dominance must not hold vacuously ({certified_upper})");
    assert!(certified_lower >= 1, "at least the coin flip admits a lower bound");
}

/// The abandoned-bucket merge itself (satellite: honest stats under
/// racing): winner statistics and loser statistics must partition the
/// total — nothing dropped, nothing counted twice.
#[test]
fn abandoned_bucket_merge_partitions_totals() {
    use qava_core::suite::runner::{EngineRun, RowReport};
    use qava_lp::LpStats;

    fn stats(solves: usize, pivots: usize) -> LpStats {
        LpStats { solves, pivots, ..LpStats::default() }
    }
    let mk_run = |winner: usize, lost: usize| EngineRun {
        engine: "hoeffding-linear",
        bound: Err("synthetic".to_string()),
        seconds: 0.0,
        lp: stats(winner, 10 * winner),
        abandoned: stats(lost, 10 * lost),
        raced: vec!["hoeffding-linear", "explinsyn"],
        fault: None,
    };
    let reports = vec![
        RowReport {
            row: 0,
            name: "A",
            label: "a".into(),
            previous: None,
            direction: Direction::Upper,
            runs: vec![mk_run(3, 2)],
        },
        RowReport {
            row: 1,
            name: "B",
            label: "b".into(),
            previous: None,
            direction: Direction::Upper,
            runs: vec![mk_run(5, 7)],
        },
    ];
    let certified = suite_lp_stats(&reports);
    let abandoned = suite_abandoned_lp_stats(&reports);
    assert_eq!(certified.solves, 8);
    assert_eq!(certified.pivots, 80);
    assert_eq!(abandoned.solves, 9);
    assert_eq!(abandoned.pivots, 90);
    // The partition property: certified + abandoned = all work done.
    assert_eq!(certified.solves + abandoned.solves, 17);
}

/// A loaded race on a shared workload: losers' sessions stop at LP
/// boundaries, and whatever they spent is banked as abandoned, never in
/// the winner's share.
#[test]
fn contested_race_banks_loser_work_as_abandoned() {
    let row = &table2()[0]; // M1DWalk: both lower engines certify
    let pts = row.compile();
    let registry = EngineRegistry::with_builtins();
    let req = AnalysisRequest::lower(&pts);
    let lineup = registry.applicable(&req);
    assert_eq!(lineup.len(), 2, "explowsyn and polylow race the lower direction");
    let outcome = race(&lineup, &req, BackendChoice::default());
    let winner_idx = outcome.winner.expect("a lower engine certifies M1DWalk");
    let loser_solves: usize = outcome
        .reports
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != winner_idx)
        .map(|(_, r)| r.lp.solves)
        .sum();
    assert_eq!(outcome.abandoned.solves, loser_solves, "abandoned = exactly the losers' work");
    let winner = &outcome.reports[winner_idx];
    // Winner's lp share never includes loser work (they're separate
    // sessions, so equality with its solo run is the strongest check).
    let solo = registry.run_engine(winner.engine, &req, BackendChoice::default()).unwrap();
    assert_eq!(winner.lp.solves, solo.lp.solves);
}
