//! LP conformance corpus replay: every captured instance through every
//! backend.
//!
//! `tests/corpus/*.qlp` are core-form LP systems harvested from real
//! suite runs (`crates/core/tests/harvest_corpus.rs` is the capture
//! tool; the ROADMAP's "corpus capture workflow" section documents when
//! and how to add one). This harness generalizes what
//! `drift_regression.rs` pins for one instance to a growable corpus:
//! every backend — dense, sparse, lu-ft — must reproduce the
//! verdict recorded from the dense oracle at capture time, agree with
//! the pinned objective to 1e-7, satisfy `A·x = b` to 1e-6, and, when a
//! file carries a (deliberately hostile) warm basis, produce the same
//! result through the warm path as cold.
//!
//! ## File format (`.qlp`, line oriented)
//!
//! ```text
//! # comments
//! name <slug>
//! origin <free text provenance>
//! m <rows> n <cols>
//! c <j> <value>            sparse objective entries
//! b <i> <value>            sparse right-hand side (b ≥ 0)
//! a <i> <j> <value>        matrix triplets
//! warm <j0> <j1> …         optional warm-start basis (m entries)
//! expect optimal|infeasible|unbounded
//! objective <value>        dense-oracle c·x (required when optimal)
//! ```
//!
//! Values are written with 17 significant digits so every `f64` round
//! trips exactly.

use qava_lp::{
    BackendChoice, CoreSolution, CscMatrix, DenseTableau, FaultKind, FaultPlan, LpBackend,
    LpError, LpSolver, LuFtSimplex, SparseRevised,
};
use std::path::{Path, PathBuf};

/// Verdict + objective agreement tolerance (absolute on the scale of
/// the pinned objective; corpus objectives are O(1) after
/// equilibration).
const OBJECTIVE_TOL: f64 = 1e-7;

/// `‖A·x − b‖∞` ceiling for every reported optimal point.
const RESIDUAL_TOL: f64 = 1e-6;

#[derive(Debug, Clone, PartialEq, Eq)]
enum Expect {
    Optimal,
    Infeasible,
    Unbounded,
}

struct CorpusInstance {
    name: String,
    costs: Vec<f64>,
    rows: Vec<Vec<(usize, f64)>>,
    b: Vec<f64>,
    warm: Option<Vec<usize>>,
    expect: Expect,
    objective: Option<f64>,
}

impl CorpusInstance {
    fn matrix(&self) -> CscMatrix {
        CscMatrix::from_sparse_rows(self.rows.len(), self.costs.len(), &self.rows)
    }
}

fn parse(path: &Path) -> CorpusInstance {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let mut name = String::new();
    let mut costs = Vec::new();
    let mut b = Vec::new();
    let mut rows: Vec<Vec<(usize, f64)>> = Vec::new();
    let mut warm = None;
    let mut expect = None;
    let mut objective = None;
    let parse_num = |field: &str, line: &str| -> f64 {
        field.parse().unwrap_or_else(|_| panic!("{}: bad line `{line}`", path.display()))
    };
    let parse_idx = |field: &str, line: &str| -> usize {
        field.parse().unwrap_or_else(|_| panic!("{}: bad line `{line}`", path.display()))
    };
    for line in text.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.first() {
            None | Some(&"#") => {}
            Some(s) if s.starts_with('#') => {}
            Some(&"name") => name = fields[1].to_string(),
            Some(&"origin") => {}
            Some(&"m") => {
                let m = parse_idx(fields[1], line);
                let n = parse_idx(fields[3], line);
                costs = vec![0.0; n];
                b = vec![0.0; m];
                rows = vec![Vec::new(); m];
            }
            Some(&"c") => costs[parse_idx(fields[1], line)] = parse_num(fields[2], line),
            Some(&"b") => b[parse_idx(fields[1], line)] = parse_num(fields[2], line),
            Some(&"a") => {
                let i = parse_idx(fields[1], line);
                let j = parse_idx(fields[2], line);
                rows[i].push((j, parse_num(fields[3], line)));
            }
            Some(&"warm") => {
                warm = Some(fields[1..].iter().map(|f| parse_idx(f, line)).collect());
            }
            Some(&"expect") => {
                expect = Some(match fields[1] {
                    "optimal" => Expect::Optimal,
                    "infeasible" => Expect::Infeasible,
                    "unbounded" => Expect::Unbounded,
                    other => panic!("{}: unknown verdict `{other}`", path.display()),
                });
            }
            Some(&"objective") => objective = Some(parse_num(fields[1], line)),
            Some(other) => panic!("{}: unknown directive `{other}`", path.display()),
        }
    }
    let expect = expect.unwrap_or_else(|| panic!("{}: missing `expect`", path.display()));
    if expect == Expect::Optimal {
        assert!(objective.is_some(), "{}: optimal instance without pinned objective", path.display());
    }
    assert!(!name.is_empty(), "{}: missing `name`", path.display());
    CorpusInstance { name, costs, rows, b, warm, expect, objective }
}

fn corpus_files() -> Vec<PathBuf> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("corpus dir {}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "qlp"))
        .collect();
    files.sort();
    assert!(
        files.len() >= 9,
        "conformance corpus shrank to {} instances — capture files lost?",
        files.len()
    );
    files
}

/// The full backend lineup every instance replays through.
fn backends() -> Vec<Box<dyn LpBackend>> {
    vec![Box::new(DenseTableau), Box::new(SparseRevised), Box::new(LuFtSimplex)]
}

/// Checks one solve result against the instance's pinned expectations.
fn check(
    inst: &CorpusInstance,
    backend: &str,
    mode: &str,
    out: Result<CoreSolution, LpError>,
) {
    let tag = format!("{} [{backend}, {mode}]", inst.name);
    match inst.expect {
        Expect::Infeasible => {
            assert_eq!(out.unwrap_err(), LpError::Infeasible, "{tag}: verdict");
        }
        Expect::Unbounded => {
            assert_eq!(out.unwrap_err(), LpError::Unbounded, "{tag}: verdict");
        }
        Expect::Optimal => {
            let sol = out.unwrap_or_else(|e| panic!("{tag}: expected optimal, got {e}"));
            let pinned = inst.objective.expect("checked at parse time");
            let obj: f64 = inst.costs.iter().zip(&sol.x).map(|(c, x)| c * x).sum();
            assert!(
                (obj - pinned).abs() <= OBJECTIVE_TOL * (1.0 + pinned.abs()),
                "{tag}: objective {obj:.12e} drifted from pinned {pinned:.12e}"
            );
            for (i, row) in inst.rows.iter().enumerate() {
                let ax: f64 = row.iter().map(|&(j, v)| v * sol.x[j]).sum();
                assert!(
                    (ax - inst.b[i]).abs() < RESIDUAL_TOL,
                    "{tag}: row {i} residual {:.3e}",
                    (ax - inst.b[i]).abs()
                );
            }
            assert!(
                sol.x.iter().all(|&v| v >= -RESIDUAL_TOL),
                "{tag}: negative solution component"
            );
        }
    }
}

/// Every corpus instance, every backend, cold: verdicts, pinned
/// objectives, and `A·x = b` residuals must all hold.
#[test]
fn corpus_replays_identically_across_backends() {
    for path in corpus_files() {
        let inst = parse(&path);
        let a = inst.matrix();
        for backend in backends() {
            let out = backend.solve_core(&inst.costs, &a, &inst.b, None);
            check(&inst, backend.name(), "cold", out);
        }
    }
}

/// Instances that carry a warm basis (hostile by construction —
/// singular or stale) must come out identical through the warm path of
/// every warm-capable backend: warm starts may only ever change speed.
#[test]
fn corpus_warm_bases_never_change_results() {
    let mut exercised = 0usize;
    for path in corpus_files() {
        let inst = parse(&path);
        let Some(warm) = inst.warm.clone() else { continue };
        let a = inst.matrix();
        for backend in backends() {
            if !backend.supports_warm_start() {
                continue;
            }
            let out = backend.solve_core(&inst.costs, &a, &inst.b, Some(&warm));
            check(&inst, backend.name(), "warm", out);
            exercised += 1;
        }
    }
    assert!(exercised > 0, "corpus holds no warm-basis instance — capture files lost?");
}

/// Solves one corpus instance through a full `LpSolver` session (so the
/// presolve/equilibration/failover pipeline is engaged) and checks the
/// result against the pinned verdict and objective.
fn check_session(inst: &CorpusInstance, solver: &mut LpSolver, tag: &str) {
    let out =
        solver.solve_standard_sparse(&inst.costs, &inst.rows, &inst.b, inst.costs.len());
    match inst.expect {
        Expect::Infeasible => {
            assert_eq!(out.unwrap_err(), LpError::Infeasible, "{tag}: verdict");
        }
        Expect::Unbounded => {
            assert_eq!(out.unwrap_err(), LpError::Unbounded, "{tag}: verdict");
        }
        Expect::Optimal => {
            let x = out.unwrap_or_else(|e| panic!("{tag}: expected optimal, got {e}"));
            let pinned = inst.objective.expect("checked at parse time");
            let obj: f64 = inst.costs.iter().zip(&x).map(|(c, v)| c * v).sum();
            assert!(
                (obj - pinned).abs() <= OBJECTIVE_TOL * (1.0 + pinned.abs()),
                "{tag}: objective {obj:.12e} drifted from pinned {pinned:.12e}"
            );
        }
    }
}

/// Metamorphic fault replay: every corpus instance, re-solved under each
/// single-fault plan a backend can plausibly hit, must still land on the
/// pinned verdict and objective — recovery (in-backend restart or the
/// failover ladder) may change *how* the answer is reached, never *what*
/// it is. Plans whose site is never visited on a given instance simply
/// don't fire, which is also a valid outcome.
#[test]
fn corpus_survives_every_single_fault_plan() {
    let plans: &[(FaultKind, &[BackendChoice])] = &[
        (FaultKind::RefactorFail, &[BackendChoice::Sparse, BackendChoice::LuFt]),
        (FaultKind::ShakyPivot, &[BackendChoice::LuFt]),
        (FaultKind::AccuracyTrip, &[BackendChoice::LuFt]),
        (FaultKind::PivotLimit, &[BackendChoice::LuFt, BackendChoice::Sparse]),
    ];
    let mut fired = 0usize;
    for path in corpus_files() {
        let inst = parse(&path);
        for &(kind, choices) in plans {
            for &choice in choices {
                let mut solver = LpSolver::with_choice(choice);
                solver.install_fault_plan(FaultPlan::once(kind));
                let tag = format!("{} [{choice:?}, fault {}]", inst.name, kind.label());
                check_session(&inst, &mut solver, &tag);
                fired += usize::from(solver.fault_fired());
            }
        }
    }
    assert!(fired > 0, "no fault plan ever fired — injection sites unreachable?");
}

/// Warm-poison replay: prime the warm-start cache with a clean solve,
/// then re-solve with a plan that corrupts the looked-up basis into a
/// singular one. The backend must fall back to a cold start (or the
/// ladder must rescue it) and still reproduce the pinned answer.
#[test]
fn corpus_survives_poisoned_warm_starts() {
    let mut fired = 0usize;
    for path in corpus_files() {
        let inst = parse(&path);
        for choice in [BackendChoice::Sparse, BackendChoice::LuFt] {
            let mut solver = LpSolver::with_choice(choice);
            let tag_clean = format!("{} [{choice:?}, warm prime]", inst.name);
            check_session(&inst, &mut solver, &tag_clean);
            solver.install_fault_plan(FaultPlan::once(FaultKind::WarmPoison));
            let tag = format!("{} [{choice:?}, warm poison]", inst.name);
            check_session(&inst, &mut solver, &tag);
            fired += usize::from(solver.fault_fired());
        }
    }
    assert!(fired > 0, "no warm lookup was ever poisoned — cache never hit?");
}
