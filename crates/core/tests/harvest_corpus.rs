//! Conformance-corpus **capture** harness (`#[ignore]` — run on demand).
//!
//! The LP conformance corpus (`crates/lp/tests/corpus/*.qlp`, replayed by
//! `crates/lp/tests/corpus.rs`) holds core-form LP instances harvested
//! from **real suite runs**: each file is exactly what an `LpBackend` saw
//! — the presolved, equilibrated standard-form system — together with
//! the dense-oracle verdict recorded at capture time. This test is the
//! capture tool. It is `#[ignore]`d because it *writes* the corpus; the
//! committed files are the source of truth and only change when this is
//! rerun deliberately:
//!
//! ```text
//! cargo test --release -p qava-core --test harvest_corpus -- --ignored
//! ```
//!
//! **Workflow when a field bug is found** (see ROADMAP "corpus capture
//! workflow"): wrap the failing workload's session with [`Capturing`]
//! just like `harvest()` does below, re-run the workload, pick the
//! offending instance out of the capture log (largest / most pivots /
//! last — whatever reproduces), give it a descriptive slug, and commit
//! the new `.qlp` file. Every backend — present and future — then
//! replays it forever.
//!
//! Selection policy here: for each named workload the **largest** system
//! and the **most pivot-hungry** system are kept (they are usually the
//! εmax-style knife-edge instances), deduplicated by shape. One coupon
//! instance is additionally re-emitted with a deliberately singular
//! warm-start basis — the warm-path rejection case.

use qava_core::hoeffding::{synthesize_reprsm_bound_in, BoundKind};
use qava_core::suite;
use qava_core::{explowsyn, hoeffding};
use qava_lp::{
    BackendChoice, CoreSolution, CscMatrix, DenseTableau, FaultKind, FaultPlan, LpBackend,
    LpError, LpSolver, LuFtSimplex,
};
use std::cell::RefCell;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::rc::Rc;

/// One captured core solve.
#[derive(Clone)]
struct Instance {
    costs: Vec<f64>,
    rows: Vec<Vec<(usize, f64)>>,
    b: Vec<f64>,
    pivots: usize,
}

impl Instance {
    fn m(&self) -> usize {
        self.b.len()
    }

    fn nnz(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    fn matrix(&self) -> CscMatrix {
        CscMatrix::from_sparse_rows(self.rows.len(), self.costs.len(), &self.rows)
    }

    /// Shape fingerprint for dedup across the per-workload picks.
    fn shape(&self) -> (usize, usize, usize) {
        (self.m(), self.costs.len(), self.nnz())
    }
}

/// An [`LpBackend`] wrapper that records every core system it is asked
/// to solve before delegating to the real engine.
struct Capturing {
    inner: Box<dyn LpBackend>,
    log: Rc<RefCell<Vec<Instance>>>,
}

impl LpBackend for Capturing {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn supports_warm_start(&self) -> bool {
        self.inner.supports_warm_start()
    }

    fn solve_core(
        &self,
        costs: &[f64],
        a: &CscMatrix,
        b: &[f64],
        warm: Option<&[usize]>,
    ) -> Result<CoreSolution, LpError> {
        let out = self.inner.solve_core(costs, a, b, warm);
        let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); a.rows()];
        a.for_each(|r, c, v| rows[r].push((c, v)));
        self.log.borrow_mut().push(Instance {
            costs: costs.to_vec(),
            rows,
            b: b.to_vec(),
            pivots: out.as_ref().map(|s| s.pivots).unwrap_or(usize::MAX),
        });
        out
    }
}

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../lp/tests/corpus")
}

/// Serializes an instance in the corpus format, stamping the
/// dense-oracle verdict; returns `None` when the oracle itself gives up
/// (nothing to pin against).
fn render(name: &str, origin: &str, inst: &Instance, warm: Option<&[usize]>) -> Option<String> {
    let a = inst.matrix();
    let oracle = DenseTableau.solve_core(&inst.costs, &a, &inst.b, None);
    let mut s = String::new();
    writeln!(s, "# qava LP conformance corpus v1 — replayed by crates/lp/tests/corpus.rs").unwrap();
    writeln!(s, "# Core form as the LpBackend saw it: presolved, equilibrated, b >= 0.").unwrap();
    writeln!(s, "name {name}").unwrap();
    writeln!(s, "origin {origin}").unwrap();
    writeln!(s, "m {} n {}", inst.m(), inst.costs.len()).unwrap();
    for (j, &c) in inst.costs.iter().enumerate() {
        if c != 0.0 {
            writeln!(s, "c {j} {c:.17e}").unwrap();
        }
    }
    for (i, &v) in inst.b.iter().enumerate() {
        if v != 0.0 {
            writeln!(s, "b {i} {v:.17e}").unwrap();
        }
    }
    for (i, row) in inst.rows.iter().enumerate() {
        for &(j, v) in row {
            writeln!(s, "a {i} {j} {v:.17e}").unwrap();
        }
    }
    if let Some(basis) = warm {
        let joined: Vec<String> = basis.iter().map(|j| j.to_string()).collect();
        writeln!(s, "warm {}", joined.join(" ")).unwrap();
    }
    match oracle {
        Ok(sol) => {
            let obj: f64 = inst.costs.iter().zip(&sol.x).map(|(c, x)| c * x).sum();
            writeln!(s, "expect optimal").unwrap();
            writeln!(s, "objective {obj:.17e}").unwrap();
        }
        Err(LpError::Infeasible) => writeln!(s, "expect infeasible").unwrap(),
        Err(LpError::Unbounded) => writeln!(s, "expect unbounded").unwrap(),
        // No capture session runs with a cancellation flag; either way a
        // solve without a verdict has nothing worth harvesting.
        Err(LpError::PivotLimit | LpError::Cancelled) => return None,
    }
    Some(s)
}

/// Runs one named workload with a capturing lu-ft session and returns the
/// instances worth keeping: the largest system and the most
/// pivot-hungry one.
fn harvest(run: impl FnOnce(&mut LpSolver)) -> Vec<Instance> {
    let log = Rc::new(RefCell::new(Vec::new()));
    let mut solver = LpSolver::with_choice(BackendChoice::LuFt);
    solver
        .register_backend(Box::new(Capturing { inner: Box::new(LuFtSimplex), log: Rc::clone(&log) }));
    run(&mut solver);
    let log = log.borrow();
    let mut picks: Vec<Instance> = Vec::new();
    let keep = |inst: Option<&Instance>, picks: &mut Vec<Instance>| {
        if let Some(inst) = inst {
            if picks.iter().all(|p| p.shape() != inst.shape()) {
                picks.push(inst.clone());
            }
        }
    };
    keep(log.iter().max_by_key(|i| (i.m(), i.nnz())), &mut picks);
    keep(
        log.iter().filter(|i| i.pivots != usize::MAX).max_by_key(|i| (i.pivots, i.nnz())),
        &mut picks,
    );
    // A mid-sized shape distinct from both of the above, for breadth:
    // the ε-probe ladders produce several structurally different systems
    // per synthesis, and the extremes alone usually share one shape.
    let mut shapes: Vec<(usize, usize, usize)> = log.iter().map(Instance::shape).collect();
    shapes.sort();
    shapes.dedup();
    if let Some(&mid) = shapes.get(shapes.len() / 2) {
        keep(log.iter().find(|i| i.shape() == mid), &mut picks);
    }
    picks
}

#[test]
#[ignore = "writes crates/lp/tests/corpus — run deliberately to (re)capture"]
fn harvest_conformance_corpus() {
    let dir = corpus_dir();
    std::fs::create_dir_all(&dir).unwrap();
    let mut written = 0usize;

    let mut emit = |slug: &str, origin: &str, inst: &Instance, warm: Option<&[usize]>| {
        if let Some(text) = render(slug, origin, inst, warm) {
            std::fs::write(dir.join(format!("{slug}.qlp")), text).unwrap();
            written += 1;
        }
    };

    // --- walk3d εmax (both parameterizations: the degenerate εmax
    // Hoeffding knife edge, and the one whose Dantzig trajectory visits
    // a transiently singular basis under FT).
    for (row_idx, tag) in [(0usize, "walk3d_emax_100"), (2, "walk3d_emax_300")] {
        let row = &suite::walk3d_rows()[row_idx];
        let pts = row.compile();
        let picks = harvest(|s| {
            synthesize_reprsm_bound_in(
                &pts,
                BoundKind::Hoeffding,
                hoeffding::DEFAULT_SER_ITERATIONS,
                s,
            )
            .unwrap();
        });
        let origin = format!("3DWalk {} Hoeffding εmax synthesis (suite Table 1)", row.label);
        for (k, inst) in picks.iter().enumerate() {
            emit(&format!("{tag}_{k}"), &origin, inst, None);
        }
    }

    // --- Coupon: mid-size dense-ish systems; the class whose near-tie
    // Dantzig pricing first exposed FT spike-recovery error.
    let row = &suite::coupon_rows()[0];
    let pts = row.compile();
    let picks = harvest(|s| {
        synthesize_reprsm_bound_in(&pts, BoundKind::Hoeffding, hoeffding::DEFAULT_SER_ITERATIONS, s)
            .unwrap();
    });
    let origin = format!("Coupon {} Hoeffding synthesis (suite Table 1)", row.label);
    for (k, inst) in picks.iter().enumerate() {
        emit(&format!("coupon_{k}"), &origin, inst, None);
    }
    // The singular-warm-basis case: the largest coupon system with every
    // basis slot pointing at column 0 — a structurally singular warm
    // basis every warm-capable backend must reject without changing the
    // verdict or the optimum.
    if let Some(inst) = picks.first() {
        let singular = vec![0usize; inst.m()];
        emit(
            "coupon_singular_warm",
            "Coupon Pr[T > 300] instance with a deliberately singular warm basis \
             (all slots column 0): warm rejection must not change the result",
            inst,
            Some(&singular),
        );
    }

    // --- Rdwalk: the µs-scale class the dense tableau owns.
    let row = &suite::rdwalk_rows()[0];
    let pts = row.compile();
    let picks = harvest(|s| {
        synthesize_reprsm_bound_in(&pts, BoundKind::Hoeffding, hoeffding::DEFAULT_SER_ITERATIONS, s)
            .unwrap();
    });
    let origin = format!("Rdwalk {} Hoeffding synthesis (suite Table 1)", row.label);
    if let Some(inst) = picks.first() {
        emit("rdwalk_0", &origin, inst, None);
    }

    // --- Ref p = 1e-7: the tiny-coefficient ExpLowSyn systems behind
    // the basis-drift bug (`crates/lp/tests/drift_regression.rs`).
    let row = &suite::refsearch_rows()[0];
    let pts = row.compile();
    let picks = harvest(|s| {
        explowsyn::synthesize_lower_bound_in(&pts, s).unwrap();
    });
    let origin = format!("Ref {} ExpLowSyn synthesis (suite Table 2)", row.label);
    for (k, inst) in picks.iter().enumerate() {
        emit(&format!("ref_p1e7_{k}"), &origin, inst, None);
    }

    // --- M1DWalk p = 1e-7: small lower-bound systems.
    let row = &suite::table2()[0];
    let pts = row.compile();
    let picks = harvest(|s| {
        explowsyn::synthesize_lower_bound_in(&pts, s).unwrap();
    });
    let origin = format!("{} {} ExpLowSyn synthesis (suite Table 2)", row.name, row.label);
    if let Some(inst) = picks.first() {
        emit("m1dwalk_0", &origin, inst, None);
    }

    assert!(written >= 9, "harvest produced only {written} corpus files");
    println!("harvest: wrote {written} corpus files to {}", dir.display());
}

/// Picks an ordered reoptimization chain out of a capture log: the
/// longest run of structurally identical systems (same shape), in the
/// order the family's searches produced them, with immediate exact
/// duplicates collapsed. These are the solves `LpBackend::reoptimize_core`
/// replays from the previous member's final basis in a reoptimizing
/// session.
fn chain_from_log(log: &[Instance], len: usize) -> Vec<Instance> {
    let mut shapes: Vec<(usize, usize, usize)> = log.iter().map(Instance::shape).collect();
    shapes.sort_unstable();
    shapes.dedup();
    let best = shapes
        .into_iter()
        .max_by_key(|&s| log.iter().filter(|i| i.shape() == s).count())
        .expect("empty capture log");
    let mut out: Vec<Instance> = Vec::new();
    for inst in log.iter().filter(|i| i.shape() == best) {
        let dup = out
            .last()
            .is_some_and(|p| p.costs == inst.costs && p.b == inst.b && p.rows == inst.rows);
        if !dup {
            out.push(inst.clone());
        }
        if out.len() == len {
            break;
        }
    }
    out
}

/// Harvests the **sweep reoptimization chains**: for each parametric
/// family of `qava --sweep`, the ladder of structurally identical,
/// value-perturbed core systems that dual-simplex reoptimization walks
/// from one warm basis when the family's searches share one session.
/// `crates/lp/tests/corpus.rs::sweep_chain_reoptimization_matches_cold`
/// replays each chain through every reoptimize-capable backend and holds
/// the incremental objective to the cold one; the
/// `lp/kernel/sweep_*` benches race the same chains reopt-vs-cold.
#[test]
#[ignore = "writes crates/lp/tests/corpus — run deliberately to (re)capture"]
fn harvest_sweep_chains() {
    let dir = corpus_dir();
    std::fs::create_dir_all(&dir).unwrap();
    let mut written = 0usize;

    let families: [(&str, Vec<suite::Benchmark>, &str); 2] = [
        ("sweep_coupon", suite::coupon_rows(), "Coupon Pr[T > 100/300/500] Hoeffding sweep"),
        ("sweep_epsmax", suite::walk3d_rows(), "3DWalk εmax-ladder Hoeffding sweep"),
    ];
    for (slug, rows, what) in families {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut solver = LpSolver::with_choice(BackendChoice::LuFt);
        solver.register_backend(Box::new(Capturing {
            inner: Box::new(LuFtSimplex),
            log: Rc::clone(&log),
        }));
        // One shared session across the whole family, so each search
        // starts from the previous point's bases.
        for row in &rows {
            let pts = row.compile();
            synthesize_reprsm_bound_in(
                &pts,
                BoundKind::Hoeffding,
                hoeffding::DEFAULT_SER_ITERATIONS,
                &mut solver,
            )
            .unwrap();
        }
        let log = log.borrow();
        let chain = chain_from_log(&log, 4);
        assert!(chain.len() >= 3, "{slug}: chain too short ({} instances)", chain.len());
        let origin = format!(
            "{what}: member of the dual-reoptimization chain replayed in order \
             by sweep_chain_reoptimization_matches_cold (suite Table 1)"
        );
        for (k, inst) in chain.iter().enumerate() {
            if let Some(text) = render(&format!("{slug}_{k:02}"), &origin, inst, None) {
                std::fs::write(dir.join(format!("{slug}_{k:02}.qlp")), text).unwrap();
                written += 1;
            }
        }
    }

    assert!(written >= 6, "sweep harvest produced only {written} corpus files");
    println!("sweep harvest: wrote {written} corpus files to {}", dir.display());
}

/// Captures the instances that *trigger the failover ladder*: a real
/// synthesis run with a forced `PivotLimit` injected on the nth backend
/// call. Because the injected fault replaces the result **after** the
/// real backend ran, the capture log still records the exact system the
/// failed rung saw — that is the instance the ladder then re-solves on
/// the next rung, and the one worth replaying through every backend
/// forever.
#[test]
#[ignore = "writes crates/lp/tests/corpus — run deliberately to (re)capture"]
fn harvest_failover_instances() {
    let dir = corpus_dir();
    std::fs::create_dir_all(&dir).unwrap();
    let mut written = 0usize;

    let row = &suite::coupon_rows()[0];
    let pts = row.compile();
    for (nth, slug) in [(1usize, "failover_trigger_first"), (7, "failover_trigger_mid")] {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut solver = LpSolver::with_choice(BackendChoice::LuFt);
        solver.register_backend(Box::new(Capturing {
            inner: Box::new(LuFtSimplex),
            log: Rc::clone(&log),
        }));
        solver.install_fault_plan(FaultPlan::new(FaultKind::PivotLimit, nth));
        synthesize_reprsm_bound_in(
            &pts,
            BoundKind::Hoeffding,
            hoeffding::DEFAULT_SER_ITERATIONS,
            &mut solver,
        )
        .unwrap();
        assert!(solver.fault_fired(), "the forced PivotLimit never fired");
        assert!(solver.stats().failover_recoveries >= 1, "the ladder never rescued");
        // Before the one-shot plan fires, every backend call is a
        // capturing call, so the nth log entry is exactly the system
        // whose verdict the fault discarded.
        let log = log.borrow();
        let inst = &log[nth - 1];
        let origin = format!(
            "Coupon {} Hoeffding synthesis, backend call {nth} forced to PivotLimit: \
             the instance the failover ladder re-solved (suite Table 1)",
            row.label
        );
        if let Some(text) = render(slug, &origin, inst, None) {
            std::fs::write(dir.join(format!("{slug}.qlp")), text).unwrap();
            written += 1;
        }
    }

    assert_eq!(written, 2, "failover harvest produced only {written} corpus files");
    println!("failover harvest: wrote {written} corpus files to {}", dir.display());
}

/// Captures the bounded LP the dense tableau once declared unbounded:
/// the 8th core solve of 3DWalk (100, 150, 200) Hoeffding synthesis with
/// every solve on the tableau. Its phase 1 pivoted on elimination noise
/// until the tableau showed a ray that does not exist in the original
/// data; `Tableau::run` now checks every ray against that data and
/// restarts the phase instead. The capture is deterministic: the seven
/// solves before it never reach that exit.
#[test]
#[ignore = "writes crates/lp/tests/corpus — run deliberately to (re)capture"]
fn harvest_dense_false_unbounded() {
    const CALL: usize = 8;
    let row = &suite::walk3d_rows()[1];
    let pts = row.compile();
    let log = Rc::new(RefCell::new(Vec::new()));
    let mut solver = LpSolver::with_choice(BackendChoice::Dense);
    solver.set_failover(false);
    solver.register_backend(Box::new(Capturing {
        inner: Box::new(DenseTableau),
        log: Rc::clone(&log),
    }));
    synthesize_reprsm_bound_in(
        &pts,
        BoundKind::Hoeffding,
        hoeffding::DEFAULT_SER_ITERATIONS,
        &mut solver,
    )
    .unwrap();
    let log = log.borrow();
    let inst = &log[CALL - 1];
    let reference = LuFtSimplex.solve_core(&inst.costs, &inst.matrix(), &inst.b, None);
    assert!(
        reference.is_ok(),
        "the captured instance must be bounded and feasible"
    );
    let slug = "walk3d_100_150_200_dense_false_unbounded";
    let origin = format!(
        "3DWalk {} Hoeffding synthesis on the dense tableau, backend call {CALL}: \
         the bounded LP the tableau used to report unbounded (suite Table 1)",
        row.label
    );
    let text = render(slug, &origin, inst, None).expect("the dense oracle reaches a verdict");
    assert!(
        text.contains("expect optimal"),
        "the dense tableau must find the optimum"
    );
    std::fs::write(corpus_dir().join(format!("{slug}.qlp")), text).unwrap();
    println!("dense false-unbounded harvest: wrote {slug}.qlp");
}
