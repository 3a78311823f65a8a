//! Runtime LP backend dispatch: the [`LpBackend`] trait and the
//! [`LpSolver`] session.
//!
//! Backend choice used to be a compile-time cargo feature and every
//! caller went through a bare free function, which made per-problem-class
//! dispatch, cross-solve warm starting and solver telemetry impossible.
//! This module promotes the choice to runtime:
//!
//! * [`LpBackend`] is the pluggable core-solver interface. A backend
//!   receives a **presolved, equilibrated** standard-form system
//!   `min cᵀx, A·x = b, x ≥ 0` (`b ≥ 0`) in CSC form plus an optional
//!   warm-start basis, and reports the solution, the final basis (when it
//!   supports warm starts) and the pivots it spent. [`SparseRevised`],
//!   [`DenseTableau`] and [`LuFtSimplex`] are the built-in implementations;
//!   external backends (interior point, …) implement the same trait and
//!   are attached with [`LpSolver::register_backend`].
//! * [`LpSolver`] is the per-synthesis **session**: it owns the shared
//!   pipeline (presolve → equilibration → warm-start lookup → backend →
//!   solution restore), the selection policy ([`BackendChoice`]), the
//!   bounded LRU warm-start basis cache, and cumulative [`LpStats`].
//!
//! One synthesis run threads a single session through every LP it
//! creates, so warm starts flow across the whole ε ternary search instead
//! of through ambient per-thread globals, and `qava --suite` can report
//! per-backend solve statistics.
//!
//! A model solved many times with only some right-hand sides changed is
//! **prepared** once ([`LpSolver::prepare`] → [`PreparedLp`]) and its
//! members solved with [`LpSolver::solve_prepared`]. A pipeline pass is
//! two halves: presolve and equilibration (`CoreSystem::new`), and the
//! backend half (`run_core`: warm lookup, backend call, cache update,
//! restore). A prepared member replays the recorded presolve on its new
//! right-hand side and runs the same backend half on the prepared
//! system, so it computes exactly what an ordinary solve computes. The
//! prepared LP also keeps its basis engines' storage, and the fresh
//! factorization of an unchanged warm basis, from one member to the
//! next.

use crate::cache::{BasisCache, SharedBasisCache};
use crate::csc::CscMatrix;
use crate::faults::{self, FaultPlan, Site};
use crate::presolve::{self, Restore, StdRows, Tape};
use crate::revised::FactorMemo;
use crate::{lower_rhs, revised, simplex, ColMap, LpBuilder, LpError, LpSolution, RowId};
use std::cell::OnceCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Row/column cutovers below which [`BackendChoice::Auto`] prefers the
/// dense tableau: the sparse pipeline's fixed costs (pattern hashing,
/// basis refactorization) dominate on the µs-scale models that
/// polyhedron emptiness probes produce, where the dense tableau's
/// constant factor wins. Measured on the reduced (post-presolve) system.
const DENSE_CUTOVER_ROWS: usize = 16;
const DENSE_CUTOVER_COLS: usize = 96;

/// Cutovers above which [`BackendChoice::Auto`] routes to the LU-backed
/// simplex: the factor update is O(nnz) against the dense inverse's
/// O(m²) per pivot, but the LU solves only pay off once the basis is
/// both big enough and sparse enough that the factors stay compact.
/// Density is `nnz(A) / (m·n)` of the reduced system.
const LU_CUTOVER_ROWS: usize = 64;
const LU_MAX_DENSITY: f64 = 0.25;

/// Registry slots of the built-in backends, which every session
/// registers first ([`LpSolver::with_choice`]).
const SPARSE_IDX: usize = 0;
const DENSE_IDX: usize = 1;
const LU_FT_IDX: usize = 2;

/// Default capacity of the session's warm-start basis cache.
const DEFAULT_CACHE_CAPACITY: usize = 256;

/// What a backend returns for one core solve.
#[derive(Debug, Clone)]
pub struct CoreSolution {
    /// Optimal solution over the real columns of the core system.
    pub x: Vec<f64>,
    /// Final basis, if the backend can produce one for warm starting the
    /// next structurally identical solve; `None` for basis-free backends
    /// (the session then simply never caches).
    pub basis: Option<Vec<usize>>,
    /// Simplex pivots (or backend iterations) spent.
    pub pivots: usize,
    /// The supplied warm basis was accepted and drove the solve.
    pub warm_start_used: bool,
    /// Feasibility-watchdog refactor-backstop trips: the solve had to
    /// restart because a refactorization exposed a corrupted `x_B` (or
    /// itself failed on a singular basis where incremental state cannot
    /// be trusted). Always 0 for backends without incremental basis
    /// updates.
    pub watchdog_restarts: usize,
    /// The share of watchdog trips caused by a refactorization failing
    /// outright on a singular basis.
    pub watchdog_singular: usize,
    /// The share of watchdog trips caused by a refactorization exposing
    /// an infeasible (negative) `x_B`.
    pub watchdog_infeasible: usize,
    /// Cold re-solves forced into all-Bland mode (anti-cycling retries).
    pub bland_retries: usize,
    /// Accuracy-triggered refactorization flags: FT updates whose
    /// determinant-identity cross-check disagreed with the eliminated
    /// diagonal. Always 0 for backends without that cross-check.
    pub accuracy_refactors: usize,
}

/// A pluggable LP core solver.
///
/// Implementations solve `min cᵀx, A·x = b, x ≥ 0` (with `b ≥ 0`) on a
/// system the session has already presolved and max-norm equilibrated.
/// They must be deterministic: the differential property tests run every
/// instance through all registered backends and require verdict and
/// objective agreement.
///
/// A member of a prepared family ([`LpSolver::solve_prepared`]) goes
/// through [`solve_core_prepared`](Self::solve_core_prepared), which
/// also receives the family's [`FactorMemo`]. Its default ignores it
/// and calls [`solve_core`](Self::solve_core), so a backend that keeps
/// nothing between solves implements only that.
pub trait LpBackend {
    /// Short stable name, used for selection ([`LpSolver::select_backend`])
    /// and statistics ([`LpStats::backends`]).
    fn name(&self) -> &'static str;

    /// Whether this backend consumes warm-start bases. When `false` (the
    /// default) the session skips the pattern-hash and cache machinery
    /// entirely for solves routed here — the per-solve fixed cost matters
    /// on the µs-scale models the dense tableau exists for.
    fn supports_warm_start(&self) -> bool {
        false
    }

    /// Solves one equilibrated core system.
    ///
    /// `warm` is the final basis of a previous solve with the same
    /// sparsity pattern; backends without warm-start support ignore it.
    ///
    /// # Errors
    ///
    /// [`LpError::Infeasible`], [`LpError::Unbounded`], or
    /// [`LpError::PivotLimit`].
    fn solve_core(
        &self,
        costs: &[f64],
        a: &CscMatrix,
        b: &[f64],
        warm: Option<&[usize]>,
    ) -> Result<CoreSolution, LpError>;

    /// [`solve_core`](Self::solve_core) on a system prepared once for
    /// many right-hand sides ([`LpSolver::solve_prepared`]). `factors`
    /// belongs to that system's matrix and may hold the fresh
    /// factorization of an earlier warm basis; a backend may take it
    /// for an equal warm basis instead of refactorizing the same basis
    /// of the same matrix (and keep its engines' storage there between
    /// solves). The result must be exactly `solve_core`'s. The default
    /// ignores `factors`.
    ///
    /// # Errors
    ///
    /// Those of [`solve_core`](Self::solve_core).
    fn solve_core_prepared(
        &self,
        costs: &[f64],
        a: &CscMatrix,
        b: &[f64],
        warm: Option<&[usize]>,
        factors: &mut FactorMemo,
    ) -> Result<CoreSolution, LpError> {
        let _ = factors;
        self.solve_core(costs, a, b, warm)
    }

    /// Always `false`: no session reoptimizes any more. Kept, with
    /// [`reoptimize_core`](Self::reoptimize_core), only because the
    /// `perfbench` tracing wrapper still forwards both; they go with
    /// the next benchmark change.
    fn supports_reoptimize(&self) -> bool {
        false
    }

    /// Always `None`, and never called by a session; see
    /// [`supports_reoptimize`](Self::supports_reoptimize).
    fn reoptimize_core(
        &self,
        _costs: &[f64],
        _a: &CscMatrix,
        _b: &[f64],
        _basis: &[usize],
    ) -> Option<CoreSolution> {
        None
    }
}

/// The sparse revised simplex backend (CSC pricing, `B⁻¹` updates,
/// warm-startable; the crate's private `revised` module).
#[derive(Debug, Clone, Copy, Default)]
pub struct SparseRevised;

impl LpBackend for SparseRevised {
    fn name(&self) -> &'static str {
        "sparse"
    }

    fn supports_warm_start(&self) -> bool {
        true
    }

    fn solve_core(
        &self,
        costs: &[f64],
        a: &CscMatrix,
        b: &[f64],
        warm: Option<&[usize]>,
    ) -> Result<CoreSolution, LpError> {
        revised::solve_equilibrated(costs, a, b, warm, None).map(CoreSolution::from)
    }

    fn solve_core_prepared(
        &self,
        costs: &[f64],
        a: &CscMatrix,
        b: &[f64],
        warm: Option<&[usize]>,
        factors: &mut FactorMemo,
    ) -> Result<CoreSolution, LpError> {
        revised::solve_equilibrated(costs, a, b, warm, Some(factors)).map(CoreSolution::from)
    }
}

/// The LU + Forrest–Tomlin revised simplex backend: the same pivoting
/// loop as [`SparseRevised`], but the basis lives as Markowitz-ordered
/// sparse LU factors (the private `lu` module) instead of an explicit
/// `m × m` inverse, and basis exchanges are absorbed **into the U
/// factor** as spike swaps (the private `ft` module) — so ftran/btran stay
/// O(nnz(L) + nnz(U)) between refactorizations, and refactorization is
/// driven by U fill-in growth, spike-pivot magnitude and a
/// determinant-identity accuracy check. The engine of choice for the
/// large sparse Handelman/Farkas LPs with the longest pivot runs (the
/// degenerate εmax systems), and the conditioning fix for the
/// walk3d-style systems that trip the dense path's feasibility watchdog.
#[derive(Debug, Clone, Copy, Default)]
pub struct LuFtSimplex;

impl LpBackend for LuFtSimplex {
    fn name(&self) -> &'static str {
        "lu-ft"
    }

    fn supports_warm_start(&self) -> bool {
        true
    }

    fn solve_core(
        &self,
        costs: &[f64],
        a: &CscMatrix,
        b: &[f64],
        warm: Option<&[usize]>,
    ) -> Result<CoreSolution, LpError> {
        revised::solve_equilibrated_lu_ft(costs, a, b, warm, None).map(CoreSolution::from)
    }

    fn solve_core_prepared(
        &self,
        costs: &[f64],
        a: &CscMatrix,
        b: &[f64],
        warm: Option<&[usize]>,
        factors: &mut FactorMemo,
    ) -> Result<CoreSolution, LpError> {
        revised::solve_equilibrated_lu_ft(costs, a, b, warm, Some(factors))
            .map(CoreSolution::from)
    }
}

impl From<revised::CoreOutcome> for CoreSolution {
    /// The one field mapping from the shared revised-simplex core to the
    /// backend interface, used by both warm-capable backends.
    fn from(out: revised::CoreOutcome) -> Self {
        CoreSolution {
            x: out.x,
            basis: Some(out.basis),
            pivots: out.pivots,
            warm_start_used: out.warm_start_used,
            watchdog_restarts: out.watchdog_restarts,
            watchdog_singular: out.watchdog_singular,
            watchdog_infeasible: out.watchdog_infeasible,
            bland_retries: out.bland_retries,
            accuracy_refactors: out.accuracy_refactors,
        }
    }
}

/// The dense two-phase tableau backend (the private `simplex` module). No
/// warm-start support; kept both as the small-model fast path of
/// [`BackendChoice::Auto`] and as the differential-testing oracle.
#[derive(Debug, Clone, Copy, Default)]
pub struct DenseTableau;

impl LpBackend for DenseTableau {
    fn name(&self) -> &'static str {
        "dense"
    }

    fn solve_core(
        &self,
        costs: &[f64],
        a: &CscMatrix,
        b: &[f64],
        _warm: Option<&[usize]>,
    ) -> Result<CoreSolution, LpError> {
        let dense = a.to_dense();
        let mut pivots = 0usize;
        let x = simplex::solve_standard_unscaled(costs, &dense, b, &mut pivots)?;
        Ok(CoreSolution {
            x,
            basis: None,
            pivots,
            warm_start_used: false,
            watchdog_restarts: 0,
            watchdog_singular: 0,
            watchdog_infeasible: 0,
            bland_retries: 0,
            accuracy_refactors: 0,
        })
    }
}

/// Backend selection policy of a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendChoice {
    /// Hybrid dispatch by size **and** density of the reduced system:
    /// tiny models (≤ 16 rows, ≤ 96 columns) take the dense tableau,
    /// large sparse ones (≥ 64 rows at ≤ 25% density) the
    /// Forrest–Tomlin LU simplex (the classes with the longest pivot
    /// runs, where the eta-free solves pay off most), everything in
    /// between the dense-inverse sparse revised simplex. The default.
    #[default]
    Auto,
    /// Always the sparse revised simplex (dense-inverse basis engine).
    Sparse,
    /// Always the dense tableau.
    Dense,
    /// Always the LU + Forrest–Tomlin revised simplex.
    LuFt,
}

/// The accepted `--lp-backend` values, as every parse error names them.
const BACKEND_NAMES: &str = "auto, sparse, dense, or lu-ft";

impl std::str::FromStr for BackendChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "auto" => Ok(BackendChoice::Auto),
            "sparse" => Ok(BackendChoice::Sparse),
            "dense" => Ok(BackendChoice::Dense),
            "lu-ft" => Ok(BackendChoice::LuFt),
            other => Err(format!("unknown LP backend `{other}` (expected {BACKEND_NAMES})")),
        }
    }
}

impl BackendChoice {
    /// Parses the value following an `--lp-backend` flag; `None` means
    /// the flag was the last argument. The one shared implementation of
    /// the flag's value for every binary that exposes it.
    ///
    /// # Errors
    ///
    /// A human-readable message, listing the accepted values, when the
    /// value is missing or unknown.
    pub fn parse_flag(value: Option<&str>) -> Result<BackendChoice, String> {
        value
            .ok_or_else(|| format!("--lp-backend needs a value ({BACKEND_NAMES})"))?
            .parse()
    }

    /// Scans raw CLI arguments for `--lp-backend <value>` (last
    /// occurrence wins). Returns `Ok(None)` when absent.
    ///
    /// # Errors
    ///
    /// Those of [`parse_flag`](Self::parse_flag).
    pub fn from_args(args: &[String]) -> Result<Option<BackendChoice>, String> {
        let mut found = None;
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if a == "--lp-backend" {
                found = Some(Self::parse_flag(it.next().map(String::as_str))?);
            }
        }
        Ok(found)
    }
}

impl std::fmt::Display for BackendChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BackendChoice::Auto => "auto",
            BackendChoice::Sparse => "sparse",
            BackendChoice::Dense => "dense",
            BackendChoice::LuFt => "lu-ft",
        };
        write!(f, "{s}")
    }
}

/// Per-backend share of a session's statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendTally {
    /// Backend name ([`LpBackend::name`]).
    pub name: &'static str,
    /// Core solves routed to this backend.
    pub solves: usize,
    /// Pivots spent by this backend.
    pub pivots: usize,
    /// Wall time inside the backend, seconds.
    pub wall_seconds: f64,
}

/// Cumulative statistics of an [`LpSolver`] session. Mergeable across
/// sessions ([`LpStats::merge`]) so the parallel suite driver can report
/// fleet-wide totals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LpStats {
    /// Standard-form solves requested (including presolve-only ones).
    pub solves: usize,
    /// Total simplex pivots across all backends.
    pub pivots: usize,
    /// Constraint rows removed by presolve.
    pub presolve_rows_removed: usize,
    /// Columns removed by presolve (fixed or empty).
    pub presolve_cols_removed: usize,
    /// Cached warm-start bases that were accepted and drove a solve.
    pub warm_start_hits: usize,
    /// Core solves on warm-capable backends that ran cold (no cached
    /// basis, or it was rejected). Backends without warm-start support
    /// are not counted here.
    pub warm_start_misses: usize,
    /// Warm-start cache entries evicted by the LRU capacity bound.
    pub cache_evictions: usize,
    /// Warm-start hits served by an attached process-wide, in-memory
    /// [`SharedBasisCache`] rather than this session's own cache — the
    /// cross-request warmth a resident daemon exists to provide. Always
    /// a subset of `warm_start_hits`.
    pub persistent_warm_hits: usize,
    /// Feasibility-watchdog refactor-backstop trips across all solves: a
    /// refactorization exposed a corrupted `x_B` (or failed outright on
    /// a singular basis where incremental state cannot be trusted) and
    /// the core solve restarted from scratch. Persistent nonzero counts
    /// on a workload mean the selected basis representation is
    /// numerically outmatched (route it to the `lu-ft` backend).
    pub watchdog_restarts: usize,
    /// Watchdog trips whose cause was a refactorization failing outright
    /// on a singular basis (one half of the `watchdog_restarts` cause
    /// split; [`watchdog_infeasible`](Self::watchdog_infeasible) is the
    /// other).
    pub watchdog_singular: usize,
    /// Watchdog trips whose cause was a refactorization exposing an
    /// infeasible (negative) `x_B`.
    pub watchdog_infeasible: usize,
    /// Cold re-solves forced into all-Bland mode (Dantzig-cycle and
    /// watchdog retries).
    pub bland_retries: usize,
    /// Failover-ladder rungs attempted after a backend exhausted its
    /// in-backend recovery and still returned
    /// [`LpError::PivotLimit`] — each rung re-runs the full pipeline on
    /// the next backend down (`lu-ft → sparse → dense`).
    pub failovers: usize,
    /// Failover rungs that rescued the solve: the stepped-down backend
    /// produced the certified verdict.
    pub failover_recoveries: usize,
    /// Always 0: no session reoptimizes any more. Kept, with its merge
    /// and its wire key, because `perfbench` still reads it; it goes
    /// with the next benchmark change.
    pub reopt_attempts: usize,
    /// Always 0, like [`reopt_attempts`](Self::reopt_attempts).
    pub reopt_successes: usize,
    /// Accuracy-triggered refactorizations: `lu-ft` updates whose
    /// determinant-identity cross-check drifted, forcing an early
    /// refactorization.
    pub accuracy_refactors: usize,
    /// Total wall time in the solve pipeline, seconds.
    pub wall_seconds: f64,
    /// Per-backend breakdown, in first-use order.
    pub backends: Vec<BackendTally>,
}

impl LpStats {
    /// Folds another session's counters into this one (suite aggregation).
    ///
    /// Destructures `other` exhaustively so adding an [`LpStats`] field
    /// without deciding how it merges is a compile error, not a silently
    /// dropped counter.
    pub fn merge(&mut self, other: &LpStats) {
        let LpStats {
            solves,
            pivots,
            presolve_rows_removed,
            presolve_cols_removed,
            warm_start_hits,
            warm_start_misses,
            cache_evictions,
            persistent_warm_hits,
            watchdog_restarts,
            watchdog_singular,
            watchdog_infeasible,
            bland_retries,
            failovers,
            failover_recoveries,
            reopt_attempts,
            reopt_successes,
            accuracy_refactors,
            wall_seconds,
            backends,
        } = other;
        self.solves += solves;
        self.pivots += pivots;
        self.presolve_rows_removed += presolve_rows_removed;
        self.presolve_cols_removed += presolve_cols_removed;
        self.warm_start_hits += warm_start_hits;
        self.warm_start_misses += warm_start_misses;
        self.cache_evictions += cache_evictions;
        self.persistent_warm_hits += persistent_warm_hits;
        self.watchdog_restarts += watchdog_restarts;
        self.watchdog_singular += watchdog_singular;
        self.watchdog_infeasible += watchdog_infeasible;
        self.bland_retries += bland_retries;
        self.failovers += failovers;
        self.failover_recoveries += failover_recoveries;
        self.reopt_attempts += reopt_attempts;
        self.reopt_successes += reopt_successes;
        self.accuracy_refactors += accuracy_refactors;
        self.wall_seconds += wall_seconds;
        for t in backends {
            self.tally_mut(t.name).fold(t);
        }
    }

    fn tally_mut(&mut self, name: &'static str) -> &mut BackendTally {
        if let Some(pos) = self.backends.iter().position(|t| t.name == name) {
            return &mut self.backends[pos];
        }
        self.backends.push(BackendTally { name, solves: 0, pivots: 0, wall_seconds: 0.0 });
        self.backends.last_mut().expect("just pushed")
    }
}

impl std::fmt::Display for LpStats {
    /// Human-readable multi-line summary (the `qava --suite` footer).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "lp: {} solves, {} pivots, {:.3}s; presolve removed {} rows / {} cols; \
             warm start {} hits / {} misses, {} evictions, {} persistent; \
             {} watchdog restarts ({} singular / {} infeasible), {} bland retries; \
             {} failovers / {} rescues; {} accuracy refactors",
            self.solves,
            self.pivots,
            self.wall_seconds,
            self.presolve_rows_removed,
            self.presolve_cols_removed,
            self.warm_start_hits,
            self.warm_start_misses,
            self.cache_evictions,
            self.persistent_warm_hits,
            self.watchdog_restarts,
            self.watchdog_singular,
            self.watchdog_infeasible,
            self.bland_retries,
            self.failovers,
            self.failover_recoveries,
            self.accuracy_refactors,
        )?;
        for t in &self.backends {
            writeln!(
                f,
                "lp[{}]: {} solves, {} pivots, {:.3}s",
                t.name, t.solves, t.pivots, t.wall_seconds
            )?;
        }
        Ok(())
    }
}

/// An LP solver **session**: backend registry and selection policy, the
/// warm-start basis cache, and cumulative statistics.
///
/// Synthesis code creates one session per run and threads it through
/// every LP (`solver.solve(&builder)`), so structurally identical LPs
/// warm-start each other within the run without any ambient state. See
/// the crate docs for a registration/selection example.
pub struct LpSolver {
    backends: Vec<Box<dyn LpBackend>>,
    /// `Auto` applies the size/density cutovers between the built-in
    /// slots; `Fixed` pins one registered backend.
    selection: Selection,
    cache: BasisCache,
    /// Optional process-wide warm-start store consulted read-through on
    /// session-cache misses and written write-through on every cache
    /// update; see [`set_shared_cache`](Self::set_shared_cache).
    shared: Option<Arc<SharedBasisCache>>,
    stats: LpStats,
    /// Shared cooperative-cancellation flags, polled once at every solve
    /// boundary; see [`add_cancel_flag`](Self::add_cancel_flag).
    cancel: Vec<Arc<AtomicBool>>,
    /// Per-request deadline, enforced at the same solve boundaries as
    /// the cancel flag; see [`set_deadline`](Self::set_deadline).
    deadline: Option<Instant>,
    /// The session's installed fault-injection plan (testing only); see
    /// [`install_fault_plan`](Self::install_fault_plan).
    faults: Option<FaultPlan>,
    /// Whether the graceful-degradation failover ladder is enabled.
    failover: bool,
}

#[derive(Debug, Clone, Copy)]
enum Selection {
    Auto,
    Fixed(usize),
}

impl Default for LpSolver {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for LpSolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LpSolver")
            .field("backends", &self.backend_names())
            .field("selection", &self.selection)
            .field("stats", &self.stats)
            .finish()
    }
}

impl LpSolver {
    /// Creates a session with the built-in backends and the default
    /// policy, [`BackendChoice::Auto`].
    pub fn new() -> Self {
        Self::with_choice(BackendChoice::default())
    }

    /// Creates a session with an explicit built-in selection policy.
    pub fn with_choice(choice: BackendChoice) -> Self {
        let mut s = LpSolver {
            // In slot order: `SPARSE_IDX`, `DENSE_IDX`, `LU_FT_IDX`.
            backends: vec![Box::new(SparseRevised), Box::new(DenseTableau), Box::new(LuFtSimplex)],
            selection: Selection::Auto,
            cache: BasisCache::new(DEFAULT_CACHE_CAPACITY),
            shared: None,
            stats: LpStats::default(),
            cancel: Vec::new(),
            deadline: None,
            faults: faults::from_env(),
            failover: true,
        };
        s.set_choice(choice);
        s
    }

    /// Switches between the built-in policies at runtime.
    pub fn set_choice(&mut self, choice: BackendChoice) {
        self.selection = match choice {
            BackendChoice::Auto => Selection::Auto,
            BackendChoice::Sparse => Selection::Fixed(SPARSE_IDX),
            BackendChoice::Dense => Selection::Fixed(DENSE_IDX),
            BackendChoice::LuFt => Selection::Fixed(LU_FT_IDX),
        };
    }

    /// Registers an additional backend and selects it. The backend stays
    /// registered (and re-selectable by name) if the policy is changed
    /// later.
    pub fn register_backend(&mut self, backend: Box<dyn LpBackend>) {
        self.backends.push(backend);
        self.selection = Selection::Fixed(self.backends.len() - 1);
    }

    /// Pins the backend with the given [`name`](LpBackend::name); returns
    /// `false` (leaving the selection unchanged) when no such backend is
    /// registered.
    pub fn select_backend(&mut self, name: &str) -> bool {
        match self.backends.iter().position(|b| b.name() == name) {
            Some(idx) => {
                self.selection = Selection::Fixed(idx);
                true
            }
            None => false,
        }
    }

    /// Names of all registered backends, in registration order.
    pub fn backend_names(&self) -> Vec<&'static str> {
        self.backends.iter().map(|b| b.name()).collect()
    }

    /// Cumulative statistics since creation (or the last
    /// [`reset_stats`](Self::reset_stats)).
    pub fn stats(&self) -> &LpStats {
        &self.stats
    }

    /// Returns the accumulated statistics, leaving zeroed counters behind.
    pub fn take_stats(&mut self) -> LpStats {
        std::mem::take(&mut self.stats)
    }

    /// Zeroes the statistics.
    pub fn reset_stats(&mut self) {
        self.stats = LpStats::default();
    }

    /// Folds an externally captured [`LpStats`] into this session's
    /// totals. Together with [`take_stats`](Self::take_stats) this lets a
    /// caller carve a session's statistics into per-phase slices without
    /// losing the session-wide running total (the bound-engine adapters
    /// in `qava-core` do exactly that).
    pub fn merge_stats(&mut self, other: &LpStats) {
        self.stats.merge(other);
    }

    /// Attaches a shared cooperative-cancellation flag, alongside any
    /// attached before. The session polls its flags once at the start of
    /// every solve; once any flag is `true`, every subsequent solve
    /// returns [`LpError::Cancelled`] immediately without doing any work.
    /// Raising a flag never corrupts a solve already in flight —
    /// cancellation happens only at solve boundaries, so whatever result
    /// the current solve produces is still exact. The candidate racer
    /// gives every racing engine's session the race's flag (the winner
    /// raises it) next to the caller's (a daemon raises it when its
    /// client leaves).
    pub fn add_cancel_flag(&mut self, flag: Arc<AtomicBool>) {
        self.cancel.push(flag);
    }

    /// Whether any attached cancellation flag has been raised.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.iter().any(|f| f.load(Ordering::Relaxed))
    }

    /// Sets an absolute per-request deadline, enforced at the same solve
    /// boundaries as the cancel flag: once it passes, every subsequent
    /// solve returns [`LpError::Cancelled`] without work. A solve in
    /// flight is never interrupted — deadline expiry, like
    /// cancellation, only ever suppresses *future* solves, so whatever
    /// the current solve returns is still exact.
    pub fn set_deadline(&mut self, deadline: Instant) {
        self.deadline = Some(deadline);
    }

    /// Sets the deadline `budget` from now
    /// ([`set_deadline`](Self::set_deadline) with `Instant::now() + budget`).
    pub fn set_deadline_in(&mut self, budget: Duration) {
        self.deadline = Some(Instant::now() + budget);
    }

    /// Removes the deadline; solves run to completion again.
    pub fn clear_deadline(&mut self) {
        self.deadline = None;
    }

    /// Whether the deadline (if any) has passed.
    pub fn deadline_expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Installs a fault-injection plan for this session (replacing any
    /// previous one, including one read from `QAVA_LP_FAULTS` at
    /// construction). See [`crate::faults`] for the fault catalogue and
    /// firing semantics.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// Removes the installed fault plan, returning it (so tests can
    /// inspect [`FaultPlan::fired`]).
    pub fn clear_fault_plan(&mut self) -> Option<FaultPlan> {
        self.faults.take()
    }

    /// Whether the installed fault plan (if any) has fired.
    pub fn fault_fired(&self) -> bool {
        self.faults.as_ref().is_some_and(|p| p.fired())
    }

    /// Enables or disables the graceful-degradation failover ladder
    /// (enabled by default). With the ladder off, a backend's
    /// [`LpError::PivotLimit`] surfaces directly — the raw-backend
    /// behavior the differential tests rely on.
    pub fn set_failover(&mut self, enabled: bool) {
        self.failover = enabled;
    }

    /// Probes the session fault plan at an injection site.
    fn fault_trip(&mut self, site: Site) -> bool {
        self.faults.as_mut().is_some_and(|p| p.arm(site))
    }

    /// Re-bounds the warm-start cache, evicting least-recently-used
    /// entries down to the new capacity immediately. Capacity 0 disables
    /// caching.
    pub fn set_cache_capacity(&mut self, capacity: usize) {
        self.cache.capacity = capacity;
        while self.cache.map.len() > capacity && self.cache.evict_lru() {
            self.stats.cache_evictions += 1;
        }
    }

    /// Attaches a process-wide [`SharedBasisCache`]. The session then
    /// consults it **read-through** — its own cache first, the shared
    /// store on a miss — and writes every reusable final basis
    /// **write-through** to both, so concurrent sessions (one per daemon
    /// request) seed each other without sharing any other state. Hits
    /// served from the shared store are counted in
    /// [`LpStats::persistent_warm_hits`].
    ///
    /// A shared basis is advisory exactly like a session-cached one:
    /// shape-validated before use, re-validated by the backend's
    /// refactorization, and invalidated in *both* stores when it sends a
    /// solve down the failover ladder — so a stale or even corrupted
    /// entry can cost a cold solve, never an answer.
    pub fn set_shared_cache(&mut self, shared: Arc<SharedBasisCache>) {
        self.shared = Some(shared);
    }

    /// Failover invalidation, reaching both stores: a basis that sent a
    /// solve down the ladder must not seed the next solve of the same
    /// pattern in *any* session.
    fn invalidate_warm(&mut self, key: u64) {
        self.cache.remove(key);
        if let Some(shared) = &self.shared {
            shared.remove(key);
        }
    }

    /// Solves a built model: lowers it to sparse standard form, runs the
    /// session pipeline and maps the optimum back to the model.
    ///
    /// # Errors
    ///
    /// [`LpError::Infeasible`], [`LpError::Unbounded`],
    /// [`LpError::PivotLimit`], or [`LpError::Cancelled`].
    pub fn solve(&mut self, lp: &LpBuilder) -> Result<LpSolution, LpError> {
        let (std_rows, map) = lp.lower();
        let x_std = self.solve_std_rows(std_rows)?;
        let values = map.recover(&x_std);
        let objective: f64 = lp.objective.iter().map(|&(j, c)| c * values[j]).sum();
        Ok(LpSolution { objective, values })
    }

    /// Solves `min cᵀx, A·x = b, x ≥ 0` (with `b ≥ 0`) given a dense
    /// constraint matrix, and returns the optimal `x`.
    ///
    /// # Errors
    ///
    /// [`LpError::Infeasible`], [`LpError::Unbounded`], or
    /// [`LpError::PivotLimit`].
    pub fn solve_standard(
        &mut self,
        costs: &[f64],
        a: &qava_linalg::Matrix,
        b: &[f64],
    ) -> Result<Vec<f64>, LpError> {
        let rows: Vec<Vec<(usize, f64)>> = (0..a.rows())
            .map(|i| {
                a.row(i)
                    .iter()
                    .enumerate()
                    .filter(|(_, &v)| v != 0.0)
                    .map(|(j, &v)| (j, v))
                    .collect()
            })
            .collect();
        self.solve_std_rows(StdRows {
            costs: costs.to_vec(),
            rows,
            b: b.to_vec(),
            ncols: a.cols(),
        })
    }

    /// Solves `min cᵀx, A·x = b, x ≥ 0` (with `b ≥ 0`) given sparse
    /// constraint rows (`(column, coefficient)` pairs), without
    /// materializing a dense matrix — the sparse-form sibling of
    /// [`solve_standard`](Self::solve_standard).
    ///
    /// # Errors
    ///
    /// [`LpError::Infeasible`], [`LpError::Unbounded`],
    /// [`LpError::PivotLimit`], or [`LpError::Cancelled`].
    pub fn solve_standard_sparse(
        &mut self,
        costs: &[f64],
        rows: &[Vec<(usize, f64)>],
        b: &[f64],
        ncols: usize,
    ) -> Result<Vec<f64>, LpError> {
        self.solve_std_rows(StdRows {
            costs: costs.to_vec(),
            rows: rows.to_vec(),
            b: b.to_vec(),
            ncols,
        })
    }

    /// Prepares a model for a family of solves that differ only in the
    /// right-hand sides of some of its rows — the Ser search's ε probes,
    /// say. Lowers the model, presolves it while recording presolve's
    /// right-hand-side arithmetic on a tape, and equilibrates it, once;
    /// [`solve_prepared`](Self::solve_prepared) then solves any member
    /// of the family. Does no solve and touches no session state.
    pub fn prepare(&self, lp: &LpBuilder) -> PreparedLp {
        let (std_rows, map) = lp.lower();
        let b = std_rows.b.clone();
        let signs = lp.rows.iter().map(|r| lower_rhs(r.rhs).0).collect();
        let mut tape = Tape::default();
        // A presolve that already ends this member (infeasible) leaves
        // nothing to replay: every solve then runs the full pipeline.
        let system = CoreSystem::new(std_rows, Some(&mut tape)).ok().map(|sys| (tape, sys));
        PreparedLp {
            model: lp.clone(),
            map,
            b,
            signs,
            flipped: 0,
            system,
            factors: FactorMemo::default(),
            replay_b: Vec::new(),
            replays: 0,
            fallbacks: 0,
        }
    }

    /// Solves the member of a prepared family whose rows `rhs` names have
    /// the given right-hand sides (each as it would be passed to
    /// [`LpBuilder::constrain`]; rows not named keep their last value).
    ///
    /// Returns exactly what [`solve`](Self::solve) returns for the model
    /// with those right-hand sides, bit for bit, and leaves the session
    /// (statistics, warm-start cache, fault plan) exactly as that solve
    /// would: the recorded presolve is replayed on the new right-hand
    /// side through the same functions presolve itself uses, and the
    /// reduced system goes through the same backend half of the
    /// pipeline. When a patched row would lower with the other sign, or
    /// any replayed presolve step would decide differently, the member
    /// runs the full pipeline instead. A backend may also reuse the
    /// fresh factorization of an unchanged warm basis
    /// ([`LpBackend::solve_core_prepared`]).
    ///
    /// # Errors
    ///
    /// Exactly those of [`solve`](Self::solve).
    ///
    /// # Panics
    ///
    /// Panics if a [`RowId`] is not a row of the prepared model.
    pub fn solve_prepared(
        &mut self,
        prep: &mut PreparedLp,
        rhs: &[(RowId, f64)],
    ) -> Result<LpSolution, LpError> {
        for &(row, value) in rhs {
            prep.set_rhs(row, value);
        }
        let x_std = self.counted(|s| {
            if prep.replay() {
                prep.replays += 1;
                let (_, sys) = prep.system.as_ref().expect("replayed a recorded system");
                let factors = &mut prep.factors;
                s.failover(|s, force| s.run_core(sys, force, Some(&mut *factors)))
            } else {
                prep.fallbacks += 1;
                let (std_rows, _) = prep.model.lower();
                s.pipeline(std_rows)
            }
        })?;
        let values = prep.map.recover(&x_std);
        let objective: f64 = prep.model.objective.iter().map(|&(j, c)| c * values[j]).sum();
        Ok(LpSolution { objective, values })
    }

    /// The shared solve pipeline: presolve → equilibration → warm-start
    /// lookup → selected backend → cache update → solution restore,
    /// wrapped in the failover ladder.
    pub(crate) fn solve_std_rows(&mut self, lp: StdRows) -> Result<Vec<f64>, LpError> {
        self.counted(|s| s.pipeline(lp))
    }

    /// The solve boundary around one counted solve: cancellation,
    /// deadline expiry, and the injected flavor of the latter share one
    /// boundary and one error, where the solve performs no work and is
    /// not counted.
    fn counted(
        &mut self,
        solve: impl FnOnce(&mut Self) -> Result<Vec<f64>, LpError>,
    ) -> Result<Vec<f64>, LpError> {
        if self.is_cancelled()
            || self.deadline_expired()
            || self.fault_trip(Site::SolveBoundary)
        {
            return Err(LpError::Cancelled);
        }
        let started = Instant::now();
        self.stats.solves += 1;
        let out = solve(self);
        self.stats.wall_seconds += started.elapsed().as_secs_f64();
        out
    }

    /// The full pipeline on one standard-form system: each rung of the
    /// failover ladder presolves and equilibrates it afresh.
    fn pipeline(&mut self, lp: StdRows) -> Result<Vec<f64>, LpError> {
        self.failover(|s, force| s.attempt(&lp, force))
    }

    /// Runs `attempt` on the selected backend, then — when it exhausts
    /// in-backend recovery and still reports [`LpError::PivotLimit`] —
    /// steps down the failover ladder `lu-ft → sparse → dense`
    /// (wrapping past the bottom so every other rung is tried exactly
    /// once), re-running `attempt` per rung. `Infeasible`/`Unbounded`/
    /// `Cancelled` are verdicts, not faults: they return immediately
    /// from whichever rung produced them.
    fn failover(
        &mut self,
        mut attempt: impl FnMut(&mut Self, Option<usize>) -> Attempt,
    ) -> Result<Vec<f64>, LpError> {
        let first = attempt(self, None);
        let failover_from = match &first.result {
            Err(LpError::PivotLimit) if self.failover => first.backend_idx,
            _ => None,
        };
        let Some(failed_idx) = failover_from else {
            return first.result;
        };
        // The basis that seeded the failed run must not seed the next
        // solve of this pattern (nor the rungs below, which share the
        // cache key).
        if let Some(key) = first.warm_key {
            self.invalidate_warm(key);
        }
        let ladder = [LU_FT_IDX, SPARSE_IDX, DENSE_IDX];
        // External backends (not on the ladder) fail over to the top
        // rung; built-ins resume below their own position. The walk
        // wraps: when the *bottom* rung is the one that failed (a
        // transient fault on the dense oracle), the rungs above it are
        // still untried solvers and each gets one shot before the
        // session gives up.
        let start = ladder.iter().position(|&i| i == failed_idx).map_or(0, |p| p + 1);
        let rungs =
            (start..start + ladder.len()).map(|k| ladder[k % ladder.len()]).filter(|&i| {
                i != failed_idx
            });
        for idx in rungs {
            self.stats.failovers += 1;
            let retry = attempt(self, Some(idx));
            match retry.result {
                Err(LpError::PivotLimit) => {
                    if let Some(key) = retry.warm_key {
                        self.invalidate_warm(key);
                    }
                }
                Ok(x) => {
                    self.stats.failover_recoveries += 1;
                    return Ok(x);
                }
                err => return err,
            }
        }
        Err(LpError::PivotLimit)
    }

    /// One full pipeline pass on one backend: presolve and equilibration,
    /// then [`run_core`](Self::run_core). `force` pins the backend (a
    /// failover rung); `None` applies the session's selection policy.
    fn attempt(&mut self, lp: &StdRows, force: Option<usize>) -> Attempt {
        match CoreSystem::new(lp.clone(), None) {
            Ok(sys) => self.run_core(&sys, force, None),
            Err(e) => Attempt::verdict(Err(e)),
        }
    }

    /// The backend half of a pipeline pass, shared by ordinary and
    /// prepared solves: presolve counters → backend selection →
    /// warm-start lookup → backend call → cache update → restore.
    /// `factors` is the prepared system's factorization memo.
    fn run_core(
        &mut self,
        sys: &CoreSystem,
        force: Option<usize>,
        factors: Option<&mut FactorMemo>,
    ) -> Attempt {
        self.stats.presolve_rows_removed += sys.orig_rows - sys.rows;
        self.stats.presolve_cols_removed += sys.orig_cols - sys.ncols;
        let restore = &sys.restore;
        let Some(core_sys) = &sys.scaled else {
            // Fully presolved: the (empty) system is trivially feasible.
            return Attempt::verdict(if restore.unbounded_if_feasible {
                Err(LpError::Unbounded)
            } else {
                Ok(restore.expand(&vec![0.0; sys.ncols]))
            });
        };
        let Scaled { a: sa, costs: scaled_costs, b: sb, col_scale, .. } = core_sys;
        let m = sa.rows();
        let n = sa.cols();

        // ---- Backend selection and warm-start lookup. ----
        let idx = force.unwrap_or_else(|| match self.selection {
            Selection::Fixed(idx) => idx,
            Selection::Auto => {
                if m <= DENSE_CUTOVER_ROWS && n <= DENSE_CUTOVER_COLS {
                    DENSE_IDX
                } else {
                    // Size alone is not enough: a big basis only favors
                    // the LU factors when the system is sparse enough
                    // that they stay compact. Dense mid-size systems keep
                    // the explicit-inverse engine.
                    let density = sa.nnz() as f64 / (m * n) as f64;
                    if m >= LU_CUTOVER_ROWS && density <= LU_MAX_DENSITY {
                        LU_FT_IDX
                    } else {
                        SPARSE_IDX
                    }
                }
            }
        });
        // Warm-start bookkeeping (pattern hash, cache lookup, hit/miss
        // counters) only for backends that can consume a basis; the
        // dense tableau's whole point is a minimal per-solve fixed cost.
        let warm_capable = self.backends[idx].supports_warm_start();
        let key = if warm_capable { *core_sys.key.get_or_init(|| sa.pattern_hash()) } else { 0 };
        let mut warm = if warm_capable { self.cache.get(key) } else { None };
        // Read-through to the process-wide store on a session miss. A
        // shared entry comes from another request, so it gets a shape
        // check a session entry never needs (`len == m`, indices `< n`);
        // anything malformed is treated as a miss, never offered to a
        // backend.
        let mut warm_from_shared = false;
        if warm.is_none() && warm_capable {
            if let Some(shared) = &self.shared {
                if let Some(basis) = shared.get(key) {
                    if basis.len() == m && basis.iter().all(|&j| j < n) {
                        warm_from_shared = true;
                        warm = Some(basis);
                    } else {
                        shared.remove(key);
                    }
                }
            }
        }
        if let Some(basis) = warm.as_mut() {
            if self.fault_trip(Site::WarmLookup) {
                // Poison: duplicate the first slot everywhere, making the
                // warm basis singular. The backend's warm-start
                // validation must reject it and run cold.
                let first = basis[0];
                basis.iter_mut().for_each(|slot| *slot = first);
            }
        }

        // The in-backend injection sites (refactor, update pivots, FT
        // accuracy) read the plan through a thread-local installed only
        // for the duration of the call; the visit counters round-trip
        // back into the session.
        let backend_started = Instant::now();
        let prev = faults::install(self.faults.take());
        let backend = &self.backends[idx];
        let core = match factors {
            Some(factors) => {
                backend.solve_core_prepared(scaled_costs, sa, sb, warm.as_deref(), factors)
            }
            None => backend.solve_core(scaled_costs, sa, sb, warm.as_deref()),
        };
        self.faults = faults::install(prev);
        let core = if self.fault_trip(Site::BackendCall) {
            // The real result (and any instance-capture wrapper's log of
            // it) already exists; only the session's view turns into the
            // fault.
            Err(LpError::PivotLimit)
        } else {
            core
        };
        let backend_wall = backend_started.elapsed().as_secs_f64();
        let name = self.backends[idx].name();
        let pivots = core.as_ref().map(|c| c.pivots).unwrap_or(0);
        self.stats.pivots += pivots;
        let tally = self.stats.tally_mut(name);
        tally.solves += 1;
        tally.pivots += pivots;
        tally.wall_seconds += backend_wall;
        let core = match core {
            Ok(core) => core,
            Err(e) => {
                return Attempt {
                    result: Err(e),
                    backend_idx: Some(idx),
                    warm_key: warm_capable.then_some(key),
                }
            }
        };
        self.stats.watchdog_restarts += core.watchdog_restarts;
        self.stats.watchdog_singular += core.watchdog_singular;
        self.stats.watchdog_infeasible += core.watchdog_infeasible;
        self.stats.bland_retries += core.bland_retries;
        self.stats.accuracy_refactors += core.accuracy_refactors;
        if warm_capable {
            if core.warm_start_used {
                self.stats.warm_start_hits += 1;
                if warm_from_shared {
                    self.stats.persistent_warm_hits += 1;
                }
            } else {
                self.stats.warm_start_misses += 1;
            }
            if let Some(basis) = core.basis {
                // Only artificial-free bases are reusable. Write-through:
                // the final basis seeds both this session's next solve
                // and, via the shared store, every other session's.
                if basis.iter().all(|&j| j < n) {
                    if let Some(shared) = &self.shared {
                        shared.put(key, basis.clone());
                    }
                    self.stats.cache_evictions += self.cache.put(key, basis);
                }
            }
        }

        // Undo the column scaling (row scaling does not affect x).
        let mut x = core.x;
        for (xj, s) in x.iter_mut().zip(col_scale) {
            *xj *= s;
        }
        let result = if restore.unbounded_if_feasible {
            // The reduced system is feasible, so the removed negative-cost
            // empty column really is an improving ray.
            Err(LpError::Unbounded)
        } else {
            Ok(restore.expand(&x))
        };
        Attempt { result, backend_idx: Some(idx), warm_key: warm_capable.then_some(key) }
    }
}

/// A presolved, equilibrated system: what a pipeline pass hands a
/// backend, plus what it needs to map the answer back.
struct CoreSystem {
    /// Rows and columns before presolve, and rows and columns after it
    /// (the presolve counters).
    orig_rows: usize,
    orig_cols: usize,
    rows: usize,
    ncols: usize,
    restore: Restore,
    /// `None` when presolve removed every row.
    scaled: Option<Scaled>,
}

/// The equilibrated core system `min cᵀx, A·x = b, x ≥ 0`.
struct Scaled {
    a: CscMatrix,
    costs: Vec<f64>,
    b: Vec<f64>,
    row_scale: Vec<f64>,
    col_scale: Vec<f64>,
    /// The pattern hash keying the warm-start cache, computed on first
    /// use by a warm-capable backend.
    key: OnceCell<u64>,
}

impl CoreSystem {
    /// Presolves (recording on `tape` when given) and equilibrates.
    fn new(lp: StdRows, tape: Option<&mut Tape>) -> Result<Self, LpError> {
        let orig_rows = lp.rows.len();
        let orig_cols = lp.ncols;
        let (reduced, restore) = presolve::reduce(lp, tape)?;
        Ok(CoreSystem {
            orig_rows,
            orig_cols,
            rows: reduced.rows.len(),
            ncols: reduced.ncols,
            restore,
            scaled: (!reduced.rows.is_empty()).then(|| Scaled::equilibrate(reduced)),
        })
    }
}

impl Scaled {
    /// Equilibration: rows then columns to unit max-norm, with the
    /// [0.25, 4] dead-band shared by every backend.
    fn equilibrate(reduced: StdRows) -> Self {
        let a = CscMatrix::from_sparse_rows(reduced.rows.len(), reduced.ncols, &reduced.rows);
        let m = a.rows();
        let n = a.cols();
        let mut row_max = vec![0.0f64; m];
        a.for_each(|r, _, v| row_max[r] = row_max[r].max(v.abs()));
        let row_scale: Vec<f64> = row_max
            .iter()
            .map(|&r| if r > 0.0 && !(0.25..=4.0).contains(&r) { 1.0 / r } else { 1.0 })
            .collect();
        let mut col_max = vec![0.0f64; n];
        a.for_each(|r, c, v| col_max[c] = col_max[c].max((v * row_scale[r]).abs()));
        let col_scale: Vec<f64> = col_max
            .iter()
            .map(|&c| if c > 0.0 && !(0.25..=4.0).contains(&c) { 1.0 / c } else { 1.0 })
            .collect();
        let mut sa = a;
        sa.scale(&row_scale, &col_scale);
        let sb = reduced.b.iter().zip(&row_scale).map(|(&v, &s)| v * s).collect();
        let scaled_costs: Vec<f64> =
            reduced.costs.iter().zip(&col_scale).map(|(&c, &s)| c * s).collect();
        Scaled { a: sa, costs: scaled_costs, b: sb, row_scale, col_scale, key: OnceCell::new() }
    }
}

/// A model prepared by [`LpSolver::prepare`] for a family of solves that
/// differ only in right-hand sides, solved by
/// [`LpSolver::solve_prepared`].
///
/// It holds the lowered, presolved and equilibrated system once, the
/// presolve's right-hand-side tape, and a [`FactorMemo`]: the fresh
/// factorization of the last warm basis a backend refactorized on it and
/// the storage of its basis engines. It is not tied to a
/// session: any session may solve it, with that session's policy,
/// cache and statistics.
pub struct PreparedLp {
    /// The model with its latest right-hand sides.
    model: LpBuilder,
    map: ColMap,
    /// The lowered right-hand side of `model` (rows whose sign differs
    /// from the prepared one aside).
    b: Vec<f64>,
    /// The sign the lowering applied to each row at prepare time.
    signs: Vec<f64>,
    /// Rows that now lower with the other sign.
    flipped: usize,
    /// The presolve tape and the prepared core system; `None` when
    /// presolve found the prepared member infeasible.
    system: Option<(Tape, CoreSystem)>,
    factors: FactorMemo,
    /// The right-hand side a replay reduces in place, kept between
    /// members.
    replay_b: Vec<f64>,
    /// Members solved by replaying the tape…
    replays: usize,
    /// …and members that ran the full pipeline.
    fallbacks: usize,
}

impl std::fmt::Debug for PreparedLp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedLp")
            .field("rows", &self.model.num_rows())
            .field("vars", &self.model.num_vars())
            .field("replays", &self.replays)
            .field("fallbacks", &self.fallbacks)
            .finish()
    }
}

impl PreparedLp {
    fn set_rhs(&mut self, row: RowId, rhs: f64) {
        let i = row.0;
        let was_flipped = lower_rhs(self.model.rows[i].rhs).0 != self.signs[i];
        let (sign, b) = self.model.set_rhs(row, rhs);
        let flipped = sign != self.signs[i];
        self.b[i] = b;
        self.flipped = self.flipped + usize::from(flipped) - usize::from(was_flipped);
    }

    /// Replays the presolve tape on the current right-hand side and
    /// installs the result in the prepared system; `false` when the
    /// member must run the full pipeline instead.
    fn replay(&mut self) -> bool {
        if self.flipped > 0 {
            return false;
        }
        let Some((tape, sys)) = &mut self.system else {
            return false;
        };
        let b = &mut self.replay_b;
        b.clear();
        b.extend_from_slice(&self.b);
        if !tape.replay(b, &mut sys.restore.fixed) {
            return false;
        }
        if let Some(scaled) = &mut sys.scaled {
            scaled.b.clear();
            scaled.b.extend(b.iter().zip(&scaled.row_scale).map(|(&v, &s)| v * s));
        }
        true
    }

    /// `(replays, fallbacks)`: members solved through the prepared
    /// system, and members that ran the full pipeline.
    pub(crate) fn replay_counts(&self) -> (usize, usize) {
        (self.replays, self.fallbacks)
    }
}

/// One pipeline pass's outcome, with the context the failover
/// ladder needs: which backend ran (None when presolve settled the
/// system before any backend) and the warm-start cache key it was seeded
/// under (None for warm-incapable backends).
struct Attempt {
    result: Result<Vec<f64>, LpError>,
    backend_idx: Option<usize>,
    warm_key: Option<u64>,
}

impl Attempt {
    /// An outcome decided before (or without) a backend run.
    fn verdict(result: Result<Vec<f64>, LpError>) -> Self {
        Attempt { result, backend_idx: None, warm_key: None }
    }
}

impl BackendTally {
    /// Exhaustive destructuring for the same reason as
    /// [`LpStats::merge`]: a new tally field must pick a merge rule here
    /// to compile.
    fn fold(&mut self, other: &BackendTally) {
        let BackendTally { name: _, solves, pivots, wall_seconds } = other;
        self.solves += solves;
        self.pivots += pivots;
        self.wall_seconds += wall_seconds;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cmp, LinExpr};

    fn simple_lp(rhs: f64) -> LpBuilder {
        let mut lp = LpBuilder::new();
        let x = lp.add_var_nonneg("x");
        let y = lp.add_var_nonneg("y");
        lp.constrain(LinExpr::new().term(x, 1.0).term(y, 1.0), Cmp::Le, rhs);
        lp.maximize(LinExpr::new().term(x, 2.0).term(y, 1.0));
        lp
    }

    #[test]
    fn all_choices_agree_on_the_optimum() {
        for choice in
            [BackendChoice::Auto, BackendChoice::Sparse, BackendChoice::Dense, BackendChoice::LuFt]
        {
            let mut solver = LpSolver::with_choice(choice);
            let sol = solver.solve(&simple_lp(3.0)).unwrap();
            assert!((sol.objective - 6.0).abs() < 1e-7, "{choice}: {}", sol.objective);
        }
    }

    #[test]
    fn auto_routes_by_size_and_density() {
        // Large and sparse (one singleton cap per variable, far past the
        // dense cutover): Auto must pick the LU backend.
        let mut solver = LpSolver::with_choice(BackendChoice::Auto);
        let mut lp = LpBuilder::new();
        let vars: Vec<_> = (0..LU_CUTOVER_ROWS + 8)
            .map(|j| lp.add_var_nonneg(format!("x{j}")))
            .collect();
        let mut sum = LinExpr::new();
        for (j, &v) in vars.iter().enumerate() {
            // Distinct caps so presolve keeps every row.
            lp.constrain(
                LinExpr::var(v, 1.0).term(vars[(j + 1) % vars.len()], 0.5),
                Cmp::Le,
                1.0 + j as f64,
            );
            sum = sum.term(v, 1.0);
        }
        lp.maximize(sum);
        solver.solve(&lp).unwrap();
        assert_eq!(solver.stats().backends.len(), 1);
        assert_eq!(
            solver.stats().backends[0].name,
            "lu-ft",
            "large sparse model routes to the Forrest–Tomlin engine"
        );
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut solver = LpSolver::with_choice(BackendChoice::Sparse);
        for rhs in [3.0, 4.0, 5.0] {
            solver.solve(&simple_lp(rhs)).unwrap();
        }
        let stats = solver.stats().clone();
        assert_eq!(stats.solves, 3);
        assert_eq!(stats.backends.len(), 1);
        assert_eq!(stats.backends[0].name, "sparse");
        assert_eq!(stats.backends[0].solves, 3);
        assert!(stats.warm_start_hits >= 1, "identical patterns must warm-start");
        let taken = solver.take_stats();
        assert_eq!(taken, stats);
        assert_eq!(solver.stats().solves, 0);
    }

    #[test]
    fn auto_routes_tiny_models_to_dense() {
        let mut solver = LpSolver::with_choice(BackendChoice::Auto);
        solver.solve(&simple_lp(3.0)).unwrap();
        assert_eq!(solver.stats().backends.len(), 1);
        assert_eq!(solver.stats().backends[0].name, "dense");
    }

    #[test]
    fn select_backend_by_name() {
        let mut solver = LpSolver::new();
        assert!(solver.select_backend("sparse"));
        assert!(!solver.select_backend("interior-point"));
        solver.solve(&simple_lp(3.0)).unwrap();
        assert_eq!(solver.stats().backends[0].name, "sparse");
    }

    #[test]
    fn lru_cache_bounded_with_correct_eviction() {
        // Capacity 2, three distinct sparsity patterns solved round-robin
        // repeatedly: the cache must evict, never exceed its bound, and
        // every solve must stay correct.
        let mut solver = LpSolver::with_choice(BackendChoice::Sparse);
        solver.set_cache_capacity(2);
        // Three patterns: different numbers of active columns.
        let build = |pattern: usize, rhs: f64| {
            let mut lp = LpBuilder::new();
            let vars: Vec<_> =
                (0..3 + pattern).map(|j| lp.add_var_nonneg(format!("x{j}"))).collect();
            let mut e = LinExpr::new();
            for (j, &v) in vars.iter().enumerate() {
                e = e.term(v, 1.0 + j as f64);
            }
            lp.constrain(e, Cmp::Le, rhs);
            for (j, &v) in vars.iter().enumerate() {
                lp.constrain(LinExpr::var(v, 1.0), Cmp::Le, rhs / (1.0 + j as f64));
            }
            lp.maximize(LinExpr::var(vars[0], 1.0));
            lp
        };
        for round in 0..4 {
            for pattern in 0..3 {
                let rhs = 6.0 + round as f64 + pattern as f64;
                let sol = solver.solve(&build(pattern, rhs)).unwrap();
                // x0 is capped by the singleton row x0 ≤ rhs.
                assert!(
                    (sol.objective - rhs).abs() < 1e-7,
                    "round {round} pattern {pattern}: {}",
                    sol.objective
                );
            }
        }
        assert!(solver.cache.map.len() <= 2, "cache exceeded its capacity");
        assert!(solver.stats().cache_evictions > 0, "rotation through 3 patterns must evict");
    }

    #[test]
    fn shrinking_capacity_evicts_down() {
        let mut solver = LpSolver::with_choice(BackendChoice::Sparse);
        for pattern in 0..3 {
            let mut lp = LpBuilder::new();
            let vars: Vec<_> =
                (0..3 + pattern).map(|j| lp.add_var_nonneg(format!("x{j}"))).collect();
            let mut e = LinExpr::new();
            for &v in &vars {
                e = e.term(v, 1.0);
            }
            lp.constrain(e, Cmp::Le, 1.0);
            for &v in &vars {
                lp.constrain(LinExpr::var(v, 1.0), Cmp::Le, 0.75);
            }
            lp.minimize(LinExpr::var(vars[0], 1.0));
            solver.solve(&lp).unwrap();
        }
        assert!(solver.cache.map.len() >= 2, "distinct patterns fill the cache");
        solver.set_cache_capacity(1);
        assert!(solver.cache.map.len() <= 1);
    }

    #[test]
    fn shared_cache_seeds_a_fresh_session() {
        let shared = Arc::new(SharedBasisCache::new(16));

        // Session A runs cold and publishes its final basis write-through.
        let mut a = LpSolver::with_choice(BackendChoice::Sparse);
        a.set_shared_cache(shared.clone());
        a.solve(&simple_lp(3.0)).unwrap();
        assert_eq!(a.stats().persistent_warm_hits, 0, "nothing to inherit yet");
        assert!(!shared.is_empty(), "write-through populates the shared store");

        // Session B has an empty *session* cache but the same shared
        // store: its very first solve of the pattern starts warm.
        let mut b = LpSolver::with_choice(BackendChoice::Sparse);
        b.set_shared_cache(shared.clone());
        let sol = b.solve(&simple_lp(4.0)).unwrap();
        assert!((sol.objective - 8.0).abs() < 1e-7, "{}", sol.objective);
        assert!(b.stats().warm_start_hits >= 1, "shared basis must be accepted");
        assert!(b.stats().persistent_warm_hits >= 1, "…and attributed to the shared store");
        assert!(
            b.stats().persistent_warm_hits <= b.stats().warm_start_hits,
            "persistent hits are a subset of warm hits"
        );
    }

    #[test]
    fn poisoned_shared_entries_cannot_break_solves() {
        let shared = Arc::new(SharedBasisCache::new(16));
        let mut a = LpSolver::with_choice(BackendChoice::Sparse);
        a.set_shared_cache(shared.clone());
        a.solve(&simple_lp(3.0)).unwrap();

        // Overwrite every shared entry with garbage: out-of-range column
        // indices at a plausible length.
        for key in shared.keys() {
            shared.put(key, vec![usize::MAX, usize::MAX, usize::MAX]);
        }
        let mut b = LpSolver::with_choice(BackendChoice::Sparse);
        b.set_shared_cache(shared.clone());
        let sol = b.solve(&simple_lp(3.0)).unwrap();
        assert!((sol.objective - 6.0).abs() < 1e-7, "poison must cost warmth, not the answer");
        assert_eq!(b.stats().persistent_warm_hits, 0, "garbage is never a hit");
        // The rejected entries were dropped, and B's own cold solve
        // re-published a good basis — a third session warm-starts again.
        let mut c = LpSolver::with_choice(BackendChoice::Sparse);
        c.set_shared_cache(shared);
        c.solve(&simple_lp(3.0)).unwrap();
        assert!(c.stats().persistent_warm_hits >= 1, "self-heals after poison");
    }

    proptest::proptest! {
        /// The warm-start cache must never exceed its capacity bound
        /// under arbitrary interleavings of inserts, lookups, failover
        /// removals, and capacity changes — including a raw shrink that
        /// leaves the map temporarily oversized, which the next insert's
        /// eviction loop must fully repair (a single-eviction `put`
        /// would leave the cache permanently over capacity).
        #[test]
        fn basis_cache_never_exceeds_capacity(
            ops in proptest::collection::vec((0u8..4u8, 0u8..8u8), 1..96),
        ) {
            let mut cache = BasisCache::new(3);
            for (op, k) in ops {
                let key = u64::from(k);
                match op {
                    0 => {
                        cache.put(key, vec![usize::from(k)]);
                        proptest::prop_assert!(
                            cache.map.len() <= cache.capacity,
                            "put left {} entries with capacity {}",
                            cache.map.len(),
                            cache.capacity
                        );
                    }
                    1 => {
                        cache.get(key);
                    }
                    // Failover invalidation path.
                    2 => {
                        cache.remove(key);
                    }
                    // Raw capacity change without the evict-down sweep
                    // `LpSolver::set_cache_capacity` performs — the
                    // worst case `put` must recover from.
                    _ => cache.capacity = 1 + usize::from(k % 3),
                }
            }
        }
    }

    #[test]
    fn backend_choice_from_args() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<String>>();
        assert_eq!(BackendChoice::from_args(&args(&["--other"])).unwrap(), None);
        assert_eq!(
            BackendChoice::from_args(&args(&["--lp-backend", "dense"])).unwrap(),
            Some(BackendChoice::Dense)
        );
        assert_eq!(
            BackendChoice::from_args(&args(&["--lp-backend", "lu-ft"])).unwrap(),
            Some(BackendChoice::LuFt)
        );
        assert_eq!(
            BackendChoice::from_args(&args(&["--lp-backend", "sparse", "--lp-backend", "auto"]))
                .unwrap(),
            Some(BackendChoice::Auto),
            "last occurrence wins"
        );
        let missing = BackendChoice::from_args(&args(&["--lp-backend"])).unwrap_err();
        assert!(missing.contains(BACKEND_NAMES), "{missing}");
        // The deleted engines' names are unknown values like any other.
        for gone in ["lu", "lu-bg", "cuda"] {
            let err = BackendChoice::from_args(&args(&["--lp-backend", gone])).unwrap_err();
            assert_eq!(
                err,
                format!("unknown LP backend `{gone}` (expected auto, sparse, dense, or lu-ft)")
            );
        }
        for choice in
            [BackendChoice::Auto, BackendChoice::Sparse, BackendChoice::Dense, BackendChoice::LuFt]
        {
            assert_eq!(choice.to_string().parse::<BackendChoice>().unwrap(), choice);
        }
    }

    #[test]
    fn cancellation_flag_stops_solves_at_boundaries() {
        let mut solver = LpSolver::with_choice(BackendChoice::Sparse);
        let flag = Arc::new(AtomicBool::new(false));
        solver.add_cancel_flag(Arc::new(AtomicBool::new(false)));
        solver.add_cancel_flag(flag.clone());
        // Flags down: solves run normally.
        solver.solve(&simple_lp(3.0)).unwrap();
        assert!(!solver.is_cancelled());
        // One flag up: every further solve returns Cancelled without work.
        flag.store(true, Ordering::Relaxed);
        assert!(solver.is_cancelled());
        let solves_before = solver.stats().solves;
        assert_eq!(solver.solve(&simple_lp(4.0)).unwrap_err(), LpError::Cancelled);
        assert_eq!(solver.stats().solves, solves_before, "cancelled solves are not counted");
    }

    #[test]
    fn merge_stats_folds_external_counters() {
        let mut a = LpSolver::with_choice(BackendChoice::Sparse);
        a.solve(&simple_lp(3.0)).unwrap();
        let taken = a.take_stats();
        assert_eq!(a.stats().solves, 0);
        a.merge_stats(&taken);
        assert_eq!(a.stats(), &taken, "take + merge round-trips the session total");
    }

    /// A backend that always gives up — the raw material of the
    /// failover tests.
    struct AlwaysPivotLimit;

    impl LpBackend for AlwaysPivotLimit {
        fn name(&self) -> &'static str {
            "always-pivot-limit"
        }

        fn solve_core(
            &self,
            _costs: &[f64],
            _a: &CscMatrix,
            _b: &[f64],
            _warm: Option<&[usize]>,
        ) -> Result<CoreSolution, LpError> {
            Err(LpError::PivotLimit)
        }
    }

    #[test]
    fn failover_ladder_rescues_a_failing_backend() {
        let mut solver = LpSolver::new();
        solver.register_backend(Box::new(AlwaysPivotLimit));
        let sol = solver.solve(&simple_lp(3.0)).unwrap();
        assert!((sol.objective - 6.0).abs() < 1e-7);
        let stats = solver.stats();
        assert_eq!(stats.failovers, 1, "the top rung rescues immediately");
        assert_eq!(stats.failover_recoveries, 1);
        let names: Vec<_> = stats.backends.iter().map(|t| t.name).collect();
        assert_eq!(
            names,
            vec!["always-pivot-limit", "lu-ft"],
            "an external backend fails over to the top of the ladder"
        );
    }

    #[test]
    fn failover_disabled_surfaces_the_raw_error() {
        let mut solver = LpSolver::new();
        solver.register_backend(Box::new(AlwaysPivotLimit));
        solver.set_failover(false);
        assert_eq!(solver.solve(&simple_lp(3.0)).unwrap_err(), LpError::PivotLimit);
        assert_eq!(solver.stats().failovers, 0);
    }

    #[test]
    fn injected_pivot_limit_steps_down_one_rung() {
        let mut solver = LpSolver::with_choice(BackendChoice::LuFt);
        solver.install_fault_plan(FaultPlan::once(crate::FaultKind::PivotLimit));
        let sol = solver.solve(&simple_lp(3.0)).unwrap();
        assert!((sol.objective - 6.0).abs() < 1e-7);
        assert!(solver.fault_fired());
        let stats = solver.stats();
        assert_eq!(stats.failovers, 1);
        assert_eq!(stats.failover_recoveries, 1);
        let names: Vec<_> = stats.backends.iter().map(|t| t.name).collect();
        assert_eq!(names, vec!["lu-ft", "sparse"], "lu-ft steps down to sparse");
    }

    #[test]
    fn bottom_rung_failure_wraps_back_to_the_top() {
        // A transient fault on the dense oracle — the ladder's last rung
        // — must not strand the session: the walk wraps and the rungs
        // above get one shot each.
        let mut solver = LpSolver::with_choice(BackendChoice::Dense);
        solver.install_fault_plan(FaultPlan::once(crate::FaultKind::PivotLimit));
        let sol = solver.solve(&simple_lp(3.0)).unwrap();
        assert!((sol.objective - 6.0).abs() < 1e-7);
        assert!(solver.fault_fired());
        let stats = solver.stats();
        assert_eq!(stats.failovers, 1);
        assert_eq!(stats.failover_recoveries, 1);
        let names: Vec<_> = stats.backends.iter().map(|t| t.name).collect();
        assert_eq!(names, vec!["dense", "lu-ft"], "dense wraps to the top rung");
    }

    #[test]
    fn failover_invalidates_the_seeding_warm_start_entry() {
        let mut solver = LpSolver::with_choice(BackendChoice::Sparse);
        solver.solve(&simple_lp(3.0)).unwrap();
        solver.solve(&simple_lp(4.0)).unwrap();
        assert_eq!(solver.cache.map.len(), 1);
        assert!(solver.stats().warm_start_hits >= 1, "second solve warm-starts");
        // Third solve of the same pattern: the backend call "fails", so
        // the cached basis that seeded it must be dropped before the
        // ladder (here: sparse → dense) takes over.
        solver.install_fault_plan(FaultPlan::once(crate::FaultKind::PivotLimit));
        let sol = solver.solve(&simple_lp(5.0)).unwrap();
        assert!((sol.objective - 10.0).abs() < 1e-7);
        assert_eq!(
            solver.cache.map.len(),
            0,
            "the poisoned pattern's entry is gone (the dense rescue rung caches nothing)"
        );
        let names: Vec<_> = solver.stats().backends.iter().map(|t| t.name).collect();
        assert_eq!(names, vec!["sparse", "dense"]);
    }

    #[test]
    fn poisoned_warm_start_recovers_cold() {
        let mut solver = LpSolver::with_choice(BackendChoice::LuFt);
        solver.solve(&simple_lp(3.0)).unwrap();
        solver.install_fault_plan(FaultPlan::once(crate::FaultKind::WarmPoison));
        let sol = solver.solve(&simple_lp(4.0)).unwrap();
        assert!((sol.objective - 8.0).abs() < 1e-7, "got {}", sol.objective);
        assert!(solver.fault_fired(), "the cache hit was poisoned");
        assert_eq!(solver.stats().failovers, 0, "cold restart absorbs it in-backend");
    }

    #[test]
    fn past_deadline_cancels_at_the_boundary() {
        let mut solver = LpSolver::with_choice(BackendChoice::Sparse);
        solver.solve(&simple_lp(3.0)).unwrap();
        solver.set_deadline(Instant::now());
        assert!(solver.deadline_expired());
        let solves_before = solver.stats().solves;
        assert_eq!(solver.solve(&simple_lp(4.0)).unwrap_err(), LpError::Cancelled);
        assert_eq!(solver.stats().solves, solves_before, "expired solves are not counted");
        solver.clear_deadline();
        solver.solve(&simple_lp(5.0)).unwrap();
    }

    #[test]
    fn injected_deadline_expiry_fires_once() {
        let mut solver = LpSolver::with_choice(BackendChoice::Sparse);
        solver.install_fault_plan(FaultPlan::once(crate::FaultKind::Deadline));
        assert_eq!(solver.solve(&simple_lp(3.0)).unwrap_err(), LpError::Cancelled);
        assert!(solver.fault_fired());
        solver.solve(&simple_lp(3.0)).unwrap();
    }

    #[test]
    fn merge_combines_backend_tallies() {
        let mut a = LpSolver::with_choice(BackendChoice::Sparse);
        a.solve(&simple_lp(3.0)).unwrap();
        let mut b = LpSolver::with_choice(BackendChoice::Dense);
        b.solve(&simple_lp(4.0)).unwrap();
        let mut total = a.take_stats();
        total.merge(b.stats());
        assert_eq!(total.solves, 2);
        let names: Vec<_> = total.backends.iter().map(|t| t.name).collect();
        assert_eq!(names, vec!["sparse", "dense"]);
    }
}
