#![warn(missing_docs)]

//! # qava-core — quantitative assertion-violation analysis
//!
//! A from-scratch Rust reproduction of *"Quantitative Analysis of Assertion
//! Violations in Probabilistic Programs"* (PLDI 2021): given an affine
//! probabilistic transition system and affine invariants, derive certified
//! **upper and lower bounds** on the probability that execution reaches the
//! assertion-violation location.
//!
//! ## The engine lineup
//!
//! Every synthesis algorithm is a [`engine::BoundEngine`] — a named,
//! runtime-dispatchable handle with a bound direction, an applicability
//! screen, and a uniform run interface ([`engine::AnalysisRequest`] in,
//! [`engine::AnalysisReport`] out: certified bound + certificate +
//! per-engine LP statistics + wall time). Six built-ins ship in the
//! [`engine::EngineRegistry`]:
//!
//! | Engine | Module | Paper | Certifies | Method |
//! |---|---|---|---|---|
//! | `hoeffding-linear` | [`hoeffding`] | §5.1 | upper | affine RepRSM + Hoeffding's lemma, Farkas LPs, Ser ternary search |
//! | `azuma` | [`hoeffding`] | Remark 2 | upper | the POPL'17 Azuma baseline on the same template class |
//! | `explinsyn` | [`explinsyn`] | §5.2 | upper, **complete** for affine exponents | Minkowski decomposition, quantifier elimination, convex programming |
//! | `polyrsm-quadratic` | [`polyrsm`] | Remark 3 | upper | quadratic RepRSM via Handelman certificates |
//! | `explowsyn` | [`explowsyn`] | §6 | lower (under a.s. termination) | Jensen strengthening + Farkas LP |
//! | `polylow` | [`polylow`] | Remark 5 | lower (under a.s. termination) | quadratic templates via Handelman |
//!
//! External engines attach with
//! [`register_engine`](engine::EngineRegistry::register_engine), exactly
//! like LP backends attach to `LpSolver::register_backend` one layer
//! down — and like there, re-registering a name shadows the built-in.
//!
//! ## Racing
//!
//! [`engine::race`] runs the applicable engines of one direction
//! concurrently on the rayon pool, each in its own `LpSolver` session.
//! The first **certified** bound wins; losers are cancelled
//! cooperatively via a shared flag their sessions poll at LP-solve
//! boundaries. Each engine's bound is individually certified, so the
//! race trades tightness for latency, never soundness — and a winner's
//! value is bit-identical to that engine run alone. Loser statistics are
//! kept in a separate `abandoned` bucket
//! ([`engine::RaceOutcome::abandoned`]) so aggregate footers never
//! double-count cancelled work. `qava --race`, `qava --suite --race` and
//! the suite runner's [`suite::runner::race_rows_with`] ride on this.
//!
//! ## Parametric sweeps
//!
//! [`sweep::run_sweep`] runs a benchmark family's points (Coupon
//! `Pr[T > n]`, the Ref `p` ladder, the 3DWalk εmax ladder) as a batch
//! of independent rows: each point is compiled and solved like its
//! `qava --suite` row, by the direction's primary engine in a fresh
//! `LpSolver` session, so a sweep prints bit for bit the bounds the
//! suite prints. [`sweep::run_sweeps_in`] runs the points of every
//! family as the tasks of one thread pool. Surfaced as `qava --sweep` /
//! [`suite::runner::sweep_families_with`].
//!
//! ## Failure semantics
//!
//! A certified bound only ever comes from a run that *succeeded*; every
//! failure mode below degrades into an explicit, attributable loser —
//! nothing is silently retried into a different answer.
//!
//! * **Panics.** Each racer runs behind a panic boundary: a candidate
//!   that panics is recorded as [`engine::EngineError::Panicked`] with
//!   empty LP statistics and the remaining candidates keep racing.
//!   Running an engine directly (outside a race) propagates the panic.
//! * **Deadlines.** [`engine::AnalysisRequest::deadline`] sets a
//!   wall-clock budget per engine run, enforced at LP-solve boundaries
//!   through the session deadline — an expired run winds down with
//!   [`engine::EngineError::Cancelled`], exactly like a lost race.
//! * **LP-level degradation.** Inside a session, transient solver
//!   failures are first absorbed by in-backend recovery (watchdog
//!   refactorization, Bland retries) and then by `qava_lp`'s failover
//!   ladder, which re-runs the solve on the next backend rung; the
//!   `LpStats` failover counters in every [`engine::AnalysisReport`]
//!   say when that happened. The chaos suite
//!   ([`suite::runner::run_rows_chaos`], `qava --suite --chaos SEED`)
//!   injects one deterministic recoverable fault per task and asserts
//!   every row still certifies the fault-free bound.
//!
//! ## Supporting theory and tooling
//!
//! * [`fixpoint`] — executable Theorems 4.3/4.4: value iteration from `⊥`
//!   and `⊤` brackets the true violation probability on finite instances
//!   (the conformance tests hold every registered engine to it);
//! * [`rsm`] — ranking-supermartingale certificates for the almost-sure
//!   termination side condition;
//! * [`invariants`] — sound invariant propagation onto intermediate control
//!   locations;
//! * [`verify`] — independent numerical re-checking of synthesized pre/post
//!   fixed-points;
//! * [`suite`] — all twelve benchmark programs of the paper's evaluation
//!   (§7, Figures 1–12) with their parameters and the published numbers,
//!   plus the parallel suite driver ([`suite::runner`]) in sequential and
//!   racing modes;
//! * [`logprob`] — log-domain probabilities (bounds reach `1e-3230`).
//!
//! ## Quickstart
//!
//! ```
//! use qava_core::engine::{AnalysisRequest, EngineRegistry};
//!
//! // Fig. 1: the tortoise-hare race. Upper-bound the hare's win probability.
//! let src = r"
//!     x := 40; y := 0;
//!     while x <= 99 and y <= 99 invariant x <= 100 and y <= 101 {
//!         if prob(0.5) { x, y := x + 1, y + 2; } else { x := x + 1; }
//!     }
//!     assert x >= 100;
//! ";
//! let pts = qava_lang::compile(src, &Default::default())?;
//! let registry = EngineRegistry::with_builtins();
//! let report = registry
//!     .run_engine("explinsyn", &AnalysisRequest::upper(&pts), Default::default())
//!     .expect("built-in engine");
//! let upper = report.outcome?;
//! assert!(upper.bound.ln() < -15.0); // ≈ 1.5e-7, §3.1 of the paper
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod canonical;
pub mod engine;
pub mod explinsyn;
pub mod explowsyn;
pub mod farkas;
pub mod handelman;
pub mod fixpoint;
pub mod hoeffding;
pub mod invariants;
pub mod logprob;
pub mod poly;
pub mod polylow;
pub mod polyrsm;
pub mod rsm;
pub mod suite;
pub mod sweep;
pub mod template;
pub mod verify;

pub use engine::{
    race, race_with, AnalysisReport, AnalysisRequest, BoundEngine, Certificate, Certified,
    Direction, EngineError, EngineRegistry, RaceOutcome,
};
pub use explinsyn::ExpLinSynResult;
pub use explowsyn::ExpLowSynResult;
pub use hoeffding::{BoundKind, RepRsmResult};
pub use logprob::LogProb;
pub use polylow::PolyLowResult;
pub use polyrsm::PolyRsmResult;
pub use rsm::{prove_almost_sure_termination, RsmCertificate};
pub use sweep::{run_sweep, SweepPoint, SweepReport, SweepRequest};
