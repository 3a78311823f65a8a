//! The paper's benchmark suite (§7, Appendix E): all twelve programs of
//! Tables 1 and 2, written in the `qava` surface language, with the
//! invariants the paper derived manually and the published numbers for
//! comparison.
//!
//! Several benchmarks are parameter *families* — the same program at
//! three neighboring parameter values ([`sweep_families`] lists the
//! ones the `qava --sweep` driver runs). Both the table drivers and the
//! sweep driver ([`crate::sweep`], [`runner::sweep_families_with`])
//! solve every row independently, in its own LP session.
//!
//! Sources are transcriptions of Figures 1–12. Two reconstructions were
//! necessary (documented in DESIGN.md):
//!
//! * **RdAdder** (Fig 4): the arXiv listing is garbled (its `assert` can
//!   never fail); we encode the randomized accumulator whose optimal
//!   Chernoff bounds reproduce the paper's Table 1 column (500 fair
//!   increments, deviation `d` from the mean 250).
//! * **Robot** (Fig 5): the dead-reckoning robot is abstracted to the drift
//!   variable `d = x − ex`, which changes by ±0.05 only on the x-affecting
//!   move commands (total probability 0.4) — the only dynamics the assertion
//!   `x − ex ≥ dev` observes.

mod programs;
pub mod runner;

pub use programs::*;

use crate::logprob::LogProb;
use qava_pts::Pts;
use std::collections::BTreeMap;

/// Benchmark family, mirroring the grouping of Tables 1–2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// Large-deviation bounds (vs. Chakarov–Sankaranarayanan \[6\]).
    Deviation,
    /// Termination-time concentration (vs. TOPLAS'18 \[11\]).
    Concentration,
    /// Stochastic invariants (vs. POPL'17 \[12\]).
    StoInv,
    /// Unreliable-hardware reliability (lower bounds, vs. \[5\]/\[41\]).
    Hardware,
}

impl std::fmt::Display for Category {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Category::Deviation => "Deviation",
            Category::Concentration => "Concentration",
            Category::StoInv => "StoInv",
            Category::Hardware => "Hardware",
        };
        write!(f, "{s}")
    }
}

/// Which bound direction the table row reports (Table 1 = upper,
/// Table 2 = lower). Re-exported from the engine layer: the direction a
/// row reports is exactly the direction its engines certify.
pub use crate::engine::Direction;

/// Numbers printed in the paper, for the ratio columns of Tables 1–2.
#[derive(Debug, Clone, Copy, Default)]
pub struct PaperReference {
    /// The paper's §5.1 (Hoeffding) bound.
    pub hoeffding: Option<LogProb>,
    /// The paper's §5.2 (ExpLinSyn) bound.
    pub explinsyn: Option<LogProb>,
    /// The paper's §6 (ExpLowSyn) lower bound.
    pub explowsyn: Option<LogProb>,
    /// The "Previous Results" column (\[6\]/\[11\]/\[12\]/\[5\]/\[41\]).
    pub previous: Option<LogProb>,
}

/// One table row: a program instance with fixed parameters.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Benchmark name (e.g. `Race`).
    pub name: &'static str,
    /// Table grouping.
    pub category: Category,
    /// Bound direction.
    pub direction: Direction,
    /// Row label (e.g. `Pr[T > 500]` or `(x, y) = (40, 0)`).
    pub label: String,
    /// Program source in the `qava` language.
    pub source: &'static str,
    /// Parameter overrides for this row.
    pub params: BTreeMap<String, f64>,
    /// Published numbers.
    pub paper: PaperReference,
}

impl Benchmark {
    /// Compiles the program, applies this row's parameters, and runs the
    /// invariant-propagation pass.
    ///
    /// # Panics
    ///
    /// Panics if the embedded source fails to compile — a bug in the suite,
    /// covered by tests.
    pub fn compile(&self) -> Pts {
        let mut pts = qava_lang::compile(self.source, &self.params)
            .unwrap_or_else(|e| panic!("benchmark {} failed to compile: {e}", self.name));
        crate::invariants::propagate_invariants(&mut pts, 8);
        pts
    }
}

/// Builds a [`LogProb`] from scientific notation `mantissa × 10^exp10`.
pub(crate) fn sci(mantissa: f64, exp10: i32) -> LogProb {
    LogProb::from_ln(mantissa.ln() + f64::from(exp10) * std::f64::consts::LN_10)
}

/// All Table 1 (upper-bound) rows in paper order.
pub fn table1() -> Vec<Benchmark> {
    let mut rows = Vec::new();
    rows.extend(programs::rdadder_rows());
    rows.extend(programs::robot_rows());
    rows.extend(programs::coupon_rows());
    rows.extend(programs::prspeed_rows());
    rows.extend(programs::rdwalk_rows());
    rows.extend(programs::walk1d_rows());
    rows.extend(programs::walk2d_rows());
    rows.extend(programs::walk3d_rows());
    rows.extend(programs::race_rows());
    rows
}

/// All Table 2 (lower-bound) rows in paper order.
pub fn table2() -> Vec<Benchmark> {
    let mut rows = Vec::new();
    rows.extend(programs::m1dwalk_rows());
    rows.extend(programs::newton_rows());
    rows.extend(programs::refsearch_rows());
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_benchmark_compiles_and_validates() {
        for b in table1().into_iter().chain(table2()) {
            let pts = b.compile();
            pts.check_determinism(1e-6).unwrap_or_else(|e| {
                panic!("benchmark {} ({}): guards overlap: {e}", b.name, b.label)
            });
            assert!(pts.num_vars() >= 1);
        }
    }

    #[test]
    fn row_counts_match_paper() {
        assert_eq!(table1().len(), 27, "9 upper benchmarks x 3 parameter rows");
        assert_eq!(table2().len(), 9, "3 lower benchmarks x 3 parameter rows");
    }

    #[test]
    fn sweep_families_are_ordered_parameter_ladders() {
        let families = sweep_families();
        assert_eq!(families.len(), 3, "Coupon, 3DWalk, Ref");
        for rows in &families {
            assert_eq!(rows.len(), 3, "each family sweeps three points");
            assert!(rows.iter().all(|b| b.name == rows[0].name), "one program per family");
            assert!(
                rows.iter().all(|b| b.direction == rows[0].direction),
                "one direction per family"
            );
        }
    }

    #[test]
    fn sci_helper() {
        let p = sci(1.52, -7);
        assert!((p.to_f64() - 1.52e-7).abs() < 1e-16);
    }

    #[test]
    fn lower_benchmarks_terminate_almost_surely() {
        // The side condition of Theorem 4.4, certified by RSM synthesis.
        for b in table2() {
            if b.name == "Ref" {
                continue; // nested loops need a non-global treatment, see below
            }
            let pts = b.compile();
            crate::rsm::prove_almost_sure_termination(&pts).unwrap_or_else(|e| {
                panic!("{} ({}) should terminate a.s.: {e}", b.name, b.label)
            });
        }
    }
}
