//! Polynomial (quadratic) lower-bound synthesis — the extension of §6 that
//! Remark 5 of the paper sketches.
//!
//! The algorithm is ExpLowSyn with a quadratic exponent
//! `η(ℓ, v) = Σ q_{ij} v_i v_j + a·v + b`:
//!
//! 1. boundedness `η ≤ M` on every invariant (Step 2 of §6), discharged by
//!    Handelman instead of Farkas;
//! 2. the post fixed-point constraint, strengthened by Jensen's inequality
//!    applied to the *whole* random exponent: for
//!    `X = η(dst, upd(v, r))` (a random variable through `r`),
//!    `E[exp(X)] ≥ exp(E[X])`, and `E[X]` is a polynomial in `v` computed
//!    from the first and second moments of the sampling sites
//!    ([`QuadSpace::expected_eta_after`]);
//! 3. one LP, maximizing `η(ℓ_init, v_init)`.
//!
//! As with the affine algorithm, soundness requires almost-sure
//! termination (Theorem 4.4), certifiable via [`crate::rsm`]. The paper
//! would use Positivstellensatz + SDP here; DESIGN.md records the
//! Handelman substitution.

use crate::handelman::encode_poly_nonneg;
use crate::logprob::LogProb;
use crate::poly::UPoly;
use crate::polyrsm::QuadSpace;
use crate::template::UCoef;
use qava_lp::{Cmp, LinExpr, LpBuilder, LpError, LpSolver, VarId};
use qava_pts::Pts;

/// Errors from [`synthesize_quadratic_lower_bound_in`].
#[derive(Debug, Clone, PartialEq)]
pub enum PolyLowError {
    /// The Handelman-strengthened LP is infeasible at degree 2.
    NoTemplate,
    /// A transition sends all mass to `ℓ_t` from a satisfiable guard.
    DeadEndTransition {
        /// Index of the offending transition.
        transition: usize,
    },
    /// The initial location is absorbing.
    TrivialInitial,
    /// LP failure.
    Lp(LpError),
}

impl std::fmt::Display for PolyLowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolyLowError::NoTemplate => {
                write!(f, "no quadratic post fixed-point certifiable via Jensen + Handelman")
            }
            PolyLowError::DeadEndTransition { transition } => write!(
                f,
                "transition {transition} moves to ℓ_t with probability 1; positive templates cannot lower-bound it"
            ),
            PolyLowError::TrivialInitial => write!(f, "initial location is absorbing"),
            PolyLowError::Lp(e) => write!(f, "LP failure: {e}"),
        }
    }
}

impl std::error::Error for PolyLowError {}

/// A synthesized quadratic lower bound.
#[derive(Debug, Clone)]
pub struct PolyLowResult {
    /// Certified lower bound `exp(η(ℓ_init, v_init))` (valid under
    /// almost-sure termination).
    pub bound: LogProb,
    /// Raw solution over the quadratic unknowns.
    pub solution: Vec<f64>,
}

/// Handelman product degree (quadratic targets).
const HANDELMAN_DEGREE: u32 = 2;

/// Runs the quadratic lower-bound synthesis, threading the emptiness
/// probes and the Handelman LP through the given solver session; the
/// `polylow` engine calls this.
///
/// # Errors
///
/// See [`PolyLowError`].
pub fn synthesize_quadratic_lower_bound_in(
    pts: &Pts,
    solver: &mut LpSolver,
) -> Result<PolyLowResult, PolyLowError> {
    let init = pts.initial_state();
    if pts.is_absorbing(init.loc) {
        return Err(PolyLowError::TrivialInitial);
    }
    let space = QuadSpace::new(pts);
    let n = space.len();
    let nvars = pts.num_vars();

    let mut lp = LpBuilder::new();
    let unknowns: Vec<VarId> = (0..n).map(|i| lp.add_var(format!("q{i}"))).collect();
    let m_var = lp.add_var("M");
    let mut xs = unknowns.clone();
    xs.push(m_var);

    let widen = |p: &UPoly| -> UPoly {
        let mut out = UPoly::zero(nvars, n + 1);
        for (id, c) in p.iter_ids() {
            let mut lin = c.lin.clone();
            lin.resize(n + 1, 0.0);
            out.add_term_id(id, &UCoef { lin, constant: c.constant });
        }
        out
    };

    // Step 2 (boundedness): M − η(ℓ, v) ≥ 0 on I(ℓ).
    for l in pts.live_locations() {
        let mut p = UPoly::zero(nvars, n + 1);
        p.add_scaled(&widen(&space.eta(l)), -1.0);
        let mut m_coef = UCoef::zero(n + 1);
        m_coef.add_unknown(n, 1.0);
        p.add_term(vec![0; nvars], &m_coef);
        encode_poly_nonneg(&mut lp, &xs, pts.invariant(l), &p, HANDELMAN_DEGREE);
    }

    // Steps 3–4: for each transition, the Jensen-strengthened post
    // fixed-point row. Forks into ℓ_t contribute nothing to the live mass;
    // θ(ℓ_f) ≡ 1 contributes an exponent of 0.
    for (ti, t) in pts.transitions().iter().enumerate() {
        let psi = pts.invariant(t.src).intersection(&t.guard);
        if psi.is_empty_in(solver) {
            continue;
        }
        let mut live_mass = 0.0;
        // Σ' p_j · E[η_j] with η over the live and failure forks.
        let mut sum = UPoly::zero(nvars, n);
        for fork in &t.forks {
            if fork.dest == pts.terminal_location() {
                continue;
            }
            live_mass += fork.prob;
            if fork.dest == pts.failure_location() {
                continue; // exponent 0
            }
            sum.add_scaled(&space.expected_eta_after(fork.dest, fork), fork.prob);
        }
        if live_mass <= 1e-12 {
            return Err(PolyLowError::DeadEndTransition { transition: ti });
        }
        // Q⁻¹·(sum − Q·η(src)) ≥ −ln Q  ⇔  sum − Q·η(src) + Q·ln Q ≥ 0.
        let mut p = widen(&sum);
        p.add_scaled(&widen(&space.eta(t.src)), -live_mass);
        let shift = UCoef::constant(n + 1, live_mass * live_mass.ln());
        p.add_term(vec![0; nvars], &shift);
        encode_poly_nonneg(&mut lp, &xs, &psi, &p, HANDELMAN_DEGREE);
    }

    // The bound cannot certify above 1, and the LP must stay bounded:
    // η(init) ≤ 0, maximized.
    let eta_init = space.eta(init.loc);
    let mut obj = LinExpr::new();
    let mut obj_const = 0.0;
    for (m, c) in eta_init.iter() {
        let mono: f64 = m
            .iter()
            .zip(&init.vals)
            .map(|(&e, &x)| x.powi(e as i32))
            .product();
        for (idx, &coef) in c.lin.iter().enumerate() {
            if coef != 0.0 {
                obj = obj.term(unknowns[idx], coef * mono);
            }
        }
        obj_const += c.constant * mono;
    }
    lp.constrain(obj.clone(), Cmp::Le, -obj_const);
    lp.maximize(obj);

    let sol = match solver.solve(&lp) {
        Ok(s) => s,
        Err(LpError::Infeasible) => return Err(PolyLowError::NoTemplate),
        Err(e) => return Err(PolyLowError::Lp(e)),
    };
    let x: Vec<f64> = unknowns.iter().map(|&v| sol.value(v)).collect();
    Ok(PolyLowResult {
        bound: LogProb::from_ln(sol.objective + obj_const).clamp_to_unit(),
        solution: x,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explowsyn::synthesize_lower_bound_in;
    use std::collections::BTreeMap;

    fn m1dwalk(p: f64) -> Pts {
        let src = r"
            param p = 1e-7;
            x := 1;
            while x <= 99 invariant x >= -1000 and x <= 100 {
                switch {
                    prob(p): { exit; }
                    prob(0.75 * (1 - p)): { x := x + 1; }
                    prob(0.25 * (1 - p)): { x := x - 1; }
                }
            }
            assert false;
        ";
        let mut params = BTreeMap::new();
        params.insert("p".to_string(), p);
        qava_lang::compile(src, &params).unwrap()
    }

    #[test]
    fn quadratic_lower_bound_at_least_affine() {
        // The quadratic class contains the affine templates, and the
        // Handelman certificate at degree 2 subsumes the Farkas one, so
        // the quadratic lower bound must be at least as tight where both
        // succeed. (The invariant here is a bounded box so Handelman has
        // the compactness it likes.)
        let pts = m1dwalk(1e-4);
        let affine = synthesize_lower_bound_in(&pts, &mut LpSolver::new()).unwrap();
        let quad = synthesize_quadratic_lower_bound_in(&pts, &mut LpSolver::new()).unwrap();
        assert!(
            quad.bound.ln() >= affine.bound.ln() - 1e-6,
            "quadratic {} below affine {}",
            quad.bound,
            affine.bound
        );
    }

    #[test]
    fn quadratic_lower_bound_sound_against_oracle() {
        let pts = m1dwalk(1e-3);
        let quad = synthesize_quadratic_lower_bound_in(&pts, &mut LpSolver::new()).unwrap();
        let oracle = crate::fixpoint::VpfOracle::explore(&pts, 2_000_000);
        // The walk ranges over a wide grid; if the oracle fits, check
        // exact soundness, otherwise fall back to simulation.
        match oracle {
            Ok(o) => {
                let (lo, hi) = o.interval(200_000);
                assert!(hi - lo < 1e-6, "oracle converged: [{lo}, {hi}]");
                assert!(
                    quad.bound.to_f64() <= lo + 1e-9,
                    "lower bound {} above true vpf {lo}",
                    quad.bound
                );
            }
            Err(_) => {
                let est =
                    qava_sim::Simulator::new(9).estimate_violation(&pts, 50_000, 1_000_000);
                assert!(quad.bound.to_f64() <= est.upper_ci());
            }
        }
    }

    #[test]
    fn trivial_initial_detected() {
        let pts = qava_lang::compile("x := 0; assert false;", &BTreeMap::new()).unwrap();
        assert!(matches!(
            synthesize_quadratic_lower_bound_in(&pts, &mut LpSolver::new()),
            Err(PolyLowError::TrivialInitial)
        ));
    }

    #[test]
    fn dead_end_detected() {
        let src = r"
            x := 0;
            while x <= 9 invariant x >= 0 and x <= 10 { x := x + 1; }
            exit;
        ";
        let pts = qava_lang::compile(src, &BTreeMap::new()).unwrap();
        assert!(matches!(
            synthesize_quadratic_lower_bound_in(&pts, &mut LpSolver::new()),
            Err(PolyLowError::DeadEndTransition { .. })
        ));
    }
}
