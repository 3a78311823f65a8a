//! **HoeffdingSynthesis** (§5.1): sound polynomial-time upper bounds via
//! repulsing ranking supermartingales (RepRSMs) and Hoeffding's lemma, plus
//! the Azuma-inequality baseline of Chatterjee–Novotný–Žikelić (POPL'17)
//! that Remark 2 compares against.
//!
//! A `(β, Δ, ε)`-RepRSM is an affine `η(ℓ, v) = a_ℓ·v + b_ℓ` satisfying
//!
//! * (C1) `η(ℓ_init, v_init) ≤ 0`;
//! * (C2) `η(ℓ_f, ·) ≥ 0` on `I(ℓ_f)`;
//! * (C3) expected decrease by at least `ε` along every transition;
//! * (C4) one-step differences within `[β, β + Δ]`.
//!
//! Theorem 5.1: `exp((8ε/Δ²)·η)` is then a pre fixed-point, so
//! `exp((8ε/Δ²)·η(ℓ_init, v_init))` bounds the violation probability. The
//! Azuma variant pins `β = −Δ/2` and only certifies the weaker
//! `exp((4ε/Δ²)·η)` — always at least the square root of our bound.
//!
//! Scaling fixes `Δ = 1` (Appendix C.2). The remaining objective `8·ε·ω`
//! (with `ω = η(ℓ_init, v_init)`) is bilinear, so the **Ser** procedure
//! ternary-searches over `ε`, solving one Farkas LP per probe — the
//! uniqueness of the local optimum is Proposition 5 of the paper.

use crate::farkas::encode_implication;
use crate::logprob::LogProb;
use crate::template::{SolvedTemplate, TemplateSpace, UCoef};
use qava_lp::{Cmp, LinExpr, LpBuilder, LpError, LpSolver, VarId};
use qava_pts::{Fork, Pts, Transition};
use qava_polyhedra::{Halfspace, Polyhedron};

/// Which concentration inequality converts the RepRSM into a bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundKind {
    /// This paper's bound `exp((8ε/Δ²)·η)` (Theorem 5.1).
    Hoeffding,
    /// The POPL'17 baseline `exp((4ε/Δ²)·η)` with `β = −Δ/2` (Remark 2).
    Azuma,
}

impl BoundKind {
    fn factor(self) -> f64 {
        match self {
            BoundKind::Hoeffding => 8.0,
            BoundKind::Azuma => 4.0,
        }
    }
}

/// Errors from RepRSM synthesis.
#[derive(Debug, Clone, PartialEq)]
pub enum RepRsmError {
    /// No affine RepRSM exists for this PTS and invariant.
    NoRepRsm,
    /// The initial location is absorbing.
    TrivialInitial,
    /// The discrete-support product of some fork is too large to enumerate.
    SupportTooLarge {
        /// The offending transition index.
        transition: usize,
    },
    /// LP solver failure.
    Lp(LpError),
}

impl std::fmt::Display for RepRsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepRsmError::NoRepRsm => write!(f, "no affine repulsing ranking supermartingale exists"),
            RepRsmError::TrivialInitial => write!(f, "initial location is absorbing"),
            RepRsmError::SupportTooLarge { transition } => {
                write!(f, "transition {transition}: discrete support product too large")
            }
            RepRsmError::Lp(e) => write!(f, "LP failure: {e}"),
        }
    }
}

impl std::error::Error for RepRsmError {}

/// A synthesized RepRSM bound.
#[derive(Debug, Clone)]
pub struct RepRsmResult {
    /// The certified upper bound `exp(factor·ε·ω)`, clamped to `[0, 1]`.
    pub bound: LogProb,
    /// The decrease parameter `ε` found by the Ser search.
    pub epsilon: f64,
    /// `ω = η(ℓ_init, v_init)` at the optimum (non-positive).
    pub omega: f64,
    /// The synthesized RepRSM (live locations; for the symbolic Table 3).
    pub template: SolvedTemplate,
    /// Number of LPs solved by the Ser search.
    pub lp_solves: usize,
}

/// Cap on enumerated discrete-support combinations per fork in (C4).
const MAX_SUPPORT_COMBOS: usize = 4096;
/// Upper limit of the ε search window (`Δ = 1` makes larger ε useless:
/// differences bounded by 1 cannot decrease by more than 1 in expectation).
const EPS_CAP: f64 = 1.0;

/// Default number of Ser ternary-search iterations: `(2/3)^70` shrinks the
/// ε window by ~1e-12, matching Theorem C.1's `O(log(εmax/μ))` with the
/// tightest μ that still makes sense in f64.
pub const DEFAULT_SER_ITERATIONS: usize = 70;

/// Synthesizes a RepRSM upper bound with a Ser ternary search of
/// `ser_iterations` probes (Theorem C.1), threading every LP through the
/// given solver session: the ε probes share one sparsity pattern, so each
/// probe beyond the first warm-starts from its predecessor's basis.
///
/// # Errors
///
/// See [`RepRsmError`].
pub fn synthesize_reprsm_bound_in(
    pts: &Pts,
    kind: BoundKind,
    ser_iterations: usize,
    solver: &mut LpSolver,
) -> Result<RepRsmResult, RepRsmError> {
    synthesize_reprsm_bound_seeded_in(pts, kind, ser_iterations, None, solver)
}

/// Seeded search window, as a multiple of the neighbor's ε\*: wide enough
/// that ε\* rarely grows past it between neighboring sweep points, narrow
/// enough that the ternary search converges in fewer probes than the
/// full `[0, εmax]` window needs.
const SEED_WINDOW: f64 = 8.0;

/// Fraction of the seeded window's ceiling beyond which the landed ε\* is
/// treated as boundary-pinned — the true optimum may lie above the
/// window, so the seeded result is discarded and the full search
/// (εmax LP included) runs instead.
const SEED_BOUNDARY: f64 = 0.9;

/// [`synthesize_reprsm_bound_in`] with an optional ε seed from a
/// neighboring parametric-sweep point (`crate::sweep`).
///
/// With `eps_seed = Some(ε₀)` from the *previous* point's certified
/// template, the εmax LP is skipped and the Ser ternary search runs on
/// the seeded window `[0, min(SEED_WINDOW·ε₀, 1))`. Honesty guards
/// make seeding a pure acceleration, never an answer change beyond the
/// ternary search's own `1e-10` convergence slack:
///
/// * **boundary fallback** — if ε\* lands within `SEED_BOUNDARY` of the
///   seeded ceiling (and the ceiling is not the global `EPS_CAP`), the
///   optimum may lie above the window: the seeded attempt is discarded
///   and the full `[0, εmax]` search runs;
/// * **infeasibility fallback** — probes above the true εmax are
///   infeasible and prune themselves inside the search, but a final
///   solve landing infeasible (ε\* a hair past εmax) likewise discards
///   the attempt instead of misreporting `NoRepRsm`.
///
/// The bound is certified by the final LP solve at ε\* exactly as in the
/// unseeded search; `f(ε) = ε·ω(ε)` is unimodal (Proposition 5), so both
/// windows converge to the same optimum when the guard does not fire.
///
/// # Errors
///
/// See [`RepRsmError`].
pub fn synthesize_reprsm_bound_seeded_in(
    pts: &Pts,
    kind: BoundKind,
    ser_iterations: usize,
    eps_seed: Option<f64>,
    solver: &mut LpSolver,
) -> Result<RepRsmResult, RepRsmError> {
    let init = pts.initial_state();
    if pts.is_absorbing(init.loc) {
        return Err(RepRsmError::TrivialInitial);
    }
    let space = TemplateSpace::new(pts, true);
    let gen = ConstraintGen::new(pts, &space, kind, solver)?;
    let mut lp_solves = 0usize;

    // f(ε) = ε·ω_opt(ε), minimized by ternary search (Appendix C.2).
    let omega_at =
        |eps: f64, count: &mut usize, solver: &mut LpSolver| -> Result<f64, RepRsmError> {
            let (lp, _, _) = gen.build_lp(Some(eps));
            *count += 1;
            match solver.solve(&lp) {
                Ok(sol) => Ok(sol.objective.min(0.0)),
                Err(LpError::Infeasible) => Ok(f64::INFINITY), // probe outside feasible ε range
                Err(e) => Err(RepRsmError::Lp(e)),
            }
        };
    let ternary = |mut lo: f64,
                   mut hi: f64,
                   count: &mut usize,
                   solver: &mut LpSolver|
     -> Result<f64, RepRsmError> {
        for _ in 0..ser_iterations {
            if hi - lo < 1e-10 {
                break;
            }
            let m1 = lo + (hi - lo) / 3.0;
            let m2 = hi - (hi - lo) / 3.0;
            let f1 = m1 * omega_at(m1, count, solver)?;
            let f2 = m2 * omega_at(m2, count, solver)?;
            if f1 < f2 {
                hi = m2;
            } else {
                lo = m1;
            }
        }
        Ok((lo + hi) / 2.0)
    };
    // Final certifying solve at ε*; `Ok(None)` = infeasible there.
    let finish = |eps_star: f64,
                  count: &mut usize,
                  solver: &mut LpSolver|
     -> Result<Option<RepRsmResult>, RepRsmError> {
        let (lp, unknowns, _) = gen.build_lp(Some(eps_star));
        *count += 1;
        let sol = match solver.solve(&lp) {
            Ok(s) => s,
            Err(LpError::Infeasible) => return Ok(None),
            Err(e) => return Err(RepRsmError::Lp(e)),
        };
        let x: Vec<f64> = unknowns.iter().map(|&v| sol.value(v)).collect();
        let omega = sol.objective.min(0.0);
        let log_bound = kind.factor() * eps_star * omega;
        Ok(Some(RepRsmResult {
            bound: LogProb::from_ln(log_bound).clamp_to_unit(),
            epsilon: eps_star,
            omega,
            template: SolvedTemplate::from_solution(pts, &space, &x),
            lp_solves: 0, // caller stamps the running total
        }))
    };

    // Seeded fast path: search the neighbor-derived window, fall back to
    // the full search when the guards fire.
    if let Some(seed) = eps_seed.filter(|e| e.is_finite() && *e > 0.0) {
        let hi = (SEED_WINDOW * seed).min(EPS_CAP);
        let eps_star = ternary(0.0, hi, &mut lp_solves, solver)?;
        if eps_star <= SEED_BOUNDARY * hi || hi >= EPS_CAP {
            if let Some(mut r) = finish(eps_star, &mut lp_solves, solver)? {
                r.lp_solves = lp_solves;
                return Ok(r);
            }
        }
    }

    // εmax: maximize ε subject to everything (ε itself capped for
    // boundedness).
    let eps_max = {
        let (lp, _, eps_var) = gen.build_lp(None);
        lp_solves += 1;
        match solver.solve(&lp) {
            Ok(sol) => sol.value(eps_var.expect("eps is a variable here")).min(EPS_CAP),
            Err(LpError::Infeasible) => return Err(RepRsmError::NoRepRsm),
            Err(e) => return Err(RepRsmError::Lp(e)),
        }
    };
    let eps_star = ternary(0.0, eps_max, &mut lp_solves, solver)?;
    match finish(eps_star, &mut lp_solves, solver)? {
        Some(mut r) => {
            r.lp_solves = lp_solves;
            Ok(r)
        }
        None => Err(RepRsmError::NoRepRsm),
    }
}

/// Shared constraint-generation state: everything except the value of ε.
struct ConstraintGen<'a> {
    pts: &'a Pts,
    space: &'a TemplateSpace,
    kind: BoundKind,
    /// Pre-enumerated (C4) instances:
    /// `(extended Ψ, coefficient rows c(x), offset d-part, fork identity)`.
    c4_instances: Vec<C4Instance>,
    /// (C3) instances: `(Ψ, c rows, constant part of d excluding ε)`.
    c3_instances: Vec<C3Instance>,
}

struct C3Instance {
    psi: Polyhedron,
    c: Vec<UCoef>,
    d_no_eps: UCoef,
}

struct C4Instance {
    extended_psi: Polyhedron,
    /// Coefficients of `diff(v, r)` over the extended space, affine in x.
    diff_coeffs: Vec<UCoef>,
    diff_const: UCoef,
}

impl<'a> ConstraintGen<'a> {
    fn new(
        pts: &'a Pts,
        space: &'a TemplateSpace,
        kind: BoundKind,
        solver: &mut LpSolver,
    ) -> Result<Self, RepRsmError> {
        let mut c3 = Vec::new();
        let mut c4 = Vec::new();
        for (ti, t) in pts.transitions().iter().enumerate() {
            let psi = pts.invariant(t.src).intersection(&t.guard);
            if psi.is_empty_in(solver) {
                continue;
            }
            c3.push(Self::c3_instance(pts, space, t, &psi));
            for fork in &t.forks {
                Self::c4_instances(pts, space, t, fork, &psi, ti, &mut c4)?;
            }
        }
        Ok(ConstraintGen { pts, space, kind, c3_instances: c3, c4_instances: c4 })
    }

    /// (C3): `Σ_j p_j·E[η(dst_j, upd_j(v, r))] − η(src, v) + ε ≤ 0`.
    fn c3_instance(pts: &Pts, space: &TemplateSpace, t: &Transition, psi: &Polyhedron) -> C3Instance {
        let n = space.len();
        let nvars = pts.num_vars();
        let mut c: Vec<UCoef> = (0..nvars).map(|_| UCoef::zero(n)).collect();
        let mut d = UCoef::zero(n);
        for (k, ck) in c.iter_mut().enumerate() {
            ck.add_unknown(space.a_index(t.src, k), -1.0);
        }
        d.add_unknown(space.b_index(t.src), -1.0);
        for fork in &t.forks {
            let q = fork.update.matrix();
            for k in 0..nvars {
                for m in 0..nvars {
                    if q[(m, k)] != 0.0 {
                        c[k].add_unknown(space.a_index(fork.dest, m), fork.prob * q[(m, k)]);
                    }
                }
            }
            // Mean contribution of offsets and sampling sites.
            let mut mean_offset = fork.update.offset().to_vec();
            for site in fork.update.samples() {
                let mu = site.dist.mean();
                for (m, &cm) in site.coeffs.iter().enumerate() {
                    mean_offset[m] += mu * cm;
                }
            }
            for (m, &em) in mean_offset.iter().enumerate() {
                if em != 0.0 {
                    d.add_unknown(space.a_index(fork.dest, m), fork.prob * em);
                }
            }
            d.add_unknown(space.b_index(fork.dest), fork.prob);
        }
        // Encoded later as: c(x)·v ≤ −d(x) − ε.
        C3Instance { psi: psi.clone(), c, d_no_eps: d }
    }

    /// (C4): for every discrete-support combination, over `(v, r_uniform)`:
    /// `β ≤ diff ≤ β + 1` where `diff = η(dst, upd(v, r)) − η(src, v)`.
    fn c4_instances(
        pts: &Pts,
        space: &TemplateSpace,
        t: &Transition,
        fork: &Fork,
        psi: &Polyhedron,
        ti: usize,
        out: &mut Vec<C4Instance>,
    ) -> Result<(), RepRsmError> {
        let n = space.len();
        let nvars = pts.num_vars();
        let sites = fork.update.samples();
        let uniform_sites: Vec<usize> = (0..sites.len())
            .filter(|&s| sites[s].dist.discrete_points().is_none())
            .collect();
        let discrete_sites: Vec<usize> = (0..sites.len())
            .filter(|&s| sites[s].dist.discrete_points().is_some())
            .collect();

        // Cartesian product of the discrete supports.
        let mut combos: Vec<Vec<f64>> = vec![Vec::new()];
        for &s in &discrete_sites {
            let points = sites[s].dist.discrete_points().expect("filtered discrete");
            let mut next = Vec::with_capacity(combos.len() * points.len());
            for combo in &combos {
                for &(value, _) in &points {
                    let mut c2 = combo.clone();
                    c2.push(value);
                    next.push(c2);
                }
            }
            combos = next;
            if combos.len() > MAX_SUPPORT_COMBOS {
                return Err(RepRsmError::SupportTooLarge { transition: ti });
            }
        }

        let ext_dim = nvars + uniform_sites.len();
        let mut extended_psi = psi.embed(ext_dim, 0);
        for (u, &s) in uniform_sites.iter().enumerate() {
            let (lo, hi) = sites[s].dist.support_bounds();
            let mut row = vec![0.0; ext_dim];
            row[nvars + u] = 1.0;
            extended_psi.add(Halfspace::le(row.clone(), hi));
            let mut neg = vec![0.0; ext_dim];
            neg[nvars + u] = -1.0;
            extended_psi.add(Halfspace::le(neg, -lo));
        }

        for combo in combos {
            // diff = (a_d·Q − a_src)·v + Σ_u (a_d·c_u)·r_u
            //      + a_d·(e + Σ_disc c_s·val) + b_d − b_src.
            let mut coeffs: Vec<UCoef> = (0..ext_dim).map(|_| UCoef::zero(n)).collect();
            let mut konst = UCoef::zero(n);
            let q = fork.update.matrix();
            for k in 0..nvars {
                coeffs[k].add_unknown(space.a_index(t.src, k), -1.0);
                for m in 0..nvars {
                    if q[(m, k)] != 0.0 {
                        coeffs[k].add_unknown(space.a_index(fork.dest, m), q[(m, k)]);
                    }
                }
            }
            for (u, &s) in uniform_sites.iter().enumerate() {
                for (m, &cm) in sites[s].coeffs.iter().enumerate() {
                    if cm != 0.0 {
                        coeffs[nvars + u].add_unknown(space.a_index(fork.dest, m), cm);
                    }
                }
            }
            let mut offset = fork.update.offset().to_vec();
            for (ci, &s) in discrete_sites.iter().enumerate() {
                for (m, &cm) in sites[s].coeffs.iter().enumerate() {
                    offset[m] += combo[ci] * cm;
                }
            }
            for (m, &em) in offset.iter().enumerate() {
                if em != 0.0 {
                    konst.add_unknown(space.a_index(fork.dest, m), em);
                }
            }
            konst.add_unknown(space.b_index(fork.dest), 1.0);
            konst.add_unknown(space.b_index(t.src), -1.0);
            out.push(C4Instance {
                extended_psi: extended_psi.clone(),
                diff_coeffs: coeffs,
                diff_const: konst,
            });
        }
        Ok(())
    }

    /// Builds the LP. When `eps` is `None`, ε is a decision variable and the
    /// objective is `max ε` (for εmax); otherwise ε is substituted and the
    /// objective is `min η(ℓ_init, v_init)`.
    fn build_lp(&self, eps: Option<f64>) -> (LpBuilder, Vec<VarId>, Option<VarId>) {
        let n = self.space.len();
        let mut lp = LpBuilder::new();
        let unknowns: Vec<VarId> = (0..n).map(|i| lp.add_var(format!("u{i}"))).collect();
        let beta = lp.add_var("beta");
        let eps_var = match eps {
            None => {
                let e = lp.add_var_nonneg("epsilon");
                lp.constrain(LinExpr::var(e, 1.0), Cmp::Le, EPS_CAP);
                Some(e)
            }
            Some(_) => None,
        };

        if self.kind == BoundKind::Azuma {
            lp.constrain(LinExpr::var(beta, 1.0), Cmp::Eq, -0.5);
        }

        // (C1): η(init) ≤ 0.
        let init = self.pts.initial_state();
        let eta_init = self.space.eta_at(init.loc, &init.vals);
        let mut c1 = LinExpr::new();
        for (i, &coef) in eta_init.lin.iter().enumerate() {
            if coef != 0.0 {
                c1 = c1.term(unknowns[i], coef);
            }
        }
        lp.constrain(c1, Cmp::Le, -eta_init.constant);

        // (C2): η(ℓ_f, ·) ≥ 0 on I(ℓ_f):  −a_f·v ≤ b_f.
        let fail = self.pts.failure_location();
        let nvars = self.pts.num_vars();
        let c2: Vec<UCoef> = (0..nvars)
            .map(|k| {
                let mut u = UCoef::zero(n);
                u.add_unknown(self.space.a_index(fail, k), -1.0);
                u
            })
            .collect();
        let mut d2 = UCoef::zero(n);
        d2.add_unknown(self.space.b_index(fail), 1.0);
        encode_implication(&mut lp, &unknowns, self.pts.invariant(fail), &c2, &d2);

        // (C3): c(x)·v ≤ −d(x) − ε over Ψ.
        for inst in &self.c3_instances {
            let mut d = inst.d_no_eps.negated();
            match (eps, eps_var) {
                (Some(e), _) => d.constant -= e,
                (None, Some(_)) => {
                    // ε as a variable: append it to the unknown basis below.
                }
                (None, None) => unreachable!(),
            }
            // encode with extended unknown list (template unknowns + β + ε?).
            // β does not appear in C3; ε appears with coefficient −1 when a
            // variable. We splice it via a widened UCoef basis.
            let (xs, c_rows, d_row) = self.widen(&unknowns, beta, eps_var, &inst.c, &d, -1.0);
            encode_implication(&mut lp, &xs, &inst.psi, &c_rows, &d_row);
        }

        // (C4): β − diff ≤ 0 and diff − β − 1 ≤ 0 over the extended Ψ.
        for inst in &self.c4_instances {
            // β ≤ diff  ⇔  −diff_coeffs·(v,r) ≤ diff_const − β.
            let c_lower: Vec<UCoef> = inst.diff_coeffs.iter().map(UCoef::negated).collect();
            let d_lower = inst.diff_const.clone();
            let (xs, c_rows, d_row) = self.widen(&unknowns, beta, eps_var, &c_lower, &d_lower, 0.0);
            // The β term: d = diff_const − β → coefficient −1 on β.
            let mut d_row = d_row;
            d_row.lin[n] = -1.0;
            encode_implication(&mut lp, &xs, &inst.extended_psi, &c_rows, &d_row);

            // diff ≤ β + 1  ⇔  diff_coeffs·(v,r) ≤ β + 1 − diff_const.
            let d_upper = {
                let mut d = inst.diff_const.negated();
                d.constant += 1.0;
                d
            };
            let (xs, c_rows, d_row) =
                self.widen(&unknowns, beta, eps_var, &inst.diff_coeffs, &d_upper, 0.0);
            let mut d_row = d_row;
            d_row.lin[n] = 1.0;
            encode_implication(&mut lp, &xs, &inst.extended_psi, &c_rows, &d_row);
        }

        // Objective.
        match eps_var {
            Some(e) => lp.maximize(LinExpr::var(e, 1.0)),
            None => {
                let mut obj = LinExpr::new();
                for (i, &coef) in eta_init.lin.iter().enumerate() {
                    if coef != 0.0 {
                        obj = obj.term(unknowns[i], coef);
                    }
                }
                lp.minimize(obj);
            }
        }
        (lp, unknowns, eps_var)
    }

    /// Widens template-space [`UCoef`]s (length `n`) to the LP's full
    /// unknown basis `n + β (+ ε)`, putting `eps_coef` on ε inside `d`.
    fn widen(
        &self,
        unknowns: &[VarId],
        beta: VarId,
        eps_var: Option<VarId>,
        c: &[UCoef],
        d: &UCoef,
        eps_coef: f64,
    ) -> (Vec<VarId>, Vec<UCoef>, UCoef) {
        let n = self.space.len();
        let mut xs: Vec<VarId> = unknowns.to_vec();
        xs.push(beta);
        let extra = if let Some(e) = eps_var {
            xs.push(e);
            2
        } else {
            1
        };
        let widen_one = |u: &UCoef| {
            let mut lin = u.lin.clone();
            lin.resize(n + extra, 0.0);
            UCoef { lin, constant: u.constant }
        };
        let c_rows: Vec<UCoef> = c.iter().map(widen_one).collect();
        let mut d_row = widen_one(d);
        if let Some(_e) = eps_var {
            d_row.lin[n + 1] = eps_coef;
        }
        (xs, c_rows, d_row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn race() -> Pts {
        let src = r"
            x := 40; y := 0;
            while x <= 99 and y <= 99 invariant x <= 100 and y <= 101 {
                if prob(0.5) { x, y := x + 1, y + 2; } else { x := x + 1; }
            }
            assert x >= 100;
        ";
        qava_lang::compile(src, &BTreeMap::new()).unwrap()
    }

    fn reprsm(pts: &Pts, kind: BoundKind) -> Result<RepRsmResult, RepRsmError> {
        synthesize_reprsm_bound_in(pts, kind, DEFAULT_SER_ITERATIONS, &mut LpSolver::new())
    }

    #[test]
    fn race_hoeffding_bound_nontrivial() {
        let r = reprsm(&race(), BoundKind::Hoeffding).unwrap();
        // Paper Table 1: 9.08e-4 for Race (40, 0) via §5.1.
        assert!(r.bound.ln() < -4.0, "bound {} too weak", r.bound);
        assert!(r.bound.ln() > -25.0, "bound {} suspiciously strong", r.bound);
        assert!(r.epsilon > 0.0);
        assert!(r.omega < 0.0);
    }

    #[test]
    fn azuma_is_weaker_than_hoeffding() {
        let pts = race();
        let h = reprsm(&pts, BoundKind::Hoeffding).unwrap();
        let a = reprsm(&pts, BoundKind::Azuma).unwrap();
        assert!(
            a.bound.ln() >= h.bound.ln() - 1e-6,
            "Remark 2: Azuma ({}) must be looser than Hoeffding ({})",
            a.bound,
            h.bound
        );
    }

    #[test]
    fn hoeffding_looser_than_explinsyn() {
        let pts = race();
        let h = reprsm(&pts, BoundKind::Hoeffding).unwrap();
        let e = crate::explinsyn::synthesize_upper_bound_in(&pts, &mut LpSolver::new()).unwrap();
        assert!(
            h.bound.ln() >= e.bound.ln() - 1e-6,
            "the complete algorithm dominates: {} vs {}",
            h.bound,
            e.bound
        );
    }

    #[test]
    fn no_reprsm_when_violation_not_repelled() {
        // Violation certain: walk straight into the assertion failure.
        let src = r"
            x := 0;
            while x <= 9 invariant x <= 10 { x := x + 1; }
            assert x <= 5;
        ";
        let pts = qava_lang::compile(src, &BTreeMap::new()).unwrap();
        let r = reprsm(&pts, BoundKind::Hoeffding);
        // Any RepRSM must put η(init) ≤ 0 while ending ≥ 0 with ε-decrease —
        // impossible here; alternatively the bound degenerates to ~1.
        match r {
            Err(RepRsmError::NoRepRsm) => {}
            Ok(res) => assert!(res.bound.ln() > -1e-3, "cannot certify below 1, got {}", res.bound),
            Err(e) => panic!("unexpected error {e}"),
        }
    }
}
