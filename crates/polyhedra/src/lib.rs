#![warn(missing_docs)]

//! Convex polyhedra in halfspace representation, plus the generator-side
//! machinery the paper's ExpLinSyn algorithm needs (§5.2):
//!
//! * [`Polyhedron`] — `{x | A·x ≤ b}` with optional per-row strictness
//!   (guards of probabilistic transition systems use strict inequalities for
//!   negated conditions; all *geometric* operations work on the closure,
//!   which is sound for the synthesis algorithms because they only ever
//!   require constraints to hold on a superset of the guard);
//! * [`dd`] — the **double description method** (Motzkin–Burger) computing
//!   extreme rays and lines of polyhedral cones;
//! * [`Generators`] / [`Polyhedron::generators`] — vertex/ray/line
//!   enumeration via homogenization;
//! * [`Polyhedron::minkowski_decompose`] — the decomposition `P = Q + C`
//!   of Theorem 5.3 (polytope `Q` from the vertices, recession cone `C`),
//!   which replaces the Parma Polyhedra Library used by the paper's
//!   prototype;
//! * LP-backed predicates, each run inside a caller's
//!   [`qava_lp::LpSolver`] session: [`Polyhedron::is_empty_in`],
//!   [`Polyhedron::implies_in`], [`Polyhedron::interior_point_in`].
//!
//! # Examples
//!
//! ```
//! use qava_polyhedra::{Halfspace, Polyhedron};
//!
//! // The triangle x >= 0, y >= 0, x + y <= 1.
//! let tri = Polyhedron::from_constraints(2, vec![
//!     Halfspace::le(vec![-1.0, 0.0], 0.0),
//!     Halfspace::le(vec![0.0, -1.0], 0.0),
//!     Halfspace::le(vec![1.0, 1.0], 1.0),
//! ]);
//! let g = tri.generators();
//! assert_eq!(g.vertices.len(), 3);
//! assert!(g.rays.is_empty());
//! ```

pub mod dd;

pub use dd::ConeGenerators;

use qava_linalg::{vecops, EPS};
use qava_lp::{Cmp, LinExpr, LpBuilder, LpError, LpSolver};

/// A single linear constraint `coeffs · x ≤ rhs` (or `<` when `strict`).
#[derive(Debug, Clone, PartialEq)]
pub struct Halfspace {
    /// Row of coefficients, one per dimension.
    pub coeffs: Vec<f64>,
    /// Right-hand side.
    pub rhs: f64,
    /// `true` for a strict inequality `coeffs · x < rhs`.
    pub strict: bool,
}

impl Halfspace {
    /// Non-strict halfspace `coeffs · x ≤ rhs`.
    pub fn le(coeffs: Vec<f64>, rhs: f64) -> Self {
        Halfspace { coeffs, rhs, strict: false }
    }

    /// Strict halfspace `coeffs · x < rhs`.
    pub fn lt(coeffs: Vec<f64>, rhs: f64) -> Self {
        Halfspace { coeffs, rhs, strict: true }
    }

    /// Non-strict halfspace `coeffs · x ≥ rhs`, stored negated.
    pub fn ge(coeffs: Vec<f64>, rhs: f64) -> Self {
        Halfspace::le(vecops::scale(-1.0, &coeffs), -rhs)
    }

    /// The slack `rhs − coeffs·x` (non-negative on the halfspace).
    pub fn slack(&self, x: &[f64]) -> f64 {
        self.rhs - vecops::dot(&self.coeffs, x)
    }

    /// Whether `x` satisfies the constraint (with tolerance `tol`;
    /// strictness requires positive slack beyond the tolerance).
    pub fn satisfied_by(&self, x: &[f64], tol: f64) -> bool {
        let s = self.slack(x);
        if self.strict {
            s > tol
        } else {
            s >= -tol
        }
    }
}

/// Vertex/ray/line generator description of a polyhedron:
/// `P = conv(vertices) + cone(rays) + span(lines)`.
#[derive(Debug, Clone, Default)]
pub struct Generators {
    /// Points spanning the polytope part (minimal-face representatives).
    pub vertices: Vec<Vec<f64>>,
    /// Extreme rays of the recession cone.
    pub rays: Vec<Vec<f64>>,
    /// Basis of the lineality space.
    pub lines: Vec<Vec<f64>>,
}

impl Generators {
    /// `true` when there are no generators at all (empty polyhedron).
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty() && self.rays.is_empty() && self.lines.is_empty()
    }
}

/// A convex polyhedron `{x ∈ ℝⁿ | A·x ≤ b}` in halfspace representation.
#[derive(Debug, Clone, PartialEq)]
pub struct Polyhedron {
    dim: usize,
    constraints: Vec<Halfspace>,
}

impl Polyhedron {
    /// The full space `ℝ^dim` (no constraints).
    pub fn universe(dim: usize) -> Self {
        Polyhedron { dim, constraints: Vec::new() }
    }

    /// Builds a polyhedron from constraints.
    ///
    /// # Panics
    ///
    /// Panics if any constraint row has the wrong width.
    pub fn from_constraints(dim: usize, constraints: Vec<Halfspace>) -> Self {
        for h in &constraints {
            assert_eq!(h.coeffs.len(), dim, "constraint width mismatch");
        }
        let mut p = Polyhedron { dim, constraints };
        p.dedup_exact();
        p
    }

    /// Ambient dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The constraint rows.
    pub fn constraints(&self) -> &[Halfspace] {
        &self.constraints
    }

    /// Adds a constraint in place.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the ambient dimension.
    pub fn add(&mut self, h: Halfspace) {
        assert_eq!(h.coeffs.len(), self.dim, "constraint width mismatch");
        self.constraints.push(h);
    }

    /// Membership test honouring strict rows.
    pub fn contains(&self, x: &[f64], tol: f64) -> bool {
        self.constraints.iter().all(|h| h.satisfied_by(x, tol))
    }

    /// Membership in the topological closure (strictness ignored).
    pub fn closure_contains(&self, x: &[f64], tol: f64) -> bool {
        self.constraints.iter().all(|h| h.slack(x) >= -tol)
    }

    /// Intersection with another polyhedron over the same space.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn intersection(&self, other: &Polyhedron) -> Polyhedron {
        assert_eq!(self.dim, other.dim, "intersection: dimension mismatch");
        let mut c = self.constraints.clone();
        c.extend(other.constraints.iter().cloned());
        let mut p = Polyhedron { dim: self.dim, constraints: c };
        p.dedup_exact();
        p
    }

    /// Removes exactly-duplicated rows (frequent after guard pullbacks and
    /// intersections during PTS simplification); keeps first occurrences.
    fn dedup_exact(&mut self) {
        let mut seen: Vec<Halfspace> = Vec::with_capacity(self.constraints.len());
        self.constraints.retain(|h| {
            if seen.iter().any(|s| s == h) {
                false
            } else {
                seen.push(h.clone());
                true
            }
        });
    }

    /// The recession cone `{x | A·x ≤ 0}` (closure semantics).
    pub fn recession_cone(&self) -> Polyhedron {
        Polyhedron {
            dim: self.dim,
            constraints: self
                .constraints
                .iter()
                .map(|h| Halfspace::le(h.coeffs.clone(), 0.0))
                .collect(),
        }
    }

    /// Re-embeds the polyhedron into a larger space: variable `j` becomes
    /// variable `offset + j`, all other coordinates unconstrained.
    ///
    /// # Panics
    ///
    /// Panics if `offset + self.dim() > new_dim`.
    pub fn embed(&self, new_dim: usize, offset: usize) -> Polyhedron {
        assert!(offset + self.dim <= new_dim, "embed: target too small");
        let constraints = self
            .constraints
            .iter()
            .map(|h| {
                let mut coeffs = vec![0.0; new_dim];
                coeffs[offset..offset + self.dim].copy_from_slice(&h.coeffs);
                Halfspace { coeffs, rhs: h.rhs, strict: h.strict }
            })
            .collect();
        Polyhedron { dim: new_dim, constraints }
    }

    /// Emptiness of the **closure**, decided by an LP feasibility probe
    /// inside `solver`, so a synthesis run's emptiness probes share its
    /// warm-start cache and statistics.
    pub fn is_empty_in(&self, solver: &mut LpSolver) -> bool {
        match solver.solve(&self.feasibility_lp()) {
            Ok(_) => false,
            Err(LpError::Infeasible) => true,
            // A cancelled racer must not panic its worker: answer
            // conservatively (keep the region) — the run is being wound
            // down and its next real solve surfaces the cancellation.
            Err(LpError::Cancelled) => false,
            Err(e) => panic!("feasibility probe failed unexpectedly: {e}"),
        }
    }

    /// Returns a point of the closure, or `None` when empty.
    pub fn any_point_in(&self, solver: &mut LpSolver) -> Option<Vec<f64>> {
        solver.solve(&self.feasibility_lp()).ok().map(|s| s.values()[..self.dim].to_vec())
    }

    /// Returns a point with slack at least `margin` on every constraint, or
    /// `None` when no such point exists. Used to detect full-dimensional
    /// overlap between transition guards.
    pub fn interior_point_in(&self, margin: f64, solver: &mut LpSolver) -> Option<Vec<f64>> {
        let mut lp = LpBuilder::new();
        let vars: Vec<_> = (0..self.dim).map(|j| lp.add_var(format!("x{j}"))).collect();
        let t = lp.add_var("slackness");
        for h in &self.constraints {
            let mut e = LinExpr::new();
            for (j, &c) in h.coeffs.iter().enumerate() {
                e = e.term(vars[j], c);
            }
            e = e.term(t, 1.0);
            lp.constrain(e, Cmp::Le, h.rhs);
        }
        // Maximize the common slack, capped so the LP stays bounded.
        lp.constrain(LinExpr::var(t, 1.0), Cmp::Le, 1.0);
        lp.maximize(LinExpr::var(t, 1.0));
        let sol = solver.solve(&lp).ok()?;
        if sol.value(t) >= margin {
            Some(vars.iter().map(|&v| sol.value(v)).collect())
        } else {
            None
        }
    }

    /// Checks the implication `closure(self) ⊆ {x | h}` by maximizing the
    /// violated direction with an LP. Empty polyhedra imply everything.
    pub fn implies_in(&self, h: &Halfspace, solver: &mut LpSolver) -> bool {
        let mut lp = LpBuilder::new();
        let vars: Vec<_> = (0..self.dim).map(|j| lp.add_var(format!("x{j}"))).collect();
        for c in &self.constraints {
            let mut e = LinExpr::new();
            for (j, &v) in c.coeffs.iter().enumerate() {
                e = e.term(vars[j], v);
            }
            lp.constrain(e, Cmp::Le, c.rhs);
        }
        let mut obj = LinExpr::new();
        for (j, &v) in h.coeffs.iter().enumerate() {
            obj = obj.term(vars[j], v);
        }
        lp.maximize(obj);
        match solver.solve(&lp) {
            Ok(sol) => sol.objective <= h.rhs + 1e-7,
            Err(LpError::Infeasible) => true,
            Err(LpError::Unbounded) => false,
            // Cancelled racer: answer conservatively ("not implied") and
            // let the caller's next solve report the cancellation.
            Err(LpError::Cancelled) => false,
            Err(e) => panic!("implication probe failed unexpectedly: {e}"),
        }
    }

    /// Enumerates vertices, extreme rays, and lineality basis via the double
    /// description method on the homogenization
    /// `{(x, λ) | A·x − b·λ ≤ 0, −λ ≤ 0}`.
    pub fn generators(&self) -> Generators {
        let hom_dim = self.dim + 1;
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(self.constraints.len() + 1);
        for h in &self.constraints {
            let mut r = h.coeffs.clone();
            r.push(-h.rhs);
            rows.push(r);
        }
        let mut lam = vec![0.0; hom_dim];
        lam[self.dim] = -1.0;
        rows.push(lam);

        let cone = dd::cone_generators(&rows, hom_dim);

        let mut out = Generators::default();
        for line in cone.lines {
            debug_assert!(line[self.dim].abs() <= 1e-6, "line escaped λ ≥ 0");
            out.lines.push(line[..self.dim].to_vec());
        }
        for ray in cone.rays {
            let lambda = ray[self.dim];
            if lambda > 1e-7 {
                out.vertices.push(ray[..self.dim].iter().map(|v| v / lambda).collect());
            } else {
                let r = ray[..self.dim].to_vec();
                if !vecops::is_zero(&r, EPS) {
                    out.rays.push(r);
                }
            }
        }
        out
    }

    /// The Minkowski decomposition `P = Q + C` of Theorem 5.3: the vertex set
    /// generating the polytope `Q` and the generator description of the
    /// recession cone `C = {x | A·x ≤ 0}`.
    ///
    /// Returns `None` when the polyhedron is empty.
    pub fn minkowski_decompose(&self) -> Option<(Vec<Vec<f64>>, ConeGenerators)> {
        let g = self.generators();
        if g.vertices.is_empty() {
            // A nonempty closed polyhedron always has a λ>0 generator in its
            // homogenization, so no vertices means empty.
            return None;
        }
        Some((g.vertices, ConeGenerators { rays: g.rays, lines: g.lines }))
    }

    fn feasibility_lp(&self) -> LpBuilder {
        let mut lp = LpBuilder::new();
        let vars: Vec<_> = (0..self.dim).map(|j| lp.add_var(format!("x{j}"))).collect();
        for h in &self.constraints {
            let mut e = LinExpr::new();
            for (j, &c) in h.coeffs.iter().enumerate() {
                e = e.term(vars[j], c);
            }
            lp.constrain(e, Cmp::Le, h.rhs);
        }
        lp
    }
}

impl std::fmt::Display for Polyhedron {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.constraints.is_empty() {
            return write!(f, "true");
        }
        for (i, h) in self.constraints.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            let mut first = true;
            for (j, &c) in h.coeffs.iter().enumerate() {
                if c != 0.0 {
                    if first {
                        write!(f, "{c}·x{j}")?;
                        first = false;
                    } else if c < 0.0 {
                        write!(f, " - {}·x{j}", -c)?;
                    } else {
                        write!(f, " + {c}·x{j}")?;
                    }
                }
            }
            if first {
                write!(f, "0")?;
            }
            write!(f, " {} {}", if h.strict { "<" } else { "≤" }, h.rhs)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn box2d(lo: f64, hi: f64) -> Polyhedron {
        Polyhedron::from_constraints(
            2,
            vec![
                Halfspace::le(vec![1.0, 0.0], hi),
                Halfspace::le(vec![-1.0, 0.0], -lo),
                Halfspace::le(vec![0.0, 1.0], hi),
                Halfspace::le(vec![0.0, -1.0], -lo),
            ],
        )
    }

    #[test]
    fn box_has_four_vertices() {
        let g = box2d(0.0, 1.0).generators();
        assert_eq!(g.vertices.len(), 4);
        assert!(g.rays.is_empty());
        assert!(g.lines.is_empty());
        for v in &g.vertices {
            assert!(v.iter().all(|&c| (c - 0.0).abs() < 1e-9 || (c - 1.0).abs() < 1e-9));
        }
    }

    #[test]
    fn quadrant_is_cone_with_apex_vertex() {
        // x >= 1, y >= 2 is a translated quadrant.
        let p = Polyhedron::from_constraints(
            2,
            vec![Halfspace::ge(vec![1.0, 0.0], 1.0), Halfspace::ge(vec![0.0, 1.0], 2.0)],
        );
        let g = p.generators();
        assert_eq!(g.vertices.len(), 1);
        assert!((g.vertices[0][0] - 1.0).abs() < 1e-9);
        assert!((g.vertices[0][1] - 2.0).abs() < 1e-9);
        assert_eq!(g.rays.len(), 2);
        assert!(g.lines.is_empty());
    }

    #[test]
    fn halfplane_has_lineality() {
        // x <= 3 in 2D: one representative point, one ray (-x), one line (y).
        let p = Polyhedron::from_constraints(2, vec![Halfspace::le(vec![1.0, 0.0], 3.0)]);
        let g = p.generators();
        assert_eq!(g.lines.len(), 1);
        assert!(g.lines[0][0].abs() < 1e-9, "lineality is the y-axis");
        assert_eq!(g.rays.len(), 1);
        assert!(g.rays[0][0] < 0.0, "recession along -x");
        assert_eq!(g.vertices.len(), 1);
        assert!((g.vertices[0][0] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_polyhedron_detected() {
        let p = Polyhedron::from_constraints(
            1,
            vec![Halfspace::le(vec![1.0], 0.0), Halfspace::ge(vec![1.0], 1.0)],
        );
        assert!(p.is_empty_in(&mut LpSolver::new()));
        assert!(p.minkowski_decompose().is_none());
        assert!(p.generators().is_empty());
    }

    #[test]
    fn universe_is_all_lines() {
        let g = Polyhedron::universe(3).generators();
        assert_eq!(g.lines.len(), 3);
        assert_eq!(g.vertices.len(), 1, "a representative point");
        assert!(g.rays.is_empty());
    }

    #[test]
    fn implies_works() {
        let p = box2d(0.0, 1.0);
        let s = &mut LpSolver::new();
        assert!(p.implies_in(&Halfspace::le(vec![1.0, 1.0], 2.0), s));
        assert!(p.implies_in(&Halfspace::le(vec![1.0, 1.0], 2.5), s));
        assert!(!p.implies_in(&Halfspace::le(vec![1.0, 1.0], 1.5), s));
    }

    #[test]
    fn empty_implies_everything() {
        let p = Polyhedron::from_constraints(
            1,
            vec![Halfspace::le(vec![1.0], -1.0), Halfspace::ge(vec![1.0], 1.0)],
        );
        assert!(p.implies_in(&Halfspace::le(vec![1.0], -100.0), &mut LpSolver::new()));
    }

    #[test]
    fn interior_point_respects_margin() {
        let p = box2d(0.0, 1.0);
        let s = &mut LpSolver::new();
        let x = p.interior_point_in(0.1, s).expect("unit box has interior");
        assert!(p.contains(&x, 0.0));
        // Degenerate strip x = 0 has no interior.
        let strip = Polyhedron::from_constraints(
            2,
            vec![Halfspace::le(vec![1.0, 0.0], 0.0), Halfspace::ge(vec![1.0, 0.0], 0.0)],
        );
        assert!(strip.interior_point_in(0.01, s).is_none());
    }

    #[test]
    fn strict_membership() {
        let h = Halfspace::lt(vec![1.0], 1.0);
        assert!(h.satisfied_by(&[0.5], 1e-9));
        assert!(!h.satisfied_by(&[1.0], 1e-9));
        let closed = Halfspace::le(vec![1.0], 1.0);
        assert!(closed.satisfied_by(&[1.0], 1e-9));
    }

    #[test]
    fn embed_shifts_coordinates() {
        let p = Polyhedron::from_constraints(1, vec![Halfspace::le(vec![2.0], 4.0)]);
        let e = p.embed(3, 1);
        assert_eq!(e.dim(), 3);
        assert!(e.contains(&[100.0, 2.0, -50.0], 1e-9));
        assert!(!e.contains(&[0.0, 3.0, 0.0], 1e-9));
    }

    #[test]
    fn minkowski_decomposition_of_race_guard() {
        // The guard of the tortoise-hare loop: x <= 99 ∧ y <= 99.
        let p = Polyhedron::from_constraints(
            2,
            vec![Halfspace::le(vec![1.0, 0.0], 99.0), Halfspace::le(vec![0.0, 1.0], 99.0)],
        );
        let (vertices, cone) = p.minkowski_decompose().unwrap();
        assert_eq!(vertices.len(), 1);
        assert!((vertices[0][0] - 99.0).abs() < 1e-9);
        assert!((vertices[0][1] - 99.0).abs() < 1e-9);
        assert_eq!(cone.rays.len(), 2, "recession cone is the negative quadrant");
        for r in &cone.rays {
            assert!(r[0] <= 1e-9 && r[1] <= 1e-9);
        }
    }

    #[test]
    fn recession_cone_zeroes_rhs() {
        let p = box2d(0.0, 5.0);
        let c = p.recession_cone();
        assert!(c.contains(&[0.0, 0.0], 1e-9));
        assert!(!c.contains(&[1.0, 0.0], 1e-9), "box recession cone is {{0}}");
    }

    #[test]
    fn simplex_generators() {
        // 3-simplex x,y,z >= 0, x+y+z <= 1: 4 vertices.
        let p = Polyhedron::from_constraints(
            3,
            vec![
                Halfspace::ge(vec![1.0, 0.0, 0.0], 0.0),
                Halfspace::ge(vec![0.0, 1.0, 0.0], 0.0),
                Halfspace::ge(vec![0.0, 0.0, 1.0], 0.0),
                Halfspace::le(vec![1.0, 1.0, 1.0], 1.0),
            ],
        );
        let g = p.generators();
        assert_eq!(g.vertices.len(), 4);
        assert!(g.rays.is_empty());
        assert!(g.lines.is_empty());
    }
}
