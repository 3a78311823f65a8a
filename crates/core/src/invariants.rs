//! Invariant propagation (re-exported from [`qava_pts::propagate`]).
//!
//! The pass historically lived here; it moved into `qava-pts` so the
//! language frontend can run it as part of [`qava_pts::simplify()`] without a
//! dependency on this crate. The re-export keeps the original public path
//! working for downstream users of `qava-core`.
//!
//! See the module documentation of [`qava_pts::propagate`] for what the
//! pass does and why `I(ℓ_f)` matters for condition (C2) of §5.1.

pub use qava_pts::propagate::propagate_invariants;

#[cfg(test)]
mod tests {
    use super::*;
    use qava_lp::LpSolver;
    use qava_polyhedra::Halfspace;
    use std::collections::BTreeMap;

    #[test]
    fn compiled_programs_arrive_with_propagated_failure_invariant() {
        // The frontend pipeline (lower → simplify → propagate) must already
        // deliver a non-trivial I(ℓ_f) for Fig.-1-style programs.
        let src = r"
            x := 40; y := 0;
            while x <= 99 and y <= 99 invariant x <= 100 and y <= 101 {
                if prob(0.5) { x, y := x + 1, y + 2; } else { x := x + 1; }
            }
            assert x >= 100;
        ";
        let pts = qava_lang::compile(src, &BTreeMap::new()).unwrap();
        let inv = pts.invariant(pts.failure_location());
        assert!(
            inv.implies_in(&Halfspace::le(vec![1.0, 0.0], 99.0), &mut LpSolver::new()),
            "ℓ_f must know x ≤ 99: {inv:?}"
        );
        assert!(
            inv.implies_in(&Halfspace::ge(vec![0.0, 1.0], 100.0), &mut LpSolver::new()),
            "ℓ_f must know y ≥ 100: {inv:?}"
        );
    }

    #[test]
    fn propagation_is_idempotent_after_pipeline() {
        let src = r"
            x := 0;
            while x <= 9 invariant x >= 0 and x <= 10 { x := x + 1; }
            assert x <= 20;
        ";
        let mut pts = qava_lang::compile(src, &BTreeMap::new()).unwrap();
        assert_eq!(propagate_invariants(&mut pts, 4), 0, "pipeline already ran it");
    }
}
