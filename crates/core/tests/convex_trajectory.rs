//! Pins the log-barrier solver's trajectory on the paper suite.
//!
//! For every Table 1 row's ExpLinSyn program, the phase-II Newton count and
//! the exact bits of the optimal objective must match the values recorded
//! here. The `vecops` kernels compute the same bits on every CPU, so the
//! pins hold on every machine. Any change that moves an iterate of the
//! barrier (its tolerances, its line search, the order of a dot product)
//! shows up here as a changed count or a changed last bit, even when the
//! bound still agrees to 1e-9.

use qava_convex::SolverOptions;
use qava_core::explinsyn::build_convex_program_in;
use qava_core::suite::table1;
use qava_core::template::TemplateSpace;
use qava_lp::LpSolver;

/// `(benchmark, row label, newton_iterations, objective bits)`.
const PINS: &[(&str, &str, usize, u64)] = &[
    ("RdAdder", "Pr[X − E[X] ≥ 25]", 59, 0xc00408915176fc7b),
    ("RdAdder", "Pr[X − E[X] ≥ 50]", 57, 0xc02422b10416a570),
    ("RdAdder", "Pr[X − E[X] ≥ 75]", 62, 0xc036d9ab583b7dbb),
    ("Robot", "Pr[X − E[X] ≥ 1.8]", 61, 0xc027def740aa6bec),
    ("Robot", "Pr[X − E[X] ≥ 2]", 65, 0xc02d78e9da916344),
    ("Robot", "Pr[X − E[X] ≥ 2.2]", 62, 0xc031ce8280ce0e22),
    ("Coupon", "Pr[T > 100]", 58, 0xc0267ecb7e719154),
    ("Coupon", "Pr[T > 300]", 53, 0xc049ba378565e12c),
    ("Coupon", "Pr[T > 500]", 54, 0xc057823b27365235),
    ("Prspeed", "Pr[T > 150]", 58, 0xbff6d8aa475d0678),
    ("Prspeed", "Pr[T > 200]", 57, 0xc02b1440652ef4f0),
    ("Prspeed", "Pr[T > 250]", 61, 0xc0402c482a98222a),
    ("Rdwalk", "Pr[T > 400]", 60, 0xc02f4b38fb7eb6f5),
    ("Rdwalk", "Pr[T > 500]", 58, 0xc03b8777119239d9),
    ("Rdwalk", "Pr[T > 600]", 63, 0xc04421117c727d43),
    ("1DWalk", "x = 10", 51, 0xc07dce183e224cd1),
    ("1DWalk", "x = 50", 48, 0xc07c9a1e7f4ea3dc),
    ("1DWalk", "x = 100", 51, 0xc07b192650c61073),
    ("2DWalk", "(x, y) = (1000, 10)", 219, 0xc0948031894292d6),
    ("2DWalk", "(x, y) = (500, 40)", 139, 0xc083f2b5a8a6d8fb),
    ("2DWalk", "(x, y) = (400, 50)", 117, 0xc07f663bc5aef759),
    ("3DWalk", "(x, y, z) = (100, 100, 100)", 1407, 0xc0c2d023a3534e84),
    ("3DWalk", "(x, y, z) = (100, 150, 200)", 1097, 0xc0bdcb610f9d41af),
    ("3DWalk", "(x, y, z) = (300, 100, 150)", 1068, 0xc0b8611638a84e1a),
    ("Race", "(x, y) = (40, 0)", 59, 0xc02f64f04fb30d48),
    ("Race", "(x, y) = (35, 0)", 61, 0xc0257b515c4ce266),
    ("Race", "(x, y) = (45, 0)", 53, 0xc0372bcfa199fbaa),
];

#[test]
fn barrier_trajectory_is_pinned_on_every_suite_program() {
    let mut checked = Vec::new();
    let mut mismatches = Vec::new();
    for row in table1() {
        let pts = row.compile();
        let space = TemplateSpace::new(&pts, false);
        let problem = build_convex_program_in(&pts, &space, &mut LpSolver::new())
            .unwrap_or_else(|e| panic!("{} {}: no convex program: {e}", row.name, row.label));
        let sol = problem
            .solve(&SolverOptions::default())
            .unwrap_or_else(|e| panic!("{} {}: solve failed: {e}", row.name, row.label));
        let Some(&(_, _, newton, bits)) = PINS
            .iter()
            .find(|(name, label, _, _)| *name == row.name && *label == row.label)
        else {
            panic!("{} {} has no pin", row.name, row.label);
        };
        if sol.newton_iterations != newton || sol.objective.to_bits() != bits {
            mismatches.push(format!(
                "{} {}: {} Newton steps, objective {:#018x} ({}); pinned {newton}, {bits:#018x} ({})",
                row.name,
                row.label,
                sol.newton_iterations,
                sol.objective.to_bits(),
                sol.objective,
                f64::from_bits(bits),
            ));
        }
        checked.push((row.name, row.label));
    }
    assert!(
        mismatches.is_empty(),
        "barrier trajectory moved:\n{}",
        mismatches.join("\n")
    );
    assert_eq!(
        checked.len(),
        PINS.len(),
        "every pin must match a suite row"
    );
}
