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
    ("RdAdder", "Pr[X − E[X] ≥ 25]", 838, 0xc004089151770357),
    ("RdAdder", "Pr[X − E[X] ≥ 50]", 837, 0xc02422b10416a947),
    ("RdAdder", "Pr[X − E[X] ≥ 75]", 843, 0xc036d9ab583b8192),
    ("Robot", "Pr[X − E[X] ≥ 1.8]", 844, 0xc027def740aa6c50),
    ("Robot", "Pr[X − E[X] ≥ 2]", 1039, 0xc02d78e9da9163b6),
    ("Robot", "Pr[X − E[X] ≥ 2.2]", 866, 0xc031ce8280ce0e54),
    ("Coupon", "Pr[T > 100]", 447, 0xc0267ecb7e7191dd),
    ("Coupon", "Pr[T > 300]", 834, 0xc049ba378565e1ce),
    ("Coupon", "Pr[T > 500]", 641, 0xc057823b27365236),
    ("Prspeed", "Pr[T > 150]", 644, 0xbff6d8aa475d0574),
    ("Prspeed", "Pr[T > 200]", 644, 0xc02b1440652ef4e9),
    ("Prspeed", "Pr[T > 250]", 648, 0xc0402c482a982221),
    ("Rdwalk", "Pr[T > 400]", 644, 0xc02f4b38fb7eb8e1),
    ("Rdwalk", "Pr[T > 500]", 643, 0xc03b877711923a44),
    ("Rdwalk", "Pr[T > 600]", 651, 0xc04421117c727e07),
    ("1DWalk", "x = 10", 448, 0xc07dce183e224d2b),
    ("1DWalk", "x = 50", 639, 0xc07c9a1e7f4ea3f9),
    ("1DWalk", "x = 100", 640, 0xc07b192650c6107e),
    ("2DWalk", "(x, y) = (1000, 10)", 1074, 0xc09480318942af7c),
    ("2DWalk", "(x, y) = (500, 40)", 1045, 0xc083f2b5a8a6eb7f),
    ("2DWalk", "(x, y) = (400, 50)", 1227, 0xc07f663bc5af0f02),
    ("3DWalk", "(x, y, z) = (100, 100, 100)", 1800, 0xc0c2d023a353511a),
    ("3DWalk", "(x, y, z) = (100, 150, 200)", 1800, 0xc0bdcb610f9d8824),
    ("3DWalk", "(x, y, z) = (300, 100, 150)", 1800, 0xc0b8611638a8b621),
    ("Race", "(x, y) = (40, 0)", 840, 0xc02f64f04fb30db6),
    ("Race", "(x, y) = (35, 0)", 842, 0xc0257b515c4ce26a),
    ("Race", "(x, y) = (45, 0)", 1030, 0xc0372bcfa199fbda),
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
