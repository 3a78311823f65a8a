//! Pins the Ser search's trajectory on the paper suite.
//!
//! For every Table 1 row's `hoeffding-linear` run (a fresh LP session,
//! the default Ser budget), ε\*, ω and the ln-bound must match the bits
//! recorded here, and the LP solve and pivot counts must match too. The
//! ternary search cannot absorb even a last-digit change of one probe's
//! ω(ε): such a change moves ε\* and the bound. So any change to how a
//! probe is solved (how its LP is built, presolved, factorized or
//! warm-started) shows up here, even when the bound still agrees with the
//! paper to the tolerance `tests/paper_rows.rs` allows.
//!
//! Every fixed-ε solve goes through one prepared LP per run
//! (`LpSolver::solve_prepared`); on these rows every probe must replay
//! the prepared presolve, with no fallback to the full pipeline.

use qava_core::hoeffding::{synthesize_reprsm_bound_in, BoundKind, DEFAULT_SER_ITERATIONS};
use qava_core::suite::table1;
use qava_lp::LpSolver;

/// `(benchmark, row label, ε* bits, ω bits, ln-bound bits, LP solves,
/// session pivots)`.
#[allow(clippy::type_complexity)]
const PINS: &[(&str, &str, u64, u64, u64, usize, usize)] = &[
    ("RdAdder", "Pr[X − E[X] ≥ 25]", 0x3f998c84de830ebe, 0xc028fffffc44c215, 0xc003f5c7cadbb878, 102, 130),
    ("RdAdder", "Pr[X − E[X] ≥ 50]", 0x3fa98c84dee2aa92, 0xc038fffffbe73428, 0xc023f5c7cadbb883, 106, 130),
    ("RdAdder", "Pr[X − E[X] ≥ 75]", 0x3fb32963a65c7100, 0xc042bffffdb68b76, 0xc0367480c4372f8f, 108, 130),
    ("Robot", "Pr[X − E[X] ≥ 1.8]", 0x3f91e25d0055bbe2, 0xc0217fffff2c1cb6, 0xbff38f95b770ee46, 100, 127),
    ("Robot", "Pr[X − E[X] ≥ 2]", 0x3f93ed9ad3290228, 0xc0238000006061b1, 0xbff84994b1d205ef, 100, 127),
    ("Robot", "Pr[X − E[X] ≥ 2.2]", 0x3f95f8d8a96ab8e6, 0xc0257ffffe391364, 0xbffd86632136ae85, 102, 128),
    ("Coupon", "Pr[T > 100]", 0x3fb4545457dfc960, 0xc0203333306011ee, 0xc01495622efbc895, 108, 305),
    ("Coupon", "Pr[T > 300]", 0x3fb7d1e2d868252f, 0xc03c199997e85756, 0xc034eab4cb2c25b5, 108, 303),
    ("Coupon", "Pr[T > 500]", 0x3fb8877209ecdab6, 0xc0480cccc9de5f28, 0xc0426f654c699507, 108, 292),
    ("Prspeed", "Pr[T > 150]", 0x3fa08fb81c07a19e, 0xc013aaaab40c4566, 0xbff45b5256d495ad, 104, 300),
    ("Prspeed", "Pr[T > 200]", 0x3fb6129663e2d806, 0xc0316aaaaa8456e3, 0xc02806e65f30b8c3, 108, 297),
    ("Prspeed", "Pr[T > 250]", 0x3fbe643b92570d88, 0xc03deaaab147a405, 0xc03c69b50d17edf1, 110, 297),
    ("Rdwalk", "Pr[T > 400]", 0x3fb028c1981230ae, 0xc0395fffff336f90, 0xc029a0a3065e3fb0, 106, 126),
    ("Rdwalk", "Pr[T > 500]", 0x3fb35092dfdd1bbb, 0xc042effffe8235ce, 0xc036dc5dd529d113, 108, 128),
    ("Rdwalk", "Pr[T > 600]", 0x3fb56c0369f2f512, 0xc0492ffffc6d55d7, 0xc040dc84ad806cdb, 108, 129),
    ("1DWalk", "x = 10", 0x3fc5555555401121, 0xc074a2aaaaaaacb2, 0xc07b838e38c82377, 108, 90),
    ("1DWalk", "x = 50", 0x3fc5555555400f53, 0xc073cd555555590e, 0xc07a671c71accd43, 108, 147),
    ("1DWalk", "x = 100", 0x3fc555555540116a, 0xc072c2aaaaaaad83, 0xc079038e38caa2e1, 108, 89),
    ("2DWalk", "(x, y) = (1000, 10)", 0x3fbfffffffd019a2, 0xc07ef6000000da8b, 0xc07ef5ffffd28258, 106, 541),
    ("2DWalk", "(x, y) = (500, 40)", 0x3fbfffffffd019a2, 0xc06ccc0000075215, 0xc06ccbffffdc3726, 106, 535),
    ("2DWalk", "(x, y) = (400, 50)", 0x3fbfffffffd019a2, 0xc065ec0000093114, 0xc065ebffffe860a3, 106, 531),
    ("3DWalk", "(x, y, z) = (100, 100, 100)", 0x3fd7400402c75280, 0xc076bae8bbbf48d1, 0xc09083cff1bf55dd, 112, 1494),
    ("3DWalk", "(x, y, z) = (100, 150, 200)", 0x3fd364d9e8daba2c, 0xc074d1739460a7b2, 0xc0893bf1da3b5385, 112, 6455),
    ("3DWalk", "(x, y, z) = (300, 100, 150)", 0x3fd364d9a9e031dc, 0xc07107c1c432b11e, 0xc084a48e420af469, 112, 4779),
    ("Race", "(x, y) = (40, 0)", 0x3fc5dddde1c7816a, 0xc0247ffffc54f6aa, 0xc02c044444444440, 112, 119),
    ("Race", "(x, y) = (35, 0)", 0x3fc1b91b930fad0a, 0xc021fffffea4143a, 0xc023f03f03f03efb, 110, 120),
    ("Race", "(x, y) = (45, 0)", 0x3fcac37db136f0f0, 0xc026fffffbb4c8ec, 0xc0333c8253c82537, 112, 120),
];

#[test]
fn ser_trajectory_is_pinned_on_every_suite_program() {
    let mut checked = 0;
    let mut mismatches = Vec::new();
    for row in table1() {
        let pts = row.compile();
        let mut solver = LpSolver::new();
        let r = synthesize_reprsm_bound_in(
            &pts,
            BoundKind::Hoeffding,
            DEFAULT_SER_ITERATIONS,
            &mut solver,
        )
        .unwrap_or_else(|e| panic!("{} {}: no RepRSM: {e}", row.name, row.label));
        let Some(&(_, _, eps, omega, ln_bound, solves, pivots)) =
            PINS.iter().find(|p| p.0 == row.name && p.1 == row.label)
        else {
            panic!("{} {} has no pin", row.name, row.label);
        };
        let got = (
            r.epsilon.to_bits(),
            r.omega.to_bits(),
            r.bound.ln().to_bits(),
            r.lp_solves,
            solver.stats().pivots,
        );
        if got != (eps, omega, ln_bound, solves, pivots) {
            mismatches.push(format!(
                "{} {}: ε* {:#018x} ({}), ω {:#018x} ({}), ln {:#018x} ({}), {} solves, \
                 {} pivots; pinned {eps:#018x}, {omega:#018x}, {ln_bound:#018x}, {solves}, {pivots}",
                row.name,
                row.label,
                got.0,
                r.epsilon,
                got.1,
                r.omega,
                got.2,
                r.bound.ln(),
                got.3,
                got.4,
            ));
        }
        if r.probe_fallbacks != 0 {
            mismatches.push(format!(
                "{} {}: {} fixed-ε solves fell back to the full pipeline",
                row.name, row.label, r.probe_fallbacks
            ));
        }
        checked += 1;
    }
    assert!(mismatches.is_empty(), "Ser trajectory moved:\n{}", mismatches.join("\n"));
    assert_eq!(checked, PINS.len(), "every pinned row must be a Table 1 row");
}
