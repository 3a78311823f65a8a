//! Pins the sweep's trajectory on the paper suite's families.
//!
//! `qava --sweep` runs every family chain in one reoptimizing LP
//! session and audits every point cold
//! (`suite::runner::sweep_families_with(Auto, true)`). This test runs
//! that same product path and, for every point, pins the bits of the
//! reported ln-bound and of the chain-vs-cold drift, whether the point
//! fell back cold, and the (solves, pivots, reopt attempts, reopt
//! successes) of its `lp`, `abandoned` and `audit` buckets. Each
//! chain's probes are dual reoptimizations of a prepared LP, so any
//! change to how a reoptimization starts, pivots or hands its engine
//! back (a changed factorization, a changed pivot sequence) moves a
//! drift's last digits or a pivot count here. `ser_trajectory.rs` pins
//! the cold searches the same way.

use qava_core::suite::runner::sweep_families_with;
use qava_lp::{BackendChoice, LpStats};

/// (solves, pivots, reopt attempts, reopt successes) of one bucket.
type Work = (usize, usize, usize, usize);

/// `(family, row label, ln-bound bits, drift bits, cold fallback,
/// lp, abandoned, audit)`.
#[allow(clippy::type_complexity)]
const PINS: &[(&str, &str, u64, Option<u64>, bool, Work, Work, Work)] = &[
    ("Coupon", "Pr[T > 100]", 0xc01495622efbc895, Some(0x0000000000000000), false, (116, 305, 106, 106), (0, 0, 0, 0), (116, 305, 0, 0)),
    ("Coupon", "Pr[T > 300]", 0xc034eab4cb2c25b5, Some(0x0000000000000000), false, (116, 55, 108, 108), (0, 0, 0, 0), (116, 303, 0, 0)),
    ("Coupon", "Pr[T > 500]", 0xc0426f654c699508, Some(0x3d00000000000000), false, (116, 55, 108, 108), (0, 0, 0, 0), (116, 292, 0, 0)),
    ("3DWalk", "(x, y, z) = (100, 100, 100)", 0xc09083cff1bf55dd, Some(0x0000000000000000), false, (119, 642, 110, 110), (0, 0, 0, 0), (119, 1494, 0, 0)),
    ("3DWalk", "(x, y, z) = (100, 150, 200)", 0xc0893bf1da3b5385, Some(0x3f6c432eece40000), true, (119, 6455, 0, 0), (119, 95, 112, 112), (0, 0, 0, 0)),
    ("3DWalk", "(x, y, z) = (300, 100, 150)", 0xc084a48e420af469, Some(0x3f8a68721c360000), true, (119, 4779, 0, 0), (119, 72, 112, 112), (0, 0, 0, 0)),
    ("Ref", "p = 1e-7", 0xbf5932d701d446f7, Some(0x0000000000000000), false, (6, 86, 0, 0), (0, 0, 0, 0), (6, 86, 0, 0)),
    ("Ref", "p = 1e-6", 0xbf8f7f8db05a6485, Some(0x3c9e000000000000), false, (6, 37, 1, 1), (0, 0, 0, 0), (6, 86, 0, 0)),
    ("Ref", "p = 1e-5", 0xbfc3afbe5c7c8e74, Some(0x3cc8000000000000), false, (6, 37, 1, 1), (0, 0, 0, 0), (6, 86, 0, 0)),
];

fn work(s: &LpStats) -> Work {
    (s.solves, s.pivots, s.reopt_attempts, s.reopt_successes)
}

/// One point as a line of [`PINS`].
#[allow(clippy::too_many_arguments)]
fn pin_line(
    family: &str,
    label: &str,
    ln: u64,
    drift: Option<u64>,
    fallback: bool,
    lp: Work,
    abandoned: Work,
    audit: Work,
) -> String {
    let drift = drift.map_or("None".to_string(), |d| format!("Some({d:#018x})"));
    format!("({family:?}, {label:?}, {ln:#018x}, {drift}, {fallback}, {lp:?}, {abandoned:?}, {audit:?}),")
}

#[test]
fn sweep_trajectory_is_pinned_on_every_family_point() {
    let mut got = Vec::new();
    for report in sweep_families_with(BackendChoice::Auto, true) {
        for p in &report.points {
            let bound = p.bound.as_ref().unwrap_or_else(|e| panic!("{} {}: {e}", p.name, p.label));
            got.push(pin_line(
                report.family,
                &p.label,
                bound.ln().to_bits(),
                p.drift.map(f64::to_bits),
                p.cold_fallback,
                work(&p.lp),
                work(&p.abandoned),
                work(&p.audit),
            ));
        }
    }
    let pinned: Vec<String> = PINS
        .iter()
        .map(|&(f, l, ln, d, fb, lp, ab, au)| pin_line(f, l, ln, d, fb, lp, ab, au))
        .collect();
    let moved: Vec<String> = got
        .iter()
        .zip(&pinned)
        .filter(|(g, p)| g != p)
        .map(|(g, p)| format!("got    {g}\npinned {p}"))
        .collect();
    assert!(
        moved.is_empty() && got.len() == pinned.len(),
        "sweep trajectory moved ({} points, {} pins):\n{}\nall points:\n{}",
        got.len(),
        pinned.len(),
        moved.join("\n"),
        got.join("\n")
    );
}
