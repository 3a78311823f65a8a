//! `qava --sweep` prints, bit for bit, the bounds `qava --suite` prints.
//!
//! A sweep is a batch of independent rows: every point of
//! `suite::runner::sweep_families_with(Auto, true)` (the `qava --sweep`
//! path) must carry the same ln-bound bits and the same (solves, pivots)
//! as the same row run through `run_rows_with` with its direction's
//! `primary_engine`. `ser_trajectory.rs` pins the hoeffding-linear
//! searches themselves.

use qava_core::suite::runner::{run_rows_with, sweep_families_with};
use qava_core::suite::sweep_families;
use qava_core::sweep::primary_engine;
use qava_lp::BackendChoice;

#[test]
fn every_sweep_point_matches_its_suite_row() {
    let families = sweep_families();
    let reports = sweep_families_with(BackendChoice::Auto, true);
    assert_eq!(reports.len(), families.len());
    for (report, rows) in reports.iter().zip(&families) {
        let suite =
            run_rows_with(rows, |b| vec![primary_engine(b.direction)], BackendChoice::Auto);
        assert_eq!(report.points.len(), suite.len(), "{}", report.family);
        for (p, row) in report.points.iter().zip(&suite) {
            let at = format!("{} {}", p.name, p.label);
            let run = &row.runs[0];
            assert_eq!((p.name, &p.label, p.engine), (row.name, &row.label, run.engine), "{at}");
            let bound = p.bound.as_ref().unwrap_or_else(|e| panic!("{at}: {e}"));
            let cold = run.bound.as_ref().unwrap_or_else(|e| panic!("{at} (suite): {e}"));
            assert_eq!(bound.ln().to_bits(), cold.ln().to_bits(), "{at}: ln-bound bits");
            assert_eq!(
                (p.lp.solves, p.lp.pivots),
                (run.lp.solves, run.lp.pivots),
                "{at}: (solves, pivots)"
            );
        }
    }
}
