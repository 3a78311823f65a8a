//! Cross-algorithm shape properties that the paper proves and that must
//! hold on **every** benchmark row, independent of absolute values:
//!
//! * Theorem 5.5 (completeness): ExpLinSyn dominates every other
//!   exponential-template bound, in particular the Hoeffding one.
//! * Remark 2: the Hoeffding bound dominates the Azuma baseline.
//! * Lower bounds never exceed upper bounds.
//! * Bounds degrade monotonically with the benchmark parameter in the
//!   direction the paper's tables show.

mod common;

use common::certify;
use qava::analysis::suite::{table1, table2};

/// Theorem 5.5 on all of Table 1: the complete algorithm is at least as
/// tight as the RepRSM one wherever both succeed.
#[test]
fn explinsyn_dominates_hoeffding_on_table1() {
    for b in table1() {
        let pts = b.compile();
        let (Ok(h), Ok(e)) = (
            certify("hoeffding-linear", &pts),
            certify("explinsyn", &pts),
        ) else {
            continue;
        };
        assert!(
            e.bound.ln() <= h.bound.ln() + 1e-6,
            "{} ({}): complete {} vs hoeffding {}",
            b.name,
            b.label,
            e.bound,
            h.bound
        );
    }
}

/// Remark 2 on all of Table 1: Azuma never beats Hoeffding.
#[test]
fn hoeffding_dominates_azuma_on_table1() {
    for b in table1() {
        let pts = b.compile();
        let (Ok(h), Ok(a)) = (
            certify("hoeffding-linear", &pts),
            certify("azuma", &pts),
        ) else {
            continue;
        };
        assert!(
            h.bound.ln() <= a.bound.ln() + 1e-6,
            "{} ({}): hoeffding {} vs azuma {}",
            b.name,
            b.label,
            h.bound,
            a.bound
        );
    }
}

/// Lower bounds stay below upper bounds on the Table 2 programs where both
/// syntheses apply.
#[test]
fn lower_below_upper_on_table2() {
    for b in table2() {
        let pts = b.compile();
        let (Ok(lo), Ok(hi)) = (certify("explowsyn", &pts), certify("explinsyn", &pts))
        else {
            continue;
        };
        assert!(
            lo.bound.ln() <= hi.bound.ln() + 1e-6,
            "{} ({}): lower {} above upper {}",
            b.name,
            b.label,
            lo.bound,
            hi.bound
        );
    }
}

/// Within each Table 1 benchmark, tightening the parameter (larger
/// deviation / longer deadline / bigger head start) makes the bound
/// smaller — the monotonicity every column of Table 1 exhibits.
#[test]
fn bounds_monotone_within_benchmark_families() {
    let mut rows = table1();
    rows.sort_by(|a, b| a.name.cmp(b.name));
    for family in rows.chunk_by(|a, b| a.name == b.name) {
        // Rows are generated in paper order within a family, which is the
        // direction of decreasing probability except for the StoInv walks,
        // whose parameters move the start *towards* the boundary.
        if !matches!(family[0].name, "Coupon" | "Prspeed" | "Rdwalk" | "RdAdder" | "Robot") {
            continue;
        }
        let mut prev: Option<f64> = None;
        for b in family {
            let r = certify("explinsyn", &b.compile()).unwrap();
            if let Some(p) = prev {
                assert!(
                    r.bound.ln() <= p + 1e-6,
                    "{} ({}): bound increased along the sweep",
                    b.name,
                    b.label
                );
            }
            prev = Some(r.bound.ln());
        }
    }
}

/// Lower bounds shrink as the per-step fault probability grows (Table 2's
/// parameter direction).
#[test]
fn lower_bounds_decrease_with_fault_rate() {
    let mut rows = table2();
    rows.sort_by(|a, b| a.name.cmp(b.name));
    for family in rows.chunk_by(|a, b| a.name == b.name) {
        let mut prev: Option<f64> = None;
        for b in family {
            let r = certify("explowsyn", &b.compile()).unwrap();
            if let Some(p) = prev {
                assert!(
                    r.bound.to_f64() <= p + 1e-9,
                    "{} ({}): lower bound increased with fault rate",
                    b.name,
                    b.label
                );
            }
            prev = Some(r.bound.to_f64());
        }
    }
}

/// Every Table 1 ratio against the recorded "previous result" points the
/// right way on the StoInv family — the paper's headline (up to thousands
/// of orders of magnitude).
#[test]
fn stoinv_beats_previous_results_by_orders_of_magnitude() {
    for b in table1() {
        if !matches!(b.name, "1DWalk" | "2DWalk" | "3DWalk") {
            continue;
        }
        let prev = b.paper.previous.expect("StoInv rows have previous results");
        let r = certify("explinsyn", &b.compile()).unwrap();
        let orders = prev.log10() - r.bound.log10();
        assert!(
            orders > 100.0,
            "{} ({}): only {orders:.0} orders of magnitude better",
            b.name,
            b.label
        );
    }
}
