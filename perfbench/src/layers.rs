//! Per-layer times of one traced pass, derived from its spans.

use crate::reference::{ENGINES, ROUTED_BACKENDS};
use crate::stats;
use crate::trace::Span;
use std::collections::BTreeMap;

/// Layer times of a single-threaded traced pass.
///
/// `lp_wall_ms` is each engine's LP pipeline time (`LpStats.wall_seconds`
/// of its runs); the pipeline runs inside the engine span, around the
/// backend spans. Self time of an engine is its span minus that pipeline
/// time minus its convex solve; LP session time is pipeline time minus
/// backend time. Everything outside the pass's top-level spans is
/// reported as unattributed.
pub fn layer_values(
    spans: &[Span],
    wall_s: f64,
    lp_wall_ms: &BTreeMap<&'static str, f64>,
    out: &mut BTreeMap<String, f64>,
) {
    let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    let mut synth: BTreeMap<&str, f64> = BTreeMap::new();
    let mut backend: BTreeMap<&str, f64> = BTreeMap::new();
    let mut solve_us = Vec::new();
    let mut top_level = 0.0;
    for s in spans {
        let ms = s.ms();
        if s.parent.is_none() {
            top_level += ms;
        }
        *by_layer.entry(s.layer).or_default() += ms;
        match s.layer {
            "synth" => *synth.entry(s.tag).or_default() += ms,
            "lp.backend" => {
                *backend.entry(s.tag).or_default() += ms;
                solve_us.push(ms * 1e3);
            }
            _ => {}
        }
    }
    let layer = |name: &str| by_layer.get(name).copied().unwrap_or(0.0);
    let mut put = |name: String, v: f64| {
        out.insert(name, v);
    };
    put("lang.parse_ms".into(), layer("lang.parse"));
    put("lang.lower_ms".into(), layer("lang.lower"));
    put(
        "invariants.propagate_ms".into(),
        layer("invariants.propagate"),
    );
    let convex = layer("convex.solve");
    put("convex.solve_ms".into(), convex);
    put(
        "synth.explinsyn.build_ms".into(),
        layer("synth.explinsyn.build"),
    );
    for engine in ENGINES {
        let span = synth.get(engine).copied().unwrap_or(0.0);
        let lp = lp_wall_ms.get(engine).copied().unwrap_or(0.0);
        let convex = if engine == "explinsyn" { convex } else { 0.0 };
        put(format!("synth.{engine}.self_ms"), span - lp - convex);
    }
    let backend_ms = layer("lp.backend");
    put("lp.backend_ms".into(), backend_ms);
    put(
        "lp.session_ms".into(),
        lp_wall_ms.values().sum::<f64>() - backend_ms,
    );
    for name in ROUTED_BACKENDS {
        put(
            format!("lp.{name}.ms"),
            backend.get(name).copied().unwrap_or(0.0),
        );
    }
    put("lp.solve_us.p50".into(), stats::percentile(&solve_us, 50.0));
    put("lp.solve_us.p99".into(), stats::percentile(&solve_us, 99.0));
    let wall_ms = wall_s * 1e3;
    put(
        "trace.unattributed_pct".into(),
        100.0 * (wall_ms - top_level) / wall_ms,
    );
}
