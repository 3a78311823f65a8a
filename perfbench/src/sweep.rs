//! `sweep`: back-to-back passes of
//! `suite::runner::sweep_families_with(Auto, check_cold = true)`, exactly
//! what `qava --sweep` runs: three families × three points, each family
//! in one reoptimizing LP session, every point audited cold. The LP layer
//! works differently here — dual-simplex reoptimization from a cached
//! basis and ε seeding — while the convex layer does nothing, because
//! sweeps run `hoeffding-linear` and `explowsyn` only.
//!
//! The sweep's inputs are the suite's fixed families, so the seed does
//! not change them.

use crate::harness::{PassResult, Workload};
use crate::layers::layer_values;
use crate::reference::{lp_counts, Reference, ENGINES};
use crate::stats::Rng;
use crate::suite::{compile_traced, RunRecord};
use crate::trace;
use qava_core::engine::EngineRegistry;
use qava_core::suite::runner::sweep_families_with;
use qava_core::suite::{sweep_families, Benchmark};
use qava_core::sweep::{run_sweep_in, SweepReport, SweepRequest, DRIFT_TOL};
use qava_lp::{BackendChoice, LpStats};
use std::collections::BTreeMap;
use std::time::Instant;

pub struct Sweep;

pub struct Live {
    reference: Reference,
    families: Vec<Vec<Benchmark>>,
    registry: EngineRegistry,
    /// The latest untraced pass per point (family, point index).
    last: BTreeMap<(usize, usize), RunRecord>,
    pending: Vec<String>,
}

/// Everything a pass learns from its reports.
struct Tally {
    result: PassResult,
    lp_wall_ms: BTreeMap<&'static str, f64>,
    records: BTreeMap<(usize, usize), RunRecord>,
}

/// Checks every point and totals its LP work: the sweep session's share
/// (`lp`, or `abandoned` after a cold fallback) and the cold audit's.
fn tally(live: &Live, reports: &[SweepReport], wall_s: f64) -> Tally {
    let mut r = PassResult {
        wall_s,
        ..PassResult::default()
    };
    let mut total = LpStats::default();
    let mut lp_wall_ms: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut engine_solves: BTreeMap<&str, usize> = BTreeMap::new();
    let mut records = BTreeMap::new();
    let (mut fallbacks, mut seeded, mut audit_ms) = (0, 0, 0.0);
    for (f, report) in reports.iter().enumerate() {
        for (k, p) in report.points.iter().enumerate() {
            r.attempted += 1;
            r.request_ms.push(p.seconds * 1e3);
            let mut point = LpStats::default();
            for lp in [&p.lp, &p.abandoned, &p.audit] {
                point.merge(lp);
            }
            let ln = p.bound.as_ref().map(|b| b.ln()).map_err(Clone::clone);
            let record = RunRecord::new(ln, &point);
            match live
                .reference
                .check((p.name, &p.label), p.engine, record.bound(), DRIFT_TOL)
            {
                Ok(()) => r.certified += 1,
                Err(e) => r.failures.push(e),
            }
            records.insert((f, k), record);
            total.merge(&point);
            *engine_solves.entry(p.engine).or_default() += point.solves;
            *lp_wall_ms.entry(p.engine).or_default() += point.wall_seconds * 1e3;
            fallbacks += usize::from(p.cold_fallback);
            seeded += usize::from(p.seeded);
            // After a fallback the cold audit's session is the reported one.
            let audit = if p.cold_fallback { &p.lp } else { &p.audit };
            audit_ms += audit.wall_seconds * 1e3;
        }
    }
    lp_counts(&total, &mut r.counts);
    r.counts
        .insert("sweep.cold_fallbacks".into(), fallbacks as f64);
    r.counts.insert("sweep.seeded_points".into(), seeded as f64);
    for engine in ENGINES {
        let solves = engine_solves.get(engine).copied().unwrap_or(0);
        r.counts
            .insert(format!("synth.{engine}.lp_solves"), solves as f64);
    }
    r.values.insert("sweep.audit_lp_ms".into(), audit_ms);
    Tally {
        result: r,
        lp_wall_ms,
        records,
    }
}

impl Workload for Sweep {
    type Live = Live;
    const DETERMINISTIC: bool = true;
    const SINGLE_THREADED_TRACE: bool = true;

    fn setup(&self, rng: &mut Rng) -> Result<Live, String> {
        let mut live = Live {
            reference: Reference::load()?,
            families: sweep_families(),
            registry: trace::traced_registry(),
            last: BTreeMap::new(),
            pending: Vec::new(),
        };
        live.pending = self.pass(&mut live, rng)?.failures;
        Ok(live)
    }

    fn pass(&self, live: &mut Live, _rng: &mut Rng) -> Result<PassResult, String> {
        let t = Instant::now();
        let reports = sweep_families_with(BackendChoice::Auto, true);
        let mut tally = tally(live, &reports, t.elapsed().as_secs_f64());
        tally.result.problems.append(&mut live.pending);
        live.last = tally.records;
        Ok(tally.result)
    }

    fn traced_pass(&self, live: &mut Live, _rng: &mut Rng) -> Result<PassResult, String> {
        let mark = trace::mark();
        let t = Instant::now();
        let reports: Vec<SweepReport> = live
            .families
            .iter()
            .map(|rows| {
                let req = SweepRequest {
                    rows,
                    engine: None,
                    backend: BackendChoice::Auto,
                    check_cold: true,
                };
                run_sweep_in(&live.registry, &req)
            })
            .collect();
        let wall_s = t.elapsed().as_secs_f64();
        let spans = trace::since(mark);
        let Tally {
            result: mut r,
            lp_wall_ms,
            records,
        } = tally(live, &reports, wall_s);
        if records != live.last {
            r.problems.push(format!(
                "traced sweep gave {records:?}, untraced {:?}",
                live.last
            ));
        }
        layer_values(&spans, wall_s, &lp_wall_ms, &mut r.values);
        // Lowering and invariant propagation run inside `run_sweep`, out
        // of reach of the benchmark's spans; the same compiles are traced
        // beside the pass instead.
        r.counts.clear();
        let compiles = trace::mark();
        let mut counts = Vec::new();
        for b in live.families.iter().flatten() {
            if let Err(e) = compile_traced(b, &mut counts) {
                r.problems.push(format!("{} {}: {e}", b.name, b.label));
            }
        }
        for s in trace::since(compiles) {
            *r.values.entry(format!("{}_ms", s.layer)).or_default() += s.ms();
        }
        for (name, v) in counts {
            *r.counts.entry(name.to_string()).or_default() += v;
        }
        Ok(r)
    }
}
