//! The workload-independent part of a run: repeated set-up, the closed
//! timed loop, the traced loop, and turning passes into metrics.

use crate::stats::{self, Rng};
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Passes every loop makes even when `--seconds` is shorter.
const MIN_PASSES: usize = 3;
/// Largest share of a single-threaded traced pass that may fall outside
/// the named layers.
const MAX_UNATTRIBUTED_PCT: f64 = 5.0;

/// What one closed-loop pass over a workload's inputs did.
#[derive(Debug, Default)]
pub struct PassResult {
    pub wall_s: f64,
    /// Latency of every request (analysis, sweep point or daemon call).
    pub request_ms: Vec<f64>,
    pub attempted: usize,
    pub certified: usize,
    /// One line per failed analysis: uncertified, off the reference, or
    /// lost to a transport error.
    pub failures: Vec<String>,
    /// Failed checks that are not analyses (self-check, attribution).
    pub problems: Vec<String>,
    /// Work counters, named as the per-layer metrics they feed.
    pub counts: BTreeMap<String, f64>,
    /// Layer times and ratios, named as the per-layer metrics they feed.
    pub values: BTreeMap<String, f64>,
}

/// A workload: how to set it up and how to run one pass, plain or traced.
pub trait Workload {
    /// State that lives from set-up to the end of the run.
    type Live;

    /// Whether work counters must repeat exactly from pass to pass.
    const DETERMINISTIC: bool;
    /// Whether the traced run drops to one thread so spans sum to wall.
    const SINGLE_THREADED_TRACE: bool;

    /// Everything before the first timed operation, warm-up included.
    fn setup(&self, rng: &mut Rng) -> Result<Self::Live, String>;
    /// One untraced pass.
    fn pass(&self, live: &mut Self::Live, rng: &mut Rng) -> Result<PassResult, String>;
    /// One traced pass, checked against the latest untraced one.
    fn traced_pass(&self, live: &mut Self::Live, rng: &mut Rng) -> Result<PassResult, String>;
}

/// The result line's content, plus human-readable notes.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub problems: Vec<String>,
    pub failures: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
    pub notes: Vec<String>,
}

impl Outcome {
    fn absorb(&mut self, pass: &PassResult) {
        self.attempted += pass.attempted;
        self.failed += pass.failures.len();
        self.failures.extend(pass.failures.iter().cloned());
        self.problems.extend(pass.problems.iter().cloned());
    }
}

/// Configures the thread pool every parallel runner in the program uses.
pub fn set_threads(n: usize) {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build_global()
        .expect("infallible");
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// End-to-end run: `SETUPS` set-ups (all but the last torn down), then
/// back-to-back passes for `seconds`.
pub fn end_to_end<W: Workload>(w: &W, seconds: f64, rng: &mut Rng) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut live = None;
    for _ in 0..SETUPS {
        drop(live.take());
        let t = Instant::now();
        live = Some(w.setup(rng)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut live = live.expect("at least one set-up");

    let mut passes = Vec::new();
    let start = Instant::now();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        passes.push(w.pass(&mut live, rng)?);
    }
    let timed_wall = start.elapsed().as_secs_f64();
    drop(live);

    for p in &passes {
        out.absorb(p);
    }
    if W::DETERMINISTIC {
        check_repeats(&passes, &mut out.problems);
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let requests: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.request_ms.iter().copied())
        .collect();
    let certified: usize = passes.iter().map(|p| p.certified).sum();
    let (tail, tail_p) = stats::tail(&walls);
    let m = &mut out.metrics;
    m.insert("setup_s".into(), stats::median(&setup_s));
    m.insert("peak_rss_mb".into(), peak_rss_mb());
    m.insert("pass_s.p50".into(), stats::median(&walls));
    m.insert("pass_s.tail".into(), tail);
    m.insert("analyses_per_s".into(), certified as f64 / timed_wall);
    m.insert("request_ms.p50".into(), stats::percentile(&requests, 50.0));
    m.insert("request_ms.p99".into(), stats::percentile(&requests, 99.0));
    out.notes.push(format!(
        "{} timed passes in {timed_wall:.2} s; pass_s.tail is p{tail_p} of {} passes; \
         {} requests; set-ups {setup_s:.3?} s",
        passes.len(),
        passes.len(),
        requests.len(),
    ));
    Ok(out)
}

/// Traced run: untraced and traced passes alternate for `seconds`; layer
/// metrics are medians over the traced passes, work counters come from
/// the untraced ones.
pub fn traced<W: Workload>(w: &W, seconds: f64, rng: &mut Rng) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    if W::SINGLE_THREADED_TRACE {
        set_threads(1);
    }
    let mut live = w.setup(rng)?;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while traced.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        plain.push(w.pass(&mut live, rng)?);
        traced.push(w.traced_pass(&mut live, rng)?);
    }
    drop(live);

    for p in plain.iter().chain(&traced) {
        out.absorb(p);
    }
    if W::DETERMINISTIC {
        check_repeats(&plain, &mut out.problems);
        check_repeats(&traced, &mut out.problems);
    }
    let m = &mut out.metrics;
    medians(&traced, |p| &p.values, m);
    medians(&traced, |p| &p.counts, m);
    medians(&plain, |p| &p.counts, m);
    for counter in ["lp.solves", "lp.pivots"] {
        let v: Vec<f64> = plain
            .iter()
            .filter_map(|p| p.counts.get(counter).copied())
            .collect();
        m.insert(format!("{counter}.spread"), stats::range(&v));
    }
    let plain_wall = stats::median(&plain.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let traced_wall = stats::median(&traced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    m.insert(
        "trace.overhead_pct".into(),
        100.0 * (traced_wall / plain_wall - 1.0),
    );
    if W::SINGLE_THREADED_TRACE {
        let unattributed = m.get("trace.unattributed_pct").copied().unwrap_or(100.0);
        if unattributed > MAX_UNATTRIBUTED_PCT {
            out.problems.push(format!(
                "{unattributed:.2}% of a traced pass is unattributed (limit {MAX_UNATTRIBUTED_PCT}%)"
            ));
        }
    }
    out.notes.push(format!(
        "{} untraced + {} traced passes, median {plain_wall:.4} s vs {traced_wall:.4} s",
        plain.len(),
        traced.len()
    ));
    Ok(out)
}

/// Per-name medians over the passes of the map `pick` selects.
fn medians(
    passes: &[PassResult],
    pick: impl Fn(&PassResult) -> &BTreeMap<String, f64>,
    out: &mut BTreeMap<String, f64>,
) {
    for name in pick(&passes[0]).keys() {
        let v: Vec<f64> = passes
            .iter()
            .filter_map(|p| pick(p).get(name).copied())
            .collect();
        out.insert(name.clone(), stats::median(&v));
    }
}

/// Work counters must read the same in every pass.
fn check_repeats(passes: &[PassResult], problems: &mut Vec<String>) {
    let Some(first) = passes.first() else { return };
    for (k, p) in passes.iter().enumerate().skip(1) {
        for (name, &v) in &first.counts {
            let w = p.counts.get(name).copied();
            if w != Some(v) {
                problems.push(format!(
                    "counter {name} moved between passes: {v} in pass 0, {w:?} in pass {k}"
                ));
            }
        }
    }
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
