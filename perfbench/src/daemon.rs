//! `daemon`: an in-process `qavad::Daemon` on a fresh socket and cache
//! file, driven by nproc `Client` connections that each send `analyze`
//! requests — one per suite row, the default lineup, sequential mode —
//! claiming rows from a seeded per-pass shuffle (closed loop). One
//! untimed warm-up pass fills the compile-once PTS store and the shared
//! basis cache. This is the only workload where JSON framing, admission,
//! the disconnect monitor, the compile-once store and the persistent
//! warm cache do any work; a third of its requests (Table 2 and 1DWalk)
//! carry under 15 ms of engine work, so fixed per-request cost shows.

use crate::harness::{nproc, PassResult, Workload};
use crate::reference::{
    engines_for, lp_counts, ratio, suite_rows, Reference, ENGINES, ROUTED_BACKENDS, SUITE_TOL,
};
use crate::stats::{self, Rng};
use crate::trace::{self, span};
use qava_core::suite::runner::EngineRun;
use qava_core::suite::Benchmark;
use qava_lp::LpStats;
use qavad::client::{AnalyzeSpec, SUITE_INVARIANT_ITERS};
use qavad::json::{obj, Json};
use qavad::protocol::{engine_run_from_json, lp_stats_from_json};
use qavad::{Client, Daemon, DaemonConfig};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::Instant;

/// Where sockets and cache files live, relative to the checkout root (a
/// short relative path keeps socket names inside `sun_path`'s limit).
const RUN_DIR: &str = ".bench_tmp";

pub struct DaemonWorkload;

pub struct Live {
    reference: Reference,
    rows: Vec<Benchmark>,
    socket: PathBuf,
    cache: PathBuf,
    server: Option<JoinHandle<std::io::Result<()>>>,
    clients: Vec<Client>,
    pending: Vec<String>,
}

impl Drop for Live {
    /// Closes the connections, shuts the daemon down over the protocol,
    /// waits for it, and removes its files. Errors are ignored: there is
    /// nobody left to report them to.
    fn drop(&mut self) {
        self.clients.clear();
        if let Ok(mut client) = Client::connect(&self.socket) {
            let _ = client.shutdown();
        }
        if let Some(server) = self.server.take() {
            let _ = server.join();
        }
        let _ = std::fs::remove_file(&self.cache);
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// One answered (or failed) request.
struct Call {
    row: usize,
    latency_ms: f64,
    runs: Result<Vec<EngineRun>, String>,
    request_bytes: usize,
    response_bytes: usize,
}

impl Live {
    /// One pass: nproc connections claim rows in seeded order until all
    /// are answered. `traced` sends the same request through
    /// `Client::request` to see its bytes, inside a span.
    fn run_pass(&mut self, rng: &mut Rng, traced: bool) -> (f64, Vec<Call>) {
        let mut order: Vec<usize> = (0..self.rows.len()).collect();
        rng.shuffle(&mut order);
        let next = AtomicUsize::new(0);
        let calls = Mutex::new(Vec::with_capacity(order.len()));
        let rows = &self.rows;
        let t = Instant::now();
        std::thread::scope(|scope| {
            for client in &mut self.clients {
                let (next, calls, order) = (&next, &calls, &order);
                scope.spawn(move || {
                    while let Some(&row) = order.get(next.fetch_add(1, Ordering::SeqCst)) {
                        let call = if traced {
                            trace::set_id(row);
                            span("qavad.request", "", || traced_call(client, &rows[row], row))
                        } else {
                            plain_call(client, &rows[row], row)
                        };
                        calls.lock().expect("a client thread panicked").push(call);
                    }
                });
            }
        });
        (
            t.elapsed().as_secs_f64(),
            calls.into_inner().expect("a client thread panicked"),
        )
    }
}

fn plain_call(client: &mut Client, b: &Benchmark, row: usize) -> Call {
    let spec = AnalyzeSpec {
        id: row,
        source: b.source,
        params: &b.params,
        engines: engines_for(b).into_iter().map(str::to_string).collect(),
        race: false,
        deadline_ms: None,
        invariant_iters: SUITE_INVARIANT_ITERS,
        lp_backend: None,
    };
    let t = Instant::now();
    let runs = client.analyze(&spec).map(|r| r.runs);
    Call {
        row,
        latency_ms: t.elapsed().as_secs_f64() * 1e3,
        runs,
        request_bytes: 0,
        response_bytes: 0,
    }
}

/// The request `Client::analyze` sends, sent as a document so its size
/// and the response's are visible.
fn traced_call(client: &mut Client, b: &Benchmark, row: usize) -> Call {
    let params = b
        .params
        .iter()
        .map(|(k, &v)| (k.clone(), Json::from_f64(v)));
    let engines = engines_for(b).into_iter().map(|e| Json::Str(e.into()));
    let doc = obj(vec![
        ("cmd", Json::Str("analyze".into())),
        ("id", Json::Num(row as f64)),
        ("source", Json::Str(b.source.into())),
        ("params", Json::Obj(params.collect())),
        ("engines", Json::Arr(engines.collect())),
        ("race", Json::Bool(false)),
        ("invariant_iters", Json::Num(SUITE_INVARIANT_ITERS as f64)),
    ]);
    let request_bytes = doc.render().len() + 1;
    let t = Instant::now();
    let response = client.request(&doc);
    let latency_ms = t.elapsed().as_secs_f64() * 1e3;
    let response_bytes = response.as_ref().map_or(0, |r| r.render().len() + 1);
    let runs = response.and_then(|r| {
        r.get("runs")
            .and_then(Json::as_arr)
            .ok_or_else(|| "analyze response has no \"runs\"".to_string())?
            .iter()
            .map(engine_run_from_json)
            .collect()
    });
    Call {
        row,
        latency_ms,
        runs,
        request_bytes,
        response_bytes,
    }
}

/// Checks every call against the reference and totals its work.
fn tally(live: &Live, wall_s: f64, calls: &[Call]) -> (PassResult, LpStats) {
    let mut r = PassResult {
        wall_s,
        ..PassResult::default()
    };
    let mut total = LpStats::default();
    let mut engine_solves: BTreeMap<&str, usize> = BTreeMap::new();
    for call in calls {
        let b = &live.rows[call.row];
        r.request_ms.push(call.latency_ms);
        let lineup = engines_for(b);
        match &call.runs {
            Err(e) => {
                r.attempted += lineup.len();
                for engine in lineup {
                    r.failures
                        .push(format!("{} {} / {engine}: transport: {e}", b.name, b.label));
                }
            }
            Ok(runs) => {
                if runs.iter().map(|run| run.engine).ne(lineup.iter().copied()) {
                    r.failures.push(format!(
                        "{} {}: daemon ran the wrong lineup",
                        b.name, b.label
                    ));
                }
                for run in runs {
                    r.attempted += 1;
                    let ln = run.bound.as_ref().map(|p| p.ln()).map_err(String::as_str);
                    match live
                        .reference
                        .check((b.name, &b.label), run.engine, ln, SUITE_TOL)
                    {
                        Ok(()) => r.certified += 1,
                        Err(e) => r.failures.push(e),
                    }
                    total.merge(&run.lp);
                    *engine_solves.entry(run.engine).or_default() += run.lp.solves;
                }
            }
        }
    }
    lp_counts(&total, &mut r.counts);
    for engine in ENGINES {
        let solves = engine_solves.get(engine).copied().unwrap_or(0);
        r.counts
            .insert(format!("synth.{engine}.lp_solves"), solves as f64);
    }
    (r, total)
}

/// The daemon's counters from `stats`.
fn daemon_stats(live: &mut Live) -> Result<(Json, LpStats), String> {
    let client = live.clients.first_mut().ok_or("no client connection")?;
    let stats = client.stats()?;
    let lp = lp_stats_from_json(stats.get("lp").ok_or("stats has no \"lp\"")?);
    Ok((stats, lp))
}

fn count(stats: &Json, key: &str) -> usize {
    stats.get(key).and_then(Json::as_usize).unwrap_or(0)
}

impl Workload for DaemonWorkload {
    type Live = Live;
    /// Concurrent clients reorder warm-cache fills, so the daemon's work
    /// counters move from pass to pass; they are reported with their
    /// spread instead.
    const DETERMINISTIC: bool = false;
    const SINGLE_THREADED_TRACE: bool = false;

    fn setup(&self, rng: &mut Rng) -> Result<Live, String> {
        static SETUPS: AtomicUsize = AtomicUsize::new(0);
        let k = SETUPS.fetch_add(1, Ordering::SeqCst);
        let dir = PathBuf::from(RUN_DIR);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{RUN_DIR}: {e}"))?;
        let stem = format!("qavad-{}-{k}", std::process::id());
        let socket = dir.join(format!("{stem}.sock"));
        let cache = dir.join(format!("{stem}.cache"));
        let _ = std::fs::remove_file(&cache);

        let mut config = DaemonConfig::new(&socket);
        config.cache_file = Some(cache.clone());
        let daemon = Daemon::bind(config).map_err(|e| format!("qavad bind: {e}"))?;
        let mut live = Live {
            reference: Reference::load()?,
            rows: suite_rows(),
            socket,
            cache,
            server: Some(std::thread::spawn(move || daemon.run())),
            clients: Vec::new(),
            pending: Vec::new(),
        };
        for _ in 0..nproc() {
            let mut client = Client::connect(&live.socket)?;
            client.hello()?;
            live.clients.push(client);
        }
        live.pending = self.pass(&mut live, rng)?.failures;
        Ok(live)
    }

    fn pass(&self, live: &mut Live, rng: &mut Rng) -> Result<PassResult, String> {
        let (wall_s, calls) = live.run_pass(rng, false);
        let (mut r, _) = tally(live, wall_s, &calls);
        r.problems.append(&mut live.pending);
        Ok(r)
    }

    fn traced_pass(&self, live: &mut Live, rng: &mut Rng) -> Result<PassResult, String> {
        let (before, lp_before) = daemon_stats(live)?;
        let (wall_s, calls) = live.run_pass(rng, true);
        let (after, lp_after) = daemon_stats(live)?;
        let (mut r, total) = tally(live, wall_s, &calls);
        r.counts.clear();

        let mut overhead = Vec::new();
        let mut engine_ms = Vec::new();
        let mut self_ms: BTreeMap<&str, f64> = BTreeMap::new();
        for call in &calls {
            let Ok(runs) = &call.runs else { continue };
            let seconds: f64 = runs.iter().map(|run| run.seconds).sum();
            overhead.push(call.latency_ms - seconds * 1e3);
            engine_ms.push(seconds * 1e3);
            for run in runs {
                *self_ms.entry(run.engine).or_default() +=
                    (run.seconds - run.lp.wall_seconds) * 1e3;
            }
        }
        let backend_ms: f64 = total.backends.iter().map(|t| t.wall_seconds * 1e3).sum();
        let latency_ms: f64 = calls.iter().map(|c| c.latency_ms).sum();
        let n = calls.len().max(1) as f64;
        let hits = count(&after, "pts_hits") - count(&before, "pts_hits");
        let misses = count(&after, "pts_misses") - count(&before, "pts_misses");
        let warm = (lp_after.warm_start_hits + lp_after.warm_start_misses)
            - (lp_before.warm_start_hits + lp_before.warm_start_misses);
        let persistent = lp_after.persistent_warm_hits - lp_before.persistent_warm_hits;

        let v = &mut r.values;
        let mut put = |name: &str, value: f64| {
            v.insert(name.to_string(), value);
        };
        put("qavad.overhead_ms.p50", stats::percentile(&overhead, 50.0));
        put("qavad.overhead_ms.p99", stats::percentile(&overhead, 99.0));
        put("qavad.engine_ms.p50", stats::percentile(&engine_ms, 50.0));
        put("qavad.pts_hit_ratio", ratio(hits, hits + misses));
        put("qavad.persistent_warm_ratio", ratio(persistent, warm));
        put("qavad.warm_entries", count(&after, "warm_entries") as f64);
        put(
            "qavad.lp_pivots",
            (lp_after.pivots - lp_before.pivots) as f64,
        );
        put(
            "qavad.request_bytes",
            calls.iter().map(|c| c.request_bytes).sum::<usize>() as f64 / n,
        );
        put(
            "qavad.response_bytes",
            calls.iter().map(|c| c.response_bytes).sum::<usize>() as f64 / n,
        );
        for engine in ENGINES {
            put(
                &format!("synth.{engine}.self_ms"),
                self_ms.get(engine).copied().unwrap_or(0.0),
            );
        }
        put("lp.backend_ms", backend_ms);
        put("lp.session_ms", total.wall_seconds * 1e3 - backend_ms);
        for name in ROUTED_BACKENDS {
            let t = total.backends.iter().find(|t| t.name == name);
            put(
                &format!("lp.{name}.ms"),
                t.map_or(0.0, |t| t.wall_seconds * 1e3),
            );
        }
        // Client time between requests: the share of the connections'
        // pass wall not spent waiting on a request.
        let connection_ms = wall_s * 1e3 * live.clients.len() as f64;
        put(
            "trace.unattributed_pct",
            100.0 * (connection_ms - latency_ms) / connection_ms,
        );
        if misses > 0 {
            r.problems
                .push(format!("{misses} requests recompiled after warm-up"));
        }
        Ok(r)
    }
}
