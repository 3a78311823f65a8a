//! The `qavad` wire protocol: newline-delimited JSON over a Unix domain
//! socket, plus the [`LpStats`] and suite-report codecs shared by the
//! daemon, the `qava --connect` client, and `qava --suite --json`.
//!
//! # Protocol grammar (version 1)
//!
//! Every request is one JSON object on one line; every request gets
//! exactly one JSON object back on one line, in order. A connection may
//! pipeline any number of requests.
//!
//! ```text
//! request  := hello | analyze | stats | shutdown
//! hello    := {"cmd":"hello"}
//! analyze  := {"cmd":"analyze", "source":string,
//!              "id":int?,                  // echoed back, default 0
//!              "params":{name:number,…}?,  // frontend constants
//!              "engines":[string,…],       // required, non-empty
//!              "race":bool?,               // default false (sequential)
//!              "deadline_ms":int?,         // per-request wall budget
//!              "invariant_iters":int?,     // propagation rounds, default 0
//!              "lp_backend":string?}       // default: daemon-wide policy
//! stats    := {"cmd":"stats"}
//! shutdown := {"cmd":"shutdown"}
//!
//! response := {"ok":true, …} | {"ok":false, "error":string, "id":int?}
//! ```
//!
//! An `analyze` response carries `"runs"`, upper-bound engines before
//! lower-bound ones: one entry per engine in sequential mode (in lineup
//! order within a direction), and in race mode one race per direction
//! the lineup names, so a lineup of both directions answers two races.
//! Each run has `"engine"`, `"seconds"`, `"raced"` (race mode: the
//! engines of that race only), `"lp"` and
//! `"abandoned"` ([`LpStats`] objects), and either `"ln_bound"` (the
//! certified bound in ln-space — the value `qava` prints) or `"error"`.
//! Bounds travel in ln-space only: converting through probability space
//! would round-trip 1e-300-scale numbers through denormals.
//!
//! Unknown request fields are ignored (forward compatibility); unknown
//! `"cmd"` values, engine or `"lp_backend"` names the daemon does not
//! have, malformed JSON, and oversized lines are answered with
//! `"ok":false` and the connection stays up — a client bug costs one
//! request, not the session.

use crate::json::{obj, Json};
use qava_core::suite::runner::{EngineRun, RowReport};
use qava_core::Direction;
use qava_lp::{BackendTally, LpStats};

/// Protocol version, exchanged in `hello` responses. Bump on any
/// incompatible change to the grammar above.
pub const PROTOCOL_VERSION: usize = 1;

/// Hard cap on one request line, bytes. Far above any suite row (the
/// largest benchmark source is ~2 KB) while bounding what a broken
/// client can make the daemon buffer.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Renders a [`Direction`] for the wire.
pub fn direction_str(d: Direction) -> &'static str {
    match d {
        Direction::Upper => "upper",
        Direction::Lower => "lower",
    }
}

/// Parses a wire direction.
pub fn parse_direction(s: &str) -> Option<Direction> {
    match s {
        "upper" => Some(Direction::Upper),
        "lower" => Some(Direction::Lower),
        _ => None,
    }
}

/// Serializes [`LpStats`] exhaustively: destructuring forces this codec
/// to decide about every new stats field at compile time, exactly like
/// [`LpStats::merge`].
pub fn lp_stats_to_json(stats: &LpStats) -> Json {
    let LpStats {
        solves,
        pivots,
        presolve_rows_removed,
        presolve_cols_removed,
        warm_start_hits,
        warm_start_misses,
        cache_evictions,
        persistent_warm_hits,
        watchdog_restarts,
        watchdog_singular,
        watchdog_infeasible,
        bland_retries,
        failovers,
        failover_recoveries,
        reopt_attempts,
        reopt_successes,
        accuracy_refactors,
        wall_seconds,
        backends,
    } = stats;
    let n = |v: usize| Json::Num(v as f64);
    obj(vec![
        ("solves", n(*solves)),
        ("pivots", n(*pivots)),
        ("presolve_rows_removed", n(*presolve_rows_removed)),
        ("presolve_cols_removed", n(*presolve_cols_removed)),
        ("warm_start_hits", n(*warm_start_hits)),
        ("warm_start_misses", n(*warm_start_misses)),
        ("cache_evictions", n(*cache_evictions)),
        ("persistent_warm_hits", n(*persistent_warm_hits)),
        ("watchdog_restarts", n(*watchdog_restarts)),
        ("watchdog_singular", n(*watchdog_singular)),
        ("watchdog_infeasible", n(*watchdog_infeasible)),
        ("bland_retries", n(*bland_retries)),
        ("failovers", n(*failovers)),
        ("failover_recoveries", n(*failover_recoveries)),
        ("reopt_attempts", n(*reopt_attempts)),
        ("reopt_successes", n(*reopt_successes)),
        ("accuracy_refactors", n(*accuracy_refactors)),
        ("wall_seconds", Json::from_f64(*wall_seconds)),
        (
            "backends",
            Json::Arr(
                backends
                    .iter()
                    .map(|t| {
                        obj(vec![
                            ("name", Json::Str(t.name.to_string())),
                            ("solves", n(t.solves)),
                            ("pivots", n(t.pivots)),
                            ("wall_seconds", Json::from_f64(t.wall_seconds)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Interns a backend/engine name read from a daemon's reply. Only
/// clients call it: the daemon resolves request names against its
/// engine registry and answers an unknown one with `ok:false`. The live
/// names are a small closed set; an unrecognized one (from a newer
/// daemon) is leaked on every call that decodes it, so the leak grows
/// with the replies a client decodes, never inside the daemon.
pub fn intern_name(name: &str) -> &'static str {
    const KNOWN: &[&str] = &[
        "sparse",
        "dense",
        "lu-ft",
        "hoeffding-linear",
        "azuma",
        "explinsyn",
        "polyrsm-quadratic",
        "explowsyn",
        "polylow",
        "race",
    ];
    KNOWN
        .iter()
        .find(|&&k| k == name)
        .copied()
        .unwrap_or_else(|| Box::leak(name.to_string().into_boxed_str()))
}

/// Deserializes [`LpStats`] (absent fields read as 0, so a newer daemon
/// talking to an older client degrades to partial stats, never an
/// error).
pub fn lp_stats_from_json(json: &Json) -> LpStats {
    let n = |key: &str| json.get(key).and_then(Json::as_usize).unwrap_or(0);
    let f = |key: &str| json.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let mut stats = LpStats {
        solves: n("solves"),
        pivots: n("pivots"),
        presolve_rows_removed: n("presolve_rows_removed"),
        presolve_cols_removed: n("presolve_cols_removed"),
        warm_start_hits: n("warm_start_hits"),
        warm_start_misses: n("warm_start_misses"),
        cache_evictions: n("cache_evictions"),
        persistent_warm_hits: n("persistent_warm_hits"),
        watchdog_restarts: n("watchdog_restarts"),
        watchdog_singular: n("watchdog_singular"),
        watchdog_infeasible: n("watchdog_infeasible"),
        bland_retries: n("bland_retries"),
        failovers: n("failovers"),
        failover_recoveries: n("failover_recoveries"),
        reopt_attempts: n("reopt_attempts"),
        reopt_successes: n("reopt_successes"),
        accuracy_refactors: n("accuracy_refactors"),
        wall_seconds: f("wall_seconds"),
        backends: Vec::new(),
    };
    if let Some(backends) = json.get("backends").and_then(Json::as_arr) {
        for t in backends {
            let Some(name) = t.get("name").and_then(Json::as_str) else { continue };
            stats.backends.push(BackendTally {
                name: intern_name(name),
                solves: t.get("solves").and_then(Json::as_usize).unwrap_or(0),
                pivots: t.get("pivots").and_then(Json::as_usize).unwrap_or(0),
                wall_seconds: t.get("wall_seconds").and_then(Json::as_f64).unwrap_or(0.0),
            });
        }
    }
    stats
}

/// Serializes one suite run (sequential engine outcome or race outcome).
pub fn engine_run_to_json(run: &EngineRun) -> Json {
    let mut pairs = vec![("engine", Json::Str(run.engine.to_string()))];
    match &run.bound {
        Ok(bound) => pairs.push(("ln_bound", Json::from_f64(bound.ln()))),
        Err(err) => pairs.push(("error", Json::Str(err.clone()))),
    }
    pairs.push(("seconds", Json::from_f64(run.seconds)));
    if !run.raced.is_empty() {
        pairs.push((
            "raced",
            Json::Arr(run.raced.iter().map(|e| Json::Str(e.to_string())).collect()),
        ));
    }
    if let Some(fault) = &run.fault {
        pairs.push(("fault", Json::Str(fault.clone())));
    }
    pairs.push(("lp", lp_stats_to_json(&run.lp)));
    pairs.push(("abandoned", lp_stats_to_json(&run.abandoned)));
    obj(pairs)
}

/// Deserializes one suite run.
pub fn engine_run_from_json(json: &Json) -> Result<EngineRun, String> {
    let engine =
        json.get("engine").and_then(Json::as_str).ok_or("run missing \"engine\"")?;
    let bound = match (json.get("ln_bound"), json.get("error")) {
        (Some(v), _) => {
            let ln = v.as_f64().ok_or("bad \"ln_bound\"")?;
            Ok(qava_core::LogProb::from_ln(ln))
        }
        (None, Some(e)) => Err(e.as_str().ok_or("bad \"error\"")?.to_string()),
        (None, None) => return Err("run has neither \"ln_bound\" nor \"error\"".to_string()),
    };
    Ok(EngineRun {
        engine: intern_name(engine),
        bound,
        seconds: json.get("seconds").and_then(Json::as_f64).unwrap_or(0.0),
        lp: json.get("lp").map(lp_stats_from_json).unwrap_or_default(),
        abandoned: json.get("abandoned").map(lp_stats_from_json).unwrap_or_default(),
        raced: json
            .get("raced")
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(Json::as_str).map(intern_name).collect())
            .unwrap_or_default(),
        fault: json.get("fault").and_then(Json::as_str).map(str::to_string),
    })
}

/// The machine-readable suite document behind `qava --suite --json`:
/// per-row results plus the two stats footers.
/// This is what the daemon conformance tests diff against in-process
/// results, so both the daemon-mediated and the in-process suite paths
/// render through this one function.
pub fn suite_json(reports: &[RowReport], race: bool, backend: &str) -> Json {
    let runs: usize = reports.iter().map(|r| r.runs.len()).sum();
    let failures: usize = reports
        .iter()
        .flat_map(|r| &r.runs)
        .filter(|run| run.bound.is_err())
        .count();
    let rows = reports
        .iter()
        .map(|report| {
            obj(vec![
                ("row", Json::Num(report.row as f64)),
                ("name", Json::Str(report.name.to_string())),
                ("label", Json::Str(report.label.clone())),
                ("direction", Json::Str(direction_str(report.direction).to_string())),
                ("runs", Json::Arr(report.runs.iter().map(engine_run_to_json).collect())),
            ])
        })
        .collect();
    obj(vec![
        ("rows", Json::Num(reports.len() as f64)),
        ("runs", Json::Num(runs as f64)),
        ("failures", Json::Num(failures as f64)),
        ("race", Json::Bool(race)),
        ("backend", Json::Str(backend.to_string())),
        ("lp", lp_stats_to_json(&qava_core::suite::runner::suite_lp_stats(reports))),
        (
            "abandoned",
            lp_stats_to_json(&qava_core::suite::runner::suite_abandoned_lp_stats(reports)),
        ),
        ("rows_detail", Json::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn sample_stats() -> LpStats {
        let mut stats = LpStats {
            solves: 36,
            pivots: 1200,
            warm_start_hits: 9,
            warm_start_misses: 27,
            persistent_warm_hits: 4,
            accuracy_refactors: 2,
            wall_seconds: 0.125,
            ..LpStats::default()
        };
        stats.merge(&LpStats::default());
        stats.backends.push(BackendTally {
            name: "lu-ft",
            solves: 36,
            pivots: 1200,
            wall_seconds: 0.125,
        });
        stats
    }

    #[test]
    fn lp_stats_roundtrip_is_lossless() {
        let stats = sample_stats();
        let back = lp_stats_from_json(&parse(&lp_stats_to_json(&stats).render()).unwrap());
        assert_eq!(stats, back);
    }

    #[test]
    fn engine_run_roundtrip_preserves_ln_bounds_exactly() {
        let run = EngineRun {
            engine: "explinsyn",
            bound: Ok(qava_core::LogProb::from_ln(-694.127_834_509_2)),
            seconds: 0.75,
            lp: sample_stats(),
            abandoned: LpStats::default(),
            raced: vec!["hoeffding-linear", "explinsyn"],
            fault: None,
        };
        let back =
            engine_run_from_json(&parse(&engine_run_to_json(&run).render()).unwrap()).unwrap();
        assert_eq!(back.engine, "explinsyn");
        assert_eq!(back.bound.as_ref().unwrap().ln(), run.bound.as_ref().unwrap().ln());
        assert_eq!(back.raced, run.raced);
        assert_eq!(back.lp, run.lp);

        let failed = EngineRun { bound: Err("no RepRSM".to_string()), ..run };
        let back =
            engine_run_from_json(&parse(&engine_run_to_json(&failed).render()).unwrap()).unwrap();
        assert_eq!(back.bound.unwrap_err(), "no RepRSM");
    }

    #[test]
    fn intern_name_reuses_known_statics() {
        assert_eq!(intern_name("explinsyn"), "explinsyn");
        assert_eq!(intern_name("lu-ft"), "lu-ft");
        let leaked = intern_name("future-engine");
        assert_eq!(leaked, "future-engine");
    }
}
