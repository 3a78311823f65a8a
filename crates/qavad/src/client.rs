//! The connecting side of the protocol: a blocking JSON-lines client
//! plus the suite driver behind `qava --suite --connect`.
//!
//! The suite driver fans the table rows over a small pool of
//! connections (one per worker thread) so a daemon-mediated suite run
//! exercises the daemon's admission gate and shared caches under real
//! concurrency, then reassembles [`RowReport`]s **in row order** — the
//! same invariant the in-process driver keeps — so the CLI prints and
//! the conformance tests diff daemon results with the exact same code
//! paths as in-process results.

use crate::json::{obj, parse, Json};
use crate::protocol::engine_run_from_json;
use qava_core::suite::runner::{default_engines, EngineRun, RowReport};
use qava_core::suite::Benchmark;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Invariant-propagation rounds the suite driver requests, matching
/// [`Benchmark::compile`] — the daemon must analyze the *same* PTS the
/// in-process driver does or the conformance diff is meaningless.
pub const SUITE_INVARIANT_ITERS: usize = 8;

/// One blocking connection to a daemon. Requests are answered in order;
/// dropping the client mid-request is how a caller abandons an analysis
/// (the daemon sees the hang-up and cancels it cooperatively).
pub struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

/// Decoded `analyze` response.
pub struct AnalyzeResponse {
    /// One entry per engine (sequential) or one race entry.
    pub runs: Vec<EngineRun>,
    /// Whether the daemon reused an already-compiled PTS.
    pub pts_cache_hit: bool,
    /// Whether the whole request was torn down by cancellation.
    pub cancelled: bool,
}

/// Everything an `analyze` request carries.
pub struct AnalyzeSpec<'a> {
    /// Echoed back in the response; useful when pipelining.
    pub id: usize,
    /// Program source in the qava language.
    pub source: &'a str,
    /// Frontend constants.
    pub params: &'a BTreeMap<String, f64>,
    /// Engine lineup (registry names); must be non-empty.
    pub engines: Vec<String>,
    /// Race the lineup instead of running it sequentially.
    pub race: bool,
    /// Per-request wall-clock budget.
    pub deadline_ms: Option<u64>,
    /// Invariant-propagation rounds applied after compilation.
    pub invariant_iters: usize,
    /// LP backend override (`None`: the daemon's policy).
    pub lp_backend: Option<String>,
}

impl Client {
    /// Connects to a daemon socket.
    ///
    /// # Errors
    ///
    /// The socket is absent, refuses, or cannot be cloned.
    pub fn connect(socket: &Path) -> Result<Client, String> {
        let writer = UnixStream::connect(socket)
            .map_err(|e| format!("cannot connect to {}: {e}", socket.display()))?;
        let read_half = writer
            .try_clone()
            .map_err(|e| format!("cannot clone connection to {}: {e}", socket.display()))?;
        Ok(Client { reader: BufReader::new(read_half), writer })
    }

    /// Sends one request object and decodes the one response line.
    ///
    /// # Errors
    ///
    /// I/O failure, a malformed response, or an `"ok":false` answer
    /// (returned as the daemon's error text).
    pub fn request(&mut self, doc: &Json) -> Result<Json, String> {
        let mut line = doc.render();
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("request write failed: {e}"))?;
        let mut buf = String::new();
        let n = self
            .reader
            .read_line(&mut buf)
            .map_err(|e| format!("response read failed: {e}"))?;
        if n == 0 {
            return Err("daemon closed the connection".to_string());
        }
        let response =
            parse(buf.trim_end()).map_err(|e| format!("malformed response: {e}"))?;
        if response.get("ok").and_then(Json::as_bool) == Some(true) {
            Ok(response)
        } else {
            Err(response
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("daemon reported an unspecified error")
                .to_string())
        }
    }

    /// Protocol handshake; returns the daemon's `hello` document.
    ///
    /// # Errors
    ///
    /// Transport errors, or a daemon speaking a different protocol
    /// version.
    pub fn hello(&mut self) -> Result<Json, String> {
        let response = self.request(&obj(vec![("cmd", Json::Str("hello".to_string()))]))?;
        match response.get("protocol").and_then(Json::as_usize) {
            Some(v) if v == crate::protocol::PROTOCOL_VERSION => Ok(response),
            Some(v) => Err(format!(
                "daemon speaks protocol {v}, this client speaks {}",
                crate::protocol::PROTOCOL_VERSION
            )),
            None => Err("daemon hello carries no protocol version".to_string()),
        }
    }

    /// Fetches the daemon's counters and merged [`qava_lp::LpStats`].
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn stats(&mut self) -> Result<Json, String> {
        self.request(&obj(vec![("cmd", Json::Str("stats".to_string()))]))
    }

    /// Asks the daemon to spill its cache and exit.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn shutdown(&mut self) -> Result<Json, String> {
        self.request(&obj(vec![("cmd", Json::Str("shutdown".to_string()))]))
    }

    /// Runs one analysis and decodes the runs.
    ///
    /// # Errors
    ///
    /// Transport errors or a request the daemon rejected.
    pub fn analyze(&mut self, spec: &AnalyzeSpec<'_>) -> Result<AnalyzeResponse, String> {
        let mut pairs = vec![
            ("cmd", Json::Str("analyze".to_string())),
            ("id", Json::Num(spec.id as f64)),
            ("source", Json::Str(spec.source.to_string())),
            (
                "params",
                Json::Obj(
                    spec.params
                        .iter()
                        .map(|(k, &v)| (k.clone(), Json::from_f64(v)))
                        .collect(),
                ),
            ),
            (
                "engines",
                Json::Arr(spec.engines.iter().map(|e| Json::Str(e.clone())).collect()),
            ),
            ("race", Json::Bool(spec.race)),
            ("invariant_iters", Json::Num(spec.invariant_iters as f64)),
        ];
        if let Some(ms) = spec.deadline_ms {
            pairs.push(("deadline_ms", Json::Num(ms as f64)));
        }
        if let Some(backend) = &spec.lp_backend {
            pairs.push(("lp_backend", Json::Str(backend.clone())));
        }
        let response = self.request(&obj(pairs))?;
        let runs = response
            .get("runs")
            .and_then(Json::as_arr)
            .ok_or("analyze response has no \"runs\"")?
            .iter()
            .map(engine_run_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(AnalyzeResponse {
            runs,
            pts_cache_hit: response.get("pts_cache").and_then(Json::as_str) == Some("hit"),
            cancelled: response.get("cancelled").and_then(Json::as_bool).unwrap_or(false),
        })
    }
}

/// Drives the benchmark suite through a daemon and reassembles in-order
/// [`RowReport`]s, indistinguishable (same types, same row order, same
/// engine lineups) from what the in-process driver returns — the CLI
/// prints both through identical code.
///
/// Rows are claimed atomically by a pool of worker connections, one per
/// rayon thread, so the daemon sees genuinely concurrent requests.
///
/// # Errors
///
/// Any connection or per-row failure aborts the run with every
/// collected error (a *row* that analyzes but fails to certify is not
/// an error here — it reports through `bound: Err(..)` like the
/// in-process driver).
pub fn run_suite_via_daemon(
    socket: &Path,
    rows: &[Benchmark],
    race: bool,
    lp_backend: Option<&str>,
) -> Result<Vec<RowReport>, String> {
    let workers = rows.len().clamp(1, rayon::current_num_threads());
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<RowReport>>> =
        (0..rows.len()).map(|_| Mutex::new(None)).collect();
    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut client = match Client::connect(socket) {
                    Ok(client) => client,
                    Err(e) => {
                        errors.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(e);
                        return;
                    }
                };
                loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    let Some(b) = rows.get(i) else { return };
                    let spec = AnalyzeSpec {
                        id: i,
                        source: b.source,
                        params: &b.params,
                        engines: default_engines(b.direction)
                            .iter()
                            .map(|e| (*e).to_string())
                            .collect(),
                        race,
                        deadline_ms: None,
                        invariant_iters: SUITE_INVARIANT_ITERS,
                        lp_backend: lp_backend.map(str::to_string),
                    };
                    match client.analyze(&spec) {
                        Ok(response) => {
                            *slots[i]
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner) =
                                Some(RowReport {
                                    row: i,
                                    name: b.name,
                                    label: b.label.clone(),
                                    previous: b.paper.previous,
                                    direction: b.direction,
                                    runs: response.runs,
                                });
                        }
                        Err(e) => {
                            errors
                                .lock()
                                .unwrap_or_else(std::sync::PoisonError::into_inner)
                                .push(format!("row {i} ({}): {e}", b.name));
                            return;
                        }
                    }
                }
            });
        }
    });
    let errors = errors.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner);
    if !errors.is_empty() {
        return Err(errors.join("; "));
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .ok_or_else(|| format!("row {i} was claimed but never reported"))
        })
        .collect()
}
