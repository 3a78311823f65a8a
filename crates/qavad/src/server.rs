//! The resident analysis service: socket lifecycle, request admission,
//! per-connection workers, and the process-wide caches.
//!
//! # Architecture
//!
//! One [`Daemon`] owns the process state every request shares:
//!
//! * a **PTS store** — compiled programs keyed by `(source, params,
//!   invariant_iters)` itself (never a hash of it, so two programs can
//!   never share an entry), so a suite row is compiled and
//!   invariant-propagated once per daemon lifetime, not once per request.
//!   It holds at most [`PTS_STORE_CAPACITY`] programs and evicts the
//!   least recently used one beyond that, so a client sending ever new
//!   sources cannot grow the daemon without limit (an evicted program
//!   is simply compiled again);
//! * the **shared warm-start basis cache** ([`SharedBasisCache`]) —
//!   installed into every request's `LpSolver` sessions, so a request
//!   starts warm from the bases earlier requests left. It lives in
//!   memory only and starts cold with each daemon;
//! * an **admission gate** bounding concurrent analyses to the rayon
//!   pool width: engine racing already fans each admitted request across
//!   the pool, so admitting more requests than workers would only add
//!   queueing *inside* the pool with worse tail latency — the gate
//!   queues excess requests at the boundary instead, where cancellation
//!   can still reject them cheaply;
//! * honest **process totals**: every request's per-run [`LpStats`]
//!   slices (which partition session totals — pinned by a qava-core
//!   concurrency test) are merged into certified/abandoned buckets.
//!
//! Each accepted connection gets two threads. A **reader** owns the read
//! half for the connection's whole life: it frames JSON lines and
//! forwards each one, in arrival order, over a channel to the **request
//! loop**, which answers them one at a time. Pipelined requests are thus
//! ordinary channel messages, and the socket is always being read, so a
//! client's departure is seen the moment it happens — never on a poll.
//!
//! The two threads share a small `Presence` record. An analysis
//! registers its cancel flag there for as long as it is queued or
//! running; when the reader hits EOF (or a hard socket error) it marks
//! the client gone and raises whatever flag is registered, and an
//! analysis that registers after the departure raises its own flag at
//! once. Every racing engine observes the flag at its next LP-solve
//! boundary ([`qava_lp::LpError::Cancelled`]) and the admission permit
//! is released — an abandoned request frees its worker in bounded time
//! instead of running to completion for nobody. When the request loop
//! exits it shuts the socket down, which ends the reader's blocked read.

use crate::json::{obj, parse, Json};
use crate::protocol::{
    engine_run_to_json, lp_stats_to_json, MAX_LINE_BYTES, PROTOCOL_VERSION,
};
use qava_core::engine::{race_with, AnalysisRequest, BoundEngine, EngineRegistry};
use qava_core::suite::runner::EngineRun;
use qava_core::EngineError;
use qava_lp::{BackendChoice, LpSolver, LpStats, SharedBasisCache};
use qava_pts::Pts;
use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How the daemon is wired up; see the field docs for defaults.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Unix-domain socket path to listen on. A stale socket file (left
    /// by a killed daemon) is removed; a *live* one is a bind error.
    pub socket: PathBuf,
    /// Has no effect: the shared warm-start cache lives in memory only,
    /// and no file is read or written. Kept so existing callers still
    /// compile; it goes with the next benchmark change.
    pub cache_file: Option<PathBuf>,
    /// LRU bound of the shared cache.
    pub cache_capacity: usize,
    /// Concurrent-analysis bound; `0` means the rayon pool width.
    pub max_inflight: usize,
    /// Backend policy for request sessions unless a request overrides it
    /// with `"lp_backend"`.
    pub backend: BackendChoice,
}

impl DaemonConfig {
    /// A config with everything defaulted except the socket path.
    pub fn new(socket: impl Into<PathBuf>) -> Self {
        DaemonConfig {
            socket: socket.into(),
            cache_file: None,
            cache_capacity: qava_lp::DEFAULT_SHARED_CACHE_CAPACITY,
            max_inflight: 0,
            backend: BackendChoice::default(),
        }
    }
}

/// Counting semaphore bounding concurrent analyses (std has none; a
/// mutexed counter + condvar is exactly sufficient at request
/// granularity).
struct Gate {
    max: usize,
    inflight: Mutex<usize>,
    freed: Condvar,
}

impl Gate {
    fn new(max: usize) -> Gate {
        Gate { max: max.max(1), inflight: Mutex::new(0), freed: Condvar::new() }
    }

    fn acquire(&self) -> Permit<'_> {
        let mut n = self.inflight.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        while *n >= self.max {
            n = self.freed.wait(n).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        *n += 1;
        Permit { gate: self }
    }
}

/// RAII admission permit: dropping it (normal completion, error paths,
/// and unwinds alike) frees the slot and wakes one queued request.
struct Permit<'a> {
    gate: &'a Gate,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut n =
            self.gate.inflight.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        *n -= 1;
        self.gate.freed.notify_one();
    }
}

/// State shared by every connection thread.
struct Shared {
    config: DaemonConfig,
    registry: EngineRegistry,
    warm: Arc<SharedBasisCache>,
    pts_store: Mutex<PtsStore>,
    gate: Gate,
    /// Merged certified LP work across all completed requests.
    totals: Mutex<LpStats>,
    /// Merged cancelled-racer LP work (kept apart, like suite footers).
    abandoned: Mutex<LpStats>,
    requests: AtomicUsize,
    disconnect_cancels: AtomicUsize,
    pts_hits: AtomicUsize,
    pts_misses: AtomicUsize,
    shutdown: AtomicBool,
}

impl Shared {
    fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
        m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// A bound, not-yet-serving daemon. Construction claims the socket;
/// [`run`](Daemon::run) serves until a `shutdown` request.
pub struct Daemon {
    shared: Arc<Shared>,
    listener: UnixListener,
}

impl Daemon {
    /// Binds the socket, with a cold shared warm-start cache.
    ///
    /// # Errors
    ///
    /// Socket errors: the path is un-bindable, or a live daemon already
    /// listens there.
    pub fn bind(config: DaemonConfig) -> std::io::Result<Daemon> {
        if config.socket.exists() {
            // Distinguish a live daemon from a stale file left by a
            // killed process: only the latter is ours to clean up.
            if UnixStream::connect(&config.socket).is_ok() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::AddrInUse,
                    format!("a daemon is already listening on {}", config.socket.display()),
                ));
            }
            std::fs::remove_file(&config.socket)?;
        }
        let listener = UnixListener::bind(&config.socket)?;
        let max_inflight = if config.max_inflight == 0 {
            rayon::current_num_threads()
        } else {
            config.max_inflight
        };
        Ok(Daemon {
            shared: Arc::new(Shared {
                gate: Gate::new(max_inflight),
                registry: EngineRegistry::with_builtins(),
                warm: Arc::new(SharedBasisCache::new(config.cache_capacity)),
                pts_store: Mutex::new(PtsStore::default()),
                totals: Mutex::new(LpStats::default()),
                abandoned: Mutex::new(LpStats::default()),
                requests: AtomicUsize::new(0),
                disconnect_cancels: AtomicUsize::new(0),
                pts_hits: AtomicUsize::new(0),
                pts_misses: AtomicUsize::new(0),
                shutdown: AtomicBool::new(false),
                config,
            }),
            listener,
        })
    }

    /// Serves requests until a `shutdown` request arrives, then removes
    /// the socket file and returns. Connection threads are detached;
    /// connections still open at shutdown die with the process (or, in
    /// tests, when their client disconnects).
    pub fn run(self) -> std::io::Result<()> {
        for stream in self.listener.incoming() {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match stream {
                Ok(stream) => {
                    // A refused thread costs only this connection (the
                    // stream drops with the closure); the loop keeps
                    // accepting.
                    let shared = self.shared.clone();
                    let spawned = std::thread::Builder::new()
                        .spawn(move || serve_connection(&shared, stream));
                    if let Err(e) = spawned {
                        eprintln!("qavad: dropping a connection: cannot spawn its thread: {e}");
                    }
                }
                Err(e) => eprintln!("qavad: accept failed: {e}"),
            }
        }
        let _ = std::fs::remove_file(&self.shared.config.socket);
        Ok(())
    }
}

/// Buffered line framer over a connection's read half, owned by the
/// connection's reader thread. Bytes past the current line (pipelined
/// requests) stay in `pending` for the next call.
struct LineReader {
    stream: UnixStream,
    pending: Vec<u8>,
    /// Leading bytes of `pending` already searched for `\n`: each read
    /// searches only the bytes it added, so framing a line of L bytes
    /// costs O(L), not O(L²) over its 4 KiB reads.
    scanned: usize,
}

impl LineReader {
    fn new(stream: UnixStream) -> LineReader {
        LineReader { stream, pending: Vec::new(), scanned: 0 }
    }

    /// Reads one `\n`-terminated line with a hard size cap: a line of
    /// more than `cap` bytes (the `\n` not counted) is an `InvalidData`
    /// error, however the bytes were split across reads. `Ok(None)` is
    /// EOF.
    fn read_line(&mut self, cap: usize) -> std::io::Result<Option<String>> {
        let mut chunk = [0u8; 4096];
        loop {
            let newline = self.pending[self.scanned..].iter().position(|&b| b == b'\n');
            let len = newline.map_or(self.pending.len(), |at| self.scanned + at);
            if len > cap {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("request line exceeds {cap} bytes"),
                ));
            }
            if newline.is_some() {
                let line = String::from_utf8_lossy(&self.pending[..len]).into_owned();
                self.pending.drain(..=len);
                self.scanned = 0;
                return Ok(Some(line));
            }
            self.scanned = len;
            match self.stream.read(&mut chunk) {
                // EOF with a dangling unterminated fragment is still
                // EOF: a vanished client has no request to answer.
                Ok(0) => return Ok(None),
                Ok(n) => self.pending.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

fn write_response(stream: &mut UnixStream, doc: &Json) -> std::io::Result<()> {
    let mut line = doc.render();
    line.push('\n');
    stream.write_all(line.as_bytes())
}

fn error_response(id: Option<usize>, message: &str) -> Json {
    let mut pairs = vec![("ok", Json::Bool(false))];
    if let Some(id) = id {
        pairs.push(("id", Json::Num(id as f64)));
    }
    pairs.push(("error", Json::Str(message.to_string())));
    obj(pairs)
}

/// What a connection's reader thread and its request loop share: whether
/// the client has left, and the cancel flag of the analysis currently
/// queued or running on the connection (at most one — a connection's
/// requests are answered in order).
#[derive(Default)]
struct Presence {
    gone: bool,
    inflight: Option<Arc<AtomicBool>>,
}

impl Presence {
    /// The client left: cancel the registered analysis, if any.
    fn depart(&mut self, shared: &Shared) {
        self.gone = true;
        if let Some(cancel) = self.inflight.take() {
            cancel_for_disconnect(shared, &cancel);
        }
    }

    /// Registers an analysis' cancel flag. A request whose client has
    /// already left (it was pipelined ahead of the hang-up) is cancelled
    /// at once.
    fn register(&mut self, shared: &Shared, cancel: &Arc<AtomicBool>) {
        if self.gone {
            cancel_for_disconnect(shared, cancel);
        } else {
            self.inflight = Some(cancel.clone());
        }
    }
}

/// Raises a request's cancel flag on behalf of a departed client,
/// counting each cancelled request once.
fn cancel_for_disconnect(shared: &Shared, cancel: &AtomicBool) {
    if !cancel.swap(true, Ordering::SeqCst) {
        shared.disconnect_cancels.fetch_add(1, Ordering::SeqCst);
    }
}

/// A framed request line, or the read error that ended the framing.
type Line = std::io::Result<String>;

/// The connection's reader thread: forwards every line to the request
/// loop in arrival order, then — on EOF or a hard socket error — marks
/// the client gone. An oversized line ends the framing but not the
/// client, so it is forwarded without a departure.
fn read_requests(
    mut reader: LineReader,
    lines: &mpsc::Sender<Line>,
    presence: &Mutex<Presence>,
    shared: &Shared,
) {
    loop {
        match reader.read_line(MAX_LINE_BYTES) {
            Ok(Some(line)) => {
                if lines.send(Ok(line)).is_err() {
                    return; // the request loop has finished
                }
            }
            Ok(None) => break,
            Err(e) => {
                let oversized = e.kind() == std::io::ErrorKind::InvalidData;
                let _ = lines.send(Err(e));
                if oversized {
                    return;
                }
                break;
            }
        }
    }
    Shared::lock(presence).depart(shared);
}

fn serve_connection(shared: &Arc<Shared>, stream: UnixStream) {
    let Ok(read_half) = stream.try_clone() else { return };
    let presence = Arc::new(Mutex::new(Presence::default()));
    let (sender, lines) = mpsc::channel();
    let reader = {
        let (shared, presence) = (shared.clone(), presence.clone());
        std::thread::Builder::new().spawn(move || {
            read_requests(LineReader::new(read_half), &sender, &presence, &shared);
        })
    };
    // A refused thread costs only this connection: the stream drops here.
    let reader = match reader {
        Ok(reader) => reader,
        Err(e) => {
            eprintln!("qavad: dropping a connection: cannot spawn its reader thread: {e}");
            return;
        }
    };
    let mut writer = stream;
    serve_requests(shared, &mut writer, &lines, &presence);
    // Ends the reader's blocked read, whichever side finished first.
    let _ = writer.shutdown(Shutdown::Both);
    let _ = reader.join();
}

/// The request loop: answers forwarded lines one at a time, in order,
/// until the reader stops and its last line is answered, a response
/// cannot be written, or a `shutdown` request arrives.
fn serve_requests(
    shared: &Arc<Shared>,
    writer: &mut UnixStream,
    lines: &mpsc::Receiver<Line>,
    presence: &Mutex<Presence>,
) {
    while let Ok(line) = lines.recv() {
        let line = match line {
            Ok(line) => line,
            Err(e) => {
                let _ = write_response(writer, &error_response(None, &e.to_string()));
                return;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = match parse(&line) {
            Ok(doc) => doc,
            Err(e) => {
                let msg = format!("malformed request: {e}");
                if write_response(writer, &error_response(None, &msg)).is_err() {
                    return;
                }
                continue;
            }
        };
        let response = match request.get("cmd").and_then(Json::as_str) {
            Some("hello") => hello_response(shared),
            Some("stats") => stats_response(shared),
            Some("analyze") => analyze(shared, &request, presence),
            Some("shutdown") => {
                let _ = write_response(writer, &obj(vec![("ok", Json::Bool(true))]));
                shared.shutdown.store(true, Ordering::SeqCst);
                // Unblock the accept loop so `run` observes the flag.
                let _ = UnixStream::connect(&shared.config.socket);
                return;
            }
            Some(other) => error_response(None, &format!("unknown cmd \"{other}\"")),
            None => error_response(None, "request has no \"cmd\""),
        };
        if write_response(writer, &response).is_err() {
            return; // client gone; nothing left to tell it
        }
    }
}

fn hello_response(shared: &Shared) -> Json {
    obj(vec![
        ("ok", Json::Bool(true)),
        ("server", Json::Str("qavad".to_string())),
        ("protocol", Json::Num(PROTOCOL_VERSION as f64)),
        ("pid", Json::Num(f64::from(std::process::id()))),
        ("warm_entries", Json::Num(shared.warm.len() as f64)),
    ])
}

fn stats_response(shared: &Shared) -> Json {
    obj(vec![
        ("ok", Json::Bool(true)),
        ("requests", Json::Num(shared.requests.load(Ordering::SeqCst) as f64)),
        (
            "disconnect_cancels",
            Json::Num(shared.disconnect_cancels.load(Ordering::SeqCst) as f64),
        ),
        ("pts_hits", Json::Num(shared.pts_hits.load(Ordering::SeqCst) as f64)),
        ("pts_misses", Json::Num(shared.pts_misses.load(Ordering::SeqCst) as f64)),
        ("warm_entries", Json::Num(shared.warm.len() as f64)),
        ("lp", lp_stats_to_json(&Shared::lock(&shared.totals))),
        ("abandoned", lp_stats_to_json(&Shared::lock(&shared.abandoned))),
    ])
}

/// Everything that determines a compiled PTS, compared in full on every
/// lookup: the source, the params as `(name, f64 bits)` in name order,
/// and the propagation rounds. A hash alone would let a collision serve
/// another program's PTS — a wrong bound, not just a slow one.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PtsKey {
    source: String,
    params: Vec<(String, u64)>,
    invariant_iters: usize,
}

impl PtsKey {
    fn new(source: &str, params: &BTreeMap<String, f64>, invariant_iters: usize) -> PtsKey {
        PtsKey {
            source: source.to_string(),
            params: params.iter().map(|(name, v)| (name.clone(), v.to_bits())).collect(),
            invariant_iters,
        }
    }
}

/// Most compiled programs the PTS store keeps: far above the 36 rows of
/// the paper suite, so a suite client never sees an eviction.
pub const PTS_STORE_CAPACITY: usize = 256;

/// The compile-once PTS store: at most [`PTS_STORE_CAPACITY`] programs,
/// evicting the least recently used.
#[derive(Default)]
struct PtsStore {
    /// Logical clock for recency; bumped on every touch.
    tick: u64,
    map: HashMap<PtsKey, (Arc<Pts>, u64)>,
}

impl PtsStore {
    fn get(&mut self, key: &PtsKey) -> Option<Arc<Pts>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|(pts, used)| {
            *used = tick;
            pts.clone()
        })
    }

    /// Stores a program unless the key is already present (a concurrent
    /// request compiled it first; compilation is deterministic, so
    /// either copy serves), evicting the least recently used entry when
    /// full.
    fn insert(&mut self, key: PtsKey, pts: Arc<Pts>) {
        if self.map.contains_key(&key) {
            return;
        }
        if self.map.len() >= PTS_STORE_CAPACITY {
            let lru = self.map.iter().min_by_key(|(_, (_, used))| *used).map(|(k, _)| k.clone());
            if let Some(lru) = lru {
                self.map.remove(&lru);
            }
        }
        self.tick += 1;
        self.map.insert(key, (pts, self.tick));
    }
}

/// Compile-once store: requests for an already-seen
/// `(source, params, iters)` reuse the compiled, invariant-propagated
/// PTS. `Arc` because racing engines borrow the program concurrently
/// while other requests for the same program are admitted.
fn compile_cached(
    shared: &Shared,
    source: &str,
    params: &BTreeMap<String, f64>,
    invariant_iters: usize,
) -> Result<(Arc<Pts>, bool), String> {
    let key = PtsKey::new(source, params, invariant_iters);
    if let Some(pts) = Shared::lock(&shared.pts_store).get(&key) {
        shared.pts_hits.fetch_add(1, Ordering::SeqCst);
        return Ok((pts, true));
    }
    shared.pts_misses.fetch_add(1, Ordering::SeqCst);
    let mut pts =
        qava_lang::compile(source, params).map_err(|e| format!("compile error: {e}"))?;
    if invariant_iters > 0 {
        qava_pts::propagate_invariants(&mut pts, invariant_iters);
    }
    let pts = Arc::new(pts);
    Shared::lock(&shared.pts_store).insert(key, pts.clone());
    Ok((pts, false))
}

/// The fields of an `analyze` request, decoded and checked against the
/// engine registry, before anything is compiled or admitted.
struct AnalyzeArgs<'a> {
    source: &'a str,
    params: BTreeMap<String, f64>,
    engines: Vec<&'a dyn BoundEngine>,
    race: bool,
    invariant_iters: usize,
    deadline: Option<Duration>,
    backend: BackendChoice,
}

/// Decodes an `analyze` request's fields. Only `source`, `engines` and
/// the param values are required to be well typed; the other fields
/// fall back to their defaults when absent or mistyped. The error is
/// the message of the request's `ok:false` answer.
fn decode_analyze<'a>(
    registry: &'a EngineRegistry,
    default_backend: BackendChoice,
    request: &'a Json,
) -> Result<AnalyzeArgs<'a>, String> {
    let source = request
        .get("source")
        .and_then(Json::as_str)
        .ok_or("analyze request has no \"source\"")?;
    let mut params = BTreeMap::new();
    if let Some(pairs) = request.get("params").and_then(Json::as_obj) {
        for (name, value) in pairs {
            let v = value.as_f64().ok_or_else(|| format!("param \"{name}\" is not a number"))?;
            params.insert(name.clone(), v);
        }
    }
    // Names resolve against the registry, never by interning wire text:
    // an unknown name costs this request, not daemon memory.
    let engines = match request.get("engines").and_then(Json::as_arr) {
        Some(arr) if !arr.is_empty() => arr
            .iter()
            .map(|item| {
                let name = item.as_str().ok_or("\"engines\" must be strings")?;
                registry.engine(name).ok_or_else(|| format!("unknown engine `{name}`"))
            })
            .collect::<Result<Vec<_>, String>>()?,
        _ => return Err("analyze request needs a non-empty \"engines\" list".to_string()),
    };
    let backend = match request.get("lp_backend").and_then(Json::as_str) {
        None => default_backend,
        Some(name) => name.parse()?,
    };
    Ok(AnalyzeArgs {
        source,
        params,
        engines,
        race: request.get("race").and_then(Json::as_bool).unwrap_or(false),
        invariant_iters: request.get("invariant_iters").and_then(Json::as_usize).unwrap_or(0),
        deadline: request
            .get("deadline_ms")
            .and_then(Json::as_usize)
            .map(|ms| Duration::from_millis(ms as u64)),
        backend,
    })
}

fn analyze(shared: &Arc<Shared>, request: &Json, presence: &Mutex<Presence>) -> Json {
    let id = request.get("id").and_then(Json::as_usize);
    shared.requests.fetch_add(1, Ordering::SeqCst);
    let AnalyzeArgs { source, params, engines, race, invariant_iters, deadline, backend } =
        match decode_analyze(&shared.registry, shared.config.backend, request) {
            Ok(args) => args,
            Err(e) => return error_response(id, &e),
        };

    // Compile (or fetch) before admission: the PTS store is cheap and
    // hot, and a compile error should not occupy an analysis slot.
    let (pts, pts_hit) = match compile_cached(shared, source, &params, invariant_iters) {
        Ok(pair) => pair,
        Err(e) => return error_response(id, &e),
    };

    // The cancel flag is registered before admission, so a client that
    // leaves while its request waits at the gate cancels it too.
    let cancel = Arc::new(AtomicBool::new(false));
    Shared::lock(presence).register(shared, &cancel);
    // Admission: one permit per analysis, released on every exit path.
    let permit = shared.gate.acquire();
    let runs = if race {
        run_race(shared, &pts, &engines, deadline, backend, &cancel)
    } else {
        run_sequential(shared, &pts, &engines, deadline, backend, &cancel)
    };
    Shared::lock(presence).inflight = None;
    drop(permit);

    // Fold this request's slices into the process totals (the slices
    // partition per-session work, so the totals stay honest under
    // concurrency).
    {
        let mut totals = Shared::lock(&shared.totals);
        for run in &runs {
            totals.merge(&run.lp);
        }
        let mut abandoned = Shared::lock(&shared.abandoned);
        for run in &runs {
            abandoned.merge(&run.abandoned);
        }
    }

    let cancelled = cancel.load(Ordering::SeqCst)
        && runs.iter().all(|r| r.bound.is_err());
    obj(vec![
        ("ok", Json::Bool(true)),
        ("id", Json::Num(id.unwrap_or(0) as f64)),
        ("pts_cache", Json::Str(if pts_hit { "hit" } else { "miss" }.to_string())),
        ("cancelled", Json::Bool(cancelled)),
        ("runs", Json::Arr(runs.iter().map(engine_run_to_json).collect())),
    ])
}

/// Sequential mode: each requested engine runs to completion in its own
/// session — the daemon-side mirror of the suite runner's sequential
/// driver, plus the request's cancel flag and the shared cache.
fn run_sequential(
    shared: &Shared,
    pts: &Pts,
    engines: &[&dyn BoundEngine],
    deadline: Option<Duration>,
    backend: BackendChoice,
    cancel: &Arc<AtomicBool>,
) -> Vec<EngineRun> {
    engines
        .iter()
        .map(|engine| {
            let mut req = AnalysisRequest::new(pts, engine.direction());
            req.deadline = deadline;
            let mut solver = LpSolver::with_choice(backend);
            solver.set_cancel_flag(cancel.clone());
            solver.set_shared_cache(shared.warm.clone());
            let t0 = Instant::now();
            let report = engine.run(&req, &mut solver);
            EngineRun {
                engine: engine.name(),
                bound: report.outcome.as_ref().map(|c| c.bound).map_err(ToString::to_string),
                seconds: t0.elapsed().as_secs_f64(),
                lp: report.lp,
                abandoned: LpStats::default(),
                raced: Vec::new(),
                fault: None,
            }
        })
        .collect()
}

/// Race mode: the daemon-side mirror of the suite runner's race driver —
/// same winner/abandoned semantics, but with the request's cancel flag
/// wired through [`race_with`] (so a disconnect cancels the whole race)
/// and the shared cache installed into every racer's session.
fn run_race(
    shared: &Shared,
    pts: &Pts,
    lineup: &[&dyn BoundEngine],
    deadline: Option<Duration>,
    backend: BackendChoice,
    cancel: &Arc<AtomicBool>,
) -> Vec<EngineRun> {
    let raced: Vec<&'static str> = lineup.iter().map(|e| e.name()).collect();
    // Direction of the race: the lineup's first engine (mixed-direction
    // lineups race the first direction; the rest are skipped, exactly as
    // `race` screens them).
    let mut req = AnalysisRequest::new(pts, lineup[0].direction());
    req.deadline = deadline;
    let warm = shared.warm.clone();
    let t0 = Instant::now();
    let outcome = race_with(lineup, &req, backend, cancel.clone(), &move |solver| {
        solver.set_shared_cache(warm.clone())
    });
    let seconds = t0.elapsed().as_secs_f64();
    let run = match outcome.winner {
        Some(w) => {
            let report = &outcome.reports[w];
            EngineRun {
                engine: report.engine,
                bound: Ok(report.outcome.as_ref().expect("winner is certified").bound),
                seconds,
                lp: report.lp.clone(),
                abandoned: outcome.abandoned,
                raced,
                fault: None,
            }
        }
        None => {
            let msgs: Vec<String> = outcome
                .reports
                .iter()
                .filter(|r| !r.cancelled())
                .map(|r| {
                    format!(
                        "{}: {}",
                        r.engine,
                        r.outcome
                            .as_ref()
                            .err()
                            .map_or_else(|| "uncertified".to_string(), EngineError::to_string)
                    )
                })
                .collect();
            EngineRun {
                engine: "race",
                bound: Err(if msgs.is_empty() {
                    "cancelled".to_string()
                } else {
                    msgs.join("; ")
                }),
                seconds,
                lp: LpStats::default(),
                abandoned: outcome.abandoned,
                raced,
                fault: None,
            }
        }
    };
    vec![run]
}

/// Renders a one-line startup banner (the binary prints it; tests don't).
pub fn banner(daemon: &Daemon) -> String {
    format!(
        "qavad listening on {} (protocol {PROTOCOL_VERSION}, {} analysis slots)",
        daemon.shared.config.socket.display(),
        daemon.shared.gate.max,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng as _, SeedableRng as _};

    /// Frames `data`, written from another thread in pieces of the given
    /// sizes (cycled), through a socket pair: the lines read, and whether
    /// framing ended at EOF (`None`) or on an error (its kind).
    fn frame(
        data: Vec<u8>,
        pieces: &[usize],
        cap: usize,
    ) -> (Vec<String>, Option<std::io::ErrorKind>) {
        let (mut tx, rx) = UnixStream::pair().unwrap();
        let pieces = pieces.to_vec();
        let writer = std::thread::spawn(move || {
            let mut at = 0usize;
            for &n in pieces.iter().cycle() {
                let end = at.saturating_add(n).min(data.len());
                // The reader stops at an oversized line, so later bytes
                // may find the socket closed.
                if tx.write_all(&data[at..end]).is_err() {
                    return;
                }
                at = end;
                if at == data.len() {
                    return;
                }
            }
        });
        let mut reader = LineReader::new(rx);
        let mut lines = Vec::new();
        let end = loop {
            match reader.read_line(cap) {
                Ok(Some(line)) => lines.push(line),
                Ok(None) => break None,
                Err(e) => break Some(e.kind()),
            }
        };
        drop(reader);
        writer.join().unwrap();
        (lines, end)
    }

    /// Pipelined lines, a line of exactly the cap and one a byte over it
    /// frame the same however the stream is split: every split of the
    /// writes, and a lead line shifting the cap line across the reader's
    /// 4 KiB reads.
    #[test]
    fn line_framing_is_independent_of_read_boundaries() {
        let cap = 9000;
        for lead in [0usize, 1, 2047, 4095, 4096, 4097, 8191] {
            for pieces in [&[usize::MAX][..], &[1, 4096, 7], &[4095, 2], &[333], &[4097]] {
                let lead_line = "l".repeat(lead);
                let at_cap = "c".repeat(cap);
                let mut data = Vec::new();
                let want = [lead_line.as_str(), &at_cap, "", "{\"cmd\":\"hello\"}", &at_cap];
                for line in want {
                    data.extend_from_slice(line.as_bytes());
                    data.push(b'\n');
                }
                data.extend_from_slice(b"tail without newline");
                let (lines, end) = frame(data, pieces, cap);
                assert_eq!(lines, want, "lead {lead}, pieces {pieces:?}");
                assert_eq!(end, None, "lead {lead}, pieces {pieces:?}: EOF ends framing");

                let mut data = Vec::new();
                data.extend_from_slice(lead_line.as_bytes());
                data.push(b'\n');
                data.extend_from_slice("o".repeat(cap + 1).as_bytes());
                data.extend_from_slice(b"\nnever read\n");
                let (lines, end) = frame(data, pieces, cap);
                assert_eq!(lines, [lead_line.as_str()], "lead {lead}, pieces {pieces:?}");
                assert_eq!(
                    end,
                    Some(std::io::ErrorKind::InvalidData),
                    "lead {lead}, pieces {pieces:?}: one byte over the cap"
                );
            }
        }
    }

    #[test]
    fn gate_bounds_inflight_and_releases_on_drop() {
        let gate = Arc::new(Gate::new(2));
        let peak = Arc::new(AtomicUsize::new(0));
        let current = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let (gate, peak, current) = (gate.clone(), peak.clone(), current.clone());
                s.spawn(move || {
                    let _permit = gate.acquire();
                    let now = current.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(5));
                    current.fetch_sub(1, Ordering::SeqCst);
                });
            }
        });
        assert!(peak.load(Ordering::SeqCst) <= 2, "gate must bound concurrency");
        assert_eq!(*gate.inflight.lock().unwrap(), 0, "all permits returned");
    }

    /// Distinct `(source, params, iters)` triples never share a store
    /// entry, and a repeated triple is a hit on the very same `Arc`.
    #[test]
    fn pts_store_keys_on_the_full_triple() {
        let dir = std::env::temp_dir().join(format!("qavad-pts-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let daemon = Daemon::bind(DaemonConfig::new(dir.join("s.sock"))).unwrap();
        let shared = &daemon.shared;
        let params = |pairs: &[(&str, f64)]| -> BTreeMap<String, f64> {
            pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()
        };
        let program = |cap: u32| {
            format!(
                "param n = 1; param k = 1; x := n;
                 while x <= {cap} invariant x >= 0 and x <= 20 {{ x := x + k; }}
                 assert x >= {cap};"
            )
        };
        let (src, other_src) = (program(9), program(8));
        let (src, other_src) = (src.as_str(), other_src.as_str());
        let triples = [
            (src, params(&[("n", 1.0)]), 8),
            (other_src, params(&[("n", 1.0)]), 8),
            (src, params(&[("n", 1.0)]), 0),
            (src, params(&[("n", 2.0)]), 8),
            (src, params(&[("n", -0.0)]), 8),
            (src, params(&[("n", 0.0)]), 8),
            (src, params(&[("n", 1.0), ("k", 1.0)]), 8),
            (src, params(&[]), 8),
        ];
        let first: Vec<Arc<Pts>> = triples
            .iter()
            .map(|(s, p, iters)| {
                let (pts, hit) = compile_cached(shared, s, p, *iters).unwrap();
                assert!(!hit, "{s:?} {p:?} {iters}: a new triple must miss");
                pts
            })
            .collect();
        assert_eq!(Shared::lock(&shared.pts_store).map.len(), triples.len());
        for ((s, p, iters), pts) in triples.iter().zip(&first) {
            let (again, hit) = compile_cached(shared, s, p, *iters).unwrap();
            assert!(hit, "{s:?} {p:?} {iters}: a repeated triple must hit");
            assert!(Arc::ptr_eq(&again, pts), "a hit serves the stored program");
        }
        assert_eq!(shared.pts_misses.load(Ordering::SeqCst), triples.len());
        assert_eq!(shared.pts_hits.load(Ordering::SeqCst), triples.len());
        drop(daemon);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The store never holds more than [`PTS_STORE_CAPACITY`] programs,
    /// a suite row pushed out by newer programs is compiled again (a
    /// miss), and the recompiled row certifies the same bound bit for bit.
    #[test]
    fn pts_store_is_bounded_and_evicted_rows_recompile_identically() {
        use qava_core::suite::table1;
        let dir = std::env::temp_dir().join(format!("qavad-lru-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let daemon = Daemon::bind(DaemonConfig::new(dir.join("s.sock"))).unwrap();
        let shared = &daemon.shared;
        let row = &table1()[0];
        let bound = |pts: &Pts| {
            shared
                .registry
                .run_engine("hoeffding-linear", &AnalysisRequest::upper(pts), BackendChoice::Auto)
                .and_then(|r| r.bound())
                .expect("the row certifies")
                .ln()
                .to_bits()
        };
        let (first, hit) = compile_cached(shared, row.source, &row.params, 8).unwrap();
        assert!(!hit);
        let before = bound(&first);
        let source = "param n = 1;
             x := n;
             while x <= 999 invariant x >= 0 and x <= 1000 { x := x + 1; }
             assert x >= 999;";
        for n in 0..PTS_STORE_CAPACITY + 8 {
            let params: BTreeMap<String, f64> = [("n".to_string(), n as f64)].into();
            let (_, hit) = compile_cached(shared, source, &params, 0).unwrap();
            assert!(!hit, "n = {n}: a new program must miss");
            assert!(Shared::lock(&shared.pts_store).map.len() <= PTS_STORE_CAPACITY);
        }
        let misses = shared.pts_misses.load(Ordering::SeqCst);
        let (again, hit) = compile_cached(shared, row.source, &row.params, 8).unwrap();
        assert!(!hit, "the least recently used row was evicted");
        assert!(!Arc::ptr_eq(&first, &again), "an evicted row is compiled again");
        assert_eq!(shared.pts_misses.load(Ordering::SeqCst), misses + 1);
        assert_eq!(bound(&again), before, "a recompiled row certifies the same bound");
        let (_, hit) = compile_cached(shared, row.source, &row.params, 8).unwrap();
        assert!(hit, "the recompiled row is stored again");
        assert_eq!(Shared::lock(&shared.pts_store).map.len(), PTS_STORE_CAPACITY);
        drop(daemon);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The fields [`decode_analyze`] reads.
    const FIELDS: [&str; 7] =
        ["source", "params", "engines", "race", "invariant_iters", "deadline_ms", "lp_backend"];

    /// A decoded request in a comparable form (params by bits, engines
    /// by name).
    #[derive(Debug, PartialEq)]
    struct Decoded {
        source: String,
        params: Vec<(String, u64)>,
        engines: Vec<&'static str>,
        race: bool,
        invariant_iters: usize,
        deadline: Option<Duration>,
        backend: BackendChoice,
    }

    fn decode(registry: &EngineRegistry, request: &Json) -> Result<Decoded, String> {
        decode_analyze(registry, BackendChoice::Auto, request).map(|a| Decoded {
            source: a.source.to_string(),
            params: a.params.iter().map(|(k, v)| (k.clone(), v.to_bits())).collect(),
            engines: a.engines.iter().map(|e| e.name()).collect(),
            race: a.race,
            invariant_iters: a.invariant_iters,
            deadline: a.deadline,
            backend: a.backend,
        })
    }

    fn strs(names: &[&str]) -> Json {
        Json::Arr(names.iter().map(|n| Json::Str(n.to_string())).collect())
    }

    /// An `analyze` request with every field set to a valid value.
    fn valid_request() -> Json {
        obj(vec![
            ("cmd", Json::Str("analyze".to_string())),
            ("id", Json::Num(7.0)),
            ("source", Json::Str("x := 0; assert x >= 0;".to_string())),
            ("params", obj(vec![("n", Json::Num(2.0))])),
            ("engines", strs(&["hoeffding-linear", "explinsyn"])),
            ("race", Json::Bool(true)),
            ("invariant_iters", Json::Num(8.0)),
            ("deadline_ms", Json::Num(250.0)),
            ("lp_backend", Json::Str("sparse".to_string())),
        ])
    }

    /// [`valid_request`] with `field` set to `value`, or removed.
    fn with_field(field: &str, value: Option<Json>) -> Json {
        let Json::Obj(mut pairs) = valid_request() else { unreachable!() };
        pairs.retain(|(k, _)| k != field);
        pairs.extend(value.map(|v| (field.to_string(), v)));
        Json::Obj(pairs)
    }

    /// How [`valid_request`] decodes with one field replaced, by that
    /// field's rule alone.
    fn expected(
        registry: &EngineRegistry,
        field: &str,
        value: Option<&Json>,
    ) -> Result<Decoded, String> {
        let mut want = decode(registry, &valid_request()).expect("the valid request decodes");
        match field {
            "source" => {
                let source = value.and_then(Json::as_str);
                want.source = source.ok_or("analyze request has no \"source\"")?.to_string();
            }
            "params" => {
                let mut params = BTreeMap::new();
                for (name, v) in value.and_then(Json::as_obj).unwrap_or_default() {
                    let v = v.as_f64().ok_or_else(|| format!("param \"{name}\" is not a number"))?;
                    params.insert(name.clone(), v.to_bits());
                }
                want.params = params.into_iter().collect();
            }
            "engines" => {
                let items = value.and_then(Json::as_arr).filter(|a| !a.is_empty());
                let items = items.ok_or("analyze request needs a non-empty \"engines\" list")?;
                want.engines = Vec::new();
                for item in items {
                    let name = item.as_str().ok_or("\"engines\" must be strings")?;
                    let engine = registry.engine(name).ok_or(format!("unknown engine `{name}`"))?;
                    want.engines.push(engine.name());
                }
            }
            "race" => want.race = value.and_then(Json::as_bool).unwrap_or(false),
            "invariant_iters" => want.invariant_iters = value.and_then(Json::as_usize).unwrap_or(0),
            "deadline_ms" => {
                want.deadline =
                    value.and_then(Json::as_usize).map(|ms| Duration::from_millis(ms as u64));
            }
            "lp_backend" => {
                want.backend = match value.and_then(Json::as_str) {
                    Some(name) => name.parse()?,
                    None => BackendChoice::Auto,
                };
            }
            _ => unreachable!("{field}"),
        }
        Ok(want)
    }

    /// The answers a rejected `analyze` request may get.
    fn known_error(e: &str) -> bool {
        [
            "analyze request has no \"source\"",
            "analyze request needs a non-empty \"engines\" list",
            "\"engines\" must be strings",
        ]
        .contains(&e)
            || (e.starts_with("param \"") && e.ends_with("\" is not a number"))
            || e.starts_with("unknown engine `")
            || e.starts_with("unknown LP backend `")
    }

    /// A wire value of any kind, biased toward the names, counts and
    /// strings the decoder tells apart.
    fn random_value(rng: &mut StdRng, depth: usize) -> Json {
        const WORDS: [&str; 10] = [
            "hoeffding-linear", "explowsyn", "polylow", "azuma ", "sparse", "lu-ft", "Auto", "inf",
            "nan", "\"\\\u{1}é🦀",
        ];
        const NUMS: [f64; 9] = [0.0, 1.0, 8.0, -1.0, 0.5, -0.0, 1e300, f64::MAX, 2e13];
        match rng.gen_range(0..if depth == 0 { 4 } else { 6 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.gen_bool(0.5)),
            2 if rng.gen_bool(0.5) => Json::Num(rng.gen_range(-1e6..1e6_f64).round()),
            2 => Json::Num(NUMS[rng.gen_range(0..NUMS.len())]),
            3 => Json::Str(WORDS[rng.gen_range(0..WORDS.len())].to_string()),
            4 => {
                let n = rng.gen_range(0..4);
                Json::Arr((0..n).map(|_| random_value(rng, depth - 1)).collect())
            }
            _ => Json::Obj(
                (0..rng.gen_range(0..4))
                    .map(|_| {
                        let key = WORDS[rng.gen_range(0..WORDS.len())].to_string();
                        (key, random_value(rng, depth - 1))
                    })
                    .collect(),
            ),
        }
    }

    /// Today's rejection texts, one per kind of bad field.
    #[test]
    fn decode_analyze_rejects_bad_fields_with_fixed_texts() {
        let registry = EngineRegistry::with_builtins();
        let cases = [
            ("source", None, "analyze request has no \"source\""),
            ("source", Some(Json::Num(1.0)), "analyze request has no \"source\""),
            (
                "params",
                Some(obj(vec![("n", Json::Str("two".into()))])),
                "param \"n\" is not a number",
            ),
            ("engines", None, "analyze request needs a non-empty \"engines\" list"),
            ("engines", Some(strs(&[])), "analyze request needs a non-empty \"engines\" list"),
            ("engines", Some(Json::Arr(vec![Json::Null])), "\"engines\" must be strings"),
            ("engines", Some(strs(&["azuma", "nope"])), "unknown engine `nope`"),
            (
                "lp_backend",
                Some(Json::Str("simplex".into())),
                "unknown LP backend `simplex` (expected auto, sparse, dense, or lu-ft)",
            ),
        ];
        for (field, value, text) in cases {
            let request = with_field(field, value);
            assert_eq!(decode(&registry, &request).err().as_deref(), Some(text), "{field}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A valid request with one field replaced by a random value (or
        /// removed) decodes exactly as that field's rule says.
        #[test]
        fn decode_analyze_follows_each_field_rule(
            seed in any::<u64>(),
            pick in 0usize..FIELDS.len(),
        ) {
            let registry = EngineRegistry::with_builtins();
            let mut rng = StdRng::seed_from_u64(seed);
            let value = rng.gen_bool(0.9).then(|| random_value(&mut rng, 2));
            let field = FIELDS[pick];
            let got = decode(&registry, &with_field(field, value.clone()));
            let want = expected(&registry, field, value.as_ref());
            prop_assert_eq!(got, want, "{} = {:?}", field, value);
        }

        /// Random objects over the request's field names, and random
        /// non-objects, are decoded or rejected with a known text.
        #[test]
        fn decode_analyze_never_panics_on_random_objects(seed in any::<u64>()) {
            let registry = EngineRegistry::with_builtins();
            let mut rng = StdRng::seed_from_u64(seed);
            let request = if rng.gen_bool(0.9) {
                Json::Obj(
                    (0..rng.gen_range(0..9))
                        .map(|_| {
                            let key = FIELDS[rng.gen_range(0..FIELDS.len())].to_string();
                            (key, random_value(&mut rng, 2))
                        })
                        .collect(),
                )
            } else {
                random_value(&mut rng, 2)
            };
            if let Err(e) = decode(&registry, &request) {
                prop_assert!(known_error(&e), "unexpected rejection {:?} of {:?}", e, request);
            }
        }

        /// A valid request line with one byte replaced either fails to
        /// parse or is decoded or rejected with a known text.
        #[test]
        fn decode_analyze_never_panics_on_damaged_requests(at in 0usize..4096, byte in 0u32..256) {
            let registry = EngineRegistry::with_builtins();
            let mut raw = valid_request().render().into_bytes();
            let i = at % raw.len();
            raw[i] = byte as u8;
            if let Ok(request) = parse(&String::from_utf8_lossy(&raw)) {
                if let Err(e) = decode(&registry, &request) {
                    prop_assert!(known_error(&e), "unexpected rejection {:?} of {:?}", e, request);
                }
            }
        }
    }

    #[test]
    fn direction_str_roundtrip() {
        use crate::protocol::{direction_str, parse_direction};
        for d in [qava_core::Direction::Upper, qava_core::Direction::Lower] {
            assert_eq!(parse_direction(direction_str(d)), Some(d));
        }
    }
}
