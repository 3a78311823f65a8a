//! `qavad` — the resident qava analysis service.
//!
//! The one-shot `qava` CLI pays three recurring costs on every
//! invocation: compiling the program, re-deriving invariants, and — by
//! far the largest — solving every LP from a cold basis. The daemon
//! amortizes all three across requests and across clients:
//!
//! * [`server`] hosts the long-lived service: a Unix-domain socket
//!   accepting newline-delimited JSON requests, a compile-once PTS
//!   store, an admission gate sized to the rayon pool, and per-request
//!   cancellation wired to client disconnects and deadlines.
//! * The warm-start layer is [`qava_lp::SharedBasisCache`]: one
//!   process-wide, in-memory basis store installed into every
//!   request's solver sessions, so the first solve of a row pattern
//!   another request has already solved starts warm.
//! * [`protocol`] is the wire grammar plus the [`qava_lp::LpStats`] and
//!   suite-report codecs; [`json`] is the tiny self-contained JSON
//!   reader/writer underneath it (the workspace builds offline, so no
//!   serde).
//! * [`client`] is the connecting side: used by `qava --connect` and by
//!   the daemon conformance tests to drive the full benchmark suite
//!   through a daemon and diff the footer against in-process results.
//!
//! The protocol is versioned ([`protocol::PROTOCOL_VERSION`]) and fails
//! *loud*, never wrong: an incompatible request is answered with
//! `"ok":false` while the connection stays usable.

pub mod client;
pub mod json;
pub mod protocol;
pub mod server;

pub use client::Client;
pub use server::{Daemon, DaemonConfig};
