//! Property tests for hostile daemon input: random bytes on the wire and
//! random replies. They extend the fixed-case tests in `json.rs`
//! (malformed request lines) to random inputs; the request-side
//! `analyze` decoder has its own properties in `server.rs`.
//!
//! * `json::parse` never panics, on raw bytes or on near-miss documents.
//! * Every `Json` value the writer renders parses back to itself.
//! * The client's reply decoders (`engine_run_from_json`,
//!   `lp_stats_from_json`) never panic on random objects, and neither does
//!   printing what they decode, as `qava --connect` does.

use proptest::prelude::*;
use qavad::json::{self, Json};
use qavad::protocol::{engine_run_from_json, lp_stats_from_json};
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};

/// Fragments that steer random input into the parser's deeper states.
const TOKENS: [&str; 20] = [
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    "\\",
    "\\u",
    "\\ud83e",
    "00e1",
    "-",
    "1.5e308",
    "0",
    "true",
    "nul",
    " ",
    "\"k\":",
    "\u{1f980}",
    "\n",
];

/// Bytes drawn from `0..256`.
fn bytes(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u32..256, 0..max_len)
        .prop_map(|v| v.into_iter().map(|b| b as u8).collect())
}

/// A random document: nested arrays and objects over every scalar kind,
/// strings mixing escapes, control characters and multi-byte text.
fn random_json(rng: &mut StdRng, depth: usize) -> Json {
    match rng.gen_range(0..if depth == 0 { 4 } else { 6 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_range(0..2) == 1),
        2 => Json::Num(match rng.gen_range(0..3) {
            0 => rng.gen_range(-1e6..1e6_f64).round(),
            1 => rng.gen_range(-1.0..1.0_f64) * 10f64.powi(rng.gen_range(-300..300)),
            _ => Some(f64::from_bits(rng.gen::<u64>()))
                .filter(|v| v.is_finite())
                .unwrap_or(0.0),
        }),
        3 => Json::Str(random_string(rng)),
        4 => Json::Arr(
            (0..rng.gen_range(0..4))
                .map(|_| random_json(rng, depth - 1))
                .collect(),
        ),
        _ => Json::Obj(
            (0..rng.gen_range(0..4))
                .map(|_| (random_string(rng), random_json(rng, depth - 1)))
                .collect(),
        ),
    }
}

fn random_string(rng: &mut StdRng) -> String {
    const CHARS: [char; 12] = [
        'a', 'Z', '"', '\\', '/', '\n', '\t', '\u{1}', '\u{7f}', 'é', '€', '🦀',
    ];
    (0..rng.gen_range(0..8))
        .map(|_| CHARS[rng.gen_range(0..CHARS.len())])
        .collect()
}

/// Field names the reply decoders look up, so random objects reach them.
const REPLY_KEYS: [&str; 14] = [
    "engine",
    "ln_bound",
    "error",
    "seconds",
    "raced",
    "fault",
    "lp",
    "abandoned",
    "backends",
    "name",
    "solves",
    "reopt_attempts",
    "reopt_successes",
    "wall_seconds",
];

/// A random object over [`REPLY_KEYS`] and a few random keys; `lp`,
/// `abandoned` and `backends` entries nest further reply-shaped objects.
fn random_reply(rng: &mut StdRng, depth: usize) -> Json {
    let fields = (0..rng.gen_range(0..8))
        .map(|_| {
            let key = if rng.gen_range(0..4) == 0 {
                random_string(rng)
            } else {
                REPLY_KEYS[rng.gen_range(0..REPLY_KEYS.len())].to_string()
            };
            let value = match key.as_str() {
                "lp" | "abandoned" if depth > 0 => random_reply(rng, depth - 1),
                "backends" if depth > 0 => Json::Arr(
                    (0..rng.gen_range(0..3))
                        .map(|_| random_reply(rng, depth - 1))
                        .collect(),
                ),
                _ => random_json(rng, 1),
            };
            (key, value)
        })
        .collect();
    Json::Obj(fields)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes, made lossy UTF-8 as the server's line reader
    /// does, are rejected or accepted, never a panic.
    #[test]
    fn parse_never_panics_on_random_bytes(raw in bytes(96)) {
        let _ = json::parse(&String::from_utf8_lossy(&raw));
    }

    /// Token soup reaches strings, escapes, numbers and nesting, where a
    /// byte-level fuzzer rarely gets past the first character.
    #[test]
    fn parse_never_panics_on_token_soup(
        picks in proptest::collection::vec(0usize..TOKENS.len(), 0..48),
    ) {
        let text: String = picks.iter().map(|&i| TOKENS[i]).collect();
        let _ = json::parse(&text);
    }

    /// A rendered document with one byte replaced parses or fails cleanly.
    #[test]
    fn parse_never_panics_on_damaged_documents(
        seed in any::<u64>(),
        at in 0usize..4096,
        byte in 0u32..256,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut raw = random_json(&mut rng, 4).render().into_bytes();
        let i = at % raw.len();
        raw[i] = byte as u8;
        let _ = json::parse(&String::from_utf8_lossy(&raw));
    }

    /// What the writer renders, the reader returns unchanged, on one line.
    #[test]
    fn rendered_json_parses_back_to_itself(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let doc = random_json(&mut rng, 4);
        let line = doc.render();
        prop_assert!(!line.contains('\n'), "wire format is one line: {}", line);
        prop_assert_eq!(json::parse(&line), Ok(doc));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random replies decode to a run or an error, and whatever decodes
    /// prints, as `qava --connect` prints it, without a panic.
    #[test]
    fn reply_decoders_never_panic(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let reply = random_reply(&mut rng, 2);
        let mut totals = lp_stats_from_json(&reply);
        let _ = totals.to_string();
        if let Ok(run) = engine_run_from_json(&reply) {
            let _ = format!("{} {:?} {:.2}", run.engine, run.bound.map(|b| b.ln()), run.seconds);
            totals.merge(&run.lp);
            totals.merge(&run.abandoned);
            let _ = totals.to_string();
        }
    }
}
