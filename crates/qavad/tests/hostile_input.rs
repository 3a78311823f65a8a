//! Property tests for hostile daemon input: random bytes on the wire and
//! corrupted warm-start spill files. They extend the fixed-case tests in
//! `json.rs` (malformed request lines) and `qava_lp`'s `cache.rs`
//! (truncated, garbage and bit-flipped spill files) to random inputs.
//!
//! * `json::parse` never panics, on raw bytes or on near-miss documents.
//! * Every `Json` value the writer renders parses back to itself.
//! * `SharedBasisCache::load_or_cold` never panics on a spill file with
//!   one byte flipped or cut short, and keeps no entry the file did not
//!   hold with exactly the shape it was written with.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use qava_lp::SharedBasisCache;
use qavad::json::{self, Json};
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng as _};
use std::path::PathBuf;

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

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("qavad-hostile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// The spill file every cache case corrupts: three patterns with bases
/// of different lengths, as written by `SharedBasisCache::save`.
const ENTRIES: [(u64, &[usize]); 3] = [(11, &[0, 3, 5]), (22, &[7]), (33, &[2, 2, 9, 1_000_000])];

fn spill_file(name: &str) -> Vec<u8> {
    let cache = SharedBasisCache::new(64);
    for (key, basis) in ENTRIES {
        cache.put(key, basis.to_vec());
    }
    let path = tmp(name);
    cache.save(&path).unwrap();
    std::fs::read(&path).unwrap()
}

/// Loads `bytes` as a spill file and checks what survived: the store is
/// either cold or holds only the written entries, each with its written
/// length and indices.
fn check_loaded(bytes: &[u8], name: &str) -> Result<(), TestCaseError> {
    let path = tmp(name);
    std::fs::write(&path, bytes).unwrap();
    let cache = SharedBasisCache::load_or_cold(&path, 64);
    let mut kept = 0;
    for (key, basis) in ENTRIES {
        if let Some(got) = cache.get(key) {
            prop_assert_eq!(got.as_slice(), basis, "entry {} changed shape", key);
            kept += 1;
        }
    }
    prop_assert_eq!(
        cache.len(),
        kept,
        "the store holds entries the file never had"
    );
    Ok(())
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
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// One byte of a valid spill file changed to another random value.
    #[test]
    fn cache_load_survives_a_flipped_byte(at in 0usize..4096, byte in 1u32..256) {
        let mut raw = spill_file("flip-source.warm");
        let i = at % raw.len();
        raw[i] ^= byte as u8;
        check_loaded(&raw, "flipped.warm")?;
    }

    /// A valid spill file cut short at a random offset.
    #[test]
    fn cache_load_survives_truncation(at in 0usize..4096) {
        let raw = spill_file("cut-source.warm");
        check_loaded(&raw[..at % raw.len()], "truncated.warm")?;
    }
}
