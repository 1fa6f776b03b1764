//! Fuzzes the workspace's one JSON parser, which reads every wire line and
//! `.tcres` file the server sees.
//!
//! Inputs are random trees built with `JsonWriter`, then those documents
//! truncated at every character boundary, with random bytes flipped or
//! inserted, plus nesting just under and just over `MAX_DEPTH`. The
//! properties: `parse` never panics; a writer-built tree re-parses to the
//! tree that was written; and anything `parse` accepts re-serializes to
//! text that parses to the same tree.

use tcsim_check::rng::XorShift64Star;
use tcsim_trace::json::{parse, JsonValue, JsonWriter, MAX_DEPTH};

/// Random documents per run. The full count is too slow without
/// optimisation; `scripts/ci.sh` runs this file in release.
const DOCS: u64 = if cfg!(debug_assertions) { 100 } else { 2000 };

/// Flipped or inserted bytes tried per document.
const MUTANTS: usize = 64;

/// Characters strings are drawn from: plain ASCII, everything the escaper
/// rewrites, and multi-byte UTF-8 of every length.
const CHARS: &[char] = &[
    'a',
    'Z',
    '0',
    ' ',
    '/',
    '"',
    '\\',
    '\n',
    '\t',
    '\r',
    '\0',
    '\u{1}',
    '\u{8}',
    '\u{c}',
    '\u{1f}',
    '\u{7f}',
    'é',
    'β',
    '×',
    '\u{2028}',
    '€',
    '😀',
    '\u{10ffff}',
];

/// Bytes that are meaningful to the grammar, for insertion.
const GRAMMAR: &[u8] = b"{}[]\",:\\0123456789-+.eEtrufalsn \n\t";

fn random_string(rng: &mut XorShift64Star) -> String {
    (0..rng.below(12)).map(|_| *rng.pick(CHARS)).collect()
}

/// Writes one random value with `w` and returns the tree `parse` must
/// build from it. The root (`depth` 0) is an array or an object.
fn random_value(rng: &mut XorShift64Star, w: &mut JsonWriter, depth: u32) -> JsonValue {
    let kind = match depth {
        0 => 6 + rng.below(2),
        1..=3 if rng.chance(2, 3) => rng.below(8),
        _ => rng.below(6),
    };
    // A non-empty root keeps documents from collapsing to `[]` or `{}`.
    let len = u64::from(depth == 0) + rng.below(6);
    match kind {
        0 => {
            w.null();
            JsonValue::Null
        }
        1 => {
            let b = rng.next_bool();
            w.bool(b);
            JsonValue::Bool(b)
        }
        2 => {
            let v = match rng.below(3) {
                0 => rng.below(10),
                1 => rng.next_u64(),
                _ => u64::MAX,
            };
            w.u64(v);
            JsonValue::Num(v.to_string())
        }
        3 => {
            let v = f64::from_bits(rng.next_u64());
            w.f64(v);
            if v.is_finite() {
                JsonValue::Num(format!("{v:.6}"))
            } else {
                JsonValue::Null
            }
        }
        4 => {
            let v = (rng.next_f64() - 0.5) * 1e6;
            w.f64(v);
            JsonValue::Num(format!("{v:.6}"))
        }
        5 => {
            let s = random_string(rng);
            w.str(&s);
            JsonValue::Str(s)
        }
        6 => {
            w.begin_array();
            let items = (0..len).map(|_| random_value(rng, w, depth + 1)).collect();
            w.end_array();
            JsonValue::Array(items)
        }
        _ => {
            w.begin_object();
            let mut members = std::collections::BTreeMap::new();
            let mut order = Vec::new();
            for i in 0..len {
                // Keys are distinct: a duplicate is a parse error.
                let key = format!("{}{i}", random_string(rng));
                members.insert(key.clone(), random_value(rng, w.key(&key), depth + 1));
                order.push(key);
            }
            w.end_object();
            JsonValue::Object { members, order }
        }
    }
}

/// A random writer-built document and the tree it must parse to.
fn random_document(rng: &mut XorShift64Star) -> (String, JsonValue) {
    let mut w = JsonWriter::value();
    let tree = random_value(rng, &mut w, 0);
    (w.finish(), tree)
}

/// Whatever `parse` accepts must survive a serialize → parse round trip.
fn check_accepted(text: &str) {
    if let Ok(tree) = parse(text) {
        let again = tree.to_json();
        assert_eq!(
            parse(&again).as_ref(),
            Ok(&tree),
            "{text:?} re-serialized to {again:?}, which parses differently"
        );
    }
}

#[test]
fn writer_built_trees_parse_back_exactly() {
    let mut rng = XorShift64Star::new(0x6a73_6f6e);
    for _ in 0..DOCS * 4 {
        let (text, tree) = random_document(&mut rng);
        assert_eq!(parse(&text).as_ref(), Ok(&tree), "{text}");
        assert_eq!(tree.to_json(), text);
    }
}

#[test]
fn truncated_documents_never_panic_and_are_rejected() {
    let mut rng = XorShift64Star::new(0x7472_756e);
    for _ in 0..DOCS {
        let (text, _) = random_document(&mut rng);
        for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
            // The root is an array or an object, so every proper prefix
            // is missing its closing bracket.
            assert!(parse(&text[..cut]).is_err(), "accepted {:?}", &text[..cut]);
        }
    }
}

#[test]
fn flipped_and_inserted_bytes_never_panic() {
    let mut rng = XorShift64Star::new(0x666c_6970);
    for _ in 0..DOCS {
        let (text, _) = random_document(&mut rng);
        for _ in 0..MUTANTS {
            let mut bytes = text.clone().into_bytes();
            for _ in 0..=rng.below(3) {
                let at = rng.below(bytes.len() as u64 + 1) as usize;
                let b = if rng.next_bool() {
                    *rng.pick(GRAMMAR)
                } else {
                    rng.next_u32() as u8
                };
                if at < bytes.len() && rng.next_bool() {
                    bytes[at] = b;
                } else {
                    bytes.insert(at, b);
                }
            }
            check_accepted(&String::from_utf8_lossy(&bytes));
        }
    }
}

#[test]
fn nesting_just_under_and_over_the_limit() {
    // Each builds a document `d` values deep (the root is depth 1).
    let arrays = |d: usize| "[".repeat(d) + &"]".repeat(d);
    let objects = |d: usize| "{\"k\":".repeat(d - 1) + "{}" + &"}".repeat(d - 1);
    let mixed = |d: usize| {
        let open: String = (1..d)
            .map(|i| if i % 2 == 0 { "[" } else { "{\"k\":" })
            .collect();
        let close: String = (1..d)
            .rev()
            .map(|i| if i % 2 == 0 { "]" } else { "}" })
            .collect();
        open + "null" + &close
    };
    for build in [arrays, objects, mixed] {
        for depth in [1, MAX_DEPTH - 1, MAX_DEPTH] {
            let text = build(depth);
            check_accepted(&text);
            assert!(parse(&text).is_ok(), "depth {depth} must parse");
        }
        for depth in [MAX_DEPTH + 1, MAX_DEPTH + 2, 4 * MAX_DEPTH] {
            let err = parse(&build(depth)).expect_err("too deep");
            assert!(err.msg.contains("nesting"), "depth {depth}: {err}");
        }
    }
}
