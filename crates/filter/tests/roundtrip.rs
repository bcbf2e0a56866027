//! Seeded properties: every predicate the AST can express (with field
//! names in the grammar's alphabet and finite numbers) round-trips through
//! its textual form, every header set round-trips through JSON, and
//! evaluation is consistent under the boolean algebra. Strings and header
//! keys are drawn from all of `char`.

use multipub_filter::{CompareOp, Headers, Predicate, Value};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Seeded cases per property.
const CASES: u64 = 256;

/// SplitMix64 (Steele et al.): the whole random source of these tests.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Runs `property` once per seed in `0..CASES`, naming the seed that fails.
fn for_each_seed(property: impl Fn(&mut SplitMix64)) {
    for seed in 0..CASES {
        let outcome = catch_unwind(AssertUnwindSafe(|| property(&mut SplitMix64(seed))));
        if let Err(panic) = outcome {
            eprintln!("failing seed: {seed}");
            resume_unwind(panic);
        }
    }
}

fn arb_field(rng: &mut SplitMix64) -> String {
    const ALPHABET: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_./-";
    (0..1 + rng.below(9)).map(|_| char::from(ALPHABET[rng.below(ALPHABET.len())])).collect()
}

/// Half ASCII (every control, quote and backslash among them), half any
/// `char`, which is mostly outside the Basic Multilingual Plane.
fn arb_string(rng: &mut SplitMix64) -> String {
    (0..rng.below(13))
        .map(|_| loop {
            let bound = if rng.below(2) == 0 { 0x80 } else { 0x11_0000 };
            if let Some(c) = char::from_u32(rng.below(bound) as u32) {
                break c;
            }
        })
        .collect()
}

fn arb_value(rng: &mut SplitMix64) -> Value {
    match rng.below(3) {
        0 => Value::Bool(rng.below(2) == 0),
        1 => loop {
            let n = f64::from_bits(rng.next_u64());
            if n.is_finite() {
                break Value::Num(n);
            }
        },
        _ => Value::Str(arb_string(rng)),
    }
}

fn arb_predicate(rng: &mut SplitMix64, depth: u32) -> Predicate {
    const OPS: [CompareOp; 7] = [
        CompareOp::Eq,
        CompareOp::Ne,
        CompareOp::Lt,
        CompareOp::Le,
        CompareOp::Gt,
        CompareOp::Ge,
        CompareOp::Prefix,
    ];
    let choice = if depth == 0 { rng.below(3) } else { rng.below(6) };
    let mut inner = || Box::new(arb_predicate(rng, depth - 1));
    match choice {
        0 => Predicate::True,
        1 => Predicate::Exists(arb_field(rng)),
        2 => Predicate::Compare {
            field: arb_field(rng),
            op: OPS[rng.below(OPS.len())],
            value: arb_value(rng),
        },
        3 => Predicate::And(inner(), inner()),
        4 => Predicate::Or(inner(), inner()),
        _ => Predicate::Not(inner()),
    }
}

/// Keys are field names half the time (so predicates can see them) and any
/// string otherwise.
fn arb_headers(rng: &mut SplitMix64) -> Headers {
    (0..rng.below(6))
        .map(|_| {
            let key = if rng.below(2) == 0 { arb_field(rng) } else { arb_string(rng) };
            (key, arb_value(rng))
        })
        .collect()
}

#[test]
fn display_then_parse_is_identity() {
    for_each_seed(|rng| {
        let p = arb_predicate(rng, 4);
        let text = p.to_string();
        let reparsed = Predicate::parse(&text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
        assert_eq!(reparsed, p, "{text:?}");
    });
}

#[test]
fn negation_flips_every_outcome() {
    for_each_seed(|rng| {
        let p = arb_predicate(rng, 4);
        let h = arb_headers(rng);
        let negated = Predicate::Not(Box::new(p.clone()));
        assert_eq!(negated.matches(&h), !p.matches(&h));
    });
}

#[test]
fn and_or_are_consistent() {
    for_each_seed(|rng| {
        let a = arb_predicate(rng, 4);
        let b = arb_predicate(rng, 4);
        let h = arb_headers(rng);
        let and = Predicate::And(Box::new(a.clone()), Box::new(b.clone()));
        let or = Predicate::Or(Box::new(a.clone()), Box::new(b.clone()));
        assert_eq!(and.matches(&h), a.matches(&h) && b.matches(&h));
        assert_eq!(or.matches(&h), a.matches(&h) || b.matches(&h));
        // Absorption: and ⇒ or.
        if and.matches(&h) {
            assert!(or.matches(&h));
        }
    });
}

#[test]
fn headers_json_roundtrip() {
    for_each_seed(|rng| {
        let h = arb_headers(rng);
        let json = h.to_json();
        let back = Headers::from_json(&json).unwrap_or_else(|e| panic!("{json:?}: {e}"));
        assert_eq!(back, h, "{json:?}");
    });
}

/// Controls, quotes, a combining mark and a non-BMP character: strings the
/// printers once wrote in forms the parser could not read.
#[test]
fn awkward_strings_roundtrip() {
    let strings = ["a\tb", "a\rb", "\u{0}", "\u{1f}", "\u{7f}", "e\u{301}", "\"", "\\", "😀"];
    for s in strings {
        let p = Predicate::Compare { field: "x".into(), op: CompareOp::Eq, value: Value::from(s) };
        let text = p.to_string();
        assert_eq!(Predicate::parse(&text), Ok(p), "{text:?}");

        let mut h = Headers::new();
        h.set(s, s);
        let json = h.to_json();
        assert_eq!(Headers::from_json(&json), Ok(h), "{json:?}");
    }
}
