//! Property/fuzz sweep of the DSL front end: `dmac::lang::parse_script`
//! over seeded mutations of the shipped example scripts
//! (`examples/scripts/{gnmf,pagerank}.dmac`) — truncation at every char
//! boundary, byte flips, token splices and deep nesting.
//!
//! The contract under test, the one `tests/prop_frames.rs` holds the wire
//! decoders to: a script is untrusted text (`dmac-serve` parses what any
//! client submits), so every input yields `Ok` or a typed `ParseError`
//! whose span, when present, lies inside the input on char boundaries —
//! never a panic, never a hang. An input that ever broke the contract
//! goes into [`REGRESSIONS`] with its fix.

use std::panic;

use dmac::lang::parse_script;
use dmac::lang::parser::{MAX_DEPTH, MAX_UNROLLED};
use dmac::matrix::SplitMix64;

const SCRIPTS: [&str; 2] = [
    include_str!("../examples/scripts/gnmf.dmac"),
    include_str!("../examples/scripts/pagerank.dmac"),
];

/// Inputs that broke the contract before the parser bounded them, each
/// written `(prefix, unit, repeats, suffix)`. The first three overflowed
/// the test thread's stack in a debug build, one recursion per level —
/// 250 parentheses, 500 unary minuses, 500 nested loops (`MAX_DEPTH` now
/// bounds nesting). The last, found reading the unroller, spun through
/// 10^15 empty iterations (`MAX_UNROLLED` now bounds unrolling).
const REGRESSIONS: &[(&str, &str, usize, &str)] = &[
    ("A = load(A, 4, 4, 1.0)\nx = ", "(", 250, "A"),
    ("A = load(A, 4, 4, 1.0)\nx = ", "-", 500, "A"),
    ("", "for (i in 0:0) {\n", 500, "x = 1"),
    ("for (i in 0:1e15) {}", "", 0, ""),
];

/// The contract, for one input: `Ok`, or a typed error whose span lies
/// inside `src` on char boundaries — and the span's accessors work on it.
fn holds(src: &str) {
    let Err(e) = parse_script(src) else { return };
    if let Some(span) = e.span {
        assert!(
            span.start <= span.end
                && span.end <= src.len()
                && src.is_char_boundary(span.start)
                && src.is_char_boundary(span.end),
            "span {span:?} outside {} bytes: {e} in {src:?}",
            src.len()
        );
        span.column(src);
        span.line_text(src);
    }
}

/// `holds` for every input, reporting the first that panics by name.
fn sweep(inputs: impl IntoIterator<Item = String>) -> usize {
    let mut n = 0;
    for src in inputs {
        n += 1;
        if panic::catch_unwind(|| holds(&src)).is_err() {
            panic!("parse_script broke the contract on {src:?}");
        }
    }
    n
}

#[test]
fn regressions_stay_fixed() {
    let inputs: Vec<String> = REGRESSIONS
        .iter()
        .map(|(prefix, unit, n, suffix)| format!("{prefix}{}{suffix}", unit.repeat(*n)))
        .collect();
    sweep(inputs.clone());
    for src in inputs {
        assert!(parse_script(&src).is_err(), "{src:?} is past a bound");
    }
}

/// A prefix of a script, cut at every char boundary.
#[test]
fn truncation_at_every_char_boundary() {
    for script in SCRIPTS {
        let cuts = script.char_indices().map(|(i, _)| i).chain([script.len()]);
        sweep(cuts.map(|i| script[..i].to_string()));
        assert!(parse_script(script).is_ok(), "the shipped script parses");
    }
}

/// One byte set to a random value, or one bit flipped; non-UTF-8 results
/// are read lossily (a replacement char is three bytes, so spans after it
/// move — the contract must still hold).
#[test]
fn byte_flips() {
    let mut rng = SplitMix64::new(0xD5C1_0001);
    for script in SCRIPTS {
        let inputs = (0..3000).map(|_| {
            let mut bytes = script.as_bytes().to_vec();
            let at = rng.below(bytes.len());
            if rng.chance(0.5) {
                bytes[at] ^= 1 << rng.below(8);
            } else {
                bytes[at] = rng.next_u64() as u8;
            }
            String::from_utf8_lossy(&bytes).into_owned()
        });
        sweep(inputs);
    }
}

/// A script's tokens: maximal runs of word characters (names, numbers,
/// `.t`), whitespace runs, and single punctuation.
fn tokens(src: &str) -> Vec<&str> {
    let class = |c: char| {
        if c.is_alphanumeric() || c == '_' || c == '.' {
            0
        } else if c.is_whitespace() {
            1
        } else {
            2
        }
    };
    let mut out = Vec::new();
    let mut start = 0;
    let mut prev = None;
    for (i, c) in src.char_indices() {
        let k = class(c);
        if prev.is_some_and(|p| p != k || k == 2) {
            out.push(&src[start..i]);
            start = i;
        }
        prev = Some(k);
    }
    out.push(&src[start..]);
    out
}

/// Tokens from both scripts inserted, deleted, duplicated and swapped at
/// random: inputs that lex, mostly, and then go wrong in the grammar.
#[test]
fn token_splices() {
    let pool: Vec<&str> = SCRIPTS.iter().flat_map(|s| tokens(s)).collect();
    let mut rng = SplitMix64::new(0xD5C1_0002);
    for script in SCRIPTS {
        let base = tokens(script);
        assert_eq!(base.concat(), script, "tokens tile the script");
        let inputs = (0..2000).map(|_| {
            let mut toks = base.clone();
            for _ in 0..1 + rng.below(4) {
                let at = rng.below(toks.len());
                match rng.below(4) {
                    0 => toks.insert(at, pool[rng.below(pool.len())]),
                    1 => {
                        toks.remove(at);
                    }
                    2 => {
                        let end = (at + 1 + rng.below(8)).min(toks.len());
                        let dup: Vec<&str> = toks[at..end].to_vec();
                        toks.splice(at..at, dup);
                    }
                    _ => {
                        let other = rng.below(toks.len());
                        toks.swap(at, other);
                    }
                }
                if toks.is_empty() {
                    break;
                }
            }
            toks.concat()
        });
        sweep(inputs);
    }
}

/// Nesting at, just past and far past `MAX_DEPTH`, and loops that unroll
/// past `MAX_UNROLLED`: within the bounds a script parses, past them it is
/// a typed error, never a stack overflow or a hang.
#[test]
fn deep_nesting_and_long_loops() {
    let load = "A = load(A, 4, 4, 1.0)\n";
    for depth in [1, MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1, 10_000, 200_000] {
        let within = depth <= MAX_DEPTH;
        let cases = [
            format!("{load}x = {}A{}", "(".repeat(depth), ")".repeat(depth)),
            format!("{load}x = {}A", "-".repeat(depth)),
            format!(
                "{load}{}x = A{}",
                "for (i in 0:0) {\n".repeat(depth),
                "\n}".repeat(depth)
            ),
        ];
        for src in cases {
            holds(&src);
            assert_eq!(parse_script(&src).is_ok(), within, "depth {depth}");
        }
        // `.t` chains and operator chains loop, they do not recurse.
        holds(&format!("{load}x = A{}", ".t".repeat(depth)));
        holds(&format!("{load}x = A{}", " + A".repeat(depth.min(10_000))));
    }
    let unroll = |n: usize| format!("{load}for (i in 1:{n}) {{ x = A }}\noutput(x)");
    assert!(parse_script(&unroll(MAX_UNROLLED)).is_ok());
    assert!(parse_script(&unroll(MAX_UNROLLED + 1)).is_err());
    let nested = "for (i in 0:99) { for (j in 0:99) { for (k in 0:99) { x = 1 } } }";
    assert!(parse_script(nested).is_err(), "a million nested iterations");
}
