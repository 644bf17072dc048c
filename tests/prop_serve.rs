//! Property/fuzz sweep of the `dmac-serve` protocol decoder: every
//! request and response kind, framed as on the wire, truncated at every
//! offset, with bytes flipped, with JSON tokens spliced, and behind
//! length prefixes the stream does not back — `read_frame`,
//! `Request::from_json` and `Response::from_json` on seeded mutations.
//!
//! The contract, the one `tests/prop_frames.rs` holds the worker wire to
//! and `tests/prop_script.rs` the DSL front end: a frame is untrusted
//! bytes (the server decodes what any client sends, `dmac-cli` what any
//! server answers), so every input yields a value or a typed error —
//! never a panic, never an allocation sized by a length the input only
//! claims. A request that decodes re-encodes to itself, and a decoded
//! `matrix` reply holds exactly `rows × cols` cells, which is what
//! `dmac-cli fetch` indexes. An input that ever broke the contract goes
//! into [`REGRESSIONS`] with its fix.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::ErrorKind;
use std::panic;

use dmac::cluster::jsonin::MAX_DEPTH;
use dmac::matrix::SplitMix64;
use dmac::serve::protocol::{
    encode_error, encode_explain, encode_lint, encode_matrix, encode_ok, encode_result, read_frame,
    write_frame, Request, Response, MAX_FRAME,
};

/// The system allocator, recording per thread the largest single
/// allocation — what "no allocation by a claimed length" is checked by.
struct Largest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// `GlobalAlloc`'s contract; the bookkeeping is a const-initialised
// thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.with(|l| l.set(l.get().max(layout.size())));
        // SAFETY: the caller's layout contract is passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.with(|l| l.set(l.get().max(new_size)));
        // SAFETY: as for `alloc` and `dealloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Largest = Largest;

/// The largest allocation `f` made on this thread.
fn largest_allocation(f: impl FnOnce()) -> usize {
    LARGEST.with(|l| l.set(0));
    f();
    LARGEST.with(Cell::get)
}

/// Inputs that broke the contract before the decoder bounded them:
/// - a `matrix` reply with fewer cells than `rows × cols` decoded, and
///   `dmac-cli fetch` panicked indexing `bits[r * cols + c]`; the
///   second overflows the product;
/// - brackets nested a few thousand deep overflowed the stack of the
///   recursive JSON parser (a server thread, or the test's) — now
///   `jsonin::MAX_DEPTH` ([`DEEP`], in `regressions_stay_fixed`);
/// - a length prefix up to `MAX_FRAME` was allocated whole before a byte
///   of the payload arrived (`oversize_length_prefixes`).
const REGRESSIONS: &[&str] = &[
    r#"{"type":"matrix","name":"M","rows":2,"cols":2,"bits":["3ff0000000000000"]}"#,
    r#"{"type":"matrix","name":"M","rows":9007199254740992,"cols":9007199254740992,"bits":[]}"#,
];

/// How deep the bracket regressions nest: far past any stack.
const DEEP: usize = 100_000;

/// Every request kind, and every response kind the server encodes.
fn corpus() -> Vec<String> {
    let script = "A = random(A, 4, 4)\nB = A %*% A.t * 0.5\noutput(B)\n";
    let requests = [
        Request::Submit {
            session: "s1".into(),
            script: script.into(),
            deadline_ms: Some(250),
        },
        Request::Explain {
            session: "s\"2".into(),
            script: script.into(),
        },
        Request::Lint {
            script: script.into(),
        },
        Request::FetchMatrix { name: "H".into() },
        Request::Stats,
        Request::Shutdown,
    ];
    let diag = r#"{"severity":"warning","code":"W101","line":2,"start":23,"end":24,"message":"dead store"}"#;
    let bits = [1.0f64, -0.0, 0.1 + 0.2, f64::MAX, 2.5, 3.0].map(f64::to_bits);
    let mut docs: Vec<String> = requests.iter().map(Request::to_json).collect();
    docs.extend([
        encode_result(
            7,
            true,
            &["H".into()],
            0xdead_beef,
            1.5,
            4096,
            r#"{"x":[1,2]}"#,
        ),
        encode_explain("plan text", &[diag.to_string()]),
        encode_lint(false, &[diag.to_string()]),
        encode_matrix("M", 2, 3, &bits),
        encode_ok(),
        encode_error("busy", "queue full (8 queued)"),
        r#"{"type":"stats","active":0,"plan_cache":{"entries":1,"hit_rate":0.5}}"#.into(),
    ]);
    docs
}

/// The contract, for one payload: whatever decodes is well-formed.
fn holds(payload: &str) {
    if let Ok(r) = Request::from_json(payload) {
        assert_eq!(Request::from_json(&r.to_json()).as_ref(), Ok(&r));
    }
    if let Ok(Response::Matrix {
        rows, cols, bits, ..
    }) = Response::from_json(payload)
    {
        assert_eq!(rows.checked_mul(cols), Some(bits.len()));
    }
}

/// `holds` for every payload, reporting the first that panics by name.
fn sweep(payloads: impl IntoIterator<Item = String>) -> usize {
    let mut n = 0;
    for p in payloads {
        n += 1;
        if panic::catch_unwind(|| holds(&p)).is_err() {
            panic!("the serve decoder broke the contract on {p:?}");
        }
    }
    n
}

/// Frames read off `bytes` until the stream ends: each payload is held to
/// the contract, and the end is clean or a typed error.
fn read_all(bytes: &[u8]) -> (usize, Option<ErrorKind>) {
    let mut r = bytes;
    let mut n = 0;
    loop {
        match read_frame(&mut r) {
            Ok(Some(p)) => n += sweep([p]),
            Ok(None) => return (n, None),
            Err(e) => return (n, Some(e.kind())),
        }
    }
}

#[test]
fn regressions_stay_fixed() {
    sweep(REGRESSIONS.iter().map(|s| s.to_string()));
    for doc in REGRESSIONS {
        assert!(Response::from_json(doc).is_err(), "{doc}");
    }
    for open in ["[", "{\"a\":", "{\"type\":"] {
        let deep = open.repeat(DEEP);
        assert!(Request::from_json(&deep).is_err());
        assert!(Response::from_json(&deep).is_err());
    }
    // Nesting up to the bound still decodes (a result's report is any JSON).
    let report = format!(
        "{}1{}",
        "[".repeat(MAX_DEPTH - 1),
        "]".repeat(MAX_DEPTH - 1)
    );
    let within = encode_result(1, false, &[], 0, 0.0, 0, &report);
    assert!(Response::from_json(&within).is_ok());
    let past = encode_result(1, false, &[], 0, 0.0, 0, &format!("[{report}]"));
    assert!(Response::from_json(&past).is_err());
}

#[test]
fn the_corpus_decodes() {
    let docs = corpus();
    for doc in &docs[..6] {
        assert!(Request::from_json(doc).is_ok(), "{doc}");
    }
    for doc in &docs[6..] {
        assert!(Response::from_json(doc).is_ok(), "{doc}");
    }
    assert_eq!(sweep(docs), 13);
}

/// The corpus framed back to back, cut at every byte offset: the frames
/// before the cut decode, and the stream ends cleanly at a boundary or
/// with a typed `UnexpectedEof`.
#[test]
fn truncation_at_every_offset() {
    let mut stream = Vec::new();
    for doc in corpus() {
        write_frame(&mut stream, &doc).unwrap();
    }
    assert_eq!(read_all(&stream), (13, None));
    for cut in 0..stream.len() {
        let (_, end) = read_all(&stream[..cut]);
        assert!(
            matches!(end, None | Some(ErrorKind::UnexpectedEof)),
            "cut {cut}: {end:?}"
        );
    }
    // And each payload alone, cut at every char boundary.
    for doc in corpus() {
        let cuts = doc.char_indices().map(|(i, _)| i);
        sweep(cuts.map(|i| doc[..i].to_string()));
    }
}

/// One byte of a framed payload set at random or one bit flipped, the
/// length prefix included.
#[test]
fn byte_flips() {
    let mut rng = SplitMix64::new(0x5E7E_0001);
    for doc in corpus() {
        let mut framed = Vec::new();
        write_frame(&mut framed, &doc).unwrap();
        for _ in 0..1500 {
            let mut bytes = framed.clone();
            let at = rng.below(bytes.len());
            if rng.chance(0.5) {
                bytes[at] ^= 1 << rng.below(8);
            } else {
                bytes[at] = rng.next_u64() as u8;
            }
            read_all(&bytes);
            sweep([String::from_utf8_lossy(&bytes[4..]).into_owned()]);
        }
    }
}

/// A JSON document's tokens: strings, runs of number or word characters,
/// single punctuation, whitespace runs.
fn tokens(doc: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut rest = doc;
    while let Some(c) = rest.chars().next() {
        let len = if c == '"' {
            let mut escaped = false;
            let end = rest[1..].char_indices().find(|&(_, ch)| {
                let close = ch == '"' && !escaped;
                escaped = ch == '\\' && !escaped;
                close
            });
            end.map_or(rest.len(), |(i, _)| i + 2)
        } else if c.is_alphanumeric() || "-+.".contains(c) {
            let end = rest.find(|ch: char| !(ch.is_alphanumeric() || "-+.".contains(ch)));
            end.unwrap_or(rest.len())
        } else {
            c.len_utf8()
        };
        out.push(&rest[..len]);
        rest = &rest[len..];
    }
    out
}

/// Tokens of the whole corpus inserted, deleted, duplicated and swapped:
/// documents that lex, mostly, and then go wrong in their shape — a
/// `rows` that is a string, a `bits` array one cell short, a `type` that
/// names another kind.
#[test]
fn token_splices() {
    let docs = corpus();
    let pool: Vec<&str> = docs.iter().flat_map(|d| tokens(d)).collect();
    let mut rng = SplitMix64::new(0x5E7E_0002);
    for doc in &docs {
        let base = tokens(doc);
        assert_eq!(base.concat(), *doc, "tokens tile the document");
        let inputs = (0..1500).map(|_| {
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

/// A length prefix the stream does not back: past `MAX_FRAME` it is a
/// typed `InvalidData`, up to it a typed `UnexpectedEof` — and either way
/// the reader allocates by what arrived, not by what the prefix claims.
#[test]
fn oversize_length_prefixes() {
    let mut rng = SplitMix64::new(0x5E7E_0003);
    for claimed in [MAX_FRAME, MAX_FRAME - 1, MAX_FRAME + 1, u32::MAX, 1 << 20] {
        let mut bytes = claimed.to_be_bytes().to_vec();
        bytes.extend((0..rng.below(256)).map(|_| b'{'));
        let mut end = None;
        let largest = largest_allocation(|| end = read_all(&bytes).1);
        let want = if claimed > MAX_FRAME {
            ErrorKind::InvalidData
        } else {
            ErrorKind::UnexpectedEof
        };
        assert_eq!(end, Some(want), "claimed {claimed}");
        assert!(
            largest <= 128 << 10,
            "claimed {claimed}: allocated {largest}"
        );
    }
}
