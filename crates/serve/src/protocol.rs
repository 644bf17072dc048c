//! Wire protocol: length-prefixed JSON frames over TCP.
//!
//! Every frame is a big-endian `u32` byte length followed by that many
//! bytes of UTF-8 JSON. Requests and responses are single JSON objects
//! whose kind travels under the key declared below. The protocol is
//! strictly request/response per frame; responses to `submit` carry the
//! server-assigned `request_id`, so pipelined clients can match
//! out-of-order completions (the bundled [`crate::client::Client`] is
//! synchronous and never pipelines).
//!
//! The protocol is spelled once: [`Request`], [`Response`] and the
//! objects they carry are declared below, each field under its key in
//! wire order, and both directions are derived from that declaration by
//! the machinery the worker wire is declared with
//! ([`dmac_cluster::codec`]). Neither side builds or reads a key by hand.
//!
//! Matrix payloads (`fetch` responses) ship each cell as the hex
//! `u64` bit pattern of its `f64` value, so a fetched matrix is
//! bit-identical to the server's copy — JSON numbers would be exact
//! too with shortest-round-trip formatting, but hex makes the
//! intent unmissable and parsing trivial.

use dmac_analyze::Diagnostic;
use dmac_cluster::codec::{Field, Hex, In, Message, Out, Value};
use dmac_cluster::json::number;
use dmac_cluster::jsonin::Json;

// The frame codec moved to `dmac_cluster::transport::frame` so the
// coordinator ↔ dmac-workerd transport can share it; re-exported here
// so existing call sites (and external users of this module) see the
// same items at the same paths.
pub use dmac_cluster::transport::frame::{read_frame, write_frame, MAX_FRAME};

dmac_cluster::messages! {
    "type";

    "request"
    /// A client → server request.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Request {
        /// Parse, plan (through the plan cache) and execute a script.
        Submit = "submit" {
            /// Session the program runs in (sessions share the matrix
            /// store but keep their own cluster state and last-run values).
            session: String,
            /// DMac script text.
            script: String,
            /// Optional wall-clock deadline: a request still queued when it
            /// expires is rejected without executing.
            deadline_ms: Option<u64>,
        },
        /// Plan a script and return the EXPLAIN text without executing.
        Explain = "explain" {
            /// Session whose cached placements inform the plan.
            session: String,
            /// DMac script text.
            script: String,
        },
        /// Run the static analyzer over a script without planning or
        /// executing it; returns every diagnostic.
        Lint = "lint" {
            /// DMac script text.
            script: String,
        },
        /// Fetch a matrix from the shared store, bit-exact.
        FetchMatrix = "fetch" {
            /// Store name.
            name: String,
        },
        /// Server counters: plan cache, store, admission, recent requests.
        Stats = "stats",
        /// Stop accepting work, drain in-flight requests, exit.
        Shutdown = "shutdown",
    }

    "response"
    /// A server → client response.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Response {
        /// A `submit` completed: the result's fields beside the kind.
        Result = "result" (ProgramResult),
        /// EXPLAIN text.
        Explain = "explain" {
            /// Rendered plan + stage schedule.
            text: String,
            /// Analyzer warnings/infos for the script (errors would have
            /// rejected the request instead).
            diagnostics: Vec<WireDiagnostic> | OrEmpty,
        },
        /// Lint results.
        Lint = "lint" {
            /// True when no error-severity diagnostics were found.
            ok: bool,
            /// Every diagnostic, errors first.
            diagnostics: Vec<WireDiagnostic> | OrEmpty,
        },
        /// A fetched matrix.
        Matrix = "matrix" {
            /// Store name.
            name: String,
            /// Row count.
            rows: usize,
            /// Column count.
            cols: usize,
            /// Row-major cell values as `f64` bit patterns.
            bits: Vec<u64> | Hex,
        },
        /// Stats document (schema described in DESIGN.md §8e): its
        /// members beside the kind.
        Stats = "stats" (Json),
        /// Acknowledgement with no payload (shutdown).
        Ok = "ok",
        /// Request failed.
        Error = "error" {
            /// One of the [`code`] constants.
            code: String,
            /// Human-readable detail.
            message: String,
        },
    }
}

dmac_cluster::objects! {
    /// Payload of a successful `submit`.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ProgramResult {
        /// Server-assigned admission sequence number.
        request_id: u64,
        /// True when the plan came from the plan cache.
        plan_cached: bool,
        /// Store names this program wrote.
        stored: Vec<String>,
        /// FNV-1a of the run's golden trace summary — equal runs produce
        /// equal digests, so clients can assert replay determinism without
        /// shipping the whole trace.
        golden_fnv: u64 | Hex,
        /// Simulated seconds (deterministic, unlike wall time).
        sim_sec: f64 | Num,
        /// The plan's certified peak resident bytes (the memory
        /// certificate's admission bound). `None` when talking to a server
        /// that predates the field.
        certified_peak: Option<u64>,
        /// Full [`dmac_core::engine::ExecReport::to_json`] document.
        report: Json,
    }

    /// A diagnostic as it travels: an analyzer [`Diagnostic`], its span
    /// as a line and byte offsets. `dmac-cli lint --json` prints these,
    /// local or remote.
    #[derive(Debug, Clone, PartialEq)]
    pub struct WireDiagnostic {
        /// `"error"`, `"warning"` or `"info"`.
        severity: String,
        /// Stable diagnostic code (`E001` …).
        code: String,
        /// 1-based source line, when the diagnostic has a span.
        line: Option<u64>,
        /// Byte span start, when present.
        start: Option<u64>,
        /// Byte span end, when present.
        end: Option<u64>,
        /// Human-readable message.
        message: String,
    }
}

impl Request {
    /// Encode for the wire.
    pub fn to_json(&self) -> String {
        encode(self)
    }

    /// Decode from a frame payload.
    pub fn from_json(payload: &str) -> Result<Request, String> {
        decode(payload)
    }
}

impl Response {
    /// Encode for the wire.
    pub fn to_json(&self) -> String {
        encode(self)
    }

    /// Decode from a frame payload. A `matrix` reply holds exactly
    /// `rows × cols` cells: readers index `bits[r * cols + c]`.
    pub fn from_json(payload: &str) -> Result<Response, String> {
        let r = decode(payload)?;
        if let Response::Matrix {
            rows, cols, bits, ..
        } = &r
        {
            if rows.checked_mul(*cols) != Some(bits.len()) {
                let n = bits.len();
                return Err(format!("matrix reply holds {n} cells, not {rows} x {cols}"));
            }
        }
        Ok(r)
    }
}

/// A message as one JSON object.
fn encode(m: &impl Message) -> String {
    let mut out = Out::new(String::with_capacity(128));
    m.put(&mut out);
    out.close()
}

/// A JSON object as a message.
fn decode<M: Message>(payload: &str) -> Result<M, String> {
    let head = Json::parse(payload).map_err(|e| e.to_string())?;
    M::read(&mut In::new(&head))
}

/// The codec of an `f64` that travels as a JSON number ([`number`]):
/// shortest round-trip formatting reads back bit-identical.
struct Num;

impl Field<f64> for Num {
    fn put(v: &f64, key: &str, out: &mut Out) {
        out.key(key).push_str(&number(*v));
    }

    fn get(key: &str, msg: &mut In) -> Result<f64, String> {
        msg.read(key, |j| j.as_f64().ok_or_else(|| "is not a number".into()))
    }
}

/// The codec of a list that reads as empty when absent: a server that
/// predates the field sends none.
struct OrEmpty;

impl<T: Value> Field<Vec<T>> for OrEmpty {
    fn put(v: &Vec<T>, key: &str, out: &mut Out) {
        Vec::put(v, key, out);
    }

    fn get(key: &str, msg: &mut In) -> Result<Vec<T>, String> {
        Option::get(key, msg).map(Option::unwrap_or_default)
    }
}

/// Encode a successful `submit` response from its parts, as the server
/// frames one. The server builds a [`Response::Result`]; this is kept for
/// the benchmark package (`perf/`), which measures decoding such a frame.
/// A `report_json` that is not JSON travels as `null`.
pub fn encode_result(
    request_id: u64,
    plan_cached: bool,
    stored: &[String],
    golden_fnv: u64,
    sim_sec: f64,
    certified_peak: u64,
    report_json: &str,
) -> String {
    let report = Json::parse(report_json).unwrap_or(Json::Null);
    let (stored, certified_peak) = (stored.to_vec(), Some(certified_peak));
    Response::Result(ProgramResult {
        request_id,
        plan_cached,
        stored,
        golden_fnv,
        sim_sec,
        certified_peak,
        report,
    })
    .to_json()
}

/// Machine-readable error categories carried in error responses.
pub mod code {
    /// Script failed to parse.
    pub const PARSE: &str = "parse";
    /// Submission queue is full — retry later.
    pub const BUSY: &str = "busy";
    /// Another in-flight program is storing the same matrix name.
    pub const CONFLICT: &str = "conflict";
    /// Request deadline expired while queued.
    pub const DEADLINE: &str = "deadline";
    /// Server is draining; no new work accepted.
    pub const SHUTTING_DOWN: &str = "shutting_down";
    /// Planning or execution failed (includes fault-injection losses
    /// that exhaust the recovery budget).
    pub const EXEC: &str = "exec";
    /// Named matrix is not in the store.
    pub const UNBOUND: &str = "unbound";
    /// Malformed frame or request object.
    pub const PROTO: &str = "proto";
    /// Script was rejected at admission by the static analyzer
    /// (error-severity diagnostics beyond plain parse failures).
    pub const LINT: &str = "lint";
    /// The plan's certified peak resident bytes exceed the shared
    /// store's byte budget — the program was rejected before execution
    /// instead of over-committing the store mid-run.
    pub const MEMORY: &str = "memory";
}

/// Exit verdict for `dmac-cli lint`, shared by the rendered and
/// `--json` output paths (and by local vs. remote linting): derived
/// from the severities of the diagnostics actually emitted, so the
/// process exit code can never disagree with the printed output.
/// Returns `true` when no diagnostic has error severity.
pub fn lint_exit_ok<'a, I: IntoIterator<Item = &'a str>>(severities: I) -> bool {
    severities.into_iter().all(|s| s != "error")
}

impl From<&Diagnostic> for WireDiagnostic {
    fn from(d: &Diagnostic) -> WireDiagnostic {
        let at = |f: fn(&dmac_lang::Span) -> usize| d.span.as_ref().map(|s| f(s) as u64);
        WireDiagnostic {
            severity: d.severity.name().into(),
            code: d.code.into(),
            line: at(|s| s.line),
            start: at(|s| s.start),
            end: at(|s| s.end),
            message: d.message.clone(),
        }
    }
}

impl WireDiagnostic {
    /// One-line human rendering, matching the analyzer's `headline`.
    pub fn headline(&self) -> String {
        match self.line {
            Some(l) => format!(
                "{}[{}]: {} (line {l})",
                self.severity, self.code, self.message
            ),
            None => format!("{}[{}]: {}", self.severity, self.code, self.message),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCRIPT: &str = "A = random(A, 4, 4)\noutput(A)\n";

    fn matrix(rows: usize, cols: usize, bits: &[u64]) -> String {
        let (name, bits) = ("M".to_string(), bits.to_vec());
        Response::Matrix {
            name,
            rows,
            cols,
            bits,
        }
        .to_json()
    }

    fn diag(
        severity: &str,
        code: &str,
        at: Option<(u64, u64, u64)>,
        message: &str,
    ) -> WireDiagnostic {
        let (severity, code, message) = (severity.into(), code.into(), message.into());
        WireDiagnostic {
            severity,
            code,
            line: at.map(|a| a.0),
            start: at.map(|a| a.1),
            end: at.map(|a| a.2),
            message,
        }
    }

    /// Every request kind, every response kind but `stats`, and a `result`
    /// whose report is `{}` encode to the bytes the hand-written encoders
    /// made before the protocol was declared — same keys, same order,
    /// same escapes — and decode back to themselves.
    #[test]
    fn every_serve_message_keeps_its_bytes() {
        let submit = |deadline_ms| Request::Submit {
            session: "s1".into(),
            script: SCRIPT.into(),
            deadline_ms,
        };
        let requests = [
            (
                submit(Some(250)),
                r#"{"type":"submit","session":"s1","script":"A = random(A, 4, 4)\noutput(A)\n","deadline_ms":250}"#,
            ),
            (
                submit(None),
                r#"{"type":"submit","session":"s1","script":"A = random(A, 4, 4)\noutput(A)\n"}"#,
            ),
            (
                Request::Explain {
                    session: "s\"2".into(),
                    script: SCRIPT.into(),
                },
                r#"{"type":"explain","session":"s\"2","script":"A = random(A, 4, 4)\noutput(A)\n"}"#,
            ),
            (
                Request::Lint {
                    script: SCRIPT.into(),
                },
                r#"{"type":"lint","script":"A = random(A, 4, 4)\noutput(A)\n"}"#,
            ),
            (
                Request::FetchMatrix { name: "H".into() },
                r#"{"type":"fetch","name":"H"}"#,
            ),
            (Request::Stats, r#"{"type":"stats"}"#),
            (Request::Shutdown, r#"{"type":"shutdown"}"#),
        ];
        for (r, bytes) in &requests {
            assert_eq!(r.to_json(), *bytes, "{r:?}");
            assert_eq!(Request::from_json(bytes).as_ref(), Ok(r));
        }

        let diags = vec![
            diag("error", "E004", None, "no outputs"),
            diag("warning", "W101", Some((2, 23, 24)), "dead \"store\""),
        ];
        let bits = [1.0f64, -0.0, 0.1 + 0.2, f64::MAX]
            .map(f64::to_bits)
            .to_vec();
        let result = |request_id, plan_cached, stored: &[&str], golden_fnv, sim_sec, peak| {
            Response::Result(ProgramResult {
                request_id,
                plan_cached,
                stored: stored.iter().map(|s| s.to_string()).collect(),
                golden_fnv,
                sim_sec,
                certified_peak: Some(peak),
                report: Json::parse("{}").unwrap(),
            })
        };
        let responses = [
            (
                Response::Explain {
                    text: "plan\ttext".into(),
                    diagnostics: diags.clone(),
                },
                r#"{"type":"explain","text":"plan\ttext","diagnostics":[{"severity":"error","code":"E004","message":"no outputs"},{"severity":"warning","code":"W101","line":2,"start":23,"end":24,"message":"dead \"store\""}]}"#,
            ),
            (
                Response::Explain {
                    text: "t".into(),
                    diagnostics: vec![],
                },
                r#"{"type":"explain","text":"t","diagnostics":[]}"#,
            ),
            (
                Response::Lint {
                    ok: false,
                    diagnostics: diags,
                },
                r#"{"type":"lint","ok":false,"diagnostics":[{"severity":"error","code":"E004","message":"no outputs"},{"severity":"warning","code":"W101","line":2,"start":23,"end":24,"message":"dead \"store\""}]}"#,
            ),
            (
                Response::Lint {
                    ok: true,
                    diagnostics: vec![],
                },
                r#"{"type":"lint","ok":true,"diagnostics":[]}"#,
            ),
            (
                Response::Matrix {
                    name: "M".into(),
                    rows: 2,
                    cols: 2,
                    bits,
                },
                r#"{"type":"matrix","name":"M","rows":2,"cols":2,"bits":["3ff0000000000000","8000000000000000","3fd3333333333334","7fefffffffffffff"]}"#,
            ),
            (Response::Ok, r#"{"type":"ok"}"#),
            (
                Response::Error {
                    code: code::BUSY.into(),
                    message: "queue full (8 queued)".into(),
                },
                r#"{"type":"error","code":"busy","message":"queue full (8 queued)"}"#,
            ),
            (
                result(7, true, &["H", "W"], 0xdead_beef, 1.5, 4096),
                r#"{"type":"result","request_id":7,"plan_cached":true,"stored":["H","W"],"golden_fnv":"00000000deadbeef","sim_sec":1.5,"certified_peak":4096,"report":{}}"#,
            ),
            (
                result(1, false, &[], 0, 2.0, 0),
                r#"{"type":"result","request_id":1,"plan_cached":false,"stored":[],"golden_fnv":"0000000000000000","sim_sec":2.0,"certified_peak":0,"report":{}}"#,
            ),
        ];
        for (r, bytes) in &responses {
            assert_eq!(r.to_json(), *bytes, "{r:?}");
            assert_eq!(Response::from_json(bytes).as_ref(), Ok(r));
        }
        assert_eq!(
            encode_result(
                7,
                true,
                &["H".into(), "W".into()],
                0xdead_beef,
                1.5,
                4096,
                "{}"
            ),
            responses[7].1
        );
    }

    /// The stats document is the response's top-level object: its
    /// members beside the kind, in key order, and it decodes back to the
    /// same document.
    #[test]
    fn stats_members_travel_beside_the_kind() {
        let doc = Json::parse(r#"{"queue_depth":0,"counters":{"submitted":3},"names":["a\"b"],"uptime_sec":0.25,"last_report":null}"#).unwrap();
        let enc = Response::Stats(doc.clone()).to_json();
        assert_eq!(
            enc,
            r#"{"type":"stats","counters":{"submitted":3},"last_report":null,"names":["a\"b"],"queue_depth":0,"uptime_sec":0.25}"#
        );
        assert_eq!(Response::from_json(&enc), Ok(Response::Stats(doc)));
    }

    #[test]
    fn a_malformed_deadline_is_a_decode_error() {
        let submit = |d: &str| {
            let deadline = if d.is_empty() {
                String::new()
            } else {
                format!(",\"deadline_ms\":{d}")
            };
            Request::from_json(&format!(
                "{{\"type\":\"submit\",\"session\":\"s\",\"script\":\"x\"{deadline}}}"
            ))
        };
        for bad in ["-1", "1.5", "\"250\"", "true", "null", "[250]", "1e300"] {
            let err = submit(bad).expect_err(bad);
            assert!(err.contains("'deadline_ms'"), "{bad}: {err}");
        }
        let deadline = |r: Request| match r {
            Request::Submit { deadline_ms, .. } => deadline_ms,
            other => panic!("{other:?}"),
        };
        assert_eq!(deadline(submit("").unwrap()), None);
        assert_eq!(deadline(submit("0").unwrap()), Some(0));
        assert_eq!(deadline(submit("250").unwrap()), Some(250));
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "{\"type\":\"stats\"}").unwrap();
        write_frame(&mut buf, "second").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "{\"type\":\"stats\"}");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), "second");
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME + 1).to_be_bytes());
        assert!(read_frame(&mut &buf[..]).is_err());
    }

    #[test]
    fn result_response_round_trips_bits_exactly() {
        let enc = encode_result(7, true, &["H".into()], 0xdead_beef, 1.5, 4096, "{\"x\":1}");
        match Response::from_json(&enc).unwrap() {
            Response::Result(r) => {
                assert_eq!(r.request_id, 7);
                assert!(r.plan_cached);
                assert_eq!(r.stored, vec!["H".to_string()]);
                assert_eq!(r.golden_fnv, 0xdead_beef);
                assert_eq!(r.sim_sec, 1.5);
                assert_eq!(r.certified_peak, Some(4096));
            }
            other => panic!("wrong response: {other:?}"),
        }
        // Results from servers that predate the certificate field still
        // decode, with the peak absent.
        let legacy = "{\"type\":\"result\",\"request_id\":1,\"plan_cached\":false,\"stored\":[],\
                      \"golden_fnv\":\"00000000000000aa\",\"sim_sec\":0.5,\"report\":{}}";
        match Response::from_json(legacy).unwrap() {
            Response::Result(r) => assert_eq!(r.certified_peak, None),
            other => panic!("wrong response: {other:?}"),
        }

        let vals = [1.0f64, -0.0, 0.1 + 0.2, f64::MAX];
        let bits: Vec<u64> = vals.iter().map(|v| v.to_bits()).collect();
        match Response::from_json(&matrix(2, 2, &bits)).unwrap() {
            Response::Matrix {
                bits: got, rows, ..
            } => {
                assert_eq!(got, bits);
                assert_eq!(rows, 2);
            }
            other => panic!("wrong response: {other:?}"),
        }
    }

    /// A `matrix` reply is untrusted bytes that `dmac-cli fetch` indexes
    /// as `bits[r * cols + c]`: a cell count other than `rows × cols` —
    /// including a product past `usize` — is a decode error, not a panic
    /// later.
    #[test]
    fn a_matrix_reply_holds_exactly_its_cells() {
        let bits = [1.0f64, 2.0, 3.0].map(f64::to_bits);
        assert!(Response::from_json(&matrix(3, 1, &bits)).is_ok());
        for (rows, cols) in [(2, 2), (1, 2), (4, 0), (0, 3)] {
            let err = Response::from_json(&matrix(rows, cols, &bits)).unwrap_err();
            assert!(err.contains("3 cells"), "{rows} x {cols}: {err}");
        }
        let past = 1u64 << 53;
        let huge = matrix(0, 0, &bits)
            .replace("\"rows\":0", &format!("\"rows\":{past}"))
            .replace("\"cols\":0", &format!("\"cols\":{past}"));
        assert!(Response::from_json(&huge).is_err());
    }

    #[test]
    fn lint_and_explain_responses_round_trip_diagnostics() {
        let d1 = diag("warning", "W101", Some((2, 23, 24)), "dead store");
        let d2 = diag("error", "E004", None, "no outputs");
        let lint = Response::Lint {
            ok: false,
            diagnostics: vec![d2, d1.clone()],
        };
        match Response::from_json(&lint.to_json()).unwrap() {
            Response::Lint { ok, diagnostics } => {
                assert!(!ok);
                assert_eq!(diagnostics.len(), 2);
                assert_eq!(diagnostics[0].severity, "error");
                assert_eq!(diagnostics[0].code, "E004");
                assert_eq!(diagnostics[0].line, None);
                assert_eq!(diagnostics[1].code, "W101");
                assert_eq!(diagnostics[1].line, Some(2));
                assert_eq!(diagnostics[1].start, Some(23));
                assert!(diagnostics[1].headline().contains("(line 2)"));
            }
            other => panic!("wrong response: {other:?}"),
        }
        let explain = Response::Explain {
            text: "plan text".into(),
            diagnostics: vec![d1],
        };
        match Response::from_json(&explain.to_json()).unwrap() {
            Response::Explain { text, diagnostics } => {
                assert_eq!(text, "plan text");
                assert_eq!(diagnostics.len(), 1);
                assert_eq!(diagnostics[0].message, "dead store");
            }
            other => panic!("wrong response: {other:?}"),
        }
        // Old servers omit the diagnostics field entirely; decode must
        // tolerate that.
        match Response::from_json("{\"type\":\"explain\",\"text\":\"t\"}").unwrap() {
            Response::Explain { diagnostics, .. } => assert!(diagnostics.is_empty()),
            other => panic!("wrong response: {other:?}"),
        }
    }

    /// A stored name that is not a string is a decode error: dropping it
    /// would report fewer names than the server wrote.
    #[test]
    fn a_stored_name_that_is_not_a_string_does_not_decode() {
        let enc = encode_result(1, false, &["H".into(), "W".into()], 0, 0.5, 0, "{}");
        let err = Response::from_json(&enc.replace(r#""W""#, "7")).unwrap_err();
        assert_eq!(err, "field 'stored' item 1 is not a string");
    }

    /// A diagnostic without its severity, code or message is a decode
    /// error, not an empty string.
    #[test]
    fn a_diagnostic_missing_a_field_does_not_decode() {
        let lint = Response::Lint {
            ok: true,
            diagnostics: vec![diag("warning", "W101", None, "dead store")],
        };
        let enc = lint.to_json();
        for field in [
            r#""severity":"warning","#,
            r#""code":"W101","#,
            r#","message":"dead store""#,
        ] {
            let err = Response::from_json(&enc.replace(field, "")).unwrap_err();
            assert!(
                err.starts_with("field 'diagnostics' item 0 field '"),
                "{field}: {err}"
            );
            assert!(err.ends_with("' is missing"), "{field}: {err}");
        }
    }

    /// An `error` reply without its code is a decode error, not a reply
    /// of code "unknown".
    #[test]
    fn an_error_reply_without_a_code_does_not_decode() {
        let err = Response::from_json(r#"{"type":"error","message":"queue full"}"#).unwrap_err();
        assert_eq!(err, "field 'code' is missing");
    }

    /// An analyzer diagnostic travels as its severity's name, its code,
    /// its span's line and offsets when it has one, and its message.
    #[test]
    fn an_analyzer_diagnostic_travels_whole() {
        use dmac_analyze::{code, Severity};
        let span = dmac_lang::Span {
            line: 2,
            start: 33,
            end: 34,
        };
        let d = Diagnostic::new(Severity::Error, code::USE_BEFORE_DEF, Some(span), "x \"C\"");
        let wire = WireDiagnostic::from(&d);
        assert_eq!(wire, diag("error", "E002", Some((2, 33, 34)), "x \"C\""));
        assert_eq!(wire.headline(), d.headline());
        let d = Diagnostic::new(Severity::Warning, code::DEAD_STORE, None, "y");
        let mut j = String::new();
        WireDiagnostic::from(&d).render(&mut j);
        assert_eq!(j, r#"{"severity":"warning","code":"W101","message":"y"}"#);
    }

    #[test]
    fn lint_exit_verdict_depends_only_on_severities() {
        assert!(lint_exit_ok([]));
        assert!(lint_exit_ok(["warning", "info"]));
        assert!(!lint_exit_ok(["warning", "error", "info"]));
    }

    #[test]
    fn error_response_round_trips() {
        let enc = Response::Error {
            code: code::BUSY.into(),
            message: "queue full (8 queued)".into(),
        }
        .to_json();
        match Response::from_json(&enc).unwrap() {
            Response::Error { code: c, message } => {
                assert_eq!(c, code::BUSY);
                assert!(message.contains("queue full"));
            }
            other => panic!("wrong response: {other:?}"),
        }
    }
}
