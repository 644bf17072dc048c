//! Wire protocol: length-prefixed JSON frames over TCP.
//!
//! Every frame is a big-endian `u32` byte length followed by that many
//! bytes of UTF-8 JSON. Requests and responses are single JSON objects
//! with a `"type"` discriminator. The protocol is strictly
//! request/response per frame; responses to `submit` carry the
//! server-assigned `request_id`, so pipelined clients can match
//! out-of-order completions (the bundled [`crate::client::Client`] is
//! synchronous and never pipelines).
//!
//! Matrix payloads (`fetch` responses) ship each cell as the hex
//! `u64` bit pattern of its `f64` value, so a fetched matrix is
//! bit-identical to the server's copy — JSON numbers would be exact
//! too with shortest-round-trip formatting, but hex makes the
//! intent unmissable and parsing trivial.

use dmac_cluster::jsonin::Json;
use dmac_core::json::{arr_of, JsonArr, JsonObj};

// The frame codec moved to `dmac_cluster::transport::frame` so the
// coordinator ↔ dmac-workerd transport can share it; re-exported here
// so existing call sites (and external users of this module) see the
// same items at the same paths.
pub use dmac_cluster::transport::frame::{read_frame, write_frame, MAX_FRAME};

/// A client → server request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Parse, plan (through the plan cache) and execute a script.
    Submit {
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
    Explain {
        /// Session whose cached placements inform the plan.
        session: String,
        /// DMac script text.
        script: String,
    },
    /// Run the static analyzer over a script without planning or
    /// executing it; returns every diagnostic.
    Lint {
        /// DMac script text.
        script: String,
    },
    /// Fetch a matrix from the shared store, bit-exact.
    FetchMatrix {
        /// Store name.
        name: String,
    },
    /// Server counters: plan cache, store, admission, recent requests.
    Stats,
    /// Stop accepting work, drain in-flight requests, exit.
    Shutdown,
}

impl Request {
    /// Encode for the wire.
    pub fn to_json(&self) -> String {
        match self {
            Request::Submit {
                session,
                script,
                deadline_ms,
            } => {
                let mut o = JsonObj::new()
                    .str("type", "submit")
                    .str("session", session)
                    .str("script", script);
                if let Some(ms) = deadline_ms {
                    o = o.u64("deadline_ms", *ms);
                }
                o.build()
            }
            Request::Explain { session, script } => JsonObj::new()
                .str("type", "explain")
                .str("session", session)
                .str("script", script)
                .build(),
            Request::Lint { script } => JsonObj::new()
                .str("type", "lint")
                .str("script", script)
                .build(),
            Request::FetchMatrix { name } => JsonObj::new()
                .str("type", "fetch")
                .str("name", name)
                .build(),
            Request::Stats => JsonObj::new().str("type", "stats").build(),
            Request::Shutdown => JsonObj::new().str("type", "shutdown").build(),
        }
    }

    /// Decode from a frame payload.
    pub fn from_json(payload: &str) -> Result<Request, String> {
        let v = Json::parse(payload).map_err(|e| e.to_string())?;
        let ty = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or("missing 'type'")?;
        let str_field = |k: &str| -> Result<String, String> {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field '{k}'"))
        };
        match ty {
            "submit" => Ok(Request::Submit {
                session: str_field("session")?,
                script: str_field("script")?,
                // Absent means no deadline; anything else must be one.
                deadline_ms: match v.get("deadline_ms") {
                    None => None,
                    Some(d) => Some(d.as_u64().ok_or(
                        "field 'deadline_ms' is not a non-negative integer of milliseconds",
                    )?),
                },
            }),
            "explain" => Ok(Request::Explain {
                session: str_field("session")?,
                script: str_field("script")?,
            }),
            "lint" => Ok(Request::Lint {
                script: str_field("script")?,
            }),
            "fetch" => Ok(Request::FetchMatrix {
                name: str_field("name")?,
            }),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown request type '{other}'")),
        }
    }
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

/// A diagnostic as decoded from the wire (the JSON shape of
/// `dmac_analyze::Diagnostic::to_json`). The server encodes analyzer
/// diagnostics; clients get this schema-tolerant mirror.
#[derive(Debug, Clone, PartialEq)]
pub struct WireDiagnostic {
    /// `"error"`, `"warning"` or `"info"`.
    pub severity: String,
    /// Stable diagnostic code (`E001` …).
    pub code: String,
    /// 1-based source line, when the diagnostic has a span.
    pub line: Option<u64>,
    /// Byte span start, when present.
    pub start: Option<u64>,
    /// Byte span end, when present.
    pub end: Option<u64>,
    /// Human-readable message.
    pub message: String,
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

    fn from_json(v: &Json) -> WireDiagnostic {
        let s = |k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        };
        WireDiagnostic {
            severity: s("severity"),
            code: s("code"),
            line: v.get("line").and_then(Json::as_u64),
            start: v.get("start").and_then(Json::as_u64),
            end: v.get("end").and_then(Json::as_u64),
            message: s("message"),
        }
    }
}

/// Decode a `"diagnostics"` array field (absent → empty, so old servers
/// remain compatible with new clients).
fn decode_diagnostics(v: &Json) -> Vec<WireDiagnostic> {
    v.get("diagnostics")
        .and_then(Json::as_arr)
        .map(|a| a.iter().map(WireDiagnostic::from_json).collect())
        .unwrap_or_default()
}

/// A server → client response, as decoded by the client.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A `submit` completed.
    Result(ProgramResult),
    /// EXPLAIN text.
    Explain {
        /// Rendered plan + stage schedule.
        text: String,
        /// Analyzer warnings/infos for the script (errors would have
        /// rejected the request instead).
        diagnostics: Vec<WireDiagnostic>,
    },
    /// Lint results.
    Lint {
        /// True when no error-severity diagnostics were found.
        ok: bool,
        /// Every diagnostic, errors first.
        diagnostics: Vec<WireDiagnostic>,
    },
    /// A fetched matrix.
    Matrix {
        /// Store name.
        name: String,
        /// Row count.
        rows: usize,
        /// Column count.
        cols: usize,
        /// Row-major cell values as `f64` bit patterns.
        bits: Vec<u64>,
    },
    /// Stats document (schema described in DESIGN.md §8e).
    Stats(Json),
    /// Acknowledgement with no payload (shutdown).
    Ok,
    /// Request failed.
    Error {
        /// One of the [`code`] constants.
        code: String,
        /// Human-readable detail.
        message: String,
    },
}

/// Payload of a successful `submit`.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramResult {
    /// Server-assigned admission sequence number.
    pub request_id: u64,
    /// True when the plan came from the plan cache.
    pub plan_cached: bool,
    /// Store names this program wrote.
    pub stored: Vec<String>,
    /// FNV-1a of the run's golden trace summary — equal runs produce
    /// equal digests, so clients can assert replay determinism without
    /// shipping the whole trace.
    pub golden_fnv: u64,
    /// Simulated seconds (deterministic, unlike wall time).
    pub sim_sec: f64,
    /// The plan's certified peak resident bytes (the memory
    /// certificate's admission bound). `None` when talking to a server
    /// that predates the field.
    pub certified_peak: Option<u64>,
    /// Full [`dmac_core::engine::ExecReport::to_json`] document.
    pub report: Json,
}

impl Response {
    /// Decode from a frame payload.
    pub fn from_json(payload: &str) -> Result<Response, String> {
        let v = Json::parse(payload).map_err(|e| e.to_string())?;
        let ty = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or("missing 'type'")?;
        match ty {
            "result" => Ok(Response::Result(ProgramResult {
                request_id: v
                    .get("request_id")
                    .and_then(Json::as_u64)
                    .ok_or("missing request_id")?,
                plan_cached: v
                    .get("plan_cached")
                    .and_then(Json::as_bool)
                    .ok_or("missing plan_cached")?,
                stored: v
                    .get("stored")
                    .and_then(Json::as_arr)
                    .map(|a| {
                        a.iter()
                            .filter_map(|e| e.as_str().map(str::to_string))
                            .collect()
                    })
                    .unwrap_or_default(),
                golden_fnv: v
                    .get("golden_fnv")
                    .and_then(Json::as_str)
                    .and_then(|s| u64::from_str_radix(s, 16).ok())
                    .ok_or("missing golden_fnv")?,
                sim_sec: v
                    .get("sim_sec")
                    .and_then(Json::as_f64)
                    .ok_or("missing sim_sec")?,
                certified_peak: v.get("certified_peak").and_then(Json::as_u64),
                report: v.get("report").cloned().unwrap_or(Json::Null),
            })),
            "explain" => Ok(Response::Explain {
                text: v
                    .get("text")
                    .and_then(Json::as_str)
                    .ok_or("missing text")?
                    .to_string(),
                diagnostics: decode_diagnostics(&v),
            }),
            "lint" => Ok(Response::Lint {
                ok: v.get("ok").and_then(Json::as_bool).ok_or("missing ok")?,
                diagnostics: decode_diagnostics(&v),
            }),
            "matrix" => {
                let bits = v
                    .get("bits")
                    .and_then(Json::as_arr)
                    .ok_or("missing bits")?
                    .iter()
                    .map(|e| {
                        e.as_str()
                            .and_then(|s| u64::from_str_radix(s, 16).ok())
                            .ok_or("bad bits element")
                    })
                    .collect::<Result<Vec<u64>, _>>()?;
                let rows = v.get("rows").and_then(Json::as_u64).ok_or("missing rows")? as usize;
                let cols = v.get("cols").and_then(Json::as_u64).ok_or("missing cols")? as usize;
                // Readers index `bits[r * cols + c]`: one cell each, no more.
                if rows.checked_mul(cols) != Some(bits.len()) {
                    return Err(format!(
                        "matrix reply holds {} cells, not {rows} x {cols}",
                        bits.len()
                    ));
                }
                Ok(Response::Matrix {
                    name: v
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or("missing name")?
                        .to_string(),
                    rows,
                    cols,
                    bits,
                })
            }
            "stats" => Ok(Response::Stats(v)),
            "ok" => Ok(Response::Ok),
            "error" => Ok(Response::Error {
                code: v
                    .get("code")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_string(),
                message: v
                    .get("message")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
            }),
            other => Err(format!("unknown response type '{other}'")),
        }
    }
}

/// Encode a successful `submit` response (server side).
pub fn encode_result(
    request_id: u64,
    plan_cached: bool,
    stored: &[String],
    golden_fnv: u64,
    sim_sec: f64,
    certified_peak: u64,
    report_json: &str,
) -> String {
    let mut names = JsonArr::new();
    for s in stored {
        names = names.str(s);
    }
    JsonObj::new()
        .str("type", "result")
        .u64("request_id", request_id)
        .bool("plan_cached", plan_cached)
        .raw("stored", &names.build())
        .str("golden_fnv", &format!("{golden_fnv:016x}"))
        .f64("sim_sec", sim_sec)
        .u64("certified_peak", certified_peak)
        .raw("report", report_json)
        .build()
}

/// Encode an EXPLAIN response (server side). `diag_json` holds
/// pre-encoded diagnostic objects (`dmac_analyze::Diagnostic::to_json`).
pub fn encode_explain(text: &str, diag_json: &[String]) -> String {
    JsonObj::new()
        .str("type", "explain")
        .str("text", text)
        .raw("diagnostics", &arr_of(diag_json.iter().cloned()))
        .build()
}

/// Encode a lint response (server side). `diag_json` as in
/// [`encode_explain`].
pub fn encode_lint(ok: bool, diag_json: &[String]) -> String {
    JsonObj::new()
        .str("type", "lint")
        .bool("ok", ok)
        .raw("diagnostics", &arr_of(diag_json.iter().cloned()))
        .build()
}

/// Encode a matrix response (server side).
pub fn encode_matrix(name: &str, rows: usize, cols: usize, bits: &[u64]) -> String {
    let mut arr = JsonArr::new();
    for b in bits {
        arr = arr.str(&format!("{b:016x}"));
    }
    JsonObj::new()
        .str("type", "matrix")
        .str("name", name)
        .u64("rows", rows as u64)
        .u64("cols", cols as u64)
        .raw("bits", &arr.build())
        .build()
}

/// Encode the bare acknowledgement (server side).
pub fn encode_ok() -> String {
    JsonObj::new().str("type", "ok").build()
}

/// Encode an error response (server side).
pub fn encode_error(code: &str, message: &str) -> String {
    JsonObj::new()
        .str("type", "error")
        .str("code", code)
        .str("message", message)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::Submit {
                session: "s1".into(),
                script: "A = random(A, 4, 4)\noutput(A)\n".into(),
                deadline_ms: Some(250),
            },
            Request::Explain {
                session: "s1".into(),
                script: "A = random(A, 4, 4)\noutput(A)\n".into(),
            },
            Request::Lint {
                script: "A = random(A, 4, 4)\noutput(A)\n".into(),
            },
            Request::FetchMatrix { name: "H".into() },
            Request::Stats,
            Request::Shutdown,
        ];
        for r in reqs {
            assert_eq!(Request::from_json(&r.to_json()).unwrap(), r);
        }
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
        let legacy = "{\"type\":\"result\",\"request_id\":1,\"plan_cached\":false,\
                      \"golden_fnv\":\"00000000000000aa\",\"sim_sec\":0.5}";
        match Response::from_json(legacy).unwrap() {
            Response::Result(r) => assert_eq!(r.certified_peak, None),
            other => panic!("wrong response: {other:?}"),
        }

        let vals = [1.0f64, -0.0, 0.1 + 0.2, f64::MAX];
        let bits: Vec<u64> = vals.iter().map(|v| v.to_bits()).collect();
        let enc = encode_matrix("M", 2, 2, &bits);
        match Response::from_json(&enc).unwrap() {
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
        assert!(Response::from_json(&encode_matrix("M", 3, 1, &bits)).is_ok());
        for (rows, cols) in [(2, 2), (1, 2), (4, 0), (0, 3)] {
            let err = Response::from_json(&encode_matrix("M", rows, cols, &bits)).unwrap_err();
            assert!(err.contains("3 cells"), "{rows} x {cols}: {err}");
        }
        let past = 1u64 << 53;
        let huge = encode_matrix("M", 0, 0, &bits)
            .replace("\"rows\":0", &format!("\"rows\":{past}"))
            .replace("\"cols\":0", &format!("\"cols\":{past}"));
        assert!(Response::from_json(&huge).is_err());
    }

    #[test]
    fn lint_and_explain_responses_round_trip_diagnostics() {
        let d1 = "{\"severity\":\"warning\",\"code\":\"W101\",\"line\":2,\"start\":23,\
                  \"end\":24,\"message\":\"dead store\"}"
            .to_string();
        let d2 =
            "{\"severity\":\"error\",\"code\":\"E004\",\"message\":\"no outputs\"}".to_string();
        match Response::from_json(&encode_lint(false, &[d2.clone(), d1.clone()])).unwrap() {
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
        match Response::from_json(&encode_explain("plan text", &[d1])).unwrap() {
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

    #[test]
    fn lint_exit_verdict_depends_only_on_severities() {
        assert!(lint_exit_ok([]));
        assert!(lint_exit_ok(["warning", "info"]));
        assert!(!lint_exit_ok(["warning", "error", "info"]));
    }

    #[test]
    fn error_response_round_trips() {
        let enc = encode_error(code::BUSY, "queue full (8 queued)");
        match Response::from_json(&enc).unwrap() {
            Response::Error { code: c, message } => {
                assert_eq!(c, code::BUSY);
                assert!(message.contains("queue full"));
            }
            other => panic!("wrong response: {other:?}"),
        }
    }
}
