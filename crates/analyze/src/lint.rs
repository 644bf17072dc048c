//! Program lints over the `dmac-lang` AST.
//!
//! Two entry points:
//!
//! * [`lint_script`] — parse a script and lint it. Parse-time failures
//!   (syntax, use-before-def, shape mismatches — the frontend evaluates
//!   shapes while parsing, §5.1) are classified into error diagnostics
//!   with exact source spans; successfully parsed scripts additionally
//!   get the program-level lints with statement spans attached.
//! * [`lint_program`] — lint an API-built [`Program`] (the `crates/apps`
//!   algorithms). No spans, same program-level lints.
//!
//! Program-level lints: dead stores (W101), unused intermediates (W102),
//! redundant transposes (W103), trivial identities (W104), intermediates
//! held across phase boundaries that are cheaper to recompute (W105),
//! loop-invariant candidates (I201), the top-3 longest live ranges with
//! their byte-weights (I202), and missing outputs (E004).

use std::collections::{BTreeMap, HashSet};

use dmac_lang::{
    parse_script, BinOp, LangError, MatrixId, OpKind, Operator, ParseError, ParsedScript, Program,
    ScalarId, Span, UnaryOp,
};

use crate::diag::{code, Diagnostic, Severity};

/// Result of linting a script: the parse result (if the script parsed)
/// plus every diagnostic found.
#[derive(Debug)]
pub struct LintReport {
    /// The parsed script, when parsing succeeded.
    pub parsed: Option<ParsedScript>,
    /// All diagnostics, errors first, then by source position.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Any error-severity diagnostics?
    pub fn has_errors(&self) -> bool {
        crate::diag::has_errors(&self.diagnostics)
    }
}

/// Parse and lint a script.
pub fn lint_script(src: &str) -> LintReport {
    match parse_script(src) {
        Err(e) => LintReport {
            parsed: None,
            diagnostics: vec![classify_parse_error(&e)],
        },
        Ok(parsed) => {
            let mut diags = Vec::new();
            for (name, span) in &parsed.dead_stores {
                diags.push(Diagnostic::new(
                    Severity::Warning,
                    code::DEAD_STORE,
                    Some(*span),
                    format!("variable '{name}' is assigned but never read"),
                ));
            }
            for span in &parsed.redundant_transposes {
                diags.push(Diagnostic::new(
                    Severity::Warning,
                    code::REDUNDANT_TRANSPOSE,
                    Some(*span),
                    "redundant transpose: consecutive '.t.t' cancels".to_string(),
                ));
            }
            diags.extend(lint_ops(&parsed.program, Some(&parsed.op_spans)));
            sort_diagnostics(&mut diags);
            LintReport {
                parsed: Some(parsed),
                diagnostics: diags,
            }
        }
    }
}

/// Lint an API-built program (no source text, so no spans and no
/// dead-store/redundant-transpose lints — those are script-level facts).
pub fn lint_program(program: &Program) -> Vec<Diagnostic> {
    let mut diags = lint_ops(program, None);
    sort_diagnostics(&mut diags);
    diags
}

/// Map a [`ParseError`] to the matching diagnostic code. The frontend
/// surfaces semantic failures (unknown variables, shape conformance) as
/// parse errors because it evaluates the script while parsing; the
/// message text distinguishes them.
fn classify_parse_error(e: &ParseError) -> Diagnostic {
    let code = if e.message.contains("unknown variable") {
        code::USE_BEFORE_DEF
    } else if e.message.contains("shape mismatch") || e.message.contains("requires a 1x1") {
        code::SHAPE_MISMATCH
    } else {
        code::PARSE_ERROR
    };
    Diagnostic::new(Severity::Error, code, e.span, e.message.clone())
}

/// Errors first, then by source position (span-less diagnostics last
/// within their severity), then by code for determinism.
fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by_key(|d| {
        (
            d.severity,
            d.span.map(|s| s.start).unwrap_or(usize::MAX),
            d.code,
        )
    });
}

fn span_of(spans: Option<&[Option<Span>]>, idx: usize) -> Option<Span> {
    spans.and_then(|s| s.get(idx).copied().flatten())
}

/// Render an operator the way a loop-invariant key needs it: kind +
/// input references, with output ids, phases and indices excluded.
fn invariant_key(op: &Operator) -> String {
    let refs =
        |r: &dmac_lang::MatrixRef| format!("m{}{}", r.id, if r.transposed { "t" } else { "" });
    match &op.kind {
        OpKind::Binary { op: b, lhs, rhs } => {
            format!("bin {} {} {}", b.name(), refs(lhs), refs(rhs))
        }
        OpKind::Unary { op: u, input } => {
            format!("un {} {} {:?}", u.name(), refs(input), u.scalar())
        }
        OpKind::Reduce { op: r, input } => format!("red {:?} {}", r, refs(input)),
    }
}

/// The program-level lints shared by both entry points.
fn lint_ops(program: &Program, spans: Option<&[Option<Span>]>) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    // E004: no outputs (the only validation failure a parsed script can
    // still exhibit — everything else is rejected while parsing).
    if let Err(LangError::NoOutputs) = program.validate() {
        diags.push(Diagnostic::new(
            Severity::Error,
            code::NO_OUTPUTS,
            None,
            "program has no output(...) or store(...); nothing would be computed",
        ));
    }

    // Uses of every matrix and scalar value.
    let mut used_matrices: HashSet<MatrixId> = HashSet::new();
    let mut used_scalars: HashSet<ScalarId> = HashSet::new();
    for op in program.ops() {
        for r in op.kind.inputs() {
            used_matrices.insert(r.id);
        }
        for s in op.kind.scalar_deps() {
            used_scalars.insert(s);
        }
    }
    for (r, _) in program.outputs() {
        used_matrices.insert(r.id);
    }

    for (idx, op) in program.ops().iter().enumerate() {
        let span = span_of(spans, idx);

        // W102: unused intermediate.
        if let Some(m) = op.out_matrix {
            if !used_matrices.contains(&m) {
                let what = program
                    .decl(m)
                    .map(|d| format!("'{}'", d.name))
                    .unwrap_or_else(|_| format!("m{m}"));
                diags.push(Diagnostic::new(
                    Severity::Warning,
                    code::UNUSED_INTERMEDIATE,
                    span,
                    format!("result {what} of operator {idx} is never used"),
                ));
            }
        }
        if let Some(s) = op.out_scalar {
            if !used_scalars.contains(&s) {
                diags.push(Diagnostic::new(
                    Severity::Warning,
                    code::UNUSED_INTERMEDIATE,
                    span,
                    format!("scalar result of reduction operator {idx} is never used"),
                ));
            }
        }

        // W104: trivial identity. Only constant scalars (no reduction
        // deps) can be folded at lint time.
        if let OpKind::Unary { op: u, .. } = &op.kind {
            if u.scalar().deps().is_empty() {
                let v = u.scalar().eval(&|_| 0.0);
                let identity = match u {
                    UnaryOp::Scale(_) => v == 1.0,
                    UnaryOp::AddScalar(_) => v == 0.0,
                };
                if identity {
                    let what = match u {
                        UnaryOp::Scale(_) => "multiplying by constant 1",
                        UnaryOp::AddScalar(_) => "adding constant 0",
                    };
                    diags.push(Diagnostic::new(
                        Severity::Warning,
                        code::TRIVIAL_IDENTITY,
                        span,
                        format!("operator {idx} is an identity: {what} has no effect"),
                    ));
                }
            }
        }
    }

    // W105: a cell-wise/unary result held resident across phase
    // (checkpoint) boundaries although one local recomputation pass over
    // its inputs moves fewer bytes than keeping it alive. Matmul and
    // reduction results are exempt — recomputing those re-runs
    // communication, which Table 2 prices far above residency.
    for (idx, op) in program.ops().iter().enumerate() {
        let Some(m) = op.out_matrix else { continue };
        let recomputable = match &op.kind {
            OpKind::Binary { op: b, .. } => !matches!(b, BinOp::MatMul),
            OpKind::Unary { .. } => true,
            OpKind::Reduce { .. } => false,
        };
        if !recomputable {
            continue;
        }
        let spanned = program
            .ops()
            .iter()
            .skip(idx + 1)
            .filter(|q| q.kind.inputs().iter().any(|r| r.id == m))
            .map(|q| q.phase.saturating_sub(op.phase))
            .max()
            .unwrap_or(0);
        if spanned == 0 {
            continue;
        }
        let Ok(decl) = program.decl(m) else { continue };
        let resident = decl.stats.est_bytes() * spanned as u64;
        let recompute: u64 = op
            .kind
            .inputs()
            .iter()
            .filter_map(|r| program.decl(r.id).ok())
            .map(|d| d.stats.est_bytes())
            .sum();
        if resident > recompute {
            diags.push(Diagnostic::new(
                Severity::Warning,
                code::RESIDENT_RECOMPUTABLE,
                span_of(spans, idx),
                format!(
                    "result '{}' of operator {idx} stays resident across {spanned} phase \
                     boundary(ies) (~{resident} bytes held) but one local recomputation \
                     from its inputs reads only ~{recompute} bytes; recompute it past the \
                     checkpoint instead of holding it",
                    decl.name
                ),
            ));
        }
    }

    // I202: the three longest-held intermediates, weighted by their
    // estimated resident bytes — where memory pressure concentrates and
    // early releases help least. Only ranges spanning at least two
    // intervening operators are interesting.
    let mut ranges: Vec<(usize, u64, usize, String)> = Vec::new();
    for (idx, op) in program.ops().iter().enumerate() {
        let Some(m) = op.out_matrix else { continue };
        let last = program
            .ops()
            .iter()
            .enumerate()
            .skip(idx + 1)
            .filter(|(_, q)| q.kind.inputs().iter().any(|r| r.id == m))
            .map(|(q, _)| q)
            .max();
        let Some(last) = last else { continue };
        let span_ops = last - idx;
        if span_ops < 2 {
            continue;
        }
        let Ok(decl) = program.decl(m) else { continue };
        ranges.push((span_ops, decl.stats.est_bytes(), idx, decl.name.clone()));
    }
    ranges.sort_by(|a, b| b.0.cmp(&a.0).then(b.1.cmp(&a.1)).then(a.2.cmp(&b.2)));
    for (span_ops, bytes, idx, name) in ranges.into_iter().take(3) {
        diags.push(Diagnostic::new(
            Severity::Info,
            code::LONG_LIVE_RANGE,
            span_of(spans, idx),
            format!(
                "result '{name}' of operator {idx} is live across {span_ops} operators \
                 (~{bytes} bytes resident) — one of the program's 3 longest live ranges"
            ),
        ));
    }

    // I201: loop-invariant candidates — the same operator body over the
    // same inputs in two or more distinct unrolled phases means its
    // inputs never changed across iterations.
    let mut by_key: BTreeMap<String, (usize, HashSet<usize>, usize)> = BTreeMap::new();
    for (idx, op) in program.ops().iter().enumerate() {
        let e = by_key
            .entry(invariant_key(op))
            .or_insert((idx, HashSet::new(), 0));
        e.1.insert(op.phase);
        e.2 += 1;
    }
    let mut invariants: Vec<(usize, usize)> = by_key
        .into_values()
        .filter(|(_, phases, _)| phases.len() >= 2)
        .map(|(first_idx, _, count)| (first_idx, count))
        .collect();
    invariants.sort_unstable();
    for (first_idx, count) in invariants {
        let op = &program.ops()[first_idx];
        let out = op
            .out_matrix
            .and_then(|m| program.decl(m).ok())
            .map(|d| format!(" ('{}')", d.name))
            .unwrap_or_default();
        diags.push(Diagnostic::new(
            Severity::Info,
            code::LOOP_INVARIANT,
            span_of(spans, first_idx),
            format!(
                "operator {first_idx}{out} recomputes identical inputs in {count} unrolled \
                 iterations; it is loop-invariant and could be hoisted"
            ),
        ));
    }

    diags
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(r: &LintReport) -> Vec<&'static str> {
        r.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_script_has_no_diagnostics() {
        let r = lint_script(
            "V = load(V, 100, 80, 0.1)\nW = random(W, 100, 8)\nG = W.t %*% V\noutput(G)\n",
        );
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        assert!(!r.has_errors());
        assert!(r.parsed.is_some());
    }

    #[test]
    fn use_before_def_fires_with_span() {
        let src = "A = load(A, 4, 4, 1.0)\nB = A %*% C\noutput(B)\n";
        let r = lint_script(src);
        assert!(r.has_errors());
        assert_eq!(codes(&r), vec![code::USE_BEFORE_DEF]);
        let d = &r.diagnostics[0];
        let s = d.span.expect("span");
        assert_eq!(&src[s.start..s.end], "C");
        assert!(d.render(src).contains('^'), "{}", d.render(src));
    }

    #[test]
    fn shape_mismatch_fires() {
        let r = lint_script("A = load(A, 4, 5, 1.0)\nB = A %*% A\noutput(B)\n");
        assert_eq!(codes(&r), vec![code::SHAPE_MISMATCH]);
        assert!(r.has_errors());
        // .value on a non-1x1 matrix is a shape error too.
        let r = lint_script("A = load(A, 4, 4, 1.0)\nv = A.value\noutput(A)\n");
        assert_eq!(codes(&r), vec![code::SHAPE_MISMATCH]);
    }

    #[test]
    fn syntax_error_is_a_parse_error() {
        let r = lint_script("A = load(A, 4, 4, 1.0)\nB = A ? A\n");
        assert_eq!(codes(&r), vec![code::PARSE_ERROR]);
    }

    #[test]
    fn dead_store_fires() {
        let src = "A = load(A, 4, 4, 1.0)\nX = A + A\nX = A * A\noutput(X)\n";
        let r = lint_script(src);
        // The dead assignment's operator result is also an unused
        // intermediate; both warnings point at line 2.
        assert_eq!(
            codes(&r),
            vec![code::DEAD_STORE, code::UNUSED_INTERMEDIATE],
            "{:?}",
            r.diagnostics
        );
        assert!(!r.has_errors(), "dead stores are warnings");
        assert_eq!(r.diagnostics[0].span.unwrap().line, 2);
    }

    #[test]
    fn redundant_transpose_fires() {
        let r = lint_script("A = load(A, 4, 4, 1.0)\nB = A.t.t + A\noutput(B)\n");
        assert_eq!(codes(&r), vec![code::REDUNDANT_TRANSPOSE]);
    }

    #[test]
    fn no_outputs_is_an_error() {
        let r = lint_script("A = load(A, 4, 4, 1.0)\nB = A + A\n");
        assert!(codes(&r).contains(&code::NO_OUTPUTS));
        assert!(r.has_errors());
    }

    #[test]
    fn unused_intermediate_fires() {
        let src = "A = load(A, 4, 4, 1.0)\nB = A + A\nC = A * A\noutput(C)\n";
        let r = lint_script(src);
        // B is both a dead store (variable never read) and an unused
        // intermediate (the + operator's result feeds nothing).
        assert!(codes(&r).contains(&code::DEAD_STORE), "{:?}", r.diagnostics);
        assert!(
            codes(&r).contains(&code::UNUSED_INTERMEDIATE),
            "{:?}",
            r.diagnostics
        );
        // An unused reduction is reported too.
        let r = lint_script("A = load(A, 4, 4, 1.0)\ns = A.sum\noutput(A)\n");
        assert!(codes(&r).contains(&code::UNUSED_INTERMEDIATE));
    }

    #[test]
    fn trivial_identity_fires() {
        let r = lint_script("A = load(A, 4, 4, 1.0)\nB = A * 1.0\noutput(B)\n");
        assert_eq!(codes(&r), vec![code::TRIVIAL_IDENTITY]);
        let r = lint_script("A = load(A, 4, 4, 1.0)\nB = A + 0.0\noutput(B)\n");
        assert_eq!(codes(&r), vec![code::TRIVIAL_IDENTITY]);
        // Scaling by a reduction result is not foldable: no lint.
        let r = lint_script("A = load(A, 4, 4, 1.0)\ns = A.sum\nB = A * s\noutput(B)\n");
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
    }

    #[test]
    fn loop_invariant_candidate_fires() {
        // G = V.t %*% V never changes across iterations.
        let src = "V = load(V, 20, 10, 1.0)\nX = random(X, 10, 10)\n\
                   for (i in 0:2) {\n  G = V.t %*% V\n  X = X %*% G\n}\noutput(X)\n";
        let r = lint_script(src);
        // The hoisting candidate, plus long-live-range observations for
        // the loop-carried accumulator chain.
        assert_eq!(
            codes(&r),
            vec![
                code::LOOP_INVARIANT,
                code::LONG_LIVE_RANGE,
                code::LONG_LIVE_RANGE
            ],
            "{:?}",
            r.diagnostics
        );
        assert_eq!(r.diagnostics[0].severity, Severity::Info);
        assert!(r.diagnostics[0].message.contains("3 unrolled"));
        // An accumulation whose inputs change every iteration must not
        // trip the lint.
        let varying = "A = load(A, 10, 10, 1.0)\nX = random(X, 10, 10)\n\
                       for (i in 0:2) {\n  X = X %*% A\n}\noutput(X)\n";
        let r = lint_script(varying);
        assert!(r.diagnostics.is_empty(), "{:?}", r.diagnostics);
        // GNMF with only the H update recomputes W.t %*% V and W.t %*% W
        // every iteration — both are flagged as hoistable.
        let gnmf_h = "V = load(V, 100, 80, 0.1)\nW = random(W, 100, 8)\nH = random(H, 8, 80)\n\
                      for (i in 0:2) {\n  H = H * (W.t %*% V) / (W.t %*% W %*% H)\n}\nstore(H)\n";
        let r = lint_script(gnmf_h);
        let hoists = codes(&r)
            .iter()
            .filter(|&&c| c == code::LOOP_INVARIANT)
            .count();
        assert_eq!(hoists, 2, "{:?}", r.diagnostics);
        assert!(!r.has_errors());
    }

    #[test]
    fn resident_recomputable_fires_across_phases() {
        // B is a unary result computed before the loop and read in the
        // final unrolled iteration: it stays resident across two phase
        // boundaries (2× its bytes) although recomputing it re-reads A
        // once (1× its bytes).
        let src = "A = load(A, 64, 64, 1.0)\nB = A * 2.0\nX = random(X, 64, 64)\n\
                   for (i in 0:2) {\n  X = X %*% A\n}\nY = X + B\noutput(Y)\n";
        let r = lint_script(src);
        assert!(
            codes(&r).contains(&code::RESIDENT_RECOMPUTABLE),
            "{:?}",
            r.diagnostics
        );
        let d = r
            .diagnostics
            .iter()
            .find(|d| d.code == code::RESIDENT_RECOMPUTABLE)
            .unwrap();
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("recompute"), "{}", d.message);
        // Held only to the *next* phase, a binary cell-wise result is
        // cheaper to keep than to recompute: no warning.
        let near = "A = load(A, 64, 64, 1.0)\nX = random(X, 64, 64)\n\
                    for (i in 0:1) {\n  X = (X + A) %*% A\n}\noutput(X)\n";
        let r = lint_script(near);
        assert!(
            !codes(&r).contains(&code::RESIDENT_RECOMPUTABLE),
            "{:?}",
            r.diagnostics
        );
    }

    #[test]
    fn long_live_ranges_report_top_three() {
        // A chain of accumulators whose early results stay live to the
        // end: more than three qualifying ranges, only three reported,
        // longest first.
        let src = "A = load(A, 16, 16, 1.0)\nB = A + A\nC = A * A\nD = A + C\nE = A * C\n\
                   F = B + C\nG = B + E\nH = D + F\nI = G + H\noutput(I)\n";
        let r = lint_script(src);
        let infos: Vec<_> = r
            .diagnostics
            .iter()
            .filter(|d| d.code == code::LONG_LIVE_RANGE)
            .collect();
        assert_eq!(infos.len(), 3, "{:?}", r.diagnostics);
        for d in &infos {
            assert_eq!(d.severity, Severity::Info);
            assert!(d.message.contains("bytes resident"), "{}", d.message);
        }
    }

    #[test]
    fn lint_program_works_without_spans() {
        let mut p = Program::new();
        let a = p.load("A", 4, 4, 1.0);
        let _unused = p.add(a, a).unwrap();
        let b = p.cell_mul(a, a).unwrap();
        p.output(b);
        let diags = lint_program(&p);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, code::UNUSED_INTERMEDIATE);
        assert!(diags[0].span.is_none());
    }
}
