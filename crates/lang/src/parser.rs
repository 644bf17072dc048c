//! An R-like script frontend for matrix programs (paper §5.4: "we provide
//! a set of R-Like symbols to represent each matrix operator").
//!
//! The accepted language mirrors the paper's code listings:
//!
//! ```text
//! V = load(V, 1000, 800, 0.05)
//! W = random(W, 1000, 20)
//! H = random(H, 20, 800)
//! for (i in 0:9) {
//!     H = H * (W.t %*% V) / (W.t %*% W %*% H)
//!     W = W * (V %*% H.t) / (W %*% H %*% H.t)
//! }
//! store(W)
//! store(H)
//! ```
//!
//! * `%*%` is matrix multiplication; `*` and `/` are cell-wise; `+`/`-`
//!   element-wise; all four share the paper's left-associative reading.
//! * `X.t` is the transposed view (free, per the Transpose dependency).
//! * `X.sum`, `X.norm2`, `X.value` are reductions producing driver-side
//!   scalars; scalars mix freely with matrices (`rank * 0.85`,
//!   `w + p * alpha`).
//! * `for (i in a:b) { … }` unrolls the body (the paper plans the whole
//!   program); each unrolled iteration gets its own phase tag, and the
//!   loop variable is visible as a numeric constant.
//! * `output(X)` marks an output; `store(X)` also persists it into the
//!   session environment under its variable name.
//!
//! Scripts arrive from untrusted clients (`dmac-serve`), so what a script
//! can make the parser do is bounded: nesting (parentheses, unary minus,
//! loops) is at most [`MAX_DEPTH`] deep — the parser recurses per level —
//! and all loops together unroll at most [`MAX_UNROLLED`] iterations.
//! Past either bound the script is a typed [`ParseError`].

use std::collections::HashMap;
use std::fmt;

use crate::error::LangError;
use crate::expr::{Expr, ScalarExpr};
use crate::program::Program;

/// Deepest nesting of parentheses, unary minus and loops a script may use.
pub const MAX_DEPTH: usize = 128;

/// Most loop iterations a script may unroll, nested ones counted each time.
pub const MAX_UNROLLED: usize = 10_000;

/// A source location: 1-based line plus the half-open byte range
/// `[start, end)` into the original script text. Byte offsets survive the
/// loop-unrolling re-parse unchanged, so diagnostics from any unrolled
/// iteration point back at the single source statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Span {
    /// 1-based line of the first byte.
    pub line: usize,
    /// Byte offset of the first byte (inclusive).
    pub start: usize,
    /// Byte offset one past the last byte (exclusive).
    pub end: usize,
}

impl Span {
    /// 1-based column of `start` within its line, given the source text.
    pub fn column(&self, src: &str) -> usize {
        let line_start = src[..self.start.min(src.len())]
            .rfind('\n')
            .map(|i| i + 1)
            .unwrap_or(0);
        src[line_start..self.start.min(src.len())].chars().count() + 1
    }

    /// The full text of the line containing `start`.
    pub fn line_text<'a>(&self, src: &'a str) -> &'a str {
        let at = self.start.min(src.len());
        let line_start = src[..at].rfind('\n').map(|i| i + 1).unwrap_or(0);
        let line_end = src[line_start..]
            .find('\n')
            .map(|i| line_start + i)
            .unwrap_or(src.len());
        &src[line_start..line_end]
    }
}

/// Parse errors with position information.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based line of the offending token.
    pub line: usize,
    /// Exact byte range of the offending token, when known.
    pub span: Option<Span>,
    /// Explanation.
    pub message: String,
}

impl ParseError {
    fn at(message: impl Into<String>, span: Span) -> Self {
        ParseError {
            line: span.line,
            span: Some(span),
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LangError> for ParseError {
    fn from(e: LangError) -> Self {
        ParseError {
            line: 0,
            span: None,
            message: e.to_string(),
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Number(f64),
    MatMul, // %*%
    Plus,
    Minus,
    Star,
    Slash,
    Assign,
    LParen,
    RParen,
    LBrace,
    RBrace,
    Comma,
    Colon,
    Dot,
}

fn lex(src: &str) -> Result<Vec<(Tok, Span)>, ParseError> {
    let mut out = Vec::new();
    let mut line = 1usize;
    let mut chars = src.char_indices().peekable();
    while let Some(&(at, c)) = chars.peek() {
        let one = |line: usize| Span {
            line,
            start: at,
            end: at + c.len_utf8(),
        };
        match c {
            '\n' => {
                line += 1;
                chars.next();
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            '#' => {
                // comment to end of line
                for (_, c) in chars.by_ref() {
                    if c == '\n' {
                        line += 1;
                        break;
                    }
                }
            }
            '%' => {
                chars.next();
                if matches!(chars.next(), Some((_, '*'))) && matches!(chars.next(), Some((_, '%')))
                {
                    out.push((
                        Tok::MatMul,
                        Span {
                            line,
                            start: at,
                            end: at + 3,
                        },
                    ));
                } else {
                    return Err(ParseError::at("expected %*%", one(line)));
                }
            }
            '+' | '-' | '*' | '/' | '=' | '(' | ')' | '{' | '}' | ',' | ':' => {
                chars.next();
                let t = match c {
                    '+' => Tok::Plus,
                    '-' => Tok::Minus,
                    '*' => Tok::Star,
                    '/' => Tok::Slash,
                    '=' => Tok::Assign,
                    '(' => Tok::LParen,
                    ')' => Tok::RParen,
                    '{' => Tok::LBrace,
                    '}' => Tok::RBrace,
                    ',' => Tok::Comma,
                    _ => Tok::Colon,
                };
                out.push((t, one(line)));
            }
            '.' => {
                // Either a postfix selector (.t) or part of a number (.5)
                let mut clone = chars.clone();
                clone.next();
                if clone
                    .peek()
                    .map(|&(_, c)| c.is_ascii_digit())
                    .unwrap_or(false)
                    && !matches!(
                        out.last(),
                        Some((Tok::Ident(_) | Tok::RParen | Tok::Number(_), _))
                    )
                {
                    let (num, span) = lex_number(&mut chars, line, src.len())?;
                    out.push((Tok::Number(num), span));
                } else {
                    chars.next();
                    out.push((Tok::Dot, one(line)));
                }
            }
            c if c.is_ascii_digit() => {
                let (num, span) = lex_number(&mut chars, line, src.len())?;
                out.push((Tok::Number(num), span));
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut s = String::new();
                let mut end = at;
                while let Some(&(i, c)) = chars.peek() {
                    if c.is_alphanumeric() || c == '_' {
                        s.push(c);
                        end = i + c.len_utf8();
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push((
                    Tok::Ident(s),
                    Span {
                        line,
                        start: at,
                        end,
                    },
                ));
            }
            other => {
                return Err(ParseError::at(
                    format!("unexpected character '{other}'"),
                    one(line),
                ))
            }
        }
    }
    Ok(out)
}

fn lex_number(
    chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>,
    line: usize,
    src_len: usize,
) -> Result<(f64, Span), ParseError> {
    let mut s = String::new();
    let mut start = src_len;
    let mut end = src_len;
    while let Some(&(i, c)) = chars.peek() {
        let exponent_sign = (c == '-' || c == '+') && (s.ends_with('e') || s.ends_with('E'));
        if c.is_ascii_digit() || c == '.' || c == 'e' || c == 'E' || exponent_sign {
            if s.is_empty() {
                start = i;
            }
            s.push(c);
            end = i + c.len_utf8();
            chars.next();
        } else {
            break;
        }
    }
    let span = Span { line, start, end };
    s.parse()
        .map(|n| (n, span))
        .map_err(|_| ParseError::at(format!("bad number literal '{s}'"), span))
}

/// A value during script evaluation: a matrix expression or a driver-side
/// scalar expression (numbers are `ScalarExpr::Const`).
#[derive(Debug, Clone)]
enum Value {
    Matrix(Expr),
    Scalar(ScalarExpr),
}

/// The parser/evaluator: consumes tokens, emits into a [`Program`].
struct Parser<'a> {
    toks: Vec<(Tok, Span)>,
    pos: usize,
    program: &'a mut Program,
    env: HashMap<String, Value>,
    /// Per-operator source span, parallel to `program.ops()`: the span of
    /// the statement (or finer construct) that emitted the operator.
    op_spans: Vec<Option<Span>>,
    /// Spans of the second `.t` in a consecutive `.t.t` chain (which
    /// cancels silently inside `Expr::t`, so only the parser can see it).
    redundant_transposes: Vec<Span>,
    /// Last assignment span + "read since assigned" flag per variable.
    assigns: HashMap<String, (Span, bool)>,
    /// Assignments overwritten (or left dangling) without ever being read.
    dead_stores: Vec<(String, Span)>,
    /// Current nesting depth, at most [`MAX_DEPTH`].
    depth: usize,
    /// Loop iterations unrolled so far, at most [`MAX_UNROLLED`].
    unrolled: usize,
}

/// Result of parsing a script.
#[derive(Debug)]
pub struct ParsedScript {
    /// The assembled program (also contains outputs/stores).
    pub program: Program,
    /// Final value of every script variable that names a matrix.
    pub variables: HashMap<String, Expr>,
    /// Per-operator statement span, parallel to `program.ops()`.
    pub op_spans: Vec<Option<Span>>,
    /// Spans of syntactically redundant transposes (`A.t.t`), which cancel
    /// inside `Expr::t` and therefore never reach the operator list.
    pub redundant_transposes: Vec<Span>,
    /// Variables assigned but never read before re-assignment or EOF
    /// (excluding loop variables and stored/output variables), with the
    /// span of the dead assignment.
    pub dead_stores: Vec<(String, Span)>,
}

/// Parse and evaluate a script into a fresh [`Program`].
///
/// ```
/// let parsed = dmac_lang::parse_script(
///     "A = load(A, 100, 50, 0.1)\nG = A.t %*% A\noutput(G)\n",
/// ).unwrap();
/// assert_eq!(parsed.program.ops().len(), 1);
/// assert!(parsed.variables.contains_key("G"));
/// ```
pub fn parse_script(src: &str) -> Result<ParsedScript, ParseError> {
    let mut program = Program::new();
    let toks = lex(src)?;
    let mut parser = Parser {
        toks,
        pos: 0,
        program: &mut program,
        env: HashMap::new(),
        op_spans: Vec::new(),
        redundant_transposes: Vec::new(),
        assigns: HashMap::new(),
        dead_stores: Vec::new(),
        depth: 0,
        unrolled: 0,
    };
    parser.script()?;
    let Parser {
        env,
        op_spans,
        mut redundant_transposes,
        assigns,
        mut dead_stores,
        ..
    } = parser;
    let variables = env
        .iter()
        .filter_map(|(k, v)| match v {
            Value::Matrix(e) => Some((k.clone(), *e)),
            Value::Scalar(_) => None,
        })
        .collect();
    // Flush assignments that were never read before EOF.
    for (name, (span, read)) in assigns {
        if !read && !dead_stores.iter().any(|(n, s)| *n == name && *s == span) {
            dead_stores.push((name, span));
        }
    }
    dead_stores.sort_by_key(|(n, s)| (s.start, n.clone()));
    redundant_transposes.sort_by_key(|s| s.start);
    redundant_transposes.dedup();
    Ok(ParsedScript {
        program,
        variables,
        op_spans,
        redundant_transposes,
        dead_stores,
    })
}

impl Parser<'_> {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(t, _)| t)
    }

    /// Span of the current token (clamped to the last token at EOF).
    fn span(&self) -> Option<Span> {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map(|(_, s)| *s)
    }

    fn line(&self) -> usize {
        self.span().map(|s| s.line).unwrap_or(0)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(t, _)| t.clone());
        self.pos += 1;
        t
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line(),
            span: self.span(),
            message: message.into(),
        }
    }

    /// Record that `name` was (re-)assigned at `span`; an unread previous
    /// assignment becomes a dead store.
    fn note_assign(&mut self, name: &str, span: Option<Span>) {
        let Some(span) = span else { return };
        if let Some((old, read)) = self.assigns.insert(name.to_string(), (span, false)) {
            if !read && !self.dead_stores.iter().any(|(n, s)| n == name && *s == old) {
                self.dead_stores.push((name.to_string(), old));
            }
        }
    }

    /// Record that `name`'s current value was consumed.
    fn note_read(&mut self, name: &str) {
        if let Some(e) = self.assigns.get_mut(name) {
            e.1 = true;
        }
    }

    /// Run `f` one nesting level deeper.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nested deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let r = f(self);
        self.depth -= 1;
        r
    }

    fn expect(&mut self, t: Tok) -> Result<(), ParseError> {
        match self.next() {
            Some(got) if got == t => Ok(()),
            got => Err(self.err(format!("expected {t:?}, got {got:?}"))),
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            got => Err(self.err(format!("expected identifier, got {got:?}"))),
        }
    }

    fn expect_number(&mut self) -> Result<f64, ParseError> {
        // Scalar expressions that fold to constants are accepted too.
        match self.next() {
            Some(Tok::Number(n)) => Ok(n),
            Some(Tok::Ident(name)) => match self.env.get(&name) {
                Some(Value::Scalar(ScalarExpr::Const(v))) => {
                    let v = *v;
                    self.note_read(&name);
                    Ok(v)
                }
                _ => Err(self.err(format!("'{name}' is not a numeric constant"))),
            },
            got => Err(self.err(format!("expected number, got {got:?}"))),
        }
    }

    fn script(&mut self) -> Result<(), ParseError> {
        while self.peek().is_some() {
            self.statement()?;
        }
        Ok(())
    }

    fn statement(&mut self) -> Result<(), ParseError> {
        let stmt_span = self.span();
        let r = self.statement_inner();
        // Tag every operator the statement emitted with its span. Nested
        // statements (loop bodies) have already tagged theirs.
        while self.op_spans.len() < self.program.ops().len() {
            self.op_spans.push(stmt_span);
        }
        r
    }

    fn statement_inner(&mut self) -> Result<(), ParseError> {
        match self.peek() {
            Some(Tok::Ident(name)) if name == "for" => self.nested(Self::for_loop),
            Some(Tok::Ident(name)) if name == "output" || name == "store" => {
                let keyword = self.expect_ident()?;
                self.expect(Tok::LParen)?;
                let var_span = self.span();
                let var = self.expect_ident()?;
                self.expect(Tok::RParen)?;
                let value = self.env.get(&var).cloned().ok_or_else(|| ParseError {
                    line: var_span.map(|s| s.line).unwrap_or(0),
                    span: var_span,
                    message: format!("unknown variable '{var}'"),
                })?;
                let Value::Matrix(e) = value else {
                    return Err(self.err(format!("'{var}' is a scalar, not a matrix")));
                };
                self.note_read(&var);
                if keyword == "store" {
                    self.program.store(e, &var);
                } else {
                    self.program.output(e);
                }
                Ok(())
            }
            Some(Tok::Ident(_)) => self.assignment(),
            other => Err(self.err(format!("expected statement, got {other:?}"))),
        }
    }

    fn assignment(&mut self) -> Result<(), ParseError> {
        let name_span = self.span();
        let name = self.expect_ident()?;
        self.expect(Tok::Assign)?;
        let value = self.expression()?;
        self.note_assign(&name, name_span);
        self.env.insert(name, value);
        Ok(())
    }

    fn for_loop(&mut self) -> Result<(), ParseError> {
        self.expect_ident()?; // 'for'
        self.expect(Tok::LParen)?;
        let var = self.expect_ident()?;
        let kw = self.expect_ident()?;
        if kw != "in" {
            return Err(self.err("expected 'in'"));
        }
        let lo = self.expect_number()? as i64;
        self.expect(Tok::Colon)?;
        let hi = self.expect_number()? as i64;
        self.expect(Tok::RParen)?;
        self.expect(Tok::LBrace)?;
        let body_start = self.pos;
        if lo > hi {
            return Err(self.err(format!("empty loop range {lo}:{hi}")));
        }
        for (phase, i) in (lo..=hi).enumerate() {
            self.unrolled += 1;
            if self.unrolled > MAX_UNROLLED {
                return Err(self.err(format!("loops unroll past {MAX_UNROLLED} iterations")));
            }
            self.pos = body_start;
            self.program.set_phase(phase);
            self.env
                .insert(var.clone(), Value::Scalar(ScalarExpr::Const(i as f64)));
            while !matches!(self.peek(), Some(Tok::RBrace)) {
                if self.peek().is_none() {
                    return Err(self.err("unterminated loop body"));
                }
                self.statement()?;
            }
        }
        self.expect(Tok::RBrace)?;
        self.env.remove(&var);
        Ok(())
    }

    /// expression := term (('+'|'-') term)*
    fn expression(&mut self) -> Result<Value, ParseError> {
        let mut lhs = self.term()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => Tok::Plus,
                Some(Tok::Minus) => Tok::Minus,
                _ => break,
            };
            let op_span = self.span();
            self.next();
            let rhs = self.term()?;
            lhs = self.combine_additive(lhs, rhs, op, op_span)?;
        }
        Ok(lhs)
    }

    /// term := factor (('%*%'|'*'|'/') factor)*
    fn term(&mut self) -> Result<Value, ParseError> {
        let mut lhs = self.factor()?;
        loop {
            let op = match self.peek() {
                Some(Tok::MatMul) => Tok::MatMul,
                Some(Tok::Star) => Tok::Star,
                Some(Tok::Slash) => Tok::Slash,
                _ => break,
            };
            let op_span = self.span();
            self.next();
            let rhs = self.factor()?;
            lhs = self.combine_multiplicative(lhs, rhs, op, op_span)?;
        }
        Ok(lhs)
    }

    fn combine_additive(
        &mut self,
        a: Value,
        b: Value,
        op: Tok,
        at: Option<Span>,
    ) -> Result<Value, ParseError> {
        // Blame the operator token, not whatever happens to follow the
        // expression (shape errors would otherwise point past the line).
        let span = at.or_else(|| self.span());
        let line = span.map(|s| s.line).unwrap_or_else(|| self.line());
        let fail = |e: LangError| ParseError {
            line,
            span,
            message: e.to_string(),
        };
        Ok(match (a, b, op) {
            (Value::Matrix(x), Value::Matrix(y), Tok::Plus) => {
                Value::Matrix(self.program.add(x, y).map_err(fail)?)
            }
            (Value::Matrix(x), Value::Matrix(y), Tok::Minus) => {
                Value::Matrix(self.program.sub(x, y).map_err(fail)?)
            }
            (Value::Matrix(x), Value::Scalar(s), Tok::Plus)
            | (Value::Scalar(s), Value::Matrix(x), Tok::Plus) => {
                Value::Matrix(self.program.add_scalar(x, s).map_err(fail)?)
            }
            (Value::Matrix(x), Value::Scalar(s), Tok::Minus) => {
                Value::Matrix(self.program.add_scalar(x, -s).map_err(fail)?)
            }
            (Value::Scalar(s), Value::Matrix(x), Tok::Minus) => {
                // s - X = (-X) + s
                let neg = self.program.scale_const(x, -1.0).map_err(fail)?;
                Value::Matrix(self.program.add_scalar(neg, s).map_err(fail)?)
            }
            (Value::Scalar(s), Value::Scalar(t), Tok::Plus) => Value::Scalar(s + t),
            (Value::Scalar(s), Value::Scalar(t), Tok::Minus) => Value::Scalar(s - t),
            _ => return Err(self.err("invalid additive combination")),
        })
    }

    fn combine_multiplicative(
        &mut self,
        a: Value,
        b: Value,
        op: Tok,
        at: Option<Span>,
    ) -> Result<Value, ParseError> {
        let span = at.or_else(|| self.span());
        let line = span.map(|s| s.line).unwrap_or_else(|| self.line());
        let fail = |e: LangError| ParseError {
            line,
            span,
            message: e.to_string(),
        };
        Ok(match (a, b, op) {
            (Value::Matrix(x), Value::Matrix(y), Tok::MatMul) => {
                Value::Matrix(self.program.matmul(x, y).map_err(fail)?)
            }
            (Value::Matrix(x), Value::Matrix(y), Tok::Star) => {
                Value::Matrix(self.program.cell_mul(x, y).map_err(fail)?)
            }
            (Value::Matrix(x), Value::Matrix(y), Tok::Slash) => {
                Value::Matrix(self.program.cell_div(x, y).map_err(fail)?)
            }
            (Value::Matrix(x), Value::Scalar(s), Tok::Star)
            | (Value::Scalar(s), Value::Matrix(x), Tok::Star) => {
                Value::Matrix(self.program.scale(x, s).map_err(fail)?)
            }
            (Value::Matrix(x), Value::Scalar(s), Tok::Slash) => Value::Matrix(
                self.program
                    .scale(x, ScalarExpr::c(1.0) / s)
                    .map_err(fail)?,
            ),
            (Value::Scalar(s), Value::Scalar(t), Tok::Star) => Value::Scalar(s * t),
            (Value::Scalar(s), Value::Scalar(t), Tok::Slash) => Value::Scalar(s / t),
            (_, _, Tok::MatMul) => return Err(self.err("%*% needs two matrices")),
            _ => return Err(self.err("invalid multiplicative combination")),
        })
    }

    /// factor := primary ('.' selector)*
    fn factor(&mut self) -> Result<Value, ParseError> {
        let mut v = self.primary()?;
        let mut last_was_t = false;
        while matches!(self.peek(), Some(Tok::Dot)) {
            self.next();
            let sel_span = self.span();
            let sel = self.expect_ident()?;
            let is_t = matches!((&v, sel.as_str()), (Value::Matrix(_), "t"));
            v = match (&v, sel.as_str()) {
                (Value::Matrix(e), "t") => {
                    if last_was_t {
                        if let Some(s) = sel_span {
                            self.redundant_transposes.push(s);
                        }
                    }
                    Value::Matrix(e.t())
                }
                (Value::Matrix(e), "sum") => {
                    Value::Scalar(self.program.sum(*e).map_err(ParseError::from)?)
                }
                (Value::Matrix(e), "norm2") => {
                    Value::Scalar(self.program.norm2(*e).map_err(ParseError::from)?)
                }
                (Value::Matrix(e), "value") => {
                    Value::Scalar(self.program.value(*e).map_err(ParseError::from)?)
                }
                (Value::Matrix(_), other) => {
                    return Err(self.err(format!("unknown matrix selector '.{other}'")))
                }
                (Value::Scalar(_), other) => {
                    return Err(self.err(format!("scalars have no selector '.{other}'")))
                }
            };
            last_was_t = is_t;
        }
        Ok(v)
    }

    fn primary(&mut self) -> Result<Value, ParseError> {
        let at = self.span();
        match self.next() {
            Some(Tok::Number(n)) => Ok(Value::Scalar(ScalarExpr::Const(n))),
            Some(Tok::Minus) => {
                let v = self.nested(Self::primary)?;
                match v {
                    Value::Scalar(s) => Ok(Value::Scalar(-s)),
                    Value::Matrix(e) => Ok(Value::Matrix(
                        self.program
                            .scale_const(e, -1.0)
                            .map_err(ParseError::from)?,
                    )),
                }
            }
            Some(Tok::LParen) => {
                let v = self.nested(Self::expression)?;
                self.expect(Tok::RParen)?;
                Ok(v)
            }
            Some(Tok::Ident(name)) if name == "load" => {
                self.expect(Tok::LParen)?;
                let bind = self.expect_ident()?;
                self.expect(Tok::Comma)?;
                let rows = self.expect_number()? as usize;
                self.expect(Tok::Comma)?;
                let cols = self.expect_number()? as usize;
                self.expect(Tok::Comma)?;
                let sparsity = self.expect_number()?;
                self.expect(Tok::RParen)?;
                Ok(Value::Matrix(
                    self.program.load(&bind, rows, cols, sparsity),
                ))
            }
            Some(Tok::Ident(name)) if name == "random" => {
                self.expect(Tok::LParen)?;
                let bind = self.expect_ident()?;
                self.expect(Tok::Comma)?;
                let rows = self.expect_number()? as usize;
                self.expect(Tok::Comma)?;
                let cols = self.expect_number()? as usize;
                self.expect(Tok::RParen)?;
                Ok(Value::Matrix(self.program.random(&bind, rows, cols)))
            }
            Some(Tok::Ident(name)) => {
                let v = self.env.get(&name).cloned().ok_or_else(|| ParseError {
                    line: at.map(|s| s.line).unwrap_or(0),
                    span: at,
                    message: format!("unknown variable '{name}'"),
                })?;
                self.note_read(&name);
                Ok(v)
            }
            got => Err(self.err(format!("expected expression, got {got:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::OpKind;

    #[test]
    fn parses_gnmf_code1() {
        let script = r#"
            # GNMF, paper Code 1
            V = load(V, 1000, 800, 0.05)
            W = random(W, 1000, 20)
            H = random(H, 20, 800)
            for (i in 0:1) {
                H = H * (W.t %*% V) / (W.t %*% W %*% H)
                W = W * (V %*% H.t) / (W %*% H %*% H.t)
            }
            store(W)
            store(H)
        "#;
        let parsed = parse_script(script).unwrap();
        let p = &parsed.program;
        p.validate().unwrap();
        // 10 operators per iteration, 2 iterations
        assert_eq!(p.ops().len(), 20);
        assert_eq!(p.ops()[0].phase, 0);
        assert_eq!(p.ops()[10].phase, 1);
        assert_eq!(p.outputs().len(), 2);
        assert!(parsed.variables.contains_key("W"));
        assert!(parsed.variables.contains_key("H"));
    }

    #[test]
    fn parses_pagerank_code2() {
        let script = r#"
            link = load(link, 100, 100, 0.05)
            D = load(D, 1, 100, 1.0)
            rank = random(rank, 1, 100)
            for (i in 0:9) {
                rank = (rank %*% link) * 0.85 + D * 0.15
            }
            output(rank)
        "#;
        let parsed = parse_script(script).unwrap();
        parsed.program.validate().unwrap();
        // per iteration: matmul, scale, scale, add = 4 ops
        assert_eq!(parsed.program.ops().len(), 40);
    }

    #[test]
    fn parses_scalar_reductions_and_arithmetic() {
        let script = r#"
            A = load(A, 10, 10, 1.0)
            s = A.sum
            n = A.norm2
            B = A * (s / (n + 1.0))
            C = B - 0.5
            output(C)
        "#;
        let parsed = parse_script(script).unwrap();
        let reduces = parsed
            .program
            .ops()
            .iter()
            .filter(|o| matches!(o.kind, OpKind::Reduce { .. }))
            .count();
        assert_eq!(reduces, 2);
        parsed.program.validate().unwrap();
    }

    #[test]
    fn value_selector_requires_1x1() {
        let script = r#"
            A = load(A, 4, 4, 1.0)
            v = A.value
            output(A)
        "#;
        let err = parse_script(script).unwrap_err();
        assert!(err.message.contains("1x1"), "{err}");
    }

    #[test]
    fn precedence_matches_paper_listings() {
        // H * X / Y must parse as (H * X) / Y.
        let script = r#"
            H = load(H, 4, 4, 1.0)
            X = load(X, 4, 4, 1.0)
            Y = load(Y, 4, 4, 1.0)
            Z = H * X / Y
            output(Z)
        "#;
        let parsed = parse_script(script).unwrap();
        let kinds: Vec<&OpKind> = parsed.program.ops().iter().map(|o| &o.kind).collect();
        assert!(matches!(
            kinds[0],
            OpKind::Binary {
                op: crate::expr::BinOp::CellMul,
                ..
            }
        ));
        assert!(matches!(
            kinds[1],
            OpKind::Binary {
                op: crate::expr::BinOp::CellDiv,
                ..
            }
        ));
    }

    #[test]
    fn loop_variable_is_a_constant_inside_the_body() {
        let script = r#"
            A = load(A, 4, 4, 1.0)
            for (i in 1:3) {
                A = A * (i + 1.0)
            }
            output(A)
        "#;
        let parsed = parse_script(script).unwrap();
        // three scale ops with constants 2, 3, 4
        let consts: Vec<f64> = parsed
            .program
            .ops()
            .iter()
            .filter_map(|o| match &o.kind {
                OpKind::Unary {
                    op: crate::expr::UnaryOp::Scale(s),
                    ..
                } => Some(s.eval(&|_| 0.0)),
                _ => None,
            })
            .collect();
        assert_eq!(consts, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse_script("A = load(A, 4, 4, 1.0)\nB = A %*% C\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("unknown variable 'C'"));
    }

    #[test]
    fn shape_errors_surface_as_parse_errors() {
        let err = parse_script("A = load(A, 4, 5, 1.0)\nB = A %*% A\noutput(B)\n").unwrap_err();
        assert!(err.message.contains("shape mismatch"), "{err}");
    }

    #[test]
    fn comments_and_negatives() {
        let script = r#"
            # leading comment
            A = load(A, 3, 3, 1.0)  # trailing comment
            B = -A + 1.5
            C = B * -2.0
            output(C)
        "#;
        parse_script(script).unwrap().program.validate().unwrap();
    }

    #[test]
    fn matmul_of_scalar_is_rejected() {
        let err = parse_script("A = load(A, 3, 3, 1.0)\nB = A %*% 2.0\noutput(B)\n").unwrap_err();
        assert!(err.message.contains("two matrices"), "{err}");
    }

    #[test]
    fn errors_carry_byte_spans() {
        let src = "A = load(A, 4, 4, 1.0)\nB = A %*% C\n";
        let err = parse_script(src).unwrap_err();
        let span = err.span.expect("unknown-variable errors have spans");
        assert_eq!(&src[span.start..span.end], "C");
        assert_eq!(span.line, 2);
        assert_eq!(span.column(src), 11);
        assert_eq!(span.line_text(src), "B = A %*% C");
    }

    #[test]
    fn op_spans_cover_every_operator() {
        let src =
            "A = load(A, 4, 4, 1.0)\nB = A + A\nfor (i in 0:2) {\n  B = B * A\n}\noutput(B)\n";
        let parsed = parse_script(src).unwrap();
        assert_eq!(parsed.op_spans.len(), parsed.program.ops().len());
        // All three unrolled iterations point at the single source line.
        let body: Vec<&str> = parsed.op_spans[1..]
            .iter()
            .map(|s| s.unwrap().line_text(src).trim())
            .collect();
        assert_eq!(body, vec!["B = B * A"; 3]);
    }

    #[test]
    fn redundant_transpose_is_recorded_even_though_it_cancels() {
        let src = "A = load(A, 4, 4, 1.0)\nB = A.t.t %*% A\noutput(B)\n";
        let parsed = parse_script(src).unwrap();
        assert_eq!(parsed.redundant_transposes.len(), 1);
        let s = parsed.redundant_transposes[0];
        assert_eq!(s.line, 2);
        assert_eq!(&src[s.start..s.end], "t");
        // And it indeed cancelled: the matmul sees A un-transposed.
        assert_eq!(parsed.program.ops().len(), 1);
    }

    #[test]
    fn dead_stores_are_recorded() {
        // First X is clobbered unread; Y dangles unread at EOF.
        let src = "A = load(A, 4, 4, 1.0)\nX = A + A\nX = A * A\nY = A - A\noutput(X)\n";
        let parsed = parse_script(src).unwrap();
        let names: Vec<&str> = parsed.dead_stores.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["X", "Y"]);
        assert_eq!(parsed.dead_stores[0].1.line, 2);
        assert_eq!(parsed.dead_stores[1].1.line, 4);
        // Re-assignment that reads its own previous value is not dead.
        let src2 = "A = load(A, 4, 4, 1.0)\nX = A + A\nX = X * A\noutput(X)\n";
        assert!(parse_script(src2).unwrap().dead_stores.is_empty());
        // Loop variables are not dead stores.
        let src3 = "A = load(A, 4, 4, 1.0)\nfor (i in 0:1) {\n  A = A + A\n}\noutput(A)\n";
        assert!(parse_script(src3).unwrap().dead_stores.is_empty());
    }
}
