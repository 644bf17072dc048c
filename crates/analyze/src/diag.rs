//! Structured diagnostics: severity, stable code, optional source span.

use std::fmt;

use dmac_lang::Span;

/// How serious a diagnostic is. `Error` diagnostics reject a script at
/// service admission; warnings and infos are advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// The program is ill-formed and must not be planned or executed.
    Error,
    /// The program runs, but something is almost certainly unintended.
    Warning,
    /// An optimisation opportunity or observation.
    Info,
}

impl Severity {
    /// Lower-case name, used in human and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Info => "info",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Stable diagnostic codes. Errors are `Exxx`, warnings `Wxxx`, infos
/// `Ixxx`; the catalogue is documented in DESIGN.md §8f.
pub mod code {
    /// Script does not parse (syntax).
    pub const PARSE_ERROR: &str = "E001";
    /// A variable is referenced before any assignment defines it.
    pub const USE_BEFORE_DEF: &str = "E002";
    /// Operand dimensions do not conform (§5.1 inference failed).
    pub const SHAPE_MISMATCH: &str = "E003";
    /// The program computes values but marks nothing as an output.
    pub const NO_OUTPUTS: &str = "E004";
    /// A variable is assigned but never read before being overwritten
    /// or reaching end of script.
    pub const DEAD_STORE: &str = "W101";
    /// An operator's result is consumed by no later operator or output.
    pub const UNUSED_INTERMEDIATE: &str = "W102";
    /// `A.t.t` — consecutive transposes cancel.
    pub const REDUNDANT_TRANSPOSE: &str = "W103";
    /// `X * 1`, `X + 0` and friends — the operator is an identity.
    pub const TRIVIAL_IDENTITY: &str = "W104";
    /// The same operator over the same inputs recurs across unrolled
    /// loop iterations — a hoisting candidate.
    pub const LOOP_INVARIANT: &str = "I201";
    /// A cell-wise/unary intermediate stays resident across phase
    /// (checkpoint) boundaries although recomputing it locally from its
    /// inputs would cost fewer bytes than holding it.
    pub const RESIDENT_RECOMPUTABLE: &str = "W105";
    /// One of the program's three longest live ranges, with its
    /// byte-weight: where early releases help least and memory pressure
    /// concentrates.
    pub const LONG_LIVE_RANGE: &str = "I202";
}

/// One analyzer finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Severity class.
    pub severity: Severity,
    /// Stable code (see [`code`]).
    pub code: &'static str,
    /// Source location, when the program came from a script.
    pub span: Option<Span>,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Construct a diagnostic.
    pub fn new(
        severity: Severity,
        code: &'static str,
        span: Option<Span>,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            severity,
            code,
            span,
            message: message.into(),
        }
    }

    /// One-line rendering: `error[E002]: unknown variable 'C' (line 2)`.
    pub fn headline(&self) -> String {
        match self.span {
            Some(s) => format!(
                "{}[{}]: {} (line {})",
                self.severity, self.code, self.message, s.line
            ),
            None => format!("{}[{}]: {}", self.severity, self.code, self.message),
        }
    }

    /// Multi-line rendering with the offending source line and a caret
    /// underline, given the original script text:
    ///
    /// ```text
    /// error[E002]: unknown variable 'C' (line 2)
    ///   | B = A %*% C
    ///   |           ^
    /// ```
    pub fn render(&self, src: &str) -> String {
        let mut out = self.headline();
        if let Some(s) = self.span {
            let line = s.line_text(src);
            let col = s.column(src);
            let width = src
                .get(s.start..s.end)
                .map(|t| t.chars().count().max(1))
                .unwrap_or(1);
            out.push_str(&format!("\n  | {line}\n  | "));
            out.push_str(&" ".repeat(col.saturating_sub(1)));
            out.push_str(&"^".repeat(width));
        }
        out
    }
}

/// Do any diagnostics in the slice have [`Severity::Error`]?
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_errors_first() {
        assert!(Severity::Error < Severity::Warning);
        assert!(Severity::Warning < Severity::Info);
    }

    #[test]
    fn render_draws_a_caret_under_the_span() {
        let src = "A = load(A, 4, 4, 1.0)\nB = A %*% C\n";
        let d = Diagnostic::new(
            Severity::Error,
            code::USE_BEFORE_DEF,
            Some(Span {
                line: 2,
                start: 33,
                end: 34,
            }),
            "unknown variable 'C'",
        );
        let r = d.render(src);
        assert!(r.contains("error[E002]"), "{r}");
        assert!(r.contains("B = A %*% C"), "{r}");
        let caret_line = r.lines().last().unwrap();
        assert_eq!(caret_line, "  |           ^", "{r}");
    }
}
