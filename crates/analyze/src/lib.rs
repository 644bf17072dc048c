//! # dmac-analyze — static lints and plan-invariant verification
//!
//! Two independent pass families over the DMac stack (DESIGN.md §8f):
//!
//! * **Program lints** ([`lint_script`] / [`lint_program`]): checks over
//!   the `dmac-lang` AST — use-before-def, shape conformance (via the
//!   frontend's §5.1 inference), dead stores, unused intermediates,
//!   redundant transposes (`A.t.t`), trivial identities (`X * 1`,
//!   `X + 0`), and loop-invariant candidates across unrolled iterations.
//!   Each finding is a structured [`Diagnostic`] with a severity, a
//!   stable code, and (for scripts) an exact byte span.
//! * **Plan-invariant verifier** ([`verify_planned`]): re-derives the
//!   Table-2 dependency types and §4.1 event bytes of a generated plan
//!   from scratch — a code path deliberately separate from
//!   `dmac_core::cost` — and asserts exact agreement with the planner's
//!   per-step predictions and total estimate, plus structural, coverage,
//!   output-binding and §5.2 stage invariants.
//!
//! * **Liveness / memory-certificate verifier** ([`liveness`]): V18–V21 —
//!   re-derives live ranges and the per-step resident-byte bound through
//!   a second implementation and checks the planner's release record, its
//!   [`dmac_core::plan::MemoryCertificate`], and (post-run) the engine's
//!   measured residency against the certified bound.
//!
//! [`install_session_verifier`] hooks the verifiers into
//! `dmac_core::Session`, which then re-checks every plan it produces —
//! and every trace it records — in debug builds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
pub mod lint;
pub mod liveness;
pub mod verify;

pub use diag::{code, has_errors, Diagnostic, Severity};
pub use lint::{lint_program, lint_script, LintReport};
pub use liveness::{check_liveness, check_observed};
pub use verify::{verify_planned, VerifySummary};

/// Install [`verify_planned`] as the session-level plan verifier and
/// [`check_observed`] as the post-run trace verifier: every
/// `Session::{plan, prepare, run}` in a debug build re-verifies the plan
/// it is about to use (V01–V20) and every run's trace is checked against
/// the plan's memory certificate (V21), failing loudly on any invariant
/// violation. Idempotent; release builds skip the checks entirely.
pub fn install_session_verifier() {
    dmac_core::verifyhook::install_plan_verifier(session_verifier);
    dmac_core::verifyhook::install_run_verifier(liveness::check_observed);
}

fn session_verifier(
    program: &dmac_lang::Program,
    planned: &dmac_core::planner::Planned,
    cfg: &dmac_core::planner::PlannerConfig,
    workers: usize,
) -> Result<(), String> {
    verify::verify_planned(program, planned, cfg, workers).map(|_| ())
}
