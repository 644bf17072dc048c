//! # dmac-core — matrix-dependency analysis, planning, and execution
//!
//! This crate is the reproduction of the DMac paper's primary contribution:
//!
//! * [`dependency`] — the matrix-dependency classifier: Definition 1 and
//!   the eight dependency types of Table 2, split into communication and
//!   non-communication categories. The planner and the liveness pass both
//!   ask it which dependency links two copies of a matrix.
//! * [`cost`] — the dependency-oriented cost model of §4.1: input events
//!   cost `0`, `|A|`, or `N·|A|`; a CPMM output event costs `N·|A|`.
//! * [`strategy`] — the candidate execution strategies per operator
//!   (RMM1 / RMM2 / CPMM for multiplication, scheme-aligned strategies for
//!   cell-wise and unary operators).
//! * [`plan`] — the execution plan: compute steps plus the three extended
//!   step kinds (`partition`, `broadcast`, `extract`) of
//!   §4.2.1; the paper's null `reference` is the held node itself, and
//!   its free `transpose` a view of it ([`plan::Operand`]).
//! * [`planner`] — Algorithm 1 with Heuristic 1 (Pull-Up Broadcast) and
//!   Heuristic 2 (Re-assignment).
//! * [`liveness`] — static live-range analysis over the finished plan:
//!   the step that releases each dead value (consuming it when its last
//!   reader is tile-wise), copies a free dependency can rebuild dropped
//!   rather than held, and the [`plan::MemoryCertificate`] bounding
//!   per-step resident bytes.
//! * [`stage`] — the traverse-based stage scheduler of §5.2: the plan is
//!   split into un-interleaved stages whose boundaries are exactly the
//!   communication operators.
//! * [`engine`] — executes a staged plan on the simulated cluster,
//!   reporting per-phase compute/communication statistics.
//! * [`trace`] — the execution flight recorder: low-level cluster spans
//!   merged into a per-step [`Trace`] whose measured bytes are diffed
//!   against the planner's Table 2 predictions (`Trace::conformance`),
//!   exportable as chrome://tracing JSON.
//! * [`recovery`] — lineage-based stage recovery: worker losses are
//!   survived by decommissioning the host, remapping its logical workers,
//!   and deterministically replaying the producing stages of lost state.
//! * [`disk`] — the durable tier under the store: content-addressed blob
//!   files, JSON snapshot manifests with an atomically-swapped `CURRENT`
//!   pointer, every file one checksummed frame, compaction, and one
//!   numbered I/O seam at which a deterministic crash can stop any
//!   file-system call.
//! * [`baselines`] — the systems DMac is compared against: SystemML-S
//!   (same runtime, dependency-blind planner), single-node R, and the
//!   ScaLAPACK / SciDB simulators used for Table 4.
//! * [`session`] — the user-facing facade tying everything together.

#![forbid(unsafe_code)]

pub mod baselines;
pub mod cost;
pub mod dependency;
pub mod disk;
pub mod engine;
pub mod error;
pub mod json;
pub mod liveness;
pub mod plan;
pub mod planner;
pub mod profile;
pub mod recovery;
pub mod session;
pub mod stage;
pub mod store;
pub mod strategy;
pub mod trace;
pub mod verifyhook;

pub use disk::{CompactionReport, DiskTier, IoKind, Manifest, ManifestEntry};
pub use dmac_stats::{DensityClass, SparsityProfile};
pub use error::{CoreError, Result};
pub use recovery::{RecoveryPolicy, RecoveryStats};
pub use session::Session;
pub use store::{SharedStore, StoreStats};
pub use trace::{Conformance, SpillTraffic, StepTrace, Trace};
