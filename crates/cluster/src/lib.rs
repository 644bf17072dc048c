//! # dmac-cluster — a metered, simulated distributed matrix runtime
//!
//! The DMac paper runs on a 4–20 node Spark cluster. This crate replaces
//! Spark with an **in-process cluster simulator** that preserves exactly
//! the quantities the paper's evaluation is about:
//!
//! * **data placement** — every distributed matrix is partitioned over `N`
//!   logical workers under one of the paper's schemes (Row, Column,
//!   Broadcast, plus the Hash placement loaded inputs start with),
//! * **communication volume** — every block that changes workers is metered
//!   byte-for-byte on the [`OpSpan`] of the primitive that moved it, the
//!   run's only ledger; [`CommStats`] folds a slice of spans into shuffle,
//!   broadcast, recovery and retry totals,
//! * **communication time** — a configurable [`NetworkModel`] converts the
//!   metered bytes into simulated seconds, charged to the [`SimClock`]
//!   and recorded on the same span, which the execution engine adds to
//!   measured local compute time to obtain the reported "execution time"
//!   (see DESIGN.md §2 for why this reproduces the paper's shape).
//!
//! Matrix payloads are shared via [`std::sync::Arc`], so "broadcasting" a
//! block to all workers inside one OS process does not physically copy it —
//! the meter still charges the copies the real cluster would make.

#![forbid(unsafe_code)]

pub mod cluster;
pub mod codec;
pub mod comm;
pub mod dist;
pub mod error;
pub mod fault;
pub mod json;
pub mod jsonin;
pub mod kernels;
pub mod partition;
pub mod trace;
pub mod transport;

pub use cluster::{Cluster, ClusterConfig, Rmm};
pub use comm::{CommKind, CommStats, NetworkModel, SimClock};
pub use dist::{DistMatrix, View};
pub use error::{ClusterError, Result};
pub use fault::{FaultEvent, FaultInjector, FaultPlan};
pub use partition::PartitionScheme;
pub use trace::{OpSpan, TraceBuffer};
pub use transport::socket::{KillAt, SocketOptions, SocketTransport};
pub use transport::{Transport, TransportStats};
