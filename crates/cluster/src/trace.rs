//! Flight-recorder span buffer: the run's one ledger.
//!
//! Every cluster primitive — the communication operators (`partition`,
//! `broadcast`) and the compute primitives (RMM1/RMM2/CPMM/cell-wise …) —
//! records an [`OpSpan`] describing what it did: simulated start/end time,
//! real wall time, bytes moved over the wire and the [`CommKind`] they were
//! metered under, the bytes and attempts transient send failures wasted,
//! the modelled network seconds, the equivalent *cost-model event bytes*
//! (the units of the paper's Table 2), per-worker sent/received byte
//! counts, blocks touched, and buffer-pool activity. Nothing else records
//! a moved byte: [`crate::CommStats`], the engine's per-phase curves and
//! its recovery cost are all folds over spans.
//!
//! Two byte channels per span, on purpose:
//!
//! * **`wire_bytes`** — what the simulated transport actually shipped. A
//!   repartition only moves the tiles whose destination differs from their
//!   current host; a broadcast ships `(N-1)·|A|` because one worker already
//!   holds its share. These are the numbers the network model charges.
//! * **`event_bytes`** — the same operation measured in cost-model units:
//!   a partition event is `|A|` (every tile is an output of the event,
//!   wherever it lands), a broadcast event is `N·|A|`, a CPMM output event
//!   is the total size of all partial result blocks. These are the numbers
//!   the planner predicts (§4.1), so `predicted == event_bytes` is the
//!   conformance criterion.
//!
//! The simulation executes one primitive at a time in-process, so the
//! buffer is a plain `Vec` behind `&mut self` — recording a span is a push,
//! no locks on the hot path (the per-worker counters inside a span are
//! accumulated into local `Vec<u64>`s while the primitive runs).
//!
//! Recovery attribution: while the engine replays lineage after a worker
//! loss it flips [`TraceBuffer::set_recovery_mode`], and any span recorded
//! in that window is flagged `recovery = true`. Spans from a failed attempt
//! are re-flagged after the fact via [`TraceBuffer::mark_recovery_from`],
//! so steady-state spans stay clean even on runs with injected faults.

use crate::comm::CommKind;

/// One recorded operation span.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpSpan {
    /// Primitive name: `"partition"`, `"broadcast"`, `"rehash"`,
    /// `"transpose"`, `"extract"`, `"rmm1"`, `"rmm2"`, `"cpmm"`,
    /// `"add"` … `"cell_div"`, `"map"`, `"fused"`, `"reduce"`, `"refetch"`, …
    pub op: &'static str,
    /// Human-readable label (operator label or matrix name).
    pub label: String,
    /// Simulated clock at span start (seconds).
    pub start_sec: f64,
    /// Simulated clock at span end (seconds).
    pub end_sec: f64,
    /// Real wall-clock time spent executing the primitive (seconds).
    pub wall_sec: f64,
    /// Bytes the simulated transport shipped (goodput, excludes retries).
    pub wire_bytes: u64,
    /// The kind `wire_bytes` were metered under (`None`: no send succeeded).
    pub comm: Option<CommKind>,
    /// Bytes of send attempts that failed transiently and were retried.
    pub retry_bytes: u64,
    /// Number of such failed attempts.
    pub retries: usize,
    /// Modelled network seconds charged to the clock, retries included.
    pub comm_sec: f64,
    /// Metered payload bytes the *physical* transport backend reported
    /// for this primitive. On the in-process backend this echoes
    /// `wire_bytes`; on the socket backend it is measured from the real
    /// tiles workers shipped, and the cluster asserts it equals
    /// `wire_bytes` (the conformance invariant).
    pub transport_bytes: u64,
    /// The operation's size in cost-model event units (Table 2).
    pub event_bytes: u64,
    /// Bytes sent per (logical) worker.
    pub sent: Vec<u64>,
    /// Bytes received per (logical) worker.
    pub received: Vec<u64>,
    /// Number of blocks the primitive touched / produced.
    pub blocks: usize,
    /// Buffer-pool hits (recycled blocks) during this span.
    pub pool_reused: usize,
    /// Buffer-pool misses (fresh allocations) during this span.
    pub pool_allocated: usize,
    /// True when the span belongs to failure recovery (lineage replay,
    /// source refetch, or a partially-executed attempt that was rolled
    /// back), not steady-state execution.
    pub recovery: bool,
    /// Observed non-zero count of the matrix this primitive produced
    /// (deduplicated across replicas), stamped after the span closes.
    /// `0` for primitives without a matrix output (reductions).
    pub out_nnz: u64,
}

impl OpSpan {
    /// Simulated duration of the span in seconds.
    pub fn sim_dur_sec(&self) -> f64 {
        (self.end_sec - self.start_sec).max(0.0)
    }

    /// Total bytes sent across all workers (equals `wire_bytes` for the
    /// communication primitives).
    pub fn sent_total(&self) -> u64 {
        self.sent.iter().sum()
    }

    /// Total bytes received across all workers.
    pub fn received_total(&self) -> u64 {
        self.received.iter().sum()
    }
}

/// Append-only span buffer owned by the cluster.
#[derive(Debug, Default)]
pub struct TraceBuffer {
    spans: Vec<OpSpan>,
    recovery_mode: bool,
}

impl TraceBuffer {
    /// Empty buffer.
    pub fn new() -> TraceBuffer {
        TraceBuffer::default()
    }

    /// Record one span; stamps the current recovery mode.
    pub fn record(&mut self, mut span: OpSpan) {
        span.recovery = span.recovery || self.recovery_mode;
        self.spans.push(span);
    }

    /// All spans recorded so far, in execution order.
    pub fn spans(&self) -> &[OpSpan] {
        &self.spans
    }

    /// Stamp the most recently recorded span with the physical
    /// transport's metered payload bytes. The cluster mirrors a primitive
    /// onto the transport *after* closing its span (the simulator's
    /// numbers are final by then), so the annotation always targets the
    /// span just recorded.
    pub fn annotate_last_transport(&mut self, bytes: u64) {
        if let Some(s) = self.spans.last_mut() {
            s.transport_bytes = bytes;
        }
    }

    /// Stamp the most recently recorded span with the observed nnz of
    /// its output matrix. Like [`Self::annotate_last_transport`], the
    /// cluster counts the output *after* closing the span (the result
    /// tiles exist only then), so the annotation targets the span just
    /// recorded.
    pub fn annotate_last_nnz(&mut self, nnz: u64) {
        if let Some(s) = self.spans.last_mut() {
            s.out_nnz = nnz;
        }
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when no spans have been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Enter / leave recovery mode: spans recorded while the flag is set
    /// are attributed to recovery, not steady-state execution.
    pub fn set_recovery_mode(&mut self, on: bool) {
        self.recovery_mode = on;
    }

    /// Re-flag every span from index `from` onward as recovery traffic.
    /// The engine calls this when an attempt fails partway: whatever the
    /// attempt already recorded was wasted work that recovery supersedes.
    pub fn mark_recovery_from(&mut self, from: usize) {
        for s in self.spans.iter_mut().skip(from) {
            s.recovery = true;
        }
    }

    /// Drop all spans and reset the mode (start of a fresh run).
    pub fn clear(&mut self) {
        self.spans.clear();
        self.recovery_mode = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op: &'static str, wire: u64) -> OpSpan {
        OpSpan {
            op,
            wire_bytes: wire,
            event_bytes: wire,
            ..OpSpan::default()
        }
    }

    #[test]
    fn records_in_order_and_clears() {
        let mut t = TraceBuffer::new();
        t.record(span("partition", 10));
        t.record(span("rmm1", 0));
        assert_eq!(t.len(), 2);
        assert_eq!(t.spans()[0].op, "partition");
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn recovery_mode_stamps_spans() {
        let mut t = TraceBuffer::new();
        t.record(span("partition", 10));
        t.set_recovery_mode(true);
        t.record(span("refetch", 5));
        t.set_recovery_mode(false);
        t.record(span("broadcast", 7));
        let flags: Vec<bool> = t.spans().iter().map(|s| s.recovery).collect();
        assert_eq!(flags, vec![false, true, false]);
    }

    #[test]
    fn mark_recovery_from_reflags_suffix() {
        let mut t = TraceBuffer::new();
        t.record(span("partition", 10));
        t.record(span("cpmm", 20));
        t.record(span("rehash", 0));
        t.mark_recovery_from(1);
        let flags: Vec<bool> = t.spans().iter().map(|s| s.recovery).collect();
        assert_eq!(flags, vec![false, true, true]);
    }

    #[test]
    fn nnz_annotation_targets_last_span() {
        let mut t = TraceBuffer::new();
        t.annotate_last_nnz(99); // no spans yet: a no-op
        t.record(span("partition", 10));
        t.record(span("rmm1", 0));
        t.annotate_last_nnz(42);
        assert_eq!(t.spans()[0].out_nnz, 0);
        assert_eq!(t.spans()[1].out_nnz, 42);
    }

    #[test]
    fn span_accessors() {
        let s = OpSpan {
            op: "broadcast",
            start_sec: 1.0,
            end_sec: 1.5,
            sent: vec![3, 0, 4],
            received: vec![0, 7, 0],
            ..OpSpan::default()
        };
        assert!((s.sim_dur_sec() - 0.5).abs() < 1e-12);
        assert_eq!(s.sent_total(), 7);
        assert_eq!(s.received_total(), 7);
    }
}
