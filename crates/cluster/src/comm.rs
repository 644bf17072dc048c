//! Communication totals and the simulated network.
//!
//! Figure 6(b) of the paper plots "amount of data" shuffled per iteration;
//! §6.2 reports the fraction of execution time spent communicating. To
//! reproduce both on a single machine, every cluster primitive records
//! what it moved on its own [`OpSpan`] — the bytes, the [`CommKind`] they
//! were metered under, the retried attempts and the modelled network
//! seconds — and [`CommStats`] is a fold over a slice of spans: a run's,
//! a step's, a phase's. A [`NetworkModel`] turns bytes into simulated
//! seconds on a [`SimClock`], which stamps each span's start and end.

use std::fmt;

use crate::trace::OpSpan;

/// What kind of movement a communication event was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommKind {
    /// All-to-all repartitioning (the `partition` extended operator, and
    /// the CPMM output aggregation).
    Shuffle,
    /// One-to-all replication (the `broadcast` extended operator).
    Broadcast,
    /// Re-fetching durable source data while rebuilding state lost to a
    /// worker failure (lineage recovery).
    Recovery,
}

/// Communication totals of a slice of spans: goodput bytes by kind, the
/// bytes and attempts transient send failures wasted, and the modelled
/// network seconds.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct CommStats {
    shuffle_bytes: u64,
    broadcast_bytes: u64,
    recovery_bytes: u64,
    retry_bytes: u64,
    retry_events: usize,
    comm_sec: f64,
}

impl CommStats {
    /// Fold `spans`: each span's wire bytes count under the kind it was
    /// metered under, beside its retries and network seconds.
    pub fn of<'a>(spans: impl IntoIterator<Item = &'a OpSpan>) -> CommStats {
        let mut c = CommStats::default();
        for s in spans {
            match s.comm {
                Some(CommKind::Shuffle) => c.shuffle_bytes += s.wire_bytes,
                Some(CommKind::Broadcast) => c.broadcast_bytes += s.wire_bytes,
                Some(CommKind::Recovery) => c.recovery_bytes += s.wire_bytes,
                None => {}
            }
            c.retry_bytes += s.retry_bytes;
            c.retry_events += s.retries;
            c.comm_sec += s.comm_sec;
        }
        c
    }

    /// Total bytes moved by shuffles (repartition + CPMM aggregation).
    pub fn shuffle_bytes(&self) -> u64 {
        self.shuffle_bytes
    }

    /// Total bytes moved by broadcasts.
    pub fn broadcast_bytes(&self) -> u64 {
        self.broadcast_bytes
    }

    /// Bytes re-read from durable sources during lineage recovery.
    pub fn recovery_bytes(&self) -> u64 {
        self.recovery_bytes
    }

    /// Bytes wasted by transient send failures (retried attempts).
    pub fn retry_bytes(&self) -> u64 {
        self.retry_bytes
    }

    /// Number of send attempts that failed transiently and were retried.
    pub fn retry_events(&self) -> usize {
        self.retry_events
    }

    /// Modelled network seconds, failed attempts included.
    pub fn comm_sec(&self) -> f64 {
        self.comm_sec
    }

    /// Total goodput bytes moved (shuffle + broadcast + recovery; wasted
    /// retry bytes are excluded — see [`CommStats::retry_bytes`]).
    pub fn total_bytes(&self) -> u64 {
        self.shuffle_bytes + self.broadcast_bytes + self.recovery_bytes
    }
}

impl fmt::Display for CommStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "comm: {:.3} MB shuffled + {:.3} MB broadcast",
            self.shuffle_bytes as f64 / 1e6,
            self.broadcast_bytes as f64 / 1e6,
        )?;
        if self.recovery_bytes > 0 || self.retry_events > 0 {
            write!(
                f,
                " (+{:.3} MB recovery, {:.3} MB over {} retries)",
                self.recovery_bytes as f64 / 1e6,
                self.retry_bytes as f64 / 1e6,
                self.retry_events
            )?;
        }
        Ok(())
    }
}

/// A simple bandwidth/latency network model.
///
/// The paper's cluster is gigabit-Ethernet-class hardware (2.6 GHz CPUs,
/// 48 GB RAM, 2014-era); the default 1 Gbit/s ≈ 125 MB/s with 1 ms per
/// communication round matches that class of machine. The *shape* of every
/// experiment is insensitive to the exact constants — they scale every
/// system's communication term equally.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// Aggregate deliverable bytes per second during a shuffle/broadcast.
    pub bandwidth_bytes_per_sec: f64,
    /// Fixed cost per communication round (scheduling + connection setup).
    pub latency_sec: f64,
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel {
            bandwidth_bytes_per_sec: 125.0e6,
            latency_sec: 1e-3,
        }
    }
}

impl NetworkModel {
    /// An effectively-infinite network (isolates compute behaviour).
    pub fn infinite() -> Self {
        NetworkModel {
            bandwidth_bytes_per_sec: f64::INFINITY,
            latency_sec: 0.0,
        }
    }

    /// Simulated seconds to move `bytes` in one communication round.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        self.latency_sec + bytes as f64 / self.bandwidth_bytes_per_sec
    }
}

/// Accumulates simulated wall-clock time: measured local compute plus
/// modelled network time.
#[derive(Debug, Default, Clone, Copy)]
pub struct SimClock {
    compute_sec: f64,
    comm_sec: f64,
}

impl SimClock {
    /// Add measured local compute seconds (max across workers for a stage).
    pub fn add_compute(&mut self, sec: f64) {
        self.compute_sec += sec;
    }

    /// Add modelled communication seconds.
    pub fn add_comm(&mut self, sec: f64) {
        self.comm_sec += sec;
    }

    /// Compute part of the simulated time.
    pub fn compute_sec(&self) -> f64 {
        self.compute_sec
    }

    /// Communication part of the simulated time.
    pub fn comm_sec(&self) -> f64 {
        self.comm_sec
    }

    /// Total simulated execution time.
    pub fn total_sec(&self) -> f64 {
        self.compute_sec + self.comm_sec
    }

    /// Fraction of total time spent communicating (0 when idle).
    pub fn comm_fraction(&self) -> f64 {
        let t = self.total_sec();
        if t == 0.0 {
            0.0
        } else {
            self.comm_sec / t
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(comm: Option<CommKind>, wire: u64) -> OpSpan {
        OpSpan {
            comm,
            wire_bytes: wire,
            ..OpSpan::default()
        }
    }

    #[test]
    fn totals_fold_spans_by_kind() {
        let spans = [
            span(Some(CommKind::Shuffle), 100),
            span(Some(CommKind::Broadcast), 50),
            span(None, 0),
            span(Some(CommKind::Shuffle), 25),
        ];
        let s = CommStats::of(&spans);
        assert_eq!(s.shuffle_bytes(), 125);
        assert_eq!(s.broadcast_bytes(), 50);
        assert_eq!(s.total_bytes(), 175);
        assert_eq!(CommStats::of(&spans[..1]).total_bytes(), 100);
        assert_eq!(CommStats::of(&[]), CommStats::default());
    }

    #[test]
    fn network_model_time() {
        let n = NetworkModel {
            bandwidth_bytes_per_sec: 100.0,
            latency_sec: 0.5,
        };
        assert_eq!(n.transfer_time(0), 0.0);
        assert!((n.transfer_time(200) - 2.5).abs() < 1e-12);
        let inf = NetworkModel::infinite();
        assert_eq!(inf.transfer_time(1 << 40), 0.0);
    }

    #[test]
    fn clock_fractions() {
        let mut c = SimClock::default();
        c.add_compute(3.0);
        c.add_comm(1.0);
        assert_eq!(c.total_sec(), 4.0);
        assert_eq!(c.comm_fraction(), 0.25);
        assert_eq!(SimClock::default().comm_fraction(), 0.0);
    }

    #[test]
    fn recovery_and_retry_counters() {
        let retried = OpSpan {
            retry_bytes: 50,
            retries: 2,
            comm_sec: 0.75,
            ..span(Some(CommKind::Shuffle), 100)
        };
        // A send that exhausted its attempts metered no goodput.
        let failed = OpSpan {
            retry_bytes: 25,
            retries: 1,
            ..span(None, 0)
        };
        let s = CommStats::of(&[retried, span(Some(CommKind::Recovery), 40), failed]);
        assert_eq!(s.recovery_bytes(), 40);
        assert_eq!(s.retry_bytes(), 75);
        assert_eq!(s.retry_events(), 3);
        assert_eq!(s.comm_sec(), 0.75);
        assert_eq!(s.total_bytes(), 140, "retries excluded from goodput");
        let text = s.to_string();
        assert!(text.contains("recovery"), "{text}");
    }

    #[test]
    fn display_is_human_readable() {
        let s = CommStats::of(&[span(Some(CommKind::Shuffle), 2_000_000)]);
        let text = s.to_string();
        assert!(text.contains("2.000 MB"), "{text}");
    }
}
