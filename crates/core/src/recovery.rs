//! Lineage-based stage recovery (the runtime's answer to worker loss).
//!
//! Real DMac runs on Spark and inherits RDD lineage: when an executor
//! dies, the partitions it held are recomputed from their parents, back to
//! durable input data. This module reproduces that contract for the
//! simulated cluster, at **stage granularity**:
//!
//! 1. the dead host is [`decommissioned`](dmac_cluster::Cluster::decommission)
//!    and its logical workers are remapped onto the survivors (logical
//!    worker count — and therefore every f64 summation order — is
//!    unchanged, so recovered runs are bit-for-bit identical to healthy
//!    ones);
//! 2. every live value that lost tiles with the host is rebuilt by walking
//!    the plan's lineage: source nodes are re-fetched from their durable
//!    bindings (metered as [`CommKind::Recovery`](dmac_cluster::CommKind)
//!    traffic), `random` sources are regenerated from the recorded seed,
//!    and intermediate nodes are recomputed by deterministically replaying
//!    their producing steps;
//! 3. the engine re-executes the step that observed the failure and
//!    continues — the caller never sees the fault unless the attempt
//!    budget runs out, in which case the run fails with the typed
//!    [`CoreError::RecoveryExhausted`].
//!
//! Stage granularity is deliberately coarse (and honest about its cost): a
//! damaged Broadcast value is rebuilt by replaying the whole broadcast
//! rather than copying surviving replicas, so recovery overhead reported
//! by [`RecoveryStats`] is an upper bound on what a finer-grained runtime
//! would pay. See DESIGN.md §8.

use std::collections::{HashMap, HashSet};

use dmac_cluster::{Cluster, DistMatrix};
use dmac_lang::ScalarId;

use crate::engine::{exec_step, seed_source, ExecCtx};
use crate::error::{CoreError, Result};

/// How the engine responds to worker loss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Worker losses tolerated per run before giving up with
    /// [`CoreError::RecoveryExhausted`]. `0` means fail fast (the
    /// pre-recovery behaviour).
    pub max_attempts: usize,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy { max_attempts: 3 }
    }
}

impl RecoveryPolicy {
    /// Tolerate up to `n` worker losses per run.
    pub fn attempts(n: usize) -> RecoveryPolicy {
        RecoveryPolicy { max_attempts: n }
    }

    /// Fail fast on the first worker loss.
    pub fn disabled() -> RecoveryPolicy {
        RecoveryPolicy { max_attempts: 0 }
    }
}

/// What recovery cost a run, as reported in
/// [`ExecReport`](crate::engine::ExecReport).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RecoveryStats {
    /// Worker losses observed (each consumes one attempt).
    pub worker_failures: usize,
    /// Completed recovery rounds (a round may span nested failures).
    pub recovery_rounds: usize,
    /// Plan steps replayed to rebuild lost state.
    pub replayed_steps: usize,
    /// Distinct stages those replayed steps belonged to.
    pub re_executed_stages: usize,
    /// Source nodes re-seeded from durable bindings (or regenerated).
    pub refetched_sources: usize,
    /// Extra bytes moved because of failures: wasted partial attempts,
    /// re-fetched sources, replayed shuffles/broadcasts, and send retries.
    pub recovery_bytes: u64,
    /// Simulated seconds spent on failed attempts plus recovery work
    /// (already included in the report's total clock).
    pub recovery_sec: f64,
}

impl RecoveryStats {
    /// Did any failure occur?
    pub fn any(&self) -> bool {
        self.worker_failures > 0
    }
}

/// Recover from the loss of `dead_host` observed while executing
/// `resume_step`: decommission the host, rebuild every damaged live value
/// through lineage, and drop rebuilt values the resumed execution no
/// longer needs. On return the engine can re-execute `resume_step` as if
/// the failure never happened. Scalars live on the driver and survive
/// untouched; they are passed through because replayed steps may read
/// them.
#[allow(clippy::too_many_arguments)]
pub(crate) fn recover(
    cluster: &mut Cluster,
    ctx: &ExecCtx<'_>,
    values: &mut [Option<DistMatrix>],
    scalars: &mut HashMap<ScalarId, f64>,
    resume_step: usize,
    dead_host: usize,
    stats: &mut RecoveryStats,
) -> Result<()> {
    let lost = cluster.decommission(dead_host)?;
    for v in values.iter_mut().flatten() {
        v.drop_workers(&lost);
    }

    // Rebuild every damaged live value, plus whatever the resumed step
    // reads: ensure() is the single place that decides whether a value is
    // intact, and an input a failed attempt consumed past its entry is
    // gone whole. A replayed step consumes nothing — another replay may
    // read its input — and the sweep below drops what it kept.
    let mut replayed_stages: HashSet<usize> = HashSet::new();
    let mut need: Vec<usize> = (0..values.len()).filter(|&n| values[n].is_some()).collect();
    need.extend(ctx.plan.steps[resume_step].in_nodes());
    for node in need {
        ensure(
            cluster,
            ctx,
            values,
            scalars,
            node,
            stats,
            &mut replayed_stages,
        )?;
    }
    stats.re_executed_stages += replayed_stages.len();

    // Lineage replay may have resurrected values whose releasing step
    // already ran; drop them again. The transport holds the replayed
    // shards under rids no plan step will free: they go with the
    // session's sweep when the run ends.
    for (value, at) in values.iter_mut().zip(&ctx.released_at) {
        if at.is_some_and(|at| at < resume_step) {
            *value = None;
        }
    }
    Ok(())
}

/// Make `node`'s value complete, replaying lineage as needed: intact
/// values are left alone, sources are re-seeded from durable bindings,
/// intermediates are recomputed by replaying their producing step (after
/// recursively ensuring that step's inputs).
fn ensure(
    cluster: &mut Cluster,
    ctx: &ExecCtx<'_>,
    values: &mut [Option<DistMatrix>],
    scalars: &mut HashMap<ScalarId, f64>,
    node: usize,
    stats: &mut RecoveryStats,
    replayed_stages: &mut HashSet<usize>,
) -> Result<()> {
    if let Some(v) = &values[node] {
        if v.validate().is_ok() {
            return Ok(());
        }
    }
    if let Some(&mid) = ctx.sources.get(&node) {
        values[node] = Some(seed_source(cluster, ctx, node, mid, true)?);
        stats.refetched_sources += 1;
        return Ok(());
    }
    let step_idx = ctx.producer[node].ok_or_else(|| {
        CoreError::Engine(format!("node {node} has no producer for lineage replay"))
    })?;
    for n in ctx.plan.steps[step_idx].in_nodes() {
        ensure(cluster, ctx, values, scalars, n, stats, replayed_stages)?;
    }
    exec_step(cluster, ctx, step_idx, &[], values, scalars)?;
    stats.replayed_steps += 1;
    replayed_stages.insert(ctx.step_stage[step_idx]);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_defaults_and_constructors() {
        assert_eq!(RecoveryPolicy::default().max_attempts, 3);
        assert_eq!(RecoveryPolicy::disabled().max_attempts, 0);
        assert_eq!(RecoveryPolicy::attempts(7).max_attempts, 7);
    }

    #[test]
    fn stats_report_activity() {
        let mut s = RecoveryStats::default();
        assert!(!s.any());
        s.worker_failures = 1;
        assert!(s.any());
    }
}
