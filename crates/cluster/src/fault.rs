//! Deterministic fault injection for the simulated cluster.
//!
//! Real DMac runs on Spark and inherits its lineage-based fault tolerance;
//! the paper does not evaluate failures, but any credible runtime must
//! survive them. This module provides the *failure side* of that story: a
//! [`FaultPlan`] describes **when** workers die and **how flaky** the
//! network is, and a [`FaultInjector`] turns the plan into a reproducible
//! schedule of faults driven by a recorded seed.
//!
//! Determinism is the design center: the injector draws from a
//! [`SplitMix64`] stream seeded by the plan, and every decision is logged
//! as a [`FaultEvent`]. Re-running the same workload with the same plan
//! yields the same kills at the same points, which is what lets the test
//! suite assert bit-for-bit result equality between healthy and faulty
//! runs, and lets a failing probabilistic seed be pinned as a regression
//! case.
//!
//! Three fault classes are modelled:
//!
//! * **kill at stage k** — the worker dies the moment stage `k` of a plan
//!   begins (a stage boundary is a communication step, where real
//!   executors are most likely to be declared lost);
//! * **probabilistic per-op kills** — before each cluster primitive a
//!   Bernoulli draw (`op_kill_prob`) may take a worker down;
//! * **transient send failures** — each metered send may fail with
//!   `transient_send_prob`; the comm layer retries up to
//!   `max_send_attempts`, charging the wasted bytes to the retry meter.

use dmac_matrix::SplitMix64;

/// A declarative description of the faults to inject into one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the injector's random stream. Recorded so any observed
    /// failure schedule can be replayed exactly.
    pub seed: u64,
    /// Kill a worker when this stage begins (one-shot: fires at most once
    /// per injector lifetime, i.e. not again during recovery replay).
    pub kill_at_stage: Option<usize>,
    /// Host to kill at the stage boundary; `None` draws a random live host
    /// from the seeded stream.
    pub kill_victim: Option<usize>,
    /// Probability that any single cluster primitive kills a worker on
    /// entry.
    pub op_kill_prob: f64,
    /// Probability that a metered send fails transiently and must be
    /// retried.
    pub transient_send_prob: f64,
    /// Bound on send attempts (first try + retries) before the comm layer
    /// gives up with `SendFailed`.
    pub max_send_attempts: usize,
    /// Upper bound on injected worker kills (stage + per-op combined).
    pub max_kills: usize,
    /// 0-based index of the disk tier's file-system call at which the
    /// process model crashes (`None` = never), counted from when the
    /// plan is armed. One-shot: later calls proceed normally — like a
    /// process that was restarted once.
    pub crash_op: Option<u64>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0xFA17,
            kill_at_stage: None,
            kill_victim: None,
            op_kill_prob: 0.0,
            transient_send_prob: 0.0,
            max_send_attempts: 4,
            max_kills: 1,
            crash_op: None,
        }
    }
}

impl FaultPlan {
    /// A plan that injects nothing (the default).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Kill one seeded-random live worker when `stage` begins.
    pub fn kill_stage(stage: usize, seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            kill_at_stage: Some(stage),
            ..FaultPlan::default()
        }
    }

    /// Kill workers probabilistically at primitive entry.
    pub fn random_kills(prob: f64, seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            op_kill_prob: prob,
            ..FaultPlan::default()
        }
    }

    /// Pin the stage-kill victim to a specific host.
    pub fn with_victim(mut self, host: usize) -> FaultPlan {
        self.kill_victim = Some(host);
        self
    }

    /// Set the transient send-failure probability.
    pub fn with_transient(mut self, prob: f64) -> FaultPlan {
        self.transient_send_prob = prob;
        self
    }

    /// Set the send-attempt bound.
    pub fn with_send_attempts(mut self, attempts: usize) -> FaultPlan {
        self.max_send_attempts = attempts.max(1);
        self
    }

    /// Set the total kill budget.
    pub fn with_max_kills(mut self, kills: usize) -> FaultPlan {
        self.max_kills = kills;
        self
    }

    /// Crash the process model at the disk tier's file-system call number
    /// `op` (0-based). Consumed by the disk tier's I/O seam.
    pub fn crash(op: u64) -> FaultPlan {
        FaultPlan {
            crash_op: Some(op),
            ..FaultPlan::default()
        }
    }
}

/// One injected fault, as recorded in the injector's log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultEvent {
    /// A worker was killed at a stage boundary.
    StageKill {
        /// Stage index that triggered the kill.
        stage: usize,
        /// Host taken down.
        host: usize,
    },
    /// A worker was killed at primitive entry.
    OpKill {
        /// Primitive that was entered.
        op: String,
        /// Host taken down.
        host: usize,
    },
    /// A send attempt failed transiently (and was retried by the caller).
    TransientSend {
        /// Label of the communication step.
        label: String,
        /// 1-based attempt number that failed.
        attempt: usize,
    },
}

/// Seeded executor of a [`FaultPlan`]. All draws come from one SplitMix64
/// stream, so the schedule is a pure function of the plan.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: SplitMix64,
    kills: usize,
    stage_fired: bool,
    log: Vec<FaultEvent>,
}

impl FaultInjector {
    /// Build an injector for `plan`.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            plan,
            rng: SplitMix64::new(plan.seed),
            kills: 0,
            stage_fired: false,
            log: Vec::new(),
        }
    }

    /// An injector that never fires.
    pub fn disabled() -> FaultInjector {
        FaultInjector::new(FaultPlan::none())
    }

    /// The plan driving this injector.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Every fault injected so far, in order.
    pub fn log(&self) -> &[FaultEvent] {
        &self.log
    }

    /// Number of workers killed so far.
    pub fn kills(&self) -> usize {
        self.kills
    }

    /// Send-attempt bound for the comm layer (at least 1).
    pub fn max_send_attempts(&self) -> usize {
        self.plan.max_send_attempts.max(1)
    }

    fn may_kill(&self, alive: &[usize]) -> bool {
        // Never take the last host: the simulator models a cluster that
        // keeps a quorum, and killing everyone would make every workload
        // trivially unrecoverable rather than exercising recovery.
        self.kills < self.plan.max_kills && alive.len() > 1
    }

    /// Called by the cluster when plan stage `stage` begins; returns the
    /// host to kill, if the plan says so.
    pub fn draw_stage_kill(&mut self, stage: usize, alive: &[usize]) -> Option<usize> {
        if self.stage_fired || self.plan.kill_at_stage != Some(stage) || !self.may_kill(alive) {
            return None;
        }
        self.stage_fired = true;
        let host = match self.plan.kill_victim {
            Some(h) => {
                if !alive.contains(&h) {
                    return None;
                }
                h
            }
            None => alive[self.rng.below(alive.len())],
        };
        self.kills += 1;
        self.log.push(FaultEvent::StageKill { stage, host });
        Some(host)
    }

    /// Called by the cluster on primitive entry; returns the host to kill,
    /// if the Bernoulli draw fires.
    pub fn draw_op_kill(&mut self, op: &str, alive: &[usize]) -> Option<usize> {
        if self.plan.op_kill_prob <= 0.0 {
            return None;
        }
        // The probability draw always advances the stream so the schedule
        // depends only on the sequence of primitives, not on kill budgets.
        let hit = self.rng.chance(self.plan.op_kill_prob);
        if !hit || !self.may_kill(alive) {
            return None;
        }
        let host = alive[self.rng.below(alive.len())];
        self.kills += 1;
        self.log.push(FaultEvent::OpKill {
            op: op.to_string(),
            host,
        });
        Some(host)
    }

    /// Called by the comm layer per send attempt; `true` means the attempt
    /// failed transiently and should be retried.
    pub fn draw_transient_send(&mut self, label: &str, attempt: usize) -> bool {
        if self.plan.transient_send_prob <= 0.0 {
            return false;
        }
        if self.rng.chance(self.plan.transient_send_prob) {
            self.log.push(FaultEvent::TransientSend {
                label: label.to_string(),
                attempt,
            });
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_injector_never_fires() {
        let mut inj = FaultInjector::disabled();
        let alive = [0, 1, 2, 3];
        for stage in 0..10 {
            assert_eq!(inj.draw_stage_kill(stage, &alive), None);
        }
        for _ in 0..100 {
            assert_eq!(inj.draw_op_kill("cpmm", &alive), None);
            assert!(!inj.draw_transient_send("x", 1));
        }
        assert!(inj.log().is_empty());
    }

    #[test]
    fn stage_kill_fires_once_at_the_right_stage() {
        let mut inj = FaultInjector::new(FaultPlan::kill_stage(2, 7).with_victim(1));
        let alive = [0, 1, 2];
        assert_eq!(inj.draw_stage_kill(0, &alive), None);
        assert_eq!(inj.draw_stage_kill(1, &alive), None);
        assert_eq!(inj.draw_stage_kill(2, &alive), Some(1));
        // one-shot: stage 2 of a replay does not kill again
        assert_eq!(inj.draw_stage_kill(2, &[0, 2]), None);
        assert_eq!(inj.log(), &[FaultEvent::StageKill { stage: 2, host: 1 }]);
    }

    #[test]
    fn random_victim_is_seed_deterministic() {
        let draw = |seed| {
            let mut inj = FaultInjector::new(FaultPlan::kill_stage(1, seed));
            inj.draw_stage_kill(1, &[0, 1, 2, 3, 4])
        };
        assert_eq!(draw(11), draw(11));
        let distinct: std::collections::HashSet<_> = (0..32).map(draw).collect();
        assert!(distinct.len() > 1, "seed must matter");
    }

    #[test]
    fn op_kill_respects_budget_and_quorum() {
        let mut inj = FaultInjector::new(FaultPlan::random_kills(1.0, 3).with_max_kills(2));
        assert!(inj.draw_op_kill("a", &[0, 1, 2]).is_some());
        assert!(inj.draw_op_kill("b", &[0, 1]).is_some());
        // budget exhausted
        assert_eq!(inj.draw_op_kill("c", &[0, 1]), None);
        assert_eq!(inj.kills(), 2);
        // never the last host
        let mut lone = FaultInjector::new(FaultPlan::random_kills(1.0, 3));
        assert_eq!(lone.draw_op_kill("a", &[0]), None);
    }

    #[test]
    fn transient_draws_are_logged_and_deterministic() {
        let run = |seed| {
            let plan = FaultPlan {
                seed,
                ..FaultPlan::none().with_transient(0.5)
            };
            let mut inj = FaultInjector::new(plan);
            (0..64)
                .map(|i| inj.draw_transient_send("s", i))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert!(run(9).iter().any(|&b| b));
        assert!(run(9).iter().any(|&b| !b));
        let plan = FaultPlan {
            seed: 9,
            ..FaultPlan::none().with_transient(0.5)
        };
        let mut inj = FaultInjector::new(plan);
        let fails = (0..64).filter(|&i| inj.draw_transient_send("s", i)).count();
        assert_eq!(inj.log().len(), fails, "every failure is logged");
    }
}
