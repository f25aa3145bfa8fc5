//! Declarative fault plans for consensus cluster runs.
//!
//! A [`FaultPlan`] describes *when* and *how* a cluster misbehaves:
//! scheduled replica crashes (optionally followed by a restart), network
//! partitions (optionally healed), windows of elevated message loss,
//! per-replica byzantine modes, and corrupted payload injection. The plan
//! is data, not code — the same plan drives a PBFT run, a PoA run, and
//! the node-layer recovery logic, and because the simulator executes it
//! at exact simulation ticks the whole fault scenario is deterministic
//! and replayable from a seed.

use crate::pbft::ByzMode;
use crate::poa::PoaMode;
use crate::sim::{NodeId, Simulator};

/// A scheduled replica crash, optionally followed by a restart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashFault {
    /// The replica to crash.
    pub replica: NodeId,
    /// Simulation tick of the crash.
    pub at: u64,
    /// Simulation tick of the restart; `None` keeps the replica down for
    /// the rest of the run.
    pub restart_at: Option<u64>,
}

/// A scheduled network partition, optionally healed later.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionFault {
    /// Simulation tick the partition takes effect.
    pub at: u64,
    /// The connectivity groups; messages crossing group boundaries are
    /// dropped while the partition holds.
    pub groups: Vec<Vec<NodeId>>,
    /// Simulation tick the partition heals; `None` keeps it for the rest
    /// of the run.
    pub heal_at: Option<u64>,
}

/// A window of elevated random message loss.
#[derive(Debug, Clone, PartialEq)]
pub struct DropWindow {
    /// Window start tick (inclusive).
    pub from: u64,
    /// Window end tick (exclusive).
    pub until: u64,
    /// Drop probability inside the window, in `[0, 1]`.
    pub drop_prob: f64,
}

/// A declarative fault schedule for one cluster run.
///
/// The default plan is fault-free; every field composes independently,
/// so a scenario is built by filling in only the faults it needs.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Scheduled crashes (and optional restarts).
    pub crashes: Vec<CrashFault>,
    /// Scheduled partitions (and optional heals).
    pub partitions: Vec<PartitionFault>,
    /// Windows of elevated message loss.
    pub drop_windows: Vec<DropWindow>,
    /// Per-replica PBFT byzantine modes; unlisted replicas are honest.
    pub byz_modes: Vec<(NodeId, ByzMode)>,
    /// Per-replica PoA modes; unlisted validators are honest.
    pub poa_modes: Vec<(NodeId, PoaMode)>,
    /// Number of corrupted (undecodable) payloads injected into the
    /// request stream alongside the real workload. Consensus orders them
    /// like any payload; the execution layer must count and skip them
    /// identically on every replica.
    pub corrupt_payloads: usize,
}

impl FaultPlan {
    /// Checks the plan against a cluster of `n` replicas: replica ids in
    /// range, windows well-ordered, drop probabilities valid.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first invalid entry.
    pub fn validate(&self, n: usize) -> Result<(), String> {
        for c in &self.crashes {
            if c.replica >= n {
                return Err(format!("crash fault names replica {} of {n}", c.replica));
            }
            if let Some(r) = c.restart_at {
                if r <= c.at {
                    return Err(format!(
                        "crash of replica {} restarts at {r} <= crash time {}",
                        c.replica, c.at
                    ));
                }
            }
        }
        for p in &self.partitions {
            if let Some(h) = p.heal_at {
                if h <= p.at {
                    return Err(format!("partition at {} heals at {h} <= start", p.at));
                }
            }
            for g in &p.groups {
                for &id in g {
                    if id >= n {
                        return Err(format!("partition group names replica {id} of {n}"));
                    }
                }
            }
        }
        for w in &self.drop_windows {
            if w.until <= w.from {
                return Err(format!("drop window [{}, {}) is empty", w.from, w.until));
            }
            if !(0.0..=1.0).contains(&w.drop_prob) || w.drop_prob.is_nan() {
                return Err(format!(
                    "drop window probability {} outside [0, 1]",
                    w.drop_prob
                ));
            }
        }
        for &(id, _) in &self.byz_modes {
            if id >= n {
                return Err(format!("byzantine mode names replica {id} of {n}"));
            }
        }
        for &(id, _) in &self.poa_modes {
            if id >= n {
                return Err(format!("poa mode names replica {id} of {n}"));
            }
        }
        Ok(())
    }

    /// The PBFT mode assigned to `id` (honest unless listed).
    pub fn byz_mode_of(&self, id: NodeId) -> ByzMode {
        self.byz_modes
            .iter()
            .find(|(i, _)| *i == id)
            .map(|(_, m)| *m)
            .unwrap_or(ByzMode::Honest)
    }

    /// The PoA mode assigned to `id` (honest unless listed).
    pub fn poa_mode_of(&self, id: NodeId) -> PoaMode {
        self.poa_modes
            .iter()
            .find(|(i, _)| *i == id)
            .map(|(_, m)| *m)
            .unwrap_or(PoaMode::Honest)
    }

    /// Replicas the plan crashes at any point.
    pub fn crashed_replicas(&self) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self.crashes.iter().map(|c| c.replica).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Replicas the plan crashes and later restarts, with their restart
    /// ticks.
    pub fn revived_replicas(&self) -> Vec<(NodeId, u64)> {
        let mut out: Vec<(NodeId, u64)> = self
            .crashes
            .iter()
            .filter_map(|c| c.restart_at.map(|r| (c.replica, r)))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// True when the plan has `id` down (crashed, not yet restarted) at
    /// tick `t`. Used to pick live injection targets for a workload.
    pub(crate) fn is_down_at(&self, id: NodeId, t: u64) -> bool {
        self.crashes
            .iter()
            .any(|c| c.replica == id && c.at <= t && c.restart_at.map(|r| r > t).unwrap_or(true))
    }

    /// Installs the plan's scheduled actions (crashes, restarts,
    /// partitions, heals, drop windows) on `sim` as deterministic control
    /// events. Byzantine modes and corrupt payloads are not handled here:
    /// modes are applied at replica construction and payload corruption at
    /// injection time, both by the harness.
    pub(crate) fn schedule_on<M: Clone, N: crate::sim::Node<M>>(&self, sim: &mut Simulator<M, N>) {
        for c in &self.crashes {
            sim.schedule_crash(c.at, c.replica);
            if let Some(r) = c.restart_at {
                sim.schedule_revive(r, c.replica);
            }
        }
        for p in &self.partitions {
            let groups = p
                .groups
                .iter()
                .map(|g| g.iter().copied().collect())
                .collect();
            sim.schedule_partition(p.at, groups);
            if let Some(h) = p.heal_at {
                sim.schedule_heal(h);
            }
        }
        for w in &self.drop_windows {
            sim.schedule_drop_window(w.from, w.until, w.drop_prob);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{Context, NetworkConfig, Node};

    #[test]
    fn default_plan_is_empty_and_valid() {
        let plan = FaultPlan::default();
        assert!(plan.crashes.is_empty() && plan.partitions.is_empty());
        assert!(plan.drop_windows.is_empty() && plan.corrupt_payloads == 0);
        assert!(plan.byz_modes.is_empty() && plan.poa_modes.is_empty());
        assert!(plan.validate(4).is_ok());
        assert_eq!(plan.byz_mode_of(2), ByzMode::Honest);
        assert_eq!(plan.poa_mode_of(2), PoaMode::Honest);
    }

    #[test]
    fn validate_rejects_out_of_range_replicas() {
        let plan = FaultPlan {
            crashes: vec![CrashFault {
                replica: 7,
                at: 10,
                restart_at: None,
            }],
            ..FaultPlan::default()
        };
        assert!(plan.validate(4).unwrap_err().contains("replica 7"));

        let plan = FaultPlan {
            byz_modes: vec![(9, ByzMode::Silent)],
            ..FaultPlan::default()
        };
        assert!(plan.validate(4).is_err());

        let plan = FaultPlan {
            partitions: vec![PartitionFault {
                at: 5,
                groups: vec![vec![0, 5]],
                heal_at: None,
            }],
            ..FaultPlan::default()
        };
        assert!(plan.validate(4).is_err());
    }

    #[test]
    fn validate_rejects_inverted_windows_and_bad_probs() {
        let plan = FaultPlan {
            crashes: vec![CrashFault {
                replica: 0,
                at: 100,
                restart_at: Some(50),
            }],
            ..FaultPlan::default()
        };
        assert!(plan.validate(4).is_err());

        let plan = FaultPlan {
            drop_windows: vec![DropWindow {
                from: 10,
                until: 10,
                drop_prob: 0.5,
            }],
            ..FaultPlan::default()
        };
        assert!(plan.validate(4).is_err());

        let plan = FaultPlan {
            drop_windows: vec![DropWindow {
                from: 0,
                until: 10,
                drop_prob: 1.5,
            }],
            ..FaultPlan::default()
        };
        assert!(plan.validate(4).is_err());

        let plan = FaultPlan {
            drop_windows: vec![DropWindow {
                from: 0,
                until: 10,
                drop_prob: f64::NAN,
            }],
            ..FaultPlan::default()
        };
        assert!(plan.validate(4).is_err());
    }

    #[test]
    fn crashed_and_revived_replica_queries() {
        let plan = FaultPlan {
            crashes: vec![
                CrashFault {
                    replica: 3,
                    at: 10,
                    restart_at: Some(500),
                },
                CrashFault {
                    replica: 1,
                    at: 20,
                    restart_at: None,
                },
            ],
            ..FaultPlan::default()
        };
        assert_eq!(plan.crashed_replicas(), vec![1, 3]);
        assert_eq!(plan.revived_replicas(), vec![(3, 500)]);
    }

    /// Sends the other node a message every 10 ticks; records the tick of
    /// every delivery.
    struct Ticker {
        me: NodeId,
        delivered_at: Vec<u64>,
    }

    impl Node<()> for Ticker {
        fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
            ctx.set_timer(10, 0);
        }
        fn on_message(&mut self, _: NodeId, _: (), ctx: &mut Context<'_, ()>) {
            self.delivered_at.push(ctx.now());
        }
        fn on_timer(&mut self, _: u64, ctx: &mut Context<'_, ()>) {
            ctx.send(1 - self.me, ());
            ctx.set_timer(10, 0);
        }
    }

    /// Runs two tickers to tick 1 000 under `windows` (all at loss 1.0)
    /// and returns the delivery ticks.
    fn deliveries_under(windows: &[(u64, u64)]) -> Vec<u64> {
        let plan = FaultPlan {
            drop_windows: windows
                .iter()
                .map(|&(from, until)| DropWindow {
                    from,
                    until,
                    drop_prob: 1.0,
                })
                .collect(),
            ..FaultPlan::default()
        };
        assert!(plan.validate(2).is_ok());
        let nodes = (0..2)
            .map(|me| Ticker {
                me,
                delivered_at: Vec::new(),
            })
            .collect();
        let mut sim = Simulator::new(nodes, NetworkConfig::default());
        plan.schedule_on(&mut sim);
        sim.run_until(1_000);
        sim.nodes()
            .flat_map(|n| n.delivered_at.iter().copied())
            .collect()
    }

    /// Deliveries in `[from, until)`. A message sent just before a window
    /// opens lands at most 15 ticks in.
    fn delivered_within(at: &[u64], from: u64, until: u64) -> usize {
        at.iter().filter(|t| (from..until).contains(*t)).count()
    }

    #[test]
    fn inner_drop_window_ending_leaves_the_outer_window_open() {
        let at = deliveries_under(&[(100, 600), (200, 300)]);
        assert_eq!(delivered_within(&at, 120, 600), 0);
        assert!(delivered_within(&at, 0, 100) > 0);
        assert!(delivered_within(&at, 600, 1_000) > 0);
    }

    #[test]
    fn adjacent_drop_windows_listed_late_first_both_hold() {
        let at = deliveries_under(&[(300, 600), (100, 300)]);
        assert_eq!(delivered_within(&at, 120, 600), 0);
        assert!(delivered_within(&at, 600, 1_000) > 0);
        assert_eq!(at, deliveries_under(&[(100, 300), (300, 600)]));
    }
}
