//! Deterministic fault-injection harness: seeded schedules of
//! crash / restart / checkpoint / message-loss events driven through the
//! simulator clock, replayable from a printed seed.
//!
//! A [`FaultPlan`] is generated from a scenario and one `u64` seed:
//! a sequence of update *rounds*, each with an initiator and a list of
//! [`Fault`]s pinned to simulator event counts (relative to the round's
//! injection). [`run_fault_plan`] executes the plan twice —
//!
//! * a **control** network runs the identical update schedule with no
//!   faults and lossless pipes;
//! * the **experiment** network runs it with per-pipe message loss, nodes
//!   crashing mid-round (their in-memory state dropped on the floor),
//!   stores checkpointing (snapshot + WAL compaction) at arbitrary
//!   points, and every crashed node restarted from disk — between rounds
//!   by default, or **mid-round** via a scheduled [`FaultKind::Restart`]
//!   — which triggers the crash-rejoin handshake (`codb_core::rejoin`):
//!   survivors release the update traffic they parked behind the rejoin
//!   barrier while the node was down, push a `RejoinRepair` of what
//!   every link toward it fired past the mark it reported, and, when the
//!   generator picks the freshly
//!   rejoined node as the next initiator, the rejoin-as-initiator path
//!   runs too. The [`FaultPlan::overlapping_rejoin`] and
//!   [`FaultPlan::rolling_restart`] constructors build schedules where
//!   all of that interleaves with live update traffic.
//!
//! The harness then asserts *reconvergence*, twice over. Every experiment
//! node's LDB must be isomorphic (equal up to marked-null renaming) to the
//! fixpoint of the centralised chase ([`crate::oracle`]) — an
//! implementation that shares no protocol code with the network under
//! test — and must match its control counterpart: strictly for rule
//! styles without existentials, isomorphically plus null-factory counter
//! equality for GLAV rules, whose null labels legitimately depend on
//! apply order.
//!
//! Everything is deterministic: the simulator is seeded from the plan
//! seed (loss draws included), the schedule is a pure function of the
//! seed, and a failing case can be replayed from the seed printed in the
//! failure message.
//!
//! This is the only crash/restart runner: the single mid-update crash of
//! the durability acceptance tests and E17 is [`FaultPlan::single_crash`].

use crate::oracle::chase_seminaive;
use crate::powercut::AckedWatermark;
use crate::scenario::{RuleStyle, Scenario};
use codb_core::{
    Body, CoDbNetwork, Envelope, NodeId, NodeReport, NodeSettings, UpdateId, HARNESS_PEER,
};
use codb_net::{PipeConfig, SimConfig};
use codb_relational::isomorphic;
use codb_store::{RecoveryStats, StoreError, SyncPolicy};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::Path;

/// What a scheduled fault does to its node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Kill the node: all in-memory state (protocol caches, counters,
    /// store handle) is dropped; the durable directory survives. The node
    /// is restarted from disk at the end of the round — unless a
    /// [`FaultKind::Restart`] for it is scheduled later in the plan, in
    /// which case it stays down until that fault fires.
    Crash,
    /// Restart a previously crashed node from its data directory
    /// **mid-round** (no drain): its rejoin handshake — and the barrier
    /// release plus `RejoinRepair` push it triggers at every survivor —
    /// interleaves with the round's live update traffic instead of
    /// running in an idle network. A `Restart` for a node that is up (or
    /// never went down) is a no-op.
    Restart,
    /// Checkpoint the node's store: snapshot, WAL rotation, compaction.
    Checkpoint,
    /// Kill **every live node at once** — the single-host power-loss
    /// scenario a shared group-commit scheduler must survive (`node` is
    /// ignored). Combined with [`FaultPlan::lose_unsynced_tail`], each
    /// store's WAL is chopped to an arbitrary point at or past its
    /// durable watermark before the restarts — the crash lands *between
    /// batch formation and drain*, and the runner proves no acked record
    /// is lost.
    HostCrash,
}

/// One scheduled fault.
#[derive(Clone, Copy, Debug)]
pub struct Fault {
    /// Simulator events after the round's injection at which to fire.
    pub at_event: u64,
    /// The node the fault hits.
    pub node: NodeId,
    /// What happens.
    pub kind: FaultKind,
}

/// One update round of the schedule.
#[derive(Clone, Debug)]
pub struct Round {
    /// Node that initiates this round's global update.
    pub initiator: NodeId,
    /// Faults fired while the round runs, in `at_event` order.
    pub faults: Vec<Fault>,
}

/// A complete, replayable fault schedule.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// The workload (topology, rules, data).
    pub scenario: Scenario,
    /// The seed everything derives from (print this to replay).
    pub seed: u64,
    /// Per-pipe message-drop probability in the experiment network (the
    /// reliable layer retransmits; loss reorders and delays, never
    /// silently removes).
    pub loss: f64,
    /// WAL durability policy for every node's store.
    pub sync: SyncPolicy,
    /// Simulate the page-cache loss of a real power cut: when a node (or
    /// the whole host) crashes, its live WAL is truncated to a seeded
    /// point at or past the **durable watermark** (the fsync-covered
    /// prefix; see `codb_store::Store::durable_wal_records`) before the
    /// restart — appended-but-never-acked records vanish, possibly
    /// leaving a torn tail. The runner then asserts every *acked* record
    /// survived recovery. With `false` (the legacy behaviour) crashes
    /// drop in-memory state only and the full written file survives.
    pub lose_unsynced_tail: bool,
    /// The update rounds. The generator keeps the last round fault-free
    /// so the network can reconverge.
    pub rounds: Vec<Round>,
}

impl FaultPlan {
    /// `rounds` under the defaults every schedule starts from — lossless
    /// pipes, an fsync per record, crashes that leave every
    /// written WAL byte on disk — so each constructor names only what it
    /// changes.
    fn over(scenario: Scenario, seed: u64, rounds: Vec<Round>) -> FaultPlan {
        FaultPlan {
            scenario,
            seed,
            loss: 0.0,
            sync: SyncPolicy::Always,
            lose_unsynced_tail: false,
            rounds,
        }
    }

    /// Generates the schedule for `scenario` from `seed`: 2–4 rounds,
    /// each with an up-front initiator, at most one crash per round (one
    /// node down at a time), checkpoints sprinkled on live nodes, and a
    /// fault-free final round whose initiator is biased toward the most
    /// recently crashed node (the rejoin-as-initiator scenario).
    pub fn generate(scenario: Scenario, seed: u64) -> FaultPlan {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xFA17_F1A9);
        let nodes = scenario.topology.node_count() as u64;
        let pick = |rng: &mut SmallRng| NodeId(rng.gen_range(0..nodes));
        let n_rounds = rng.gen_range(2usize..5);
        let mut rounds = Vec::with_capacity(n_rounds);
        let mut last_crashed: Option<NodeId> = None;
        for r in 0..n_rounds {
            let final_round = r + 1 == n_rounds;
            let initiator = match last_crashed {
                // Rejoin-as-initiator: after a crash round, the recovered
                // node usually leads the next one.
                Some(v) if rng.gen_bool(0.75) => v,
                _ => pick(&mut rng),
            };
            let mut faults = Vec::new();
            if !final_round {
                if rng.gen_bool(0.8) {
                    let victim = pick(&mut rng);
                    faults.push(Fault {
                        at_event: rng.gen_range(1u64..60),
                        node: victim,
                        kind: FaultKind::Crash,
                    });
                    last_crashed = Some(victim);
                }
                if rng.gen_bool(0.5) {
                    faults.push(Fault {
                        at_event: rng.gen_range(1u64..60),
                        node: pick(&mut rng),
                        kind: FaultKind::Checkpoint,
                    });
                }
                faults.sort_by_key(|f| f.at_event);
            }
            rounds.push(Round { initiator, faults });
        }
        let loss = if rng.gen_bool(0.5) { 0.0 } else { 0.08 };
        FaultPlan { loss, ..FaultPlan::over(scenario, seed, rounds) }
    }

    /// The one-crash schedule (the durability acceptance scenario and the
    /// E17 rejoin-cost rows): the sink starts an update, `victim` is
    /// killed one third of the way through it — the kill point is
    /// calibrated on a control run of that one update, startup events
    /// (pipes, adverts) excluded since faults count from the injection —
    /// the survivors drain, the victim restarts from disk into an idle
    /// network, and `reconverge_from` starts the second round: the sink
    /// again, or the recovered victim itself (rejoin-as-initiator: its
    /// persisted counters resume the id space under a new epoch, so the
    /// new update cannot collide with one its dead incarnation minted).
    /// With `checkpoint_every`, the victim's store also checkpoints every
    /// that many events until the kill, so recovery starts from a
    /// compacted store. Lossless pipes, `SyncPolicy::Always`, every WAL
    /// byte surviving: what is under test is the rejoin, not the store.
    pub fn single_crash(
        scenario: Scenario,
        victim: NodeId,
        checkpoint_every: Option<u64>,
        reconverge_from: NodeId,
    ) -> FaultPlan {
        let sink = scenario.sink();
        let mut control = CoDbNetwork::build_with(
            scenario.build_config(),
            SimConfig::default(),
            settings(0.0),
            false,
        )
        .expect("scenario configs validate");
        let startup_events = control.sim().events_processed();
        control.run_update(sink);
        let kill_at = ((control.sim().events_processed() - startup_events) / 3).max(1);
        let mut faults: Vec<Fault> = checkpoint_every
            .filter(|&every| every > 0)
            .into_iter()
            .flat_map(|every| (1..=kill_at / every).map(move |k| k * every))
            .map(|at_event| Fault { at_event, node: victim, kind: FaultKind::Checkpoint })
            .collect();
        faults.push(Fault { at_event: kill_at, node: victim, kind: FaultKind::Crash });
        let rounds = vec![
            Round { initiator: sink, faults },
            Round { initiator: reconverge_from, faults: vec![] },
        ];
        // Nothing in this plan draws from the seed; the simulator's default
        // keeps the experiment network built as the control is.
        FaultPlan::over(scenario, SimConfig::default().seed, rounds)
    }

    /// The many-node single-host crash schedule: every node persists
    /// through one **shared group-commit scheduler** (`max_batch` = node
    /// count, `max_records` = 8 × node count), the host dies mid-update
    /// at a seeded event offset — with the unsynced WAL tails lost, i.e.
    /// the crash lands between batch formation and drain — and every
    /// node restarts from disk for a clean reconvergence round. The
    /// runner proves no acked record is lost
    /// ([`FaultPlanReport::acked_records_preserved`]).
    pub fn host_crash_group_commit(scenario: Scenario, seed: u64) -> FaultPlan {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x057C_4A5B);
        let nodes = scenario.topology.node_count() as u64;
        let rounds = vec![
            Round {
                initiator: scenario.sink(),
                faults: vec![Fault {
                    at_event: rng.gen_range(1u64..80),
                    node: NodeId(0), // ignored by HostCrash
                    kind: FaultKind::HostCrash,
                }],
            },
            Round { initiator: scenario.sink(), faults: vec![] },
        ];
        FaultPlan {
            sync: SyncPolicy::GroupCommit { max_batch: nodes, max_records: 8 * nodes },
            lose_unsynced_tail: true,
            ..FaultPlan::over(scenario, seed, rounds)
        }
    }

    /// The overlapping-rejoin schedule: round 1 crashes a non-initiator
    /// node mid-update and **leaves it down** — survivors' update traffic
    /// toward it exhausts retransmission and parks behind the rejoin
    /// barrier, pausing the update with its Dijkstra–Scholten deficits
    /// held. Round 2 starts a fresh update and restarts the victim
    /// *mid-round* ([`FaultKind::Restart`]), so the barrier release, the
    /// `RejoinRepair` push and the resumed round-1 update all interleave
    /// with live round-2 traffic. A fault-free final round then pins
    /// reconvergence to the never-crashed control.
    pub fn overlapping_rejoin(scenario: Scenario, seed: u64) -> FaultPlan {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x0E4A_B17A);
        let nodes = scenario.topology.node_count() as u64;
        let sink = scenario.sink();
        let mut victim = NodeId(rng.gen_range(0..nodes));
        if victim == sink {
            victim = NodeId((victim.0 + 1) % nodes);
        }
        // Drawn before the fault offsets: seeds name whole schedules.
        let loss = if rng.gen_bool(0.5) { 0.0 } else { 0.05 };
        let rounds = vec![
            Round {
                initiator: sink,
                faults: vec![Fault {
                    at_event: rng.gen_range(1u64..60),
                    node: victim,
                    kind: FaultKind::Crash,
                }],
            },
            Round {
                initiator: sink,
                faults: vec![Fault {
                    at_event: rng.gen_range(1u64..60),
                    node: victim,
                    kind: FaultKind::Restart,
                }],
            },
            Round { initiator: sink, faults: vec![] },
        ];
        FaultPlan { loss, ..FaultPlan::over(scenario, seed, rounds) }
    }

    /// The rolling-restart-under-sustained-load schedule (window (b) of
    /// the rejoin barrier), under a shared group-commit scheduler with
    /// unsynced WAL tails lost at every crash: two adjacent nodes `v` and
    /// `w` go down staggered — `v` crashes in round 1; round 2 crashes
    /// `w` and then restarts `v` **mid-round**, so `v`'s `Rejoin`
    /// handshake toward the still-dead `w` exhausts retransmission and
    /// parks instead of being abandoned; round 3 restarts `w` mid-round,
    /// whose own announcement releases the parked handshake and completes
    /// both rejoins under live traffic. Every round carries an update
    /// (sustained load) and a clean final round pins reconvergence.
    ///
    /// Requires a topology of at least three nodes.
    pub fn rolling_restart(scenario: Scenario, seed: u64) -> FaultPlan {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x2011_1E57);
        let nodes = scenario.topology.node_count() as u64;
        assert!(nodes >= 3, "rolling restart needs at least 3 nodes");
        let sink = scenario.sink();
        // Two adjacent-id victims, neither of them the initiator (ids are
        // adjacent in every generated topology's edge layout for chains;
        // elsewhere adjacency is not required for the window — only that
        // v's rejoin set includes w, which holds whenever they share a
        // rule).
        let mut v = rng.gen_range(0..nodes);
        let (v, w) = loop {
            let w = (v + 1) % nodes;
            if NodeId(v) != sink && NodeId(w) != sink {
                break (NodeId(v), NodeId(w));
            }
            v = (v + 1) % nodes;
        };
        let sync = SyncPolicy::GroupCommit { max_batch: nodes, max_records: 8 * nodes };
        let rounds = vec![
            Round {
                initiator: sink,
                faults: vec![Fault {
                    at_event: rng.gen_range(1u64..40),
                    node: v,
                    kind: FaultKind::Crash,
                }],
            },
            Round {
                initiator: sink,
                faults: vec![
                    Fault { at_event: rng.gen_range(1u64..20), node: w, kind: FaultKind::Crash },
                    Fault { at_event: rng.gen_range(25u64..60), node: v, kind: FaultKind::Restart },
                ],
            },
            Round {
                initiator: sink,
                faults: vec![Fault {
                    at_event: rng.gen_range(1u64..40),
                    node: w,
                    kind: FaultKind::Restart,
                }],
            },
            Round { initiator: sink, faults: vec![] },
        ];
        FaultPlan { sync, lose_unsynced_tail: true, ..FaultPlan::over(scenario, seed, rounds) }
    }

    /// Total crash faults in the schedule (a host crash counts once).
    pub fn crash_count(&self) -> usize {
        self.rounds
            .iter()
            .flat_map(|r| &r.faults)
            .filter(|f| matches!(f.kind, FaultKind::Crash | FaultKind::HostCrash))
            .count()
    }
}

/// One update round as the runner saw it.
#[derive(Clone, Copy, Debug)]
pub struct RoundReport {
    /// The newest update the round's initiator had started by the time
    /// the round drained, as the live nodes' statistics modules recorded
    /// it (`None` when the initiator never got to start one). Epoch-keyed:
    /// a recovered initiator's id carries its new incarnation.
    pub update: Option<UpdateId>,
    /// Protocol messages the experiment network sent from the round's
    /// injection to its drain (fallback re-sends and mid-round handshakes
    /// included; end-of-round restarts excluded).
    pub messages: u64,
    /// Protocol messages of the same round in the never-crashed control —
    /// the baseline re-send overhead is measured against.
    pub control_messages: u64,
}

/// One restart from disk as the runner saw it.
#[derive(Clone, Copy, Debug)]
pub struct RestartReport {
    /// The node restarted.
    pub node: NodeId,
    /// What recovery found: epoch, generation, WAL records replayed, torn
    /// tail.
    pub recovery: RecoveryStats,
    /// The node's tuples right after recovery, before anything reached it.
    pub tuples_at_recovery: usize,
    /// The node's tuples at the end of the run.
    pub tuples_final: usize,
}

/// What [`run_fault_plan`] observed.
#[derive(Clone, Debug)]
pub struct FaultPlanReport {
    /// The plan's seed (for replay).
    pub seed: u64,
    /// Update rounds executed.
    pub rounds: usize,
    /// Crashes injected (every one eventually restarted — mid-round or at
    /// its round's end).
    pub crashes: usize,
    /// Per injected crash, in order: whether the network still had work in
    /// flight (the kill landed mid-update rather than after quiescence).
    pub crashed_in_flight: Vec<bool>,
    /// Every restart performed, in order.
    pub restarts: Vec<RestartReport>,
    /// Mid-round restarts performed (scheduled [`FaultKind::Restart`]
    /// faults that found their node down).
    pub live_restarts: usize,
    /// Checkpoints taken (scheduled ones that found their node alive).
    pub checkpoints: u64,
    /// Per round: the update's id and its message count beside the
    /// control's.
    pub updates: Vec<RoundReport>,
    /// `Rejoin` announcements across the whole run: one per acquaintance
    /// of each restarted node (retransmissions not counted). Their acks
    /// are bare transport acks, counted with every other ack.
    pub rejoin_messages: u64,
    /// Messages parked behind the rejoin barrier across the whole run
    /// (survivor-side holds instead of abandonments).
    pub barrier_parked: u64,
    /// Parked messages released (re-sent in seq order) when their barred
    /// peer was heard from again.
    pub barrier_released: u64,
    /// `RejoinRepair` batches sent — the push that restores a rejoined
    /// node's lost records at barrier release rather than at the next
    /// organic update.
    pub repair_messages: u64,
    /// Firings those batches carried: what the survivors fired past the
    /// marks the rejoined nodes reported (whole links where no mark was
    /// trusted), cascade hops included. A clean restart re-sends none.
    pub repair_firings: u64,
    /// Nodes whose final LDB equals the control's strictly.
    pub nodes_equal: usize,
    /// Nodes whose final LDB is isomorphic to the control's (equality up
    /// to marked-null renaming).
    pub nodes_isomorphic: usize,
    /// Nodes whose final LDB is isomorphic to the centralised chase's
    /// fixpoint ([`crate::oracle`]) — the check that shares no protocol
    /// code with the network under test.
    pub nodes_oracle_isomorphic: usize,
    /// Nodes whose null-factory counter matches the control's.
    pub factories_equal: usize,
    /// Nodes where every update they hold a state for is over: complete,
    /// every Dijkstra–Scholten credit back, disengaged unless initiator.
    pub nodes_settled: usize,
    /// Node count (denominator for the five above).
    pub nodes: usize,
    /// True when every node reconverged and settled: isomorphic to the
    /// oracle's fixpoint, equal to the control under the rule style's
    /// notion of equality (strict without existentials, isomorphic + equal
    /// factory counters with them), and no update left open anywhere.
    pub converged: bool,
    /// Records that were **acked durable** at crash moments (summed over
    /// every crash with [`FaultPlan::lose_unsynced_tail`] set) — the
    /// denominator of the no-acked-loss guarantee.
    pub acked_records_checked: u64,
    /// True when every restart replayed at least its store's acked
    /// record count from the same generation — i.e. no record a fsync
    /// had covered was lost, even though the unsynced tails were
    /// destroyed. Trivially true when `lose_unsynced_tail` is off.
    pub acked_records_preserved: bool,
}

impl FaultPlanReport {
    /// The rejoin cost in messages: the `Rejoin` announcements plus the
    /// re-send overhead of the final (reconvergence) round relative to the
    /// never-crashed control (the E17 "rejoin cost" column).
    pub fn rejoin_cost_messages(&self) -> u64 {
        let resend =
            self.updates.last().map_or(0, |r| r.messages.saturating_sub(r.control_messages));
        self.rejoin_messages + resend
    }

    /// The barrier's share of the rejoin cost in messages: parked traffic
    /// re-sent at release plus the `RejoinRepair` push (the E17 "barrier
    /// cost" column). These messages replace the pre-barrier abandonments
    /// and the extra reconvergence round they used to force.
    pub fn barrier_cost_messages(&self) -> u64 {
        self.barrier_released + self.repair_messages
    }
}

fn settings(loss: f64) -> NodeSettings {
    NodeSettings { pipe: PipeConfig::lan().with_loss(loss), ..NodeSettings::default() }
}

/// Rejoin and barrier message counters, summed over node reports. A crash
/// wipes the victim's in-memory report, so the runner adds a victim's
/// counts here before killing it and the live nodes' at the end —
/// otherwise whole-run totals undercount on multi-crash schedules.
#[derive(Default)]
struct RejoinCounters {
    rejoin: u64,
    barrier_parked: u64,
    barrier_released: u64,
    repairs: u64,
    repair_firings: u64,
}

impl RejoinCounters {
    fn add(&mut self, report: &NodeReport) {
        let sent = |kind: &str| report.messages_sent.get(kind).copied().unwrap_or(0);
        self.rejoin += sent("rejoin");
        self.barrier_parked += sent("barrier_parked");
        self.barrier_released += sent("barrier_released");
        self.repairs += sent("rejoin_repair");
        self.repair_firings += report.repair_firings;
    }
}

/// The experiment network and everything the runner tracks about it.
struct Runner<'a> {
    plan: &'a FaultPlan,
    data_root: &'a Path,
    net: CoDbNetwork,
    /// Seeded chop points for `lose_unsynced_tail` (deterministic per plan
    /// seed, like everything else).
    chop_rng: SmallRng,
    counters: RejoinCounters,
    /// Nodes currently down, with their crash watermark (`None` when no
    /// tail loss was requested or no store was attached). A node whose
    /// plan schedules a later Restart fault stays here across round
    /// boundaries instead of being auto-restarted.
    down: BTreeMap<NodeId, Option<AckedWatermark>>,
    restarts: Vec<RestartReport>,
    acked_records_checked: u64,
    acked_records_preserved: bool,
}

impl Runner<'_> {
    /// Kills `id` if it is alive, first banking its rejoin and barrier
    /// counters and — with `lose_unsynced_tail` — its store's durable
    /// watermark, then cutting the power on its WAL. Returns whether the
    /// node was alive (a duplicate crash entry is a no-op, so the down map
    /// stays duplicate-free).
    fn kill(&mut self, id: NodeId) -> bool {
        let Some(node) = self.net.sim().peer(id.peer()) else { return false };
        self.counters.add(node.report());
        let watermark = match node.store() {
            Some(store) if self.plan.lose_unsynced_tail => Some(AckedWatermark::capture(store)),
            _ => None,
        };
        assert!(self.net.crash_node(id), "the node was alive a moment ago");
        if let Some(w) = &watermark {
            w.cut_power(&mut self.chop_rng);
        }
        self.down.insert(id, watermark);
        true
    }

    /// Restarts `victim` from its data directory — live (mid-round, no
    /// drain) or drained — and folds the no-acked-loss check for its
    /// watermark into the running verdict. A node that is not down is left
    /// alone; returns whether a restart happened.
    fn restart(&mut self, victim: NodeId, live: bool) -> Result<bool, StoreError> {
        let Some(watermark) = self.down.remove(&victim) else { return Ok(false) };
        let config = self.net.config();
        let name = &config.nodes.iter().find(|n| n.id == victim).expect("configured").name;
        let dir = CoDbNetwork::node_data_dir(self.data_root, name);
        let sync = self.plan.sync;
        let recovery = if live {
            self.net.restart_node_from_disk_live(victim, &dir, sync)?
        } else {
            self.net.restart_node_from_disk(victim, &dir, sync)?
        };
        if let Some(w) = watermark {
            self.acked_records_checked += w.durable_frames;
            self.acked_records_preserved &= w.survived(&recovery);
        }
        // A drained restart has run its handshake by now, so the count
        // includes what the repair push restored; a live one has not.
        let tuples = self.net.node(victim).ldb().tuple_count();
        self.restarts.push(RestartReport {
            node: victim,
            recovery,
            tuples_at_recovery: tuples,
            tuples_final: tuples,
        });
        Ok(true)
    }

    /// The newest update `origin` has started, as any live node recorded it.
    fn latest_update_of(&self, origin: NodeId) -> Option<UpdateId> {
        self.net
            .sim()
            .peers()
            .flat_map(|(_, node)| node.report().updates.keys())
            .filter(|u| u.origin == origin)
            .max()
            .copied()
    }
}

/// Runs `plan` against a never-crashed control and the centralised chase,
/// persisting every node under `data_root/<node-name>`. The directory must
/// be fresh.
pub fn run_fault_plan(plan: &FaultPlan, data_root: &Path) -> Result<FaultPlanReport, StoreError> {
    run_fault_plan_impl(plan, data_root, None)
}

/// [`run_fault_plan`] with a flight recorder attached to the experiment
/// network (the control runs untraced): every net, protocol and store
/// event of the faulted run — barrier holds and releases included —
/// lands in `tracer` for postmortem inspection.
pub fn run_fault_plan_traced(
    plan: &FaultPlan,
    data_root: &Path,
    tracer: &codb_trace::Tracer,
) -> Result<FaultPlanReport, StoreError> {
    run_fault_plan_impl(plan, data_root, Some(tracer))
}

/// The runner behind both.
fn run_fault_plan_impl(
    plan: &FaultPlan,
    data_root: &Path,
    tracer: Option<&codb_trace::Tracer>,
) -> Result<FaultPlanReport, StoreError> {
    let config = plan.scenario.build_config();

    // Control: same rounds, no faults, lossless pipes. It is the
    // message-count baseline and the strict-equality / null-factory check.
    let mut control =
        CoDbNetwork::build_with(config.clone(), SimConfig::default(), settings(0.0), false)
            .expect("scenario configs validate");
    let control_messages: Vec<u64> =
        plan.rounds.iter().map(|round| control.run_update(round.initiator).messages).collect();

    // Experiment: seeded loss, every node durable.
    let sim_config = SimConfig { seed: plan.seed, max_events: 0 };
    let mut net = CoDbNetwork::build_with(config.clone(), sim_config, settings(plan.loss), false)
        .expect("scenario configs validate");
    if let Some(t) = tracer {
        net.attach_tracer(t);
    }
    net.open_persistence_all(data_root, plan.sync)?;
    let mut run = Runner {
        plan,
        data_root,
        net,
        chop_rng: SmallRng::seed_from_u64(plan.seed ^ 0xC40F_7A11),
        counters: RejoinCounters::default(),
        down: BTreeMap::new(),
        restarts: Vec::new(),
        acked_records_checked: 0,
        acked_records_preserved: true,
    };
    let mut crashed_in_flight = Vec::new();
    let mut live_restarts = 0usize;
    let mut checkpoints = 0u64;

    let mut updates = Vec::with_capacity(plan.rounds.len());
    for (i, (round, &control_messages)) in plan.rounds.iter().zip(&control_messages).enumerate() {
        let round_start = run.net.sim().events_processed();
        let sent_before = run.net.sim().stats().sent;
        run.net.sim_mut().inject(
            HARNESS_PEER,
            round.initiator.peer(),
            Envelope::control(Body::StartUpdate),
        );
        // The generator schedules at most one crash per round, but the
        // plan fields are public and hand-written schedules are a
        // supported use — so the runner tracks *every* node taken down,
        // this round or earlier, and restarts each exactly once.
        for fault in &round.faults {
            // Step the sim clock up to the fault's event offset (or until
            // the round quiesces first — a "late" fault, still applied).
            while run.net.sim().events_processed() - round_start < fault.at_event
                && run.net.sim_mut().step()
            {}
            let in_flight = !run.net.sim().is_quiescent();
            match fault.kind {
                FaultKind::Crash => {
                    if run.kill(fault.node) {
                        crashed_in_flight.push(in_flight);
                    }
                }
                FaultKind::HostCrash => {
                    // The whole host dies at once: every live node goes
                    // down mid-whatever-it-was-doing, every store's
                    // unsynced tail is at risk together — the scenario a
                    // *shared* fsync scheduler must get right.
                    let killed = config.nodes.iter().filter(|nc| run.kill(nc.id)).count();
                    if killed > 0 {
                        crashed_in_flight.push(in_flight);
                    }
                }
                FaultKind::Restart => {
                    // Live restart: the rejoin handshake (and the barrier
                    // release + repair it triggers) runs interleaved with
                    // whatever traffic the round still has in flight.
                    if run.restart(fault.node, true)? {
                        live_restarts += 1;
                    }
                }
                FaultKind::Checkpoint => {
                    // Skip nodes a crash already took down.
                    if run.net.sim().peer(fault.node.peer()).is_some()
                        && run.net.checkpoint_node(fault.node)?
                    {
                        checkpoints += 1;
                    }
                }
            }
        }
        // Drain the round: survivors run until nothing is in flight.
        // Traffic toward still-crashed nodes exhausts its retransmission
        // budget and — for update data and handshake envelopes — parks
        // behind the rejoin barrier rather than being abandoned, so the
        // round can quiesce with an update paused mid-flight.
        run.net.sim_mut().run_until_quiescent();
        updates.push(RoundReport {
            update: run.latest_update_of(round.initiator),
            // Excluding the injected control message itself.
            messages: run.net.sim().stats().sent - sent_before - 1,
            control_messages,
        });
        // Restart every node still down before the next round — except
        // those a later Restart fault claims, which stay dead so their
        // handshake lands mid-round. Each restart here runs the rejoin
        // handshake to quiescence, so the next initiator (often one of
        // these very nodes) starts from a repaired cache topology.
        let claimed_later = |node: &NodeId| {
            let mut later = plan.rounds[i + 1..].iter().flat_map(|r| &r.faults);
            later.any(|f| f.kind == FaultKind::Restart && f.node == *node)
        };
        let due: Vec<NodeId> = run.down.keys().copied().filter(|n| !claimed_later(n)).collect();
        for victim in due {
            run.restart(victim, false)?;
        }
    }

    // Compare every node against the control and against the oracle.
    let oracle = chase_seminaive(&config);
    let strict_style = !matches!(plan.scenario.rule_style, RuleStyle::ProjectGlav);
    let mut nodes_equal = 0;
    let mut nodes_isomorphic = 0;
    let mut nodes_oracle_isomorphic = 0;
    let mut factories_equal = 0;
    let mut nodes_settled = 0;
    for nc in &config.nodes {
        let ours = run.net.node(nc.id);
        let theirs = control.node(nc.id);
        run.counters.add(ours.report());
        nodes_equal += usize::from(ours.ldb() == theirs.ldb());
        nodes_isomorphic += usize::from(isomorphic(ours.ldb(), theirs.ldb()));
        nodes_oracle_isomorphic += usize::from(isomorphic(ours.ldb(), &oracle.instances[&nc.id]));
        factories_equal += usize::from(ours.nulls_invented() == theirs.nulls_invented());
        nodes_settled += usize::from(ours.update_states().all(|st| st.is_settled()));
    }
    for restart in &mut run.restarts {
        restart.tuples_final = run.net.node(restart.node).ldb().tuple_count();
    }
    let nodes = config.nodes.len();
    let matches_control = if strict_style {
        nodes_equal == nodes
    } else {
        nodes_isomorphic == nodes && factories_equal == nodes
    };

    Ok(FaultPlanReport {
        seed: plan.seed,
        rounds: plan.rounds.len(),
        crashes: crashed_in_flight.len(),
        crashed_in_flight,
        restarts: run.restarts,
        live_restarts,
        checkpoints,
        updates,
        rejoin_messages: run.counters.rejoin,
        barrier_parked: run.counters.barrier_parked,
        barrier_released: run.counters.barrier_released,
        repair_messages: run.counters.repairs,
        repair_firings: run.counters.repair_firings,
        nodes_equal,
        nodes_isomorphic,
        nodes_oracle_isomorphic,
        factories_equal,
        nodes_settled,
        nodes,
        converged: matches_control && nodes_oracle_isomorphic == nodes && nodes_settled == nodes,
        acked_records_checked: run.acked_records_checked,
        acked_records_preserved: run.acked_records_preserved,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use codb_store::ScratchDir;
    use proptest::prelude::*;

    fn cases(default: u32) -> u32 {
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
    }

    fn arb_topology() -> impl Strategy<Value = Topology> {
        prop_oneof![
            (3usize..7).prop_map(Topology::Chain),
            (3usize..6).prop_map(Topology::Ring),
            (2usize..6).prop_map(|leaves| Topology::Star { leaves }),
        ]
    }

    fn arb_style() -> impl Strategy<Value = RuleStyle> {
        prop_oneof![Just(RuleStyle::CopyGav), Just(RuleStyle::ProjectGlav)]
    }

    /// The `Rejoin`s `report`'s restarts posted: one per acquaintance of
    /// each restarted node.
    fn rejoins(scenario: &Scenario, report: &FaultPlanReport) -> u64 {
        let rules = scenario.build_config().rules;
        let acquaintances =
            |node| codb_core::rules::RuleBook::for_node(node, &rules).acquaintances().len() as u64;
        report.restarts.iter().map(|r| acquaintances(r.node)).sum()
    }

    /// Fixed-seed determinism: the same seed yields the same schedule.
    #[test]
    fn plans_are_deterministic() {
        let s = Scenario { tuples_per_node: 5, ..Scenario::quick(Topology::Chain(3)) };
        let a = FaultPlan::generate(s, 42);
        let b = FaultPlan::generate(s, 42);
        assert_eq!(a.rounds.len(), b.rounds.len());
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = FaultPlan::generate(s, 43);
        assert_ne!(format!("{a:?}"), format!("{c:?}"), "different seeds, different schedules");
    }

    /// The generator never schedules faults in the final round, so every
    /// plan ends with a clean reconvergence pass.
    #[test]
    fn final_round_is_fault_free() {
        let s = Scenario { tuples_per_node: 5, ..Scenario::quick(Topology::Ring(4)) };
        for seed in 0..50 {
            let plan = FaultPlan::generate(s, seed);
            assert!(plan.rounds.last().unwrap().faults.is_empty(), "seed {seed}");
        }
    }

    /// One hand-picked schedule on a lossy chain-4 with a crash that is
    /// guaranteed to land, then rejoin-as-initiator with a checkpoint
    /// elsewhere, then a clean round.
    fn explicit_plan() -> FaultPlan {
        let s = Scenario { tuples_per_node: 12, ..Scenario::quick(Topology::Chain(4)) };
        let fault = |at_event, node, kind| Fault { at_event, node: NodeId(node), kind };
        let rounds = vec![
            Round { initiator: s.sink(), faults: vec![fault(9, 1, FaultKind::Crash)] },
            Round { initiator: NodeId(1), faults: vec![fault(15, 2, FaultKind::Checkpoint)] },
            Round { initiator: s.sink(), faults: vec![] },
        ];
        FaultPlan { loss: 0.05, ..FaultPlan::over(s, 7, rounds) }
    }

    /// Smoke for the runner's bookkeeping.
    #[test]
    fn explicit_crash_schedule_reconverges() {
        let tmp = ScratchDir::new("faultplan-explicit");
        let plan = explicit_plan();
        let report = run_fault_plan(&plan, tmp.path()).unwrap();
        assert_eq!(report.crashes, 1, "{report:?}");
        assert_eq!(report.rejoin_messages, 2, "node 1 of the chain has two neighbours: {report:?}");
        assert!(report.converged, "replay with seed {}: {report:?}", plan.seed);
    }

    // The single-crash scenarios (formerly `crash.rs`'s own runner), as
    // `FaultPlan::single_crash` inputs to the one runner.

    /// All nodes strictly equal to the control, null factories included —
    /// which covers the victim — and isomorphic to the oracle.
    fn assert_recovered_exactly(report: &FaultPlanReport) {
        assert_eq!(report.nodes_equal, report.nodes, "{report:?}");
        assert_eq!(report.factories_equal, report.nodes, "{report:?}");
        assert!(report.converged, "{report:?}");
    }

    #[test]
    fn chain_copy_rules_recover_exactly() {
        let tmp = ScratchDir::new("crash-chain");
        let s = Scenario { tuples_per_node: 20, ..Scenario::quick(Topology::Chain(4)) };
        let plan = FaultPlan::single_crash(s, NodeId(1), None, s.sink());
        let report = run_fault_plan(&plan, tmp.path()).unwrap();
        assert_eq!(report.crashed_in_flight, [true], "the kill landed mid-update: {report:?}");
        assert_recovered_exactly(&report);
        let [restart] = report.restarts[..] else { panic!("one restart: {report:?}") };
        assert_eq!(restart.node, NodeId(1), "{report:?}");
        assert!(restart.recovery.wal_records_replayed >= 1, "{report:?}");
        assert_eq!(restart.recovery.epoch, 1, "{report:?}");
        assert_eq!(report.rejoin_messages, 2, "handshake ran: {report:?}");
        // The handshake repairs past the marks the victim reported, which
        // are those of its last durable batches: under `SyncPolicy::Always`
        // every batch it applied is durable, and what was on its way to it
        // is retransmitted, so nothing lies past them and no repair is
        // pushed.
        assert_eq!((report.repair_messages, report.repair_firings), (0, 0), "{report:?}");
    }

    #[test]
    fn ring_recovers_exactly() {
        let tmp = ScratchDir::new("crash-ring");
        let s = Scenario { tuples_per_node: 10, ..Scenario::quick(Topology::Ring(3)) };
        let victim = NodeId(if s.sink() == NodeId(1) { 2 } else { 1 });
        let plan = FaultPlan::single_crash(s, victim, None, s.sink());
        assert_recovered_exactly(&run_fault_plan(&plan, tmp.path()).unwrap());
    }

    #[test]
    fn glav_rules_recover_isomorphically() {
        // Existential rules invent marked nulls whose labels depend on
        // apply order; the recovered fixpoint is equal up to null renaming
        // and the factory counters must agree.
        let tmp = ScratchDir::new("crash-glav");
        let s = Scenario {
            rule_style: RuleStyle::ProjectGlav,
            tuples_per_node: 12,
            ..Scenario::quick(Topology::Chain(3))
        };
        let plan = FaultPlan::single_crash(s, NodeId(1), None, s.sink());
        let report = run_fault_plan(&plan, tmp.path()).unwrap();
        assert_eq!(report.nodes_isomorphic, report.nodes, "{report:?}");
        assert_eq!(report.factories_equal, report.nodes, "{report:?}");
    }

    /// The oracle check is load-bearing: on a cyclic GLAV network every
    /// reconverged node is isomorphic to the centralised chase's fixpoint,
    /// and the report says so node by node.
    #[test]
    fn glav_ring_reconverges_to_the_oracle_fixpoint() {
        let tmp = ScratchDir::new("crash-glav-ring");
        let s = Scenario {
            rule_style: RuleStyle::ProjectGlav,
            tuples_per_node: 8,
            ..Scenario::quick(Topology::Ring(4))
        };
        let victim = NodeId(if s.sink() == NodeId(1) { 2 } else { 1 });
        let plan = FaultPlan::single_crash(s, victim, None, s.sink());
        let report = run_fault_plan(&plan, tmp.path()).unwrap();
        assert_eq!(report.crashed_in_flight, [true], "{report:?}");
        assert_eq!(report.nodes_oracle_isomorphic, 4, "{report:?}");
        assert!(report.converged, "{report:?}");
    }

    #[test]
    fn late_kill_after_quiescence_still_recovers() {
        // Killing after the update finished exercises the "node leaves and
        // rejoins" (no data lost in flight) flavour.
        let tmp = ScratchDir::new("crash-late");
        let s = Scenario { tuples_per_node: 5, ..Scenario::quick(Topology::Chain(3)) };
        let mut plan = FaultPlan::single_crash(s, NodeId(0), None, s.sink());
        plan.rounds[0].faults[0].at_event = u64::MAX;
        let report = run_fault_plan(&plan, tmp.path()).unwrap();
        assert_eq!(report.crashed_in_flight, [false], "{report:?}");
        assert_recovered_exactly(&report);
        // Nothing was lost, and every mark the victim reports is trusted:
        // the rejoin re-sends no firing.
        assert_eq!(report.repair_firings, 0, "{report:?}");
    }

    #[test]
    fn crashed_initiator_initiates_again_without_id_collision() {
        // The *update initiator* crashes mid-own-update, recovers, and
        // initiates the reconvergence update itself. Its persisted
        // counters resume the seq space and its bumped epoch keys the new
        // id, so the new update cannot collide with the one its dead
        // incarnation minted.
        let tmp = ScratchDir::new("crash-initiator");
        let s = Scenario { tuples_per_node: 15, ..Scenario::quick(Topology::Chain(4)) };
        let victim = s.sink(); // the initiator itself
        let plan = FaultPlan::single_crash(s, victim, None, victim);
        let report = run_fault_plan(&plan, tmp.path()).unwrap();
        assert_eq!(report.crashed_in_flight, [true], "{report:?}");
        // The dead incarnation minted (victim, epoch 0, seq 0); the new
        // update resumed the counter under the new epoch.
        let recovered_update = report.updates[1].update.expect("the second round ran");
        let victim_epoch = report.restarts[0].recovery.epoch;
        assert_eq!(recovered_update.origin, victim, "{report:?}");
        assert_eq!(recovered_update.epoch, victim_epoch, "{report:?}");
        assert!(victim_epoch >= 1, "{report:?}");
        assert!(recovered_update.seq >= 1, "counters resumed, not restarted: {report:?}");
        assert_recovered_exactly(&report);
    }

    #[test]
    fn incremental_caches_resume_after_one_full_resend() {
        // The sent caches outlive the update, so the crash is repaired by
        // exactly one fallback re-send toward the rejoined
        // node, and the network still reconverges to the control state.
        let tmp = ScratchDir::new("crash-incremental");
        let s = Scenario { tuples_per_node: 20, ..Scenario::quick(Topology::Chain(4)) };
        let plan = FaultPlan::single_crash(s, NodeId(2), None, s.sink());
        let report = run_fault_plan(&plan, tmp.path()).unwrap();
        assert_recovered_exactly(&report);
        // The reconvergence update re-sends toward the victim, so it costs
        // more than the control's incremental second update (which ships
        // nothing new), but the handshake keeps the overhead bounded.
        let reconverge = report.updates[1];
        assert!(reconverge.messages >= reconverge.control_messages, "{report:?}");
        assert!(report.rejoin_cost_messages() > 0, "{report:?}");
    }

    #[test]
    fn victim_checkpoints_bound_wal_replay() {
        // Checkpointing the victim mid-run compacts the WAL: recovery
        // starts from a later generation with a short tail.
        let tmp = ScratchDir::new("crash-ckpt");
        let s = Scenario { tuples_per_node: 20, ..Scenario::quick(Topology::Chain(4)) };
        let plan = FaultPlan::single_crash(s, NodeId(1), Some(5), s.sink());
        let report = run_fault_plan(&plan, tmp.path()).unwrap();
        assert!(report.checkpoints >= 1, "{report:?}");
        assert!(report.restarts[0].recovery.generation >= 1, "{report:?}");
        assert_recovered_exactly(&report);
    }

    /// The many-node single-host tentpole scenario, fixed-seed: eight
    /// nodes share one group-commit fsync scheduler, the host dies
    /// mid-update with every unsynced WAL tail destroyed, and after the
    /// restarts (a) no acked record is lost and (b) the final clean
    /// round reconverges the network to the never-crashed control.
    #[test]
    fn host_crash_with_lost_tails_preserves_acked_records() {
        let tmp = ScratchDir::new("faultplan-hostcrash");
        let s = Scenario { tuples_per_node: 12, ..Scenario::quick(Topology::Chain(8)) };
        let plan = FaultPlan::host_crash_group_commit(s, 11);
        assert!(matches!(plan.sync, SyncPolicy::GroupCommit { .. }));
        assert!(plan.lose_unsynced_tail);
        let report = run_fault_plan(&plan, tmp.path()).unwrap();
        assert_eq!(report.crashes, 1, "{report:?}");
        assert!(
            report.acked_records_checked >= 8 * 2,
            "every store had at least its checkpoint head acked: {report:?}"
        );
        assert!(report.acked_records_preserved, "replay with seed {}: {report:?}", report.seed);
        assert!(report.converged, "replay with seed {}: {report:?}", report.seed);
    }

    /// A *targeted* single-node crash with tail loss under a weak
    /// per-store policy: even EveryN's lazy watermark never loses an
    /// acked record (the chop respects only what fsync covered).
    #[test]
    fn single_crash_with_lost_tail_under_every_n() {
        let tmp = ScratchDir::new("faultplan-losttail");
        let s = Scenario { tuples_per_node: 12, ..Scenario::quick(Topology::Chain(4)) };
        let rounds = vec![
            Round {
                initiator: s.sink(),
                // After the victim's own data was credited back, before
                // node 0's reaches it.
                faults: vec![Fault { at_event: 9, node: NodeId(1), kind: FaultKind::Crash }],
            },
            Round { initiator: s.sink(), faults: vec![] },
        ];
        let plan = FaultPlan {
            sync: SyncPolicy::EveryN(3),
            lose_unsynced_tail: true,
            ..FaultPlan::over(s, 21, rounds)
        };
        let report = run_fault_plan(&plan, tmp.path()).unwrap();
        assert_eq!(report.crashes, 1, "{report:?}");
        assert!(report.acked_records_preserved, "{report:?}");
        assert!(report.converged, "{report:?}");
    }

    /// Window (a) of the rejoin barrier, fixed-seed: under group commit
    /// the victim crashes with survivor traffic toward it unacked and what
    /// it applied unsynced — the chopped WAL tail destroys that, while
    /// survivors still hold it. The plan has **no follow-up round**: round
    /// 1 is the only update, so the only way the restarted victim can
    /// match the control is what the barrier release delivers: the parked
    /// traffic and the `RejoinRepair` push. Before the barrier, this
    /// schedule left the victim short (survivor traffic toward it was
    /// abandoned and nothing re-sent until the next organic update — which
    /// never comes here).
    #[test]
    fn forwarded_but_unsynced_records_repaired_at_barrier_release() {
        let tmp = ScratchDir::new("faultplan-window-a");
        let s = Scenario { tuples_per_node: 12, ..Scenario::quick(Topology::Chain(4)) };
        let rounds = vec![Round {
            initiator: s.sink(),
            // The links are held, so node 0's data is one message that
            // carries its close: once the victim has applied and forwarded
            // it, nothing of node 0's toward it is unacked (events 7 on park
            // nothing). Event 6 is the last crash with node 0's closing
            // data in flight: the request reached node 0 at event 5, and
            // the data parks behind the barrier toward the dead victim,
            // which held its own data unsent; the handshake releases the
            // data beside node 0's repair, and the victim, told of the
            // update by its neighbours' adoption requests, ships its own.
            faults: vec![Fault { at_event: 6, node: NodeId(1), kind: FaultKind::Crash }],
        }];
        let plan = FaultPlan {
            sync: SyncPolicy::GroupCommit { max_batch: 4, max_records: 32 },
            lose_unsynced_tail: true,
            ..FaultPlan::over(s, 5, rounds)
        };
        let report = run_fault_plan(&plan, tmp.path()).unwrap();
        assert_eq!(report.crashes, 1, "{report:?}");
        assert!(report.barrier_parked > 0, "survivors held, not abandoned: {report:?}");
        assert!(report.barrier_released > 0, "release fired at the handshake: {report:?}");
        assert!(report.repair_messages > 0, "repair pushed at release: {report:?}");
        assert!(report.acked_records_preserved, "{report:?}");
        assert!(
            report.converged,
            "victim must be repaired AT barrier release, not at a later update: {report:?}"
        );
    }

    /// The rolling-restart schedule, fixed-seed (window (b)): `v`
    /// restarts while its neighbor `w` is still down, so `v`'s `Rejoin`
    /// toward `w` exhausts retransmission and parks instead of being
    /// abandoned; `w`'s own announcement a round later releases it and
    /// both handshakes complete under sustained update load.
    #[test]
    fn rolling_restart_parks_the_handshake_and_reconverges() {
        let tmp = ScratchDir::new("faultplan-rolling");
        let s = Scenario { tuples_per_node: 10, ..Scenario::quick(Topology::Chain(5)) };
        let plan = FaultPlan::rolling_restart(s, 9);
        assert!(plan.lose_unsynced_tail);
        let report = run_fault_plan(&plan, tmp.path()).unwrap();
        assert_eq!(report.crashes, 2, "{report:?}");
        assert_eq!(report.live_restarts, 2, "both victims came back mid-round: {report:?}");
        assert!(report.barrier_parked > 0, "{report:?}");
        assert!(report.barrier_released > 0, "{report:?}");
        assert!(report.acked_records_preserved, "replay with seed {}: {report:?}", report.seed);
        assert!(report.converged, "replay with seed {}: {report:?}", report.seed);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: cases(6), ..ProptestConfig::default() })]

        /// The tentpole property: for arbitrary seeded crash / checkpoint
        /// / loss schedules on 3–6 node topologies, the recovered network
        /// reconverges to the never-crashed control — strictly for GAV
        /// styles, isomorphically with equal GLAV null-factory counters
        /// for existential rules.
        #[test]
        fn seeded_schedules_reconverge_to_control(
            seed in any::<u64>(),
            topology in arb_topology(),
            rule_style in arb_style(),
        ) {
            let scenario = Scenario {
                tuples_per_node: 8,
                rule_style,
                ..Scenario::quick(topology)
            };
            let tmp = ScratchDir::new("faultplan-prop");
            let plan = FaultPlan::generate(scenario, seed);
            let report = run_fault_plan(&plan, tmp.path()).unwrap();
            prop_assert!(
                report.converged,
                "NOT reconverged; replay: FaultPlan::generate(Scenario {{ tuples_per_node: 8, \
                 rule_style: {rule_style:?}, ..Scenario::quick({topology:?}) }}, {seed}) → \
                 {report:?}"
            );
            // One `Rejoin` per acquaintance of each restart, and crash
            // rounds must actually have exercised the handshake.
            prop_assert_eq!(report.rejoin_messages, rejoins(&scenario, &report), "{report:?}");
            if report.crashes > 0 {
                prop_assert!(report.rejoin_messages >= 1, "{report:?}");
            }
        }

        /// The overlapping-rejoin property: for arbitrary seeds and
        /// topologies, a rejoin handshake that lands **mid-round** —
        /// barrier release, repair push and the resumed paused update all
        /// interleaved with live traffic — still reconverges the network
        /// to the fault-free control with zero acked records lost.
        #[test]
        fn overlapping_rejoin_reconverges(
            seed in any::<u64>(),
            topology in arb_topology(),
            rule_style in arb_style(),
        ) {
            let scenario = Scenario {
                tuples_per_node: 8,
                rule_style,
                ..Scenario::quick(topology)
            };
            let tmp = ScratchDir::new("faultplan-overlap-prop");
            let plan = FaultPlan::overlapping_rejoin(scenario, seed);
            let report = run_fault_plan(&plan, tmp.path()).unwrap();
            prop_assert!(
                report.converged,
                "NOT reconverged; replay: FaultPlan::overlapping_rejoin(Scenario {{ \
                 tuples_per_node: 8, rule_style: {rule_style:?}, \
                 ..Scenario::quick({topology:?}) }}, {seed}) → {report:?}"
            );
            prop_assert!(report.acked_records_preserved, "{report:?}");
            prop_assert_eq!(report.crashes, 1, "the schedule's one crash landed");
            prop_assert_eq!(report.live_restarts, 1, "the victim came back mid-round");
        }

        /// The group-commit durability property: for an arbitrary host
        /// crash point in a shared-scheduler schedule — the crash may
        /// land anywhere, including between batch formation and the
        /// drain — with every store's unsynced WAL tail destroyed, no
        /// acked record is ever lost and the network still reconverges.
        #[test]
        fn any_group_commit_crash_point_preserves_acked_records(
            seed in any::<u64>(),
            crash_at in 1u64..120,
            nodes in 3usize..9,
            rule_style in arb_style(),
        ) {
            let scenario = Scenario {
                tuples_per_node: 8,
                rule_style,
                ..Scenario::quick(Topology::Chain(nodes))
            };
            let tmp = ScratchDir::new("faultplan-group-prop");
            let mut plan = FaultPlan::host_crash_group_commit(scenario, seed);
            // Pin the crash point the property explores (the constructor
            // seeds one; the property wants the whole range).
            plan.rounds[0].faults[0].at_event = crash_at;
            let report = run_fault_plan(&plan, tmp.path()).unwrap();
            prop_assert!(
                report.acked_records_preserved,
                "ACKED RECORD LOST; replay: FaultPlan::host_crash_group_commit(Scenario {{ \
                 tuples_per_node: 8, rule_style: {rule_style:?}, \
                 ..Scenario::quick(Topology::Chain({nodes})) }}, {seed}) with at_event = \
                 {crash_at} → {report:?}"
            );
            prop_assert!(
                report.converged,
                "NOT reconverged; seed {seed}, crash_at {crash_at}, {nodes} nodes → {report:?}"
            );
        }
    }
}
