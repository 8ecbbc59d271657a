//! Sustained-ingest workloads on the sharded threaded runtime, with the
//! simulator as ground truth.
//!
//! [`run_parallel_ingest`] drives the identical ingest + update schedule
//! through two networks — a [`codb_core::CoDbNetwork`] under the
//! discrete-event simulator (the control) and a [`ParallelCoDbNet`] on
//! real worker threads — and compares every node's final LDB. Because both
//! runtimes execute the same [`codb_core::CoDbNode`] state machines and
//! ingest flows through the same message plane
//! ([`codb_core::Body::IngestLocal`]), any divergence is a runtime bug, not
//! a workload artefact.
//!
//! [`run_parallel_host_crash`] is the durability variant: the threaded
//! network runs persistent under [`SyncPolicy::GroupCommit`] (one shared
//! fsync scheduler) until the schedule has quiesced, and then the host
//! loses power. No message is in flight at that point; what is at risk is
//! every store's unsynced WAL tail — the records the group-commit
//! scheduler has appended but not yet fsynced. Each WAL is chopped to a
//! seeded point at or past its durable watermark and the network is
//! rebuilt from disk. The harness proves **no acked update is lost**:
//! recovery must replay, from the same store generation, at least every
//! record that was fsync-covered when the power went.

use crate::powercut::AckedWatermark;
use crate::scenario::Scenario;
use codb_core::{Body, NodeId, NodeSettings, ParallelCoDbNet};
use codb_net::{RuntimeConfig, SimConfig};
use codb_relational::{Tuple, Value};
use codb_store::{Codec, SyncPolicy};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::time::Duration;

/// Ingested keys start here: far above any seeded scenario value (the
/// generators draw from `DataDist` domains no larger than `1 << 40`), so
/// ingested tuples are disjoint from seed data by construction.
const INGEST_KEY_BASE: i64 = 1 << 50;

/// A sustained-ingest workload: `rounds` rounds, each ingesting
/// `inserts_per_node` fresh tuples at every node (through the message
/// plane) and then running one global update from the scenario sink.
#[derive(Clone, Debug)]
pub struct ParallelIngestPlan {
    /// Topology, rules and seed data.
    pub scenario: Scenario,
    /// Worker threads for the sharded runtime (`0` = one per core).
    pub workers: usize,
    /// Bounded per-node mailbox depth.
    pub mailbox_depth: usize,
    /// Fresh tuples ingested at every node, every round.
    pub inserts_per_node: usize,
    /// Ingest + update rounds.
    pub rounds: usize,
    /// Seed for ingested values (and the crash harness's chop points).
    pub seed: u64,
}

impl ParallelIngestPlan {
    /// The schedule, once: what `round` ingests, in injection order, as
    /// `(node, relation, tuple)` — node by node, each tuple with a
    /// globally unique key above [`INGEST_KEY_BASE`] and a seeded payload.
    /// Both runtimes, the lost-update check and the host-crash harness
    /// read it from here.
    fn ingests(&self, round: usize) -> impl Iterator<Item = (NodeId, String, Tuple)> + '_ {
        let nodes = self.scenario.topology.node_count();
        (0..nodes).flat_map(move |node| {
            (0..self.inserts_per_node).map(move |k| {
                let key =
                    INGEST_KEY_BASE + ((round * nodes + node) * self.inserts_per_node + k) as i64;
                let mut rng = SmallRng::seed_from_u64(self.seed ^ key as u64);
                let tuple =
                    Tuple::new(vec![Value::Int(key), Value::Int(rng.gen_range(0..1 << 30))]);
                (NodeId(node as u64), Scenario::relation_of(node), tuple)
            })
        })
    }

    /// The pool configuration the plan asks for.
    fn runtime(&self) -> RuntimeConfig {
        RuntimeConfig { workers: self.workers, mailbox_depth: self.mailbox_depth }
    }

    /// Injects every round's ingests and its update into the pool,
    /// awaiting quiescence after each round when `await_rounds` is set.
    fn drive(&self, par: &ParallelCoDbNet, await_rounds: bool) {
        for round in 0..self.rounds {
            for (node, relation, tuple) in self.ingests(round) {
                par.control(node, Body::IngestLocal { relation, tuple });
            }
            par.start_update(self.scenario.sink());
            if await_rounds {
                assert!(par.await_quiescence(SETTLE, DEADLINE), "threaded round must quiesce");
            }
        }
    }
}

/// What [`run_parallel_ingest`] measured.
#[derive(Clone, Debug)]
pub struct ParallelIngestReport {
    /// Nodes in the network.
    pub nodes: usize,
    /// Worker threads the pool actually ran.
    pub workers: usize,
    /// Total tuples ingested across all nodes and rounds.
    pub inserts: usize,
    /// Messages delivered by the threaded runtime.
    pub delivered: u64,
    /// Messages the threaded runtime could not deliver (must be 0).
    pub undeliverable: u64,
    /// Deepest mailbox observed — bounded by the configured depth.
    pub mailbox_peak: usize,
    /// Ingested tuples missing from their own node's final LDB (must
    /// be 0: local ingest is applied before anything else can happen).
    pub lost_updates: u64,
    /// Every threaded node's LDB equals its simulator counterpart.
    pub converged: bool,
}

/// Settle/deadline windows for threaded quiescence waits.
const SETTLE: Duration = Duration::from_millis(50);
const DEADLINE: Duration = Duration::from_secs(120);

/// Node settings for the threaded side: a short ARQ retransmit interval,
/// because under this runtime `SimTime` timers are wall-clock — the
/// default 250 ms would put a constant per-round timer tail into every
/// throughput measurement (each round's last unacked-window timers must
/// expire before the in-flight gate reaches zero). Does not affect the
/// fixpoint, only timing; the simulator control keeps defaults (simulated
/// time is free).
fn threaded_settings() -> NodeSettings {
    NodeSettings { retransmit_after: codb_net::SimTime::from_millis(20), ..NodeSettings::default() }
}

/// Runs the plan on both runtimes and compares fixpoints. Panics on
/// harness misuse (non-quiescence); divergence and loss are reported,
/// not panicked on, so callers can assert and print.
pub fn run_parallel_ingest(plan: &ParallelIngestPlan) -> ParallelIngestReport {
    let config = plan.scenario.build_config();
    let nodes = config.nodes.len();

    // Control: the identical schedule under the simulator.
    let mut sim = codb_core::CoDbNetwork::build(config.clone(), SimConfig::default())
        .expect("control network builds");
    for round in 0..plan.rounds {
        for (node, relation, tuple) in plan.ingests(round) {
            sim.run_control(node, Body::IngestLocal { relation, tuple });
        }
        sim.run_update(plan.scenario.sink());
    }

    // Experiment: same schedule on the worker pool.
    let par = ParallelCoDbNet::build_with(config.clone(), plan.runtime(), threaded_settings())
        .expect("threaded network builds");
    let workers = par.worker_count();
    plan.drive(&par, true);
    let delivered = par.delivered();
    let undeliverable = par.undeliverable();
    let mailbox_peak = par.max_mailbox_depth();
    let final_nodes = par.shutdown();

    // Verdicts: every ingested tuple present at its own node, and full
    // LDB equality against the control.
    let lost_updates = (0..plan.rounds)
        .flat_map(|round| plan.ingests(round))
        .filter(|(node, relation, tuple)| {
            !final_nodes[node].ldb().get(relation).is_some_and(|r| r.contains(tuple))
        })
        .count() as u64;
    let converged =
        config.nodes.iter().all(|nc| final_nodes[&nc.id].ldb() == sim.node(nc.id).ldb());
    ParallelIngestReport {
        nodes,
        workers,
        inserts: plan.rounds * nodes * plan.inserts_per_node,
        delivered,
        undeliverable,
        mailbox_peak,
        lost_updates,
        converged,
    }
}

/// What [`run_parallel_host_crash`] proved.
#[derive(Clone, Debug)]
pub struct ParallelCrashReport {
    /// Nodes whose on-disk state was recovered after the crash.
    pub recovered_nodes: usize,
    /// Acked (fsync-covered) WAL records across all stores at crash time.
    pub acked_records_checked: u64,
    /// Recovery replayed every acked record from the same generation at
    /// every node. The headline no-acked-loss verdict.
    pub acked_records_preserved: bool,
    /// The post-restart update round reached quiescence.
    pub post_restart_quiesced: bool,
}

/// Host-crash durability on the threaded runtime: run the plan's ingest
/// schedule persistent under `GroupCommit`, wait for it to quiesce, stop
/// the pool, chop every WAL's unsynced tail at a seeded point, restart
/// from disk, and prove no acked record was lost. `data_root` must be a
/// fresh directory.
pub fn run_parallel_host_crash(
    plan: &ParallelIngestPlan,
    data_root: &Path,
) -> Result<ParallelCrashReport, codb_core::ParNetError> {
    let config = plan.scenario.build_config();
    let nodes = config.nodes.len() as u64;
    let policy = SyncPolicy::GroupCommit { max_batch: nodes, max_records: 8 * nodes };
    let build = || {
        ParallelCoDbNet::build_persistent(
            config.clone(),
            plan.runtime(),
            threaded_settings(),
            data_root,
            policy,
            Codec::Binary,
        )
    };

    // Phase 1: fresh persistent network, the whole schedule, then stop.
    let (par, recovered) = build()?;
    assert!(
        recovered.iter().all(|(_, stats)| stats.is_none()),
        "data_root must be fresh (found recovered state)"
    );
    plan.drive(&par, false);
    // Let the workload make real durable progress (acked records to
    // protect) before the power goes: whatever the group-commit scheduler
    // has not fsynced by then is exactly the tail at risk.
    assert!(par.await_quiescence(SETTLE, DEADLINE), "ingest phase must quiesce");
    let final_nodes = par.shutdown();

    // Capture durable watermarks, drop the store handles, cut the power.
    let watermarks: Vec<(NodeId, AckedWatermark)> = final_nodes
        .iter()
        .map(|(id, node)| {
            (*id, AckedWatermark::capture(node.store().expect("persistent node has a store")))
        })
        .collect();
    drop(final_nodes);
    let mut rng = SmallRng::seed_from_u64(plan.seed.wrapping_mul(0xA076_1D64_78BD_642F));
    for (_, w) in &watermarks {
        w.cut_power(&mut rng);
    }

    // Phase 2: rebuild from disk and verify the no-acked-loss guarantee.
    let (par, recovered) = build()?;
    let mut acked_records_checked = 0;
    let mut acked_records_preserved = true;
    for (node, w) in &watermarks {
        let stats = recovered
            .iter()
            .find(|(id, _)| id == node)
            .and_then(|(_, s)| s.as_ref())
            .expect("crashed node recovers from disk");
        acked_records_checked += w.durable_frames;
        acked_records_preserved &= w.survived(stats);
    }

    // The recovered network must still be a working network: one more
    // update round has to reach a fixpoint.
    par.start_update(plan.scenario.sink());
    let post_restart_quiesced = par.await_quiescence(SETTLE, DEADLINE);
    par.shutdown();

    Ok(ParallelCrashReport {
        recovered_nodes: watermarks.len(),
        acked_records_checked,
        acked_records_preserved,
        post_restart_quiesced,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data_gen::DataDist;
    use crate::scenario::RuleStyle;
    use crate::topology::Topology;
    use codb_store::ScratchDir;

    fn plan(workers: usize, mailbox_depth: usize) -> ParallelIngestPlan {
        ParallelIngestPlan {
            scenario: Scenario {
                topology: Topology::Ring(4),
                tuples_per_node: 5,
                rule_style: RuleStyle::CopyGav,
                dist: DataDist::Uniform { domain: 1 << 40 },
                seed: 77,
            },
            workers,
            mailbox_depth,
            inserts_per_node: 6,
            rounds: 2,
            seed: 1234,
        }
    }

    #[test]
    fn threaded_ingest_matches_simulator_fixpoint() {
        for plan in [plan(1, 256), plan(2, 256)] {
            let report = run_parallel_ingest(&plan);
            assert_eq!(report.workers, plan.workers);
            assert_eq!(report.inserts, 2 * 4 * 6);
            assert_eq!(report.lost_updates, 0, "every ingested tuple must land");
            assert_eq!(report.undeliverable, 0);
            assert!(report.converged, "threaded and simulated fixpoints differ");
        }
    }

    #[test]
    fn tiny_mailboxes_still_converge() {
        // Depth 2 forces constant backpressure stalls on real protocol
        // traffic; correctness must be unaffected and the bound must hold.
        let report = run_parallel_ingest(&plan(2, 2));
        assert_eq!(report.lost_updates, 0);
        assert!(report.converged);
        assert!(report.mailbox_peak <= 2, "mailbox bound violated: {}", report.mailbox_peak);
    }

    #[test]
    fn host_crash_preserves_acked_updates() {
        let tmp = ScratchDir::new("parallel-host-crash");
        let report = run_parallel_host_crash(&plan(2, 256), tmp.path()).expect("harness runs");
        assert_eq!(report.recovered_nodes, 4);
        assert!(report.acked_records_checked > 0, "no durable records were at stake");
        assert!(report.acked_records_preserved, "acked records lost in host crash");
        assert!(report.post_restart_quiesced);
    }
}
