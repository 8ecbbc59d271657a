//! `durable_ingest`: the worker pool with persistent nodes.
//!
//! A lap starts from empty directories and runs a fixed schedule, so its
//! data volume — and with it memory and bytes on disk — does not depend on
//! how many laps fit into the measuring window:
//!
//! ```text
//! 2 cycles of [ build from disk | 2 rounds | shutdown | verify | checkpoint on even cycles ]
//! then one more build from disk, shut down at once and verified
//! ```
//!
//! A round ingests tuples at every node through the message plane, starts a
//! global update at the sink, waits for quiescence and flushes the group
//! commit scheduler: when it returns, every insert is fsync-covered. Every
//! build but a lap's first is a recovery: one loads a snapshot (after the
//! checkpointed cycle), one replays a WAL tail. Rounds within a lap differ
//! systematically — the database grows — so a lap contributes one sample per
//! metric, the mean over its rounds (or recoveries).
//!
//! End to end, rounds and recoveries are timed in the process's processor
//! time, not on the wall clock: a round waits for ~60 fsyncs, and what an
//! fsync costs in this sandbox changes by the hour (see the README). The
//! wall-clock medians are per-layer metrics, `harness.*_wall_ms_p50`.
//!
//! With `trace` on, laps alternate between the product's `ParallelCoDbNet`
//! and the same pool built around [`TimedPeer`]-wrapped nodes.

use crate::layers;
use crate::metrics::Outcome;
use crate::nets::{OpKind, OpRecord, TraceLog};
use crate::oracle::{node_matches, Oracle};
use crate::run::{
    process_cpu_ms, timed_ms, timed_setups, timed_wall_and_cpu_ms, window, Calibration, EndToEnd,
};
use crate::sink::Counting;
use crate::stats::median;
use crate::timed::{Span, SpanClock, TimedPeer};
use crate::workloads::Spec;
use codb_core::{
    Body, CoDbNetwork, CoDbNode, Envelope, NetworkConfig, NodeId, NodeSettings, ParallelCoDbNet,
    HARNESS_PEER,
};
use codb_net::{ParallelNet, RuntimeConfig, SimTime};
use codb_relational::{Instance, NullFactory, Snapshot, Tuple, Value};
use codb_store::{
    wal::read_wal, Codec, FsyncScheduler, ProtocolCounters, RecoveryStats, RecvCaches, Store,
    SyncPolicy,
};
use codb_workload::Scenario;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CYCLES_PER_LAP: usize = 2;
const ROUNDS_PER_CYCLE: usize = 2;
/// Tuples ingested at every node, every round.
const INSERTS_PER_NODE: usize = 100;
/// Ingested keys lie above every generated key (domain `1 << 40`).
const INGEST_KEY_BASE: i64 = 1 << 50;
const POLICY: SyncPolicy = SyncPolicy::GroupCommit { max_batch: 12, max_records: 96 };
/// The calibration kernel's nominal time in a process that has started
/// threads: the allocator leaves its single-thread fast path for good, and
/// the kernel allocates (see `run::calibration_ms`).
const NOMINAL_CAL_MS_POOL: f64 = 12.0;
const SETTLE: Duration = Duration::from_millis(5);
const DEADLINE: Duration = Duration::from_secs(120);

/// Worker threads: driver plus workers stay within the cores there are.
pub fn workers() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    cores.saturating_sub(1).clamp(1, 4)
}

fn runtime() -> RuntimeConfig {
    RuntimeConfig { workers: workers(), ..RuntimeConfig::default() }
}

/// A short retransmit interval, as `codb_workload::parallel` uses on the
/// pool: timers are wall-clock there, and the default 250 ms would put a
/// constant timer tail into every round.
fn settings() -> NodeSettings {
    NodeSettings { retransmit_after: SimTime::from_millis(20), ..NodeSettings::default() }
}

/// Set-up: configuration, every tuple a lap ingests, and the oracle's
/// instances at the end of each cycle.
struct DurablePrep {
    config: NetworkConfig,
    sink: NodeId,
    /// `ingest[cycle][round][node]`.
    ingest: Vec<Vec<Vec<Vec<Tuple>>>>,
    /// The oracle's fixpoint after each cycle's rounds.
    expected: Vec<BTreeMap<NodeId, Instance>>,
    /// Σ `size_bytes` of one round's ingested tuples.
    round_user_bytes: u64,
}

impl DurablePrep {
    fn new(scenario: &Scenario) -> Self {
        let config = scenario.build_config();
        let nodes = config.nodes.len();
        let mut rng = SmallRng::seed_from_u64(scenario.seed ^ 0xD0_5AB1E);
        let mut key = INGEST_KEY_BASE;
        let mut ingest = Vec::new();
        for _ in 0..CYCLES_PER_LAP {
            let cycle: Vec<Vec<Vec<Tuple>>> = (0..ROUNDS_PER_CYCLE)
                .map(|_| {
                    (0..nodes)
                        .map(|_| {
                            (0..INSERTS_PER_NODE)
                                .map(|_| {
                                    key += 1;
                                    let value = rng.gen_range(0..1i64 << 30);
                                    Tuple::new(vec![Value::Int(key), Value::Int(value)])
                                })
                                .collect()
                        })
                        .collect()
                })
                .collect();
            ingest.push(cycle);
        }
        let mut oracle = Oracle::fixpoint(&config);
        let mut expected = Vec::new();
        for cycle in &ingest {
            for round in cycle {
                for (node, tuples) in round.iter().enumerate() {
                    for t in tuples {
                        oracle.insert(NodeId(node as u64), &Scenario::relation_of(node), t.clone());
                    }
                }
            }
            oracle.chase();
            expected.push(oracle.instances().clone());
        }
        let round_user_bytes = ingest[0][0].iter().flatten().map(|t| t.size_bytes() as u64).sum();
        DurablePrep { config, sink: scenario.sink(), ingest, expected, round_user_bytes }
    }

    fn inserts_per_round(&self) -> u64 {
        (self.config.nodes.len() * INSERTS_PER_NODE) as u64
    }
}

// ---------------------------------------------------------------------
// The two pools
// ---------------------------------------------------------------------

/// `ParallelCoDbNet::build_persistent`, around wrapped nodes: persistence is
/// opened before a node joins the pool, all stores share one scheduler, and
/// registration is batched. The tracer is attached to the scheduler and to
/// each node before its store opens, so the store inherits it.
struct TracedPool {
    net: ParallelNet<Envelope, TimedPeer<CoDbNode>>,
    sched: Option<FsyncScheduler>,
}

impl TracedPool {
    fn build(
        config: &NetworkConfig,
        root: &Path,
        trace: &PoolTrace,
    ) -> Result<(Self, Recovered), String> {
        config.validate().map_err(|e| e.to_string())?;
        let sched = FsyncScheduler::for_policy(POLICY);
        if let Some(s) = &sched {
            s.attach_tracer(trace.counting.tracer.clone());
        }
        let mut net = ParallelNet::with_config(runtime());
        let mut recovered = Vec::new();
        let mut peers = Vec::new();
        for nc in &config.nodes {
            let mut node = CoDbNode::new(
                nc.id,
                &nc.name,
                nc.schema.clone(),
                nc.data.clone(),
                &config.rules,
                settings(),
            );
            node.attach_tracer(&trace.counting.tracer);
            let dir = CoDbNetwork::node_data_dir(root, &nc.name);
            let stats = node
                .open_persistence_with(&dir, POLICY, Codec::Binary, sched.as_ref())
                .map_err(|e| e.to_string())?;
            recovered.push((nc.id, stats));
            peers.push((nc.id.peer(), TimedPeer::new(nc.id.peer(), node, trace.clock.clone())));
        }
        net.add_peers(peers);
        net.await_quiescence(Duration::from_millis(20), Duration::from_secs(30));
        Ok((TracedPool { net, sched }, recovered))
    }
}

type Recovered = Vec<(NodeId, Option<RecoveryStats>)>;

/// The product's pool, or the traced one.
enum Pool {
    Plain(ParallelCoDbNet),
    Traced(TracedPool),
}

impl Pool {
    fn build(
        config: &NetworkConfig,
        root: &Path,
        trace: Option<&PoolTrace>,
    ) -> Result<(Self, Recovered), String> {
        match trace {
            Some(t) => TracedPool::build(config, root, t).map(|(p, r)| (Pool::Traced(p), r)),
            None => ParallelCoDbNet::build_persistent(
                config.clone(),
                runtime(),
                settings(),
                root,
                POLICY,
                Codec::Binary,
            )
            .map(|(p, r)| (Pool::Plain(p), r))
            .map_err(|e| e.to_string()),
        }
    }

    fn control(&self, to: NodeId, body: Body) {
        match self {
            Pool::Plain(p) => p.control(to, body),
            Pool::Traced(p) => p.net.inject(HARNESS_PEER, to.peer(), Envelope::control(body)),
        }
    }

    fn await_quiescence(&self) -> bool {
        match self {
            Pool::Plain(p) => p.await_quiescence(SETTLE, DEADLINE),
            Pool::Traced(p) => p.net.await_quiescence(SETTLE, DEADLINE),
        }
    }

    fn flush_all(&self) {
        let sched = match self {
            Pool::Plain(p) => p.fsync_scheduler(),
            Pool::Traced(p) => p.sched.as_ref(),
        };
        if let Some(s) = sched {
            s.flush_all();
        }
    }

    /// `(delivered, undeliverable, deepest mailbox)`.
    fn counters(&self) -> (u64, u64, usize) {
        match self {
            Pool::Plain(p) => (p.delivered(), p.undeliverable(), p.max_mailbox_depth()),
            Pool::Traced(p) => {
                (p.net.delivered(), p.net.undeliverable(), p.net.max_mailbox_depth())
            }
        }
    }

    fn shutdown(self) -> (BTreeMap<NodeId, CoDbNode>, Vec<Span>) {
        match self {
            Pool::Plain(p) => (p.shutdown(), Vec::new()),
            Pool::Traced(p) => {
                let mut spans = Vec::new();
                let nodes = p
                    .net
                    .shutdown()
                    .into_iter()
                    .map(|(id, peer)| {
                        let (node, s) = peer.into_parts();
                        spans.extend(s);
                        (NodeId::from(id), node)
                    })
                    .collect();
                (nodes, spans)
            }
        }
    }
}

// ---------------------------------------------------------------------
// One lap
// ---------------------------------------------------------------------

/// What the traced laps record.
struct PoolTrace {
    clock: Arc<SpanClock>,
    counting: Counting,
    log: TraceLog,
    /// When each round's wait returned, on the span clock, by operation.
    returned_ns: HashMap<u64, u64>,
    checkpoint_ms: Vec<f64>,
    mailbox_peak: usize,
}

/// What a lap leaves for the end-to-end accumulator and the replays.
struct LapResult {
    /// Wall ms of every round and of every recovery.
    round_ms: Vec<f64>,
    recovery_ms: Vec<f64>,
    /// `(bytes in .wal and .snap files, tuples ingested)` at the lap's end.
    stored: (u64, u64),
    /// Every node's store directory and live WAL file.
    stores: Vec<(PathBuf, PathBuf)>,
}

fn disk_bytes(root: &Path) -> u64 {
    let mut total = 0;
    for node_dir in std::fs::read_dir(root).into_iter().flatten().flatten() {
        for file in std::fs::read_dir(node_dir.path()).into_iter().flatten().flatten() {
            let name = file.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".wal") || name.ends_with(".snap") {
                total += file.metadata().map_or(0, |m| m.len());
            }
        }
    }
    total
}

/// What a recovery must reproduce: per node, the store generation and the
/// fsync-covered WAL records at the previous shutdown.
type Watermarks = BTreeMap<NodeId, (u64, u64)>;

fn recovery_ok(recovered: &Recovered, want: &Watermarks) -> bool {
    recovered.len() == want.len()
        && recovered.iter().all(|(id, stats)| match (stats, want.get(id)) {
            (Some(s), Some(&(generation, records))) => {
                !s.torn_tail && s.generation == generation && s.wal_records_replayed >= records
            }
            _ => false,
        })
}

/// Shuts the pool down, checks every node against the oracle's instances
/// and, when `checkpoint` is set, checkpoints every node. Returns the
/// verdict, the watermarks the next recovery must reproduce, and the store
/// paths.
fn stop_and_verify(
    pool: Pool,
    want: &BTreeMap<NodeId, Instance>,
    checkpoint: bool,
    trace: &mut Option<&mut PoolTrace>,
) -> (bool, Watermarks, Vec<(PathBuf, PathBuf)>) {
    let peak = pool.counters().2;
    let (mut nodes, spans) = pool.shutdown();
    if let Some(t) = trace {
        t.log.spans.extend(spans);
        t.mailbox_peak = t.mailbox_peak.max(peak);
    }
    let mut ok = nodes.len() == want.len();
    let mut marks = Watermarks::new();
    let mut stores = Vec::new();
    for (id, node) in &mut nodes {
        ok &= want.get(id).is_some_and(|w| node_matches(w, node.ldb()))
            && node.persist_error().is_none();
        if checkpoint {
            let (ms, done) = timed_ms(|| node.checkpoint());
            ok &= matches!(done, Ok(true));
            if let Some(t) = trace {
                t.checkpoint_ms.push(ms);
            }
        }
        match node.store() {
            Some(store) => {
                marks.insert(*id, (store.generation(), store.durable_wal_records()));
                stores.push((store.dir().to_owned(), store.wal_path().to_owned()));
            }
            None => ok = false,
        }
    }
    (ok, marks, stores)
}

fn lap(
    prep: &DurablePrep,
    root: &Path,
    e2e: &mut EndToEnd,
    mut trace: Option<&mut PoolTrace>,
) -> LapResult {
    let _ = std::fs::remove_dir_all(root);
    let mut result = LapResult {
        round_ms: Vec::new(),
        recovery_ms: Vec::new(),
        stored: (0, 0),
        stores: Vec::new(),
    };
    let mut marks: Option<Watermarks> = None;
    let (mut rounds_done, mut recoveries_done) = (Vec::new(), Vec::new());
    // The extra iteration is the lap's final recovery: build, stop, verify.
    for cycle in 0..=CYCLES_PER_LAP {
        e2e.calibrate();
        let op = trace.as_ref().map(|t| (t.clock.next_op(), t.counting.totals()));
        let ((ms, cpu_ms), built) =
            timed_wall_and_cpu_ms(|| Pool::build(&prep.config, root, trace.as_deref()));
        let Ok((pool, recovered)) = built else {
            e2e.checked(false);
            break;
        };
        if let Some(want) = &marks {
            recoveries_done.push((recovery_ok(&recovered, want), cpu_ms));
            result.recovery_ms.push(ms);
            if let (Some(t), Some((op, before))) = (&mut trace, op) {
                t.log.ops.push(OpRecord {
                    op,
                    kind: OpKind::Recovery,
                    wall_ns: (ms * 1e6) as u64,
                    events: 0,
                    sent: 0,
                    undeliverable: 0,
                    traced: t.counting.totals().since(&before),
                });
            }
        }
        let rounds = if cycle < CYCLES_PER_LAP { &prep.ingest[cycle][..] } else { &[] };
        for round in rounds {
            e2e.calibrate();
            let op = trace.as_ref().map(|t| (t.clock.next_op(), t.counting.totals()));
            let before = pool.counters();
            let (t0, cpu0) = (Instant::now(), process_cpu_ms());
            for (node, tuples) in round.iter().enumerate() {
                let relation = Scenario::relation_of(node);
                for t in tuples {
                    pool.control(
                        NodeId(node as u64),
                        Body::IngestLocal { relation: relation.clone(), tuple: t.clone() },
                    );
                }
            }
            pool.control(prep.sink, Body::StartUpdate);
            let quiescent = pool.await_quiescence();
            let returned_ns = trace.as_ref().map(|t| t.clock.now_ns());
            pool.flush_all();
            let (ms, cpu_ms) = (t0.elapsed().as_secs_f64() * 1e3, process_cpu_ms() - cpu0);
            let after = pool.counters();
            let ok = quiescent && after.1 == before.1;
            rounds_done.push((ok, cpu_ms, after.0 - before.0));
            result.round_ms.push(ms);
            if let (Some(t), Some((op, traced0)), Some(returned_ns)) = (&mut trace, op, returned_ns)
            {
                t.returned_ns.insert(op, returned_ns);
                t.log.ops.push(OpRecord {
                    op,
                    kind: OpKind::Round,
                    wall_ns: (ms * 1e6) as u64,
                    events: 0,
                    sent: after.0 - before.0,
                    undeliverable: after.1 - before.1,
                    traced: t.counting.totals().since(&traced0),
                });
            }
        }
        let want = &prep.expected[cycle.min(CYCLES_PER_LAP - 1)];
        let checkpoint = cycle < CYCLES_PER_LAP && cycle % 2 == 0;
        let (ok, next_marks, stores) = stop_and_verify(pool, want, checkpoint, &mut trace);
        e2e.checked(ok);
        marks = Some(next_marks);
        result.stores = stores;
    }
    e2e.op_lap(&rounds_done, prep.inserts_per_round());
    e2e.aux_lap(&recoveries_done);
    let ingested = (CYCLES_PER_LAP * ROUNDS_PER_CYCLE) as u64 * prep.inserts_per_round();
    result.stored = (disk_bytes(root), ingested);
    result
}

// ---------------------------------------------------------------------
// Replays and pool metrics
// ---------------------------------------------------------------------

/// `store.*` replays on the directories the last lap left: the live
/// WAL re-appended to a fresh store without fsync, then every store opened.
fn replay_store(out: &mut Outcome, root: &Path, stores: &[(PathBuf, PathBuf)]) {
    let (mut append_ms, mut appended) = (0.0, 0usize);
    let (mut snap_bytes, mut wal_bytes) = (0u64, 0u64);
    let empty = Snapshot::capture(&Instance::new(), &NullFactory::new(0));
    for (i, (dir, wal)) in stores.iter().enumerate() {
        for file in std::fs::read_dir(dir).into_iter().flatten().flatten() {
            let len = file.metadata().map_or(0, |m| m.len());
            match file.path().extension().and_then(|e| e.to_str()) {
                Some("snap") => snap_bytes += len,
                Some("wal") => wal_bytes += len,
                _ => {}
            }
        }
        let Ok(contents) = read_wal(wal) else { continue };
        let fresh = Store::create(
            &root.join(format!("_replay{i}")),
            &empty,
            &RecvCaches::new(),
            &ProtocolCounters::default(),
            SyncPolicy::Never,
            Codec::Binary,
        );
        let Ok(mut fresh) = fresh else { continue };
        let (ms, ()) = timed_ms(|| {
            for record in &contents.records {
                fresh.append(record).expect("append to a fresh store");
            }
        });
        append_ms += ms;
        appended += contents.records.len();
    }
    let append_us = if appended > 0 { append_ms * 1e3 / appended as f64 } else { 0.0 };
    out.set("store.append_us", append_us);
    out.set("store.append_ms", append_us * out.get("store.wal_appends") / 1e3);
    out.set("store.snap_bytes", snap_bytes as f64);
    out.set("store.wal_bytes_on_disk", wal_bytes as f64);

    let (mut open_ms, mut replayed) = (Vec::new(), 0u64);
    for (dir, _) in stores {
        let (ms, opened) = timed_ms(|| Store::open(dir, SyncPolicy::Never, Codec::Binary));
        if let Ok((_, state)) = opened {
            open_ms.push(ms);
            replayed += state.wal_records_replayed;
        }
    }
    let open_s = open_ms.iter().sum::<f64>() / 1e3;
    out.set("store.open_ms_p50", median(&open_ms));
    out.set(
        "store.replay_records_per_s",
        if open_s > 0.0 { replayed as f64 / open_s } else { 0.0 },
    );
}

/// `relational.fire_delta_ms` and `relational.apply_ms`: one round's share
/// of rule evaluation — every rule's semi-naive evaluation with the last
/// round's inserts (all that reached its source) as the delta, and the
/// firings applied into an empty target.
fn replay_fire_delta(out: &mut Outcome, prep: &DurablePrep) {
    let last = &prep.ingest[CYCLES_PER_LAP - 1][ROUNDS_PER_CYCLE - 1];
    let fixpoint = &prep.expected[CYCLES_PER_LAP - 1];
    let (mut fire_ms, mut apply_ms, mut firings) = (0.0, 0.0, 0usize);
    for rule in &prep.config.rules {
        let source = rule.source.0 as usize;
        let delta: Vec<Tuple> = last[..=source].iter().flatten().cloned().collect();
        let relation = Scenario::relation_of(source);
        let (ms, fired) = timed_ms(|| {
            rule.rule
                .fire_delta(&fixpoint[&rule.source], &relation, &delta)
                .expect("validated rule")
        });
        fire_ms += ms;
        firings += fired.len();
        apply_ms += layers::apply_into_empty(&fixpoint[&rule.target], rule.target, &fired);
    }
    out.set("relational.fire_delta_ms", fire_ms);
    out.set("relational.firings", firings as f64);
    out.set("relational.apply_ms", apply_ms);
}

/// `net.pool_*`: busy time from the spans of the rounds, idle share against
/// wall × workers, and the tail between the last callback and the wait's
/// return.
fn pool_metrics(out: &mut Outcome, trace: &PoolTrace) {
    let rounds: Vec<&OpRecord> = trace.log.ops.iter().filter(|o| o.kind == OpKind::Round).collect();
    if rounds.is_empty() {
        return;
    }
    let n = rounds.len() as f64;
    let mut last_end: HashMap<u64, u64> = HashMap::new();
    for s in &trace.log.spans {
        let end = last_end.entry(s.op).or_default();
        *end = (*end).max(s.end_ns);
    }
    let busy_ms = out.get("core.callback_ms");
    let wall_ms = rounds.iter().map(|o| o.wall_ns as f64).sum::<f64>() / 1e6 / n;
    let tails: Vec<f64> = rounds
        .iter()
        .filter_map(|o| {
            Some(trace.returned_ns.get(&o.op)?.saturating_sub(*last_end.get(&o.op)?) as f64 / 1e6)
        })
        .collect();
    out.set("net.pool_busy_ms", busy_ms);
    out.set("net.pool_idle_share", 1.0 - busy_ms / (wall_ms * workers() as f64));
    out.set("net.quiesce_tail_ms", crate::stats::mean(&tails));
    out.set("net.pool_delivered", out.get("net.sent"));
    out.set("net.mailbox_peak", trace.mailbox_peak as f64);
    out.set("net.pool_undeliverable", out.get("net.undeliverable"));
}

/// Runs `durable_ingest` for `seconds`.
pub fn run_durable(spec: &Spec, seed: u64, seconds: f64, trace: bool, out_dir: &Path) -> Outcome {
    let scenario = spec.scenario(seed);
    let (setup_s, prep) = timed_setups(|| DurablePrep::new(&scenario));
    let root = out_dir.join(format!("durable-{}", std::process::id()));
    let mut e2e = EndToEnd::new(setup_s, Calibration::on_cpu_clock(NOMINAL_CAL_MS_POOL));
    let mut tracing = trace.then(|| PoolTrace {
        clock: SpanClock::new(),
        counting: Counting::new(),
        log: TraceLog::default(),
        returned_ns: HashMap::new(),
        checkpoint_ms: Vec::new(),
        mailbox_peak: 0,
    });
    // Wall ms: rounds on the traced pool, rounds and recoveries on the plain.
    let (mut traced_ms, mut plain_ms, mut plain_recovery_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut last_stores = Vec::new();
    window(seconds, 2, |i| {
        let traced = tracing.is_some() && i % 2 == 0;
        let result = lap(&prep, &root, &mut e2e, tracing.as_mut().filter(|_| traced));
        e2e.stored = result.stored;
        last_stores = result.stores;
        if traced {
            traced_ms.extend(result.round_ms);
        } else {
            plain_ms.extend(result.round_ms);
            plain_recovery_ms.extend(result.recovery_ms);
        }
    });
    let (round_wall, recovery_wall) = (median(&plain_ms), median(&plain_recovery_ms));
    let notes = [
        format!(
            "workers = {} (clamp(nproc - 1, 1, 4), nproc = {})",
            workers(),
            std::thread::available_parallelism().map_or(1, |n| n.get())
        ),
        format!(
            "op, aux and calibration ms are processor time; on the wall clock a round took {round_wall:.3} ms, a recovery {recovery_wall:.3} ms (medians over single operations)"
        ),
    ];
    let mut out = match tracing {
        None => e2e.into_outcome(),
        Some(t) => {
            let mut out =
                Outcome { attempted: e2e.attempted, failed: e2e.failed, ..Outcome::default() };
            let rounds = layers::from_log(&mut out, &t.log, OpKind::Round);
            pool_metrics(&mut out, &t);
            replay_store(&mut out, &root, &last_stores);
            replay_fire_delta(&mut out, &prep);
            let fixpoint = &prep.expected[CYCLES_PER_LAP - 1];
            layers::replay_reads(&mut out, fixpoint, prep.sink, &[scenario.sink_query()]);
            let user = prep.round_user_bytes as f64;
            out.set("store.write_amp", out.get("store.wal_bytes") / user);
            out.set("store.checkpoint_ms_p50", median(&t.checkpoint_ms));
            out.set("harness.round_wall_ms_p50", round_wall);
            out.set("harness.recovery_wall_ms_p50", recovery_wall);
            out.notes.push(format!("{rounds} traced rounds"));
            layers::finish(
                &mut out,
                &t.log,
                &t.counting,
                &traced_ms,
                &plain_ms,
                out_dir,
                spec.name,
            );
            out
        }
    };
    let _ = std::fs::remove_dir_all(&root);
    out.notes.extend(notes);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Kind;
    use codb_workload::{RuleStyle, Topology};

    const SMALL: Spec = Spec {
        name: "test_durable",
        kind: Kind::Durable,
        topology: Topology::Chain(3),
        tuples_per_node: 5,
        rule_style: RuleStyle::CopyGav,
    };

    fn out_dir(name: &str) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(name)
    }

    #[test]
    fn durable_laps_lose_nothing_and_leave_no_directory() {
        let dir = out_dir("test-durable-plain");
        let out = run_durable(&SMALL, 11, 0.01, false, &dir);
        assert_eq!(out.failed, 0);
        // Per lap: 4 rounds, 2 recoveries, 3 verified shutdowns.
        assert!(
            out.attempted >= 2 * 9 && out.attempted.is_multiple_of(9),
            "{} operations",
            out.attempted
        );
        for m in crate::metrics::END_TO_END {
            assert!(out.get(m.name) > 0.0, "{} must never be 0", m.name);
        }
        let leftovers: Vec<_> = std::fs::read_dir(&dir).into_iter().flatten().flatten().collect();
        assert!(leftovers.is_empty(), "store directories are removed: {leftovers:?}");
    }

    #[test]
    fn a_traced_lap_sees_the_store_and_the_pool() {
        let out = run_durable(&SMALL, 11, 0.01, true, &out_dir("test-durable-traced"));
        assert_eq!(out.failed, 0);
        let inserts = (3 * INSERTS_PER_NODE) as f64;
        assert!(out.get("store.wal_appends") >= inserts, "every insert is logged");
        assert!(out.get("store.fsyncs") > 0.0 && out.get("store.fsync_ms") > 0.0);
        assert!(out.get("store.write_amp") > 1.0);
        assert!(out.get("net.pool_busy_ms") > 0.0 && out.get("net.pool_delivered") >= inserts);
        assert!(out.get("store.open_ms_p50") > 0.0 && out.get("store.checkpoint_ms_p50") > 0.0);
        assert!(out.get("harness.round_wall_ms_p50") > 0.0);
        assert!(out.get("harness.recovery_wall_ms_p50") > 0.0);
        assert_eq!(out.get("relational.firings"), (1 + 2) as f64 * INSERTS_PER_NODE as f64);
    }

    #[test]
    fn a_recovery_that_replays_too_little_fails() {
        let stats = |generation, replayed| {
            Some(RecoveryStats {
                epoch: 1,
                generation,
                wal_records_replayed: replayed,
                torn_tail: false,
            })
        };
        let want: Watermarks = [(NodeId(0), (2, 10))].into();
        assert!(recovery_ok(&vec![(NodeId(0), stats(2, 10))], &want));
        assert!(!recovery_ok(&vec![(NodeId(0), stats(2, 9))], &want));
        assert!(!recovery_ok(&vec![(NodeId(0), stats(1, 10))], &want));
        assert!(!recovery_ok(&vec![(NodeId(0), None)], &want));
        assert!(!recovery_ok(&vec![], &want));
    }
}
