//! Per-layer metrics: what the spans, the tracer's counts and the replays
//! say about each crate's share of an operation.
//!
//! Three sources. Spans from [`crate::timed::TimedPeer`] bound `core` from
//! above (time inside node callbacks, children included) and, subtracted
//! from the harness's wait, give the runtime's own time. The counting sink
//! gives exact counts and the store's measured fsync time. Replays call one
//! layer's public functions directly on the run's own data; they are upper
//! bounds of what the layer cost inside the run, because the run evaluates
//! deltas where a replay evaluates whole instances.

use crate::metrics::Outcome;
use crate::nets::{OpKind, TraceLog, UpdateObs};
use crate::run::timed_ms;
use crate::sink::Counting;
use crate::stats::{mean, median, percentile};
use codb_core::{CoordinationRule, NodeId};
use codb_relational::{
    answer_query, apply_firings, ConjunctiveQuery, Instance, NullFactory, RuleFiring, Snapshot,
};
use codb_trace::{RingRecorder, TraceEvent, TraceSink};
use std::collections::{BTreeMap, HashSet};
use std::io::Write;
use std::path::Path;

/// Spans written to the dump; the rest are counted in its `omitted` field.
const DUMPED_SPANS: usize = 50_000;

/// `core.*` and `net.*` from spans and operation records, `store.*` and
/// `trace.events` from the tracer's counts — all per operation of kind
/// `primary`. Returns how many such operations the log holds.
pub fn from_log(out: &mut Outcome, log: &TraceLog, primary: OpKind) -> usize {
    let ops: Vec<_> = log.ops.iter().filter(|o| o.kind == primary).collect();
    if ops.is_empty() {
        return 0;
    }
    let n = ops.len() as f64;
    let mine: HashSet<u64> = ops.iter().map(|o| o.op).collect();
    let callback_us: Vec<f64> =
        log.spans.iter().filter(|s| mine.contains(&s.op)).map(|s| s.nanos() as f64 / 1e3).collect();
    let callback_ms = callback_us.iter().sum::<f64>() / 1e3 / n;
    let wall_ms = ops.iter().map(|o| o.wall_ns as f64).sum::<f64>() / 1e6 / n;
    let per_op = |f: &dyn Fn(&crate::nets::OpRecord) -> u64| -> f64 {
        ops.iter().map(|o| f(o) as f64).sum::<f64>() / n
    };
    let events = per_op(&|o| o.events);
    out.set("core.callback_ms", callback_ms);
    out.set("core.callbacks", callback_us.len() as f64 / n);
    out.set("core.callback_us_p50", median(&callback_us));
    out.set("core.callback_us_p99", percentile(&callback_us, 99.0));
    out.set("net.loop_self_ms", wall_ms - callback_ms);
    out.set("net.events", events);
    out.set(
        "net.us_per_event",
        if events > 0.0 { (wall_ms - callback_ms) * 1e3 / events } else { 0.0 },
    );
    out.set("net.sent", per_op(&|o| o.sent));
    out.set("net.bytes_sent", per_op(&|o| o.traced.net_send_bytes));
    out.set("net.timers", per_op(&|o| o.traced.net_timers));
    out.set("net.undeliverable", per_op(&|o| o.undeliverable));
    let appends = per_op(&|o| o.traced.wal_appends);
    let fsyncs = per_op(&|o| o.traced.fsyncs);
    out.set("store.wal_appends", appends);
    out.set("store.wal_bytes", per_op(&|o| o.traced.wal_bytes));
    out.set("store.fsyncs", fsyncs);
    out.set("store.fsync_ms", per_op(&|o| o.traced.fsync_nanos) / 1e6);
    out.set("store.group_drains", per_op(&|o| o.traced.group_drains));
    out.set("store.records_per_fsync", if fsyncs > 0.0 { appends / fsyncs } else { 0.0 });
    out.set("trace.events", per_op(&|o| o.traced.events));
    ops.len()
}

/// `core.*` counts and `net.sim_ms` from the statistics module's update
/// summaries (exact under a seed).
pub fn from_updates(out: &mut Outcome, updates: &[UpdateObs]) {
    let avg = |f: &dyn Fn(&UpdateObs) -> f64| mean(&updates.iter().map(f).collect::<Vec<_>>());
    let firings = avg(&|u| u.summary.firings as f64);
    let added = avg(&|u| u.summary.tuples_added as f64);
    out.set("core.data_msgs", avg(&|u| u.summary.data_messages as f64));
    out.set("core.control_msgs", avg(&|u| (u.messages - u.summary.data_messages) as f64));
    out.set("core.firings_sent", firings);
    out.set("core.tuples_added", added);
    out.set("core.dup_ratio", if firings > 0.0 { added / firings } else { 0.0 });
    out.set("core.longest_path", avg(&|u| u.summary.longest_path as f64));
    out.set("core.closed_early", avg(&|u| u.summary.closed_early as f64));
    out.set("net.sim_ms", avg(&|u| u.summary.total_time.as_nanos() as f64 / 1e6));
}

/// Replays `relational`'s write side on the run's fixpoint: every rule fired
/// on its source's final instance, the firings applied into empty targets.
pub fn replay_rules(
    out: &mut Outcome,
    rules: &[CoordinationRule],
    instances: &BTreeMap<NodeId, Instance>,
) {
    let (mut fire_ms, mut apply_ms, mut firings) = (0.0, 0.0, 0usize);
    for rule in rules {
        let (ms, fired) =
            timed_ms(|| rule.rule.fire(&instances[&rule.source]).expect("validated rule"));
        fire_ms += ms;
        firings += fired.len();
        apply_ms += apply_into_empty(&instances[&rule.target], rule.target, &fired);
    }
    out.set("relational.fire_ms", fire_ms);
    out.set("relational.firings", firings as f64);
    out.set("relational.apply_ms", apply_ms);
}

/// Milliseconds `apply_firings` takes to put `firings` into an empty
/// instance with `like`'s schema.
pub fn apply_into_empty(like: &Instance, node: NodeId, firings: &[RuleFiring]) -> f64 {
    let mut target = Instance::with_schema(&like.schema());
    let mut nulls = NullFactory::new(node.0);
    timed_ms(|| apply_firings(&mut target, firings, &mut nulls).expect("head fits the schema")).0
}

/// Replays `relational`'s read side: the queries answered at `at`, and
/// `at`'s instance through the snapshot codec.
pub fn replay_reads(
    out: &mut Outcome,
    instances: &BTreeMap<NodeId, Instance>,
    at: NodeId,
    queries: &[ConjunctiveQuery],
) {
    let tuples: usize = instances.values().map(Instance::tuple_count).sum();
    out.set("relational.ldb_tuples", tuples as f64);

    let inst = &instances[&at];
    let query_ms: Vec<f64> = queries
        .iter()
        .map(|q| timed_ms(|| std::hint::black_box(answer_query(q, inst).expect("query fits"))).0)
        .collect();
    out.set("relational.query_ms_p50", median(&query_ms));

    let nulls = NullFactory::new(at.0);
    let (encode_ms, bytes) = timed_ms(|| Snapshot::capture(inst, &nulls).to_binary_bytes());
    let (decode_ms, decoded) = timed_ms(|| Snapshot::from_binary_bytes(&bytes));
    assert!(decoded.is_ok_and(|s| &s.instance == inst), "snapshot round-trips");
    out.set("relational.snapshot_encode_ms", encode_ms);
    out.set("relational.snapshot_decode_ms", decode_ms);
    out.set("relational.snapshot_bytes", bytes.len() as f64);
}

/// Replays the captured events into a `RingRecorder`: what recording one
/// event costs and how many bytes it encodes to.
fn replay_trace(out: &mut Outcome, kept: &[(u64, TraceEvent)]) {
    if kept.is_empty() {
        return;
    }
    let mut ring = RingRecorder::new(kept.len());
    let (ms, ()) = timed_ms(|| {
        for (at, ev) in kept {
            ring.record(*at, ev);
        }
    });
    out.set("trace.emit_ns", ms * 1e6 / kept.len() as f64);
    out.set("trace.bytes_per_event", ring.to_bytes().len() as f64 / kept.len() as f64);
}

/// `harness.*` and `trace.overhead_pct` from the primary operation's host ms
/// on the traced path and on the product's own.
fn harness(out: &mut Outcome, traced_ms: &[f64], plain_ms: &[f64]) {
    let (traced, plain) = (median(traced_ms), median(plain_ms));
    out.set("trace.overhead_pct", if plain > 0.0 { (traced / plain - 1.0) * 100.0 } else { 0.0 });
    out.set("harness.op_ms_p90", percentile(plain_ms, 90.0));
    out.set("harness.op_samples", plain_ms.len() as f64);
}

/// What every traced run ends with: the `trace.*` replay, `core.self_ms_est`,
/// `harness.*`, and the span dump.
pub fn finish(
    out: &mut Outcome,
    log: &TraceLog,
    counting: &Counting,
    traced_ms: &[f64],
    plain_ms: &[f64],
    out_dir: &Path,
    workload: &str,
) {
    replay_trace(out, &counting.kept());
    estimate_core_self(out);
    harness(out, traced_ms, plain_ms);
    out.notes.push(format!(
        "{} spans; overhead from {} traced vs {} plain samples",
        log.spans.len(),
        traced_ms.len(),
        plain_ms.len()
    ));
    if let Err(e) = dump_spans(out_dir, workload, log) {
        out.notes.push(format!("span dump not written: {e}"));
    }
}

/// `core.self_ms_est`: callback time less what the replays and the tracer
/// attribute to the layers below. An estimate — replays are upper bounds.
fn estimate_core_self(out: &mut Outcome) {
    let below = [
        "relational.fire_ms",
        "relational.fire_delta_ms",
        "relational.apply_ms",
        "store.append_ms",
        "store.fsync_ms",
    ];
    let est = out.get("core.callback_ms") - below.iter().map(|m| out.get(m)).sum::<f64>();
    out.set("core.self_ms_est", est);
}

/// Writes the spans as JSON: name, start, end, peer and the operation that
/// caused each, plus the operation records.
fn dump_spans(dir: &Path, workload: &str, log: &TraceLog) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let file = std::fs::File::create(dir.join(format!("{workload}.spans.json")))?;
    let mut f = std::io::BufWriter::new(file);
    writeln!(
        f,
        "{{\"workload\": \"{workload}\", \"omitted\": {},",
        log.spans.len().saturating_sub(DUMPED_SPANS)
    )?;
    writeln!(f, "\"ops\": [")?;
    for (i, o) in log.ops.iter().enumerate() {
        let sep = if i + 1 < log.ops.len() { "," } else { "" };
        writeln!(f, "{{\"op\": {}, \"kind\": \"{:?}\", \"wall_ns\": {}, \"events\": {}, \"sent\": {}}}{sep}", o.op, o.kind, o.wall_ns, o.events, o.sent)?;
    }
    writeln!(f, "],\n\"spans\": [")?;
    let dumped = &log.spans[..log.spans.len().min(DUMPED_SPANS)];
    for (i, s) in dumped.iter().enumerate() {
        let sep = if i + 1 < dumped.len() { "," } else { "" };
        writeln!(
            f,
            "{{\"name\": \"{}\", \"peer\": {}, \"op\": {}, \"start_ns\": {}, \"end_ns\": {}}}{sep}",
            s.callback.name(),
            s.peer,
            s.op,
            s.start_ns,
            s.end_ns
        )?;
    }
    writeln!(f, "]}}")?;
    f.flush()
}
