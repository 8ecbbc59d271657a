//! The simulator workloads: cold global updates, and the query mix.
//!
//! Closed loop, one client, single-threaded: the harness issues the next
//! operation when the previous one has reached quiescence. With `trace` off
//! every operation runs on the product's own `CoDbNetwork`; with `trace` on,
//! samples alternate between a [`TracedNet`] (per-layer numbers) and a plain
//! `CoDbNetwork` (the same-process reference `trace.overhead_pct` is taken
//! against).

use crate::layers;
use crate::metrics::Outcome;
use crate::nets::{OpKind, SimHarness, TraceLog, TracedNet, UpdateObs};
use crate::oracle::{network_matches, Oracle};
use crate::run::{timed_ms, timed_setups, window, Calibration, EndToEnd, NOMINAL_CAL_MS};
use crate::sink::Counting;
use crate::timed::SpanClock;
use crate::workloads::Spec;
use codb_core::{CoDbNetwork, NetworkConfig, NodeId};
use codb_net::SimConfig;
use codb_relational::{answer_query, parse_query, ConjunctiveQuery, Instance, Tuple, Value};
use codb_workload::{DataDist, RuleStyle, Scenario};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::path::Path;
use std::sync::Arc;

/// True when the two answer sets agree up to the names of marked nulls:
/// the same size and the same null-free answers.
fn answers_match(want: &[Tuple], got: &[Tuple]) -> bool {
    let ground = |ts: &[Tuple]| ts.iter().filter(|t| !t.has_null()).cloned().collect::<Vec<_>>();
    want.len() == got.len() && ground(want) == ground(got)
}

fn plain_net(config: &NetworkConfig) -> CoDbNetwork {
    CoDbNetwork::build(config.clone(), SimConfig::default()).expect("generated configs are valid")
}

/// What a traced run keeps beside the end-to-end accumulator.
struct Tracing {
    clock: Arc<SpanClock>,
    counting: Counting,
    log: TraceLog,
    updates: Vec<UpdateObs>,
    /// Host ms of the primary operation, traced and plain, for the overhead.
    traced_ms: Vec<f64>,
    plain_ms: Vec<f64>,
}

impl Tracing {
    fn new() -> Self {
        Tracing {
            clock: SpanClock::new(),
            counting: Counting::new(),
            log: TraceLog::default(),
            updates: Vec::new(),
            traced_ms: Vec::new(),
            plain_ms: Vec::new(),
        }
    }

    /// The per-layer outcome: spans and counts for `primary`, the update
    /// summaries, the replays, the overhead — and the span dump.
    fn into_outcome(
        self,
        e2e: &EndToEnd,
        primary: OpKind,
        spec: &Spec,
        out_dir: &Path,
        replay: impl FnOnce(&mut Outcome),
    ) -> Outcome {
        let mut out =
            Outcome { attempted: e2e.attempted, failed: e2e.failed, ..Outcome::default() };
        let ops = layers::from_log(&mut out, &self.log, primary);
        layers::from_updates(&mut out, &self.updates);
        replay(&mut out);
        out.notes.push(format!("{ops} traced {primary:?} operations"));
        let (traced_ms, plain_ms) = (&self.traced_ms, &self.plain_ms);
        layers::finish(
            &mut out,
            &self.log,
            &self.counting,
            traced_ms,
            plain_ms,
            out_dir,
            spec.name,
        );
        out
    }
}

// ---------------------------------------------------------------------
// update_bulk, update_wide, update_glav_ring
// ---------------------------------------------------------------------

/// Set-up of an update workload: configuration, data and the oracle.
struct UpdatePrep {
    config: NetworkConfig,
    oracle: Oracle,
    sink: NodeId,
    sink_query: ConjunctiveQuery,
    sink_answers: Vec<Tuple>,
    /// Existential rules: the sink is also checked for null-isomorphism.
    iso_at: Option<NodeId>,
}

impl UpdatePrep {
    fn new(scenario: &Scenario) -> Self {
        let config = scenario.build_config();
        let oracle = Oracle::fixpoint(&config);
        let (sink, sink_query) = (scenario.sink(), scenario.sink_query());
        let sink_answers = oracle.answers(sink, &sink_query);
        let iso_at = matches!(scenario.rule_style, RuleStyle::ProjectGlav).then_some(sink);
        UpdatePrep { config, oracle, sink, sink_query, sink_answers, iso_at }
    }

    /// One sample: a cold update from the sink, checked node by node, then
    /// the sink's own relation read back locally. Returns the update's host
    /// ms and what it reported.
    fn sample<H: SimHarness>(&self, net: &mut H, e2e: &mut EndToEnd) -> (f64, UpdateObs) {
        e2e.calibrate();
        let (ms, update) = timed_ms(|| net.update(self.sink));
        let ok = network_matches(&self.oracle, &net.ldbs(), self.iso_at);
        e2e.op(ok, ms, update.messages, update.summary.tuples_added);
        let (aux_ms, answer) = timed_ms(|| net.query(self.sink, self.sink_query.clone(), false));
        e2e.aux(answers_match(&self.sink_answers, &answer.answers), aux_ms);
        (ms, update)
    }
}

/// Runs an update workload for `seconds`.
pub fn run_updates(spec: &Spec, seed: u64, seconds: f64, trace: bool, out_dir: &Path) -> Outcome {
    let scenario = spec.scenario(seed);
    let (setup_s, prep) = timed_setups(|| UpdatePrep::new(&scenario));
    let mut e2e = EndToEnd::new(setup_s, Calibration::new(NOMINAL_CAL_MS));
    let mut tracing = trace.then(Tracing::new);
    window(seconds, 2, |i| match &mut tracing {
        Some(t) if i % 2 == 0 => {
            let mut net = TracedNet::build(&prep.config, &t.clock, &t.counting);
            let (ms, update) = prep.sample(&mut net, &mut e2e);
            t.traced_ms.push(ms);
            t.updates.push(update);
            t.log.absorb(net.finish());
        }
        _ => {
            let mut net = plain_net(&prep.config);
            let (ms, _) = prep.sample(&mut net, &mut e2e);
            if e2e.stored.1 == 0 {
                e2e.stored = net.stored_size();
            }
            if let Some(t) = &mut tracing {
                t.plain_ms.push(ms);
            }
        }
    });
    match tracing {
        None => e2e.into_outcome(),
        Some(t) => t.into_outcome(&e2e, OpKind::Update, spec, out_dir, |out| {
            let queries = vec![prep.sink_query.clone(); 20];
            layers::replay_rules(out, prep.oracle.rules(), prep.oracle.instances());
            layers::replay_reads(out, prep.oracle.instances(), prep.sink, &queries);
        }),
    }
}

// ---------------------------------------------------------------------
// query_mix
// ---------------------------------------------------------------------

/// Query-time fetches per lap, before the update.
const FETCHES_PER_LAP: usize = 20;
/// Local queries per lap, after the update.
const LOCALS_PER_LAP: usize = 200;
/// Distinct join queries in the pool.
const QUERY_POOL: usize = 64;
/// Ten tuples are ingested at the sink every this many local queries.
const INGEST_EVERY: usize = 100;
const INGEST_BATCH: usize = 10;
/// Ingested keys lie above every generated key (domain `1 << 40`).
const INGEST_KEY_BASE: i64 = 1 << 50;
const QUERY_SCHEDULE_SEED: u64 = 0xC0DB;

/// Set-up of the query mix.
struct QueryPrep {
    config: NetworkConfig,
    oracle: Oracle,
    sink: NodeId,
    sink_relation: String,
    sink_query: ConjunctiveQuery,
    fetch_answers: Vec<Tuple>,
    /// `ans(X,Z) :- r(X,Y), s(Y,Z), Y >= k`, one threshold `k` per rank. The
    /// thresholds are the workload's, not the seed's: which selectivity the
    /// most-asked queries have decides the median local latency.
    pool: Vec<ConjunctiveQuery>,
    /// Which pool query each local query of a lap asks (Zipf over ranks).
    asks: Vec<usize>,
    /// The tuples each ingest of a lap inserts.
    ingests: Vec<Vec<Tuple>>,
    /// The oracle's sink instance after 0, 1, … ingests.
    sink_states: Vec<Instance>,
}

impl QueryPrep {
    fn new(scenario: &Scenario) -> Self {
        let RuleStyle::JoinGav { join_domain } = scenario.rule_style else {
            panic!("query_mix is defined on join rules");
        };
        let config = scenario.build_config();
        let oracle = Oracle::fixpoint(&config);
        let (sink, sink_query) = (scenario.sink(), scenario.sink_query());
        let fetch_answers = oracle.answers(sink, &sink_query);
        let (r, s) =
            (Scenario::relation_of(sink.0 as usize), Scenario::aux_relation_of(sink.0 as usize));
        // The query schedule is the workload's; the data are the seed's.
        let mut schedule = SmallRng::seed_from_u64(QUERY_SCHEDULE_SEED);
        let mut rng = SmallRng::seed_from_u64(scenario.seed ^ 0x51_7E_A5);
        let pool = (0..QUERY_POOL as u64)
            .map(|rank| {
                let k = rank * 101 % join_domain;
                parse_query(&format!("ans(X, Z) :- {r}(X, Y), {s}(Y, Z), Y >= {k}."))
                    .expect("well-formed query")
            })
            .collect();
        let ranks = DataDist::Zipf { domain: QUERY_POOL as u64, exponent_x100: 100 };
        let asks = (0..LOCALS_PER_LAP).map(|_| ranks.sample(&mut schedule) as usize).collect();
        let ingests: Vec<Vec<Tuple>> = (0..LOCALS_PER_LAP / INGEST_EVERY)
            .map(|batch| {
                (0..INGEST_BATCH)
                    .map(|k| {
                        let key = INGEST_KEY_BASE + (batch * INGEST_BATCH + k) as i64;
                        let join_key = rng.gen_range(0..join_domain) as i64;
                        Tuple::new(vec![Value::Int(key), Value::Int(join_key)])
                    })
                    .collect()
            })
            .collect();
        let mut sink_states = vec![oracle.instance(sink).clone()];
        for batch in &ingests {
            let mut next = sink_states.last().expect("starts non-empty").clone();
            for t in batch {
                next.insert(&r, t.clone()).expect("ingested tuples fit the schema");
            }
            sink_states.push(next);
        }
        QueryPrep {
            config,
            oracle,
            sink,
            sink_relation: r,
            sink_query,
            fetch_answers,
            pool,
            asks,
            ingests,
            sink_states,
        }
    }
}

/// The oracle's answers to the local queries of a lap. Laps are identical,
/// so an answer is computed once per (query, ingests so far) — and kept as
/// a fingerprint, so that the process's peak memory is the network's and
/// not the harness's.
#[derive(Default)]
struct LocalAnswers {
    known: HashMap<(usize, usize), (usize, u64)>,
}

/// Size and order-sensitive hash of a sorted answer set.
fn fingerprint(answers: &[Tuple]) -> (usize, u64) {
    let mut hasher = DefaultHasher::new();
    answers.hash(&mut hasher);
    (answers.len(), hasher.finish())
}

impl LocalAnswers {
    fn matches(&mut self, prep: &QueryPrep, query: usize, ingested: usize, got: &[Tuple]) -> bool {
        let want = self.known.entry((query, ingested)).or_insert_with(|| {
            let answers = answer_query(&prep.pool[query], &prep.sink_states[ingested]);
            fingerprint(&answers.expect("query fits"))
        });
        *want == fingerprint(got)
    }
}

/// One lap: fetches on the unmaterialised network, one update, then local
/// join queries with periodic ingest at the sink.
fn query_lap<H: SimHarness>(
    net: &mut H,
    prep: &QueryPrep,
    answers: &mut LocalAnswers,
    e2e: &mut EndToEnd,
) -> (Vec<f64>, UpdateObs) {
    let mut fetch_ms = Vec::with_capacity(FETCHES_PER_LAP);
    for _ in 0..FETCHES_PER_LAP {
        e2e.calibrate();
        let (ms, got) = timed_ms(|| net.query(prep.sink, prep.sink_query.clone(), true));
        let ok = answers_match(&prep.fetch_answers, &got.answers);
        e2e.op(ok, ms, got.messages, got.answers.len() as u64);
        fetch_ms.push(ms);
    }
    let update = net.update(prep.sink);
    e2e.checked(network_matches(&prep.oracle, &net.ldbs(), None));
    for (i, &ask) in prep.asks.iter().enumerate() {
        if i > 0 && i % INGEST_EVERY == 0 {
            for t in &prep.ingests[i / INGEST_EVERY - 1] {
                net.ingest(prep.sink, &prep.sink_relation, t.clone());
            }
        }
        e2e.calibrate();
        let (ms, got) = timed_ms(|| net.query(prep.sink, prep.pool[ask].clone(), false));
        e2e.aux(answers.matches(prep, ask, i / INGEST_EVERY, &got.answers), ms);
    }
    (fetch_ms, update)
}

/// Runs the query mix for `seconds`.
pub fn run_query_mix(spec: &Spec, seed: u64, seconds: f64, trace: bool, out_dir: &Path) -> Outcome {
    let scenario = spec.scenario(seed);
    let (setup_s, prep) = timed_setups(|| QueryPrep::new(&scenario));
    let mut answers = LocalAnswers::default();
    let mut e2e = EndToEnd::new(setup_s, Calibration::new(NOMINAL_CAL_MS));
    let mut tracing = trace.then(Tracing::new);
    window(seconds, 2, |i| match &mut tracing {
        Some(t) if i % 2 == 0 => {
            let mut net = TracedNet::build(&prep.config, &t.clock, &t.counting);
            let (ms, update) = query_lap(&mut net, &prep, &mut answers, &mut e2e);
            t.traced_ms.extend(ms);
            t.updates.push(update);
            t.log.absorb(net.finish());
        }
        _ => {
            let mut net = plain_net(&prep.config);
            let (ms, _) = query_lap(&mut net, &prep, &mut answers, &mut e2e);
            if e2e.stored.1 == 0 {
                e2e.stored = net.stored_size();
            }
            if let Some(t) = &mut tracing {
                t.plain_ms.extend(ms);
            }
        }
    });
    match tracing {
        None => e2e.into_outcome(),
        Some(t) => t.into_outcome(&e2e, OpKind::QueryFetch, spec, out_dir, |out| {
            layers::replay_rules(out, prep.oracle.rules(), prep.oracle.instances());
            layers::replay_reads(out, prep.oracle.instances(), prep.sink, &prep.pool);
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Kind;
    use codb_workload::Topology;

    fn out_dir() -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join("test-simrun")
    }

    const SMALL_UPDATE: Spec = Spec {
        name: "test_update",
        kind: Kind::Update,
        topology: Topology::Ring(3),
        tuples_per_node: 15,
        rule_style: RuleStyle::ProjectGlav,
    };

    const SMALL_QUERIES: Spec = Spec {
        name: "test_queries",
        kind: Kind::QueryMix,
        topology: Topology::Chain(3),
        tuples_per_node: 40,
        rule_style: RuleStyle::JoinGav { join_domain: 16 },
    };

    #[test]
    fn same_seed_gives_identical_exact_metrics_and_another_seed_other_data() {
        let run = |seed| run_updates(&SMALL_UPDATE, seed, 0.01, false, &out_dir());
        let (a, b, c) = (run(3), run(3), run(4));
        for out in [&a, &b, &c] {
            assert_eq!(out.failed, 0);
            assert!(out.attempted >= 4, "two samples of two operations at least");
            for m in crate::metrics::END_TO_END {
                assert!(out.get(m.name) > 0.0, "{} must never be 0", m.name);
            }
        }
        for exact in ["msgs_per_op", "stored_bytes_per_tuple"] {
            assert_eq!(a.get(exact), b.get(exact), "{exact} repeats under a seed");
        }
        // Another seed: other tuples, the same shape — so the same messages.
        assert_ne!(
            SMALL_UPDATE.scenario(3).build_config(),
            SMALL_UPDATE.scenario(4).build_config()
        );
        assert_eq!(a.get("msgs_per_op"), c.get("msgs_per_op"));
    }

    #[test]
    fn a_wrong_fixpoint_is_counted_as_failed_and_gives_no_sample() {
        let scenario = SMALL_UPDATE.scenario(3);
        let mut prep = UpdatePrep::new(&scenario);
        // An oracle that knows a tuple the network never sees.
        prep.oracle.insert(NodeId(1), "r1", Tuple::new(vec![Value::Int(-1), Value::Int(-1)]));
        let mut e2e = EndToEnd::new(Vec::new(), Calibration::new(NOMINAL_CAL_MS));
        prep.sample(&mut plain_net(&prep.config), &mut e2e);
        assert_eq!((e2e.attempted, e2e.failed), (2, 1));
        assert!(e2e.op_ms.is_empty() && e2e.aux_ms.len() == 1);
    }

    #[test]
    fn query_mix_laps_are_clean_traced_and_untraced() {
        let plain = run_query_mix(&SMALL_QUERIES, 7, 0.01, false, &out_dir());
        assert_eq!(plain.failed, 0);
        let per_lap = (FETCHES_PER_LAP + 1 + LOCALS_PER_LAP) as u64;
        assert!(plain.attempted >= 2 * per_lap && plain.attempted.is_multiple_of(per_lap));
        assert!(plain.get("msgs_per_op") > 0.0 && plain.get("aux_ms_p50") > 0.0);

        let traced = run_query_mix(&SMALL_QUERIES, 7, 0.01, true, &out_dir());
        assert_eq!(traced.failed, 0);
        assert_eq!(traced.get("net.sent"), plain.get("msgs_per_op"));
        assert!(traced.get("core.callbacks") > 0.0 && traced.get("relational.query_ms_p50") > 0.0);
        assert_eq!(traced.get("store.fsyncs"), 0.0);
        assert!(out_dir().join("test_queries.spans.json").exists());
    }
}
