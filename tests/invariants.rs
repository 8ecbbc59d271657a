//! Property-based invariants: the distributed global update
//! must agree with a centralized chase oracle, be independent of network
//! timing, and the relational engine must agree with its reference
//! evaluator.

use codb::core::NodeId;
use codb::prelude::*;
use codb::relational::eval::evaluate_body_reference;
use codb::relational::{
    apply_firings, evaluate_body, GlavRule, Instance, NullFactory, PreparedRule, RuleFiring,
};
use codb::workload::oracle::chase_naive;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// Case count honouring the `PROPTEST_CASES` env var (for soak runs)
/// with a CI-friendly default.
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Canonical rendering of an instance with every marked null collapsed to
/// `_` — adequate for comparing runs whose only difference is null naming
/// when nulls are never shared across tuples (our ProjectGlav workloads).
fn canonical(inst: &Instance) -> BTreeMap<String, BTreeSet<Vec<String>>> {
    inst.relations()
        .map(|rel| {
            let tuples = rel
                .iter()
                .map(|t| {
                    t.values()
                        .map(|v| if v.is_null() { "_".to_owned() } else { v.to_string() })
                        .collect::<Vec<_>>()
                })
                .collect();
            (rel.name().to_owned(), tuples)
        })
        .collect()
}

fn run_distributed(
    config: &NetworkConfig,
    sim: SimConfig,
    origin: NodeId,
) -> BTreeMap<NodeId, Instance> {
    let mut net = CoDbNetwork::build(config.clone(), sim).unwrap();
    net.run_update(origin);
    config.nodes.iter().map(|n| (n.id, net.node(n.id).ldb().clone())).collect()
}

fn arb_topology() -> impl Strategy<Value = Topology> {
    prop_oneof![
        (2usize..7).prop_map(Topology::Chain),
        (2usize..6).prop_map(Topology::Ring),
        (1usize..5).prop_map(|leaves| Topology::Star { leaves }),
        (1usize..3).prop_map(|height| Topology::Tree { height }),
        ((2usize..4), (2usize..3)).prop_map(|(w, h)| Topology::Grid { w, h }),
        ((3usize..7), (0u8..60), any::<u64>()).prop_map(|(n, p, seed)| Topology::RandomDag {
            n,
            p_percent: p,
            seed
        }),
        (2usize..4).prop_map(Topology::Clique),
    ]
}

fn arb_rule_style() -> impl Strategy<Value = RuleStyle> {
    prop_oneof![
        Just(RuleStyle::CopyGav),
        (0i64..50).prop_map(|threshold| RuleStyle::FilterGav { threshold }),
        Just(RuleStyle::ProjectGlav),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: crate::cases(24), ..ProptestConfig::default() })]

    /// Soundness + completeness: the distributed fixpoint equals the
    /// centralized chase, for arbitrary topologies (cyclic included) and
    /// rule styles, modulo null renaming.
    #[test]
    fn distributed_update_matches_central_chase(
        topology in arb_topology(),
        style in arb_rule_style(),
        tuples in 1usize..12,
        seed in any::<u64>(),
    ) {
        let scenario = Scenario {
            topology,
            tuples_per_node: tuples,
            rule_style: style,
            dist: DataDist::Uniform { domain: 60 },
            seed,
        };
        let config = scenario.build_config();
        let oracle = chase_naive(&config).instances;
        let distributed = run_distributed(&config, SimConfig::default(), scenario.sink());
        for node in config.node_ids() {
            prop_assert_eq!(
                canonical(&distributed[&node]),
                canonical(&oracle[&node]),
                "node {} diverged from the chase oracle", node
            );
        }
    }

    /// Convergence: the fixpoint is independent of message timing — runs
    /// with different latencies and loss (plus retransmission) agree.
    #[test]
    fn update_fixpoint_is_timing_independent(
        topology in arb_topology(),
        tuples in 1usize..10,
        seed in any::<u64>(),
        latency_ms in 1u64..20,
        loss_seed in any::<u64>(),
    ) {
        let scenario = Scenario {
            topology,
            tuples_per_node: tuples,
            rule_style: RuleStyle::CopyGav, // GAV: exact comparison
            dist: DataDist::Uniform { domain: 50 },
            seed,
        };
        let config = scenario.build_config();
        let a = run_distributed(&config, SimConfig::default(), scenario.sink());

        let lossy_pipe = PipeConfig::lan()
            .with_latency(SimTime::from_millis(latency_ms))
            .with_loss(0.10);
        let sim = SimConfig { seed: loss_seed, max_events: 5_000_000 };
        let settings = NodeSettings {
            retransmit_after: SimTime::from_millis(40),
            pipe: lossy_pipe,
            ..Default::default()
        };
        let mut net = CoDbNetwork::build_with(config.clone(), sim, settings, false).unwrap();
        net.run_update(scenario.sink());

        for node in config.node_ids() {
            prop_assert_eq!(
                canonical(net.node(node).ldb()),
                canonical(&a[&node]),
                "node {} diverged under loss/latency", node
            );
        }
    }

    /// Query/update agreement on acyclic topologies: query-time answering
    /// returns exactly what a local query returns after materialisation.
    #[test]
    fn query_time_matches_materialised_on_dags(
        n in 2usize..6,
        p in 0u8..50,
        tuples in 1usize..10,
        seed in any::<u64>(),
    ) {
        let scenario = Scenario {
            topology: Topology::RandomDag { n, p_percent: p, seed },
            tuples_per_node: tuples,
            rule_style: RuleStyle::CopyGav,
            dist: DataDist::Uniform { domain: 40 },
            seed,
        };
        let config = scenario.build_config();
        let mut net1 = CoDbNetwork::build(config.clone(), SimConfig::default()).unwrap();
        let q = net1.run_query(scenario.sink(), scenario.sink_query(), true);

        let mut net2 = CoDbNetwork::build(config, SimConfig::default()).unwrap();
        net2.run_update(scenario.sink());
        let local = net2.run_query(scenario.sink(), scenario.sink_query(), false);

        prop_assert_eq!(q.result.answers, local.result.answers);
    }

    /// Query-time answering is *sound* (a subset of the fixpoint) on every
    /// topology, cyclic ones included.
    #[test]
    fn query_time_is_sound_subset(
        topology in arb_topology(),
        tuples in 1usize..8,
        seed in any::<u64>(),
    ) {
        let scenario = Scenario {
            topology,
            tuples_per_node: tuples,
            rule_style: RuleStyle::CopyGav,
            dist: DataDist::Uniform { domain: 40 },
            seed,
        };
        let config = scenario.build_config();
        let mut net1 = CoDbNetwork::build(config.clone(), SimConfig::default()).unwrap();
        let q = net1.run_query(scenario.sink(), scenario.sink_query(), true);

        let mut net2 = CoDbNetwork::build(config, SimConfig::default()).unwrap();
        net2.run_update(scenario.sink());
        let local = net2.run_query(scenario.sink(), scenario.sink_query(), false);

        let fixpoint: BTreeSet<_> = local.result.answers.into_iter().collect();
        for t in &q.result.answers {
            prop_assert!(fixpoint.contains(t), "{t} answered but not in fixpoint");
        }
    }

    /// Every update terminates with every node closed and every link
    /// accounted (the summary sees all participating nodes).
    #[test]
    fn updates_terminate_with_all_nodes_closed(
        topology in arb_topology(),
        seed in any::<u64>(),
    ) {
        let scenario = Scenario {
            topology,
            tuples_per_node: 3,
            rule_style: RuleStyle::CopyGav,
            dist: DataDist::Uniform { domain: 30 },
            seed,
        };
        let config = scenario.build_config();
        let n = config.nodes.len() as u64;
        let mut net = CoDbNetwork::build(config, SimConfig::default()).unwrap();
        let outcome = net.run_update(scenario.sink());
        prop_assert_eq!(outcome.summary.nodes, n);
        let report = net.network_report();
        for (id, node) in &report.nodes {
            let r = &node.updates[&outcome.update];
            prop_assert!(r.closed_at.is_some(), "node {} never closed", id);
        }
    }
}

// ---------------------------------------------------------------------
// Relational-engine invariants.
// ---------------------------------------------------------------------

mod relational_props {
    use super::*;
    use codb::relational::{
        Atom, CmpOp, Comparison, CqBody, FieldRef, NullId, RelationSchema, TField, Term, Tuple,
        Value, ValueType, Var,
    };

    fn arb_instance(max_tuples: usize) -> impl Strategy<Value = Instance> {
        // Two binary relations over a small int domain.
        (
            proptest::collection::vec((0i64..8, 0i64..8), 0..max_tuples),
            proptest::collection::vec((0i64..8, 0i64..8), 0..max_tuples),
        )
            .prop_map(|(e, f)| {
                let mut inst = Instance::new();
                inst.add_relation(RelationSchema::with_types(
                    "e",
                    &[ValueType::Int, ValueType::Int],
                ));
                inst.add_relation(RelationSchema::with_types(
                    "f",
                    &[ValueType::Int, ValueType::Int],
                ));
                for (a, b) in e {
                    inst.insert("e", Tuple::new(vec![Value::Int(a), Value::Int(b)])).unwrap();
                }
                for (a, b) in f {
                    inst.insert("f", Tuple::new(vec![Value::Int(a), Value::Int(b)])).unwrap();
                }
                inst
            })
    }

    fn arb_term(vars: u32) -> impl Strategy<Value = Term> {
        prop_oneof![
            (0..vars).prop_map(|v| Term::Var(Var(v))),
            (0i64..8).prop_map(|c| Term::Const(Value::Int(c))),
        ]
    }

    /// A ground value or a placeholder, from domains small enough that
    /// firings, tuples and placeholders repeat.
    fn arb_field() -> impl Strategy<Value = TField> {
        prop_oneof![
            (0i64..3).prop_map(|c| TField::Const(Value::Int(c))),
            (0u32..2).prop_map(TField::Fresh),
        ]
    }

    fn arb_body() -> impl Strategy<Value = CqBody> {
        let atom = (prop_oneof![Just("e"), Just("f")], arb_term(4), arb_term(4))
            .prop_map(|(r, t1, t2)| Atom::new(r, vec![t1, t2]));
        let cmp = (
            arb_term(4),
            arb_term(4),
            prop_oneof![
                Just(CmpOp::Eq),
                Just(CmpOp::Ne),
                Just(CmpOp::Lt),
                Just(CmpOp::Le),
                Just(CmpOp::Gt),
                Just(CmpOp::Ge),
            ],
        )
            .prop_map(|(l, r, op)| Comparison { lhs: l, op, rhs: r });
        (proptest::collection::vec(atom, 1..4), proptest::collection::vec(cmp, 0..3))
            .prop_map(|(atoms, comparisons)| CqBody::new(atoms, comparisons))
            .prop_filter("range-restricted", |b| b.check_safe().is_ok())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: crate::cases(128), ..ProptestConfig::default() })]

        /// The production evaluator agrees with the naive reference
        /// evaluator on random instances and bodies — over cold relations
        /// (`edits` empty, `warm` false) and over relations whose indexes
        /// are warm, shared with a clone, and then grown on either side.
        #[test]
        fn evaluator_matches_reference(
            inst in arb_instance(12),
            body in arb_body(),
            warm in any::<bool>(),
            edits in proptest::collection::vec(
                (any::<bool>(), any::<bool>(), 0i64..8, 0i64..8),
                0..6,
            ),
        ) {
            let mut inst = inst;
            if warm {
                evaluate_body(&body, &inst).unwrap();
                for rel in inst.relations() {
                    rel.matching(0, &Value::Int(0));
                    rel.matching(1, &Value::Int(0));
                }
            }
            let mut twin = inst.clone();
            for (on_twin, into_e, a, b) in edits {
                let side = if on_twin { &mut twin } else { &mut inst };
                let tuple = Tuple::new(vec![Value::Int(a), Value::Int(b)]);
                side.insert(if into_e { "e" } else { "f" }, tuple).unwrap();
            }
            for side in [&inst, &twin] {
                let mut a = evaluate_body(&body, side).unwrap();
                let mut b = evaluate_body_reference(&body, side).unwrap();
                a.sort(); a.dedup();
                b.sort(); b.dedup();
                prop_assert_eq!(a, b);
            }
        }

        /// An index is what building it now would give: after every step
        /// of a random program over a relation and a clone of it — insert,
        /// replace the side with a relation built afresh from its tuples,
        /// clone again, probe, drop the clone, on either side — each built
        /// index of each side holds, per key, exactly the tuples a scan of
        /// that side selects.
        #[test]
        fn an_index_is_what_a_rebuild_would_be(
            program in proptest::collection::vec((0u8..7, any::<bool>(), 0i64..5, 0i64..5), 1..40),
        ) {
            fn check(r: &codb::relational::Relation, col: usize) -> Result<(), TestCaseError> {
                for key in (-1..6).map(Value::Int) {
                    let mut indexed = r.matching(col, &key).to_vec();
                    indexed.sort();
                    let scanned: Vec<Tuple> =
                        r.sorted().into_iter().filter(|t| t[col] == key).collect();
                    prop_assert_eq!(indexed, scanned, "column {} key {}", col, key);
                }
                Ok(())
            }
            let schema = RelationSchema::with_types("p", &[ValueType::Int, ValueType::Int]);
            let mut original = codb::relational::Relation::new(schema);
            let mut clone = None;
            for (op, on_clone, a, b) in program {
                let tuple = Tuple::new(vec![Value::Int(a), Value::Int(b)]);
                let side = match &mut clone {
                    Some(clone) if on_clone => clone,
                    _ => &mut original,
                };
                match op {
                    0 | 1 => { side.insert(tuple).unwrap(); }
                    2 => {
                        let mut afresh = codb::relational::Relation::new(side.schema().clone());
                        for t in side.iter() {
                            afresh.insert(t.clone()).unwrap();
                        }
                        *side = afresh;
                    }
                    3 | 4 => check(side, b as usize % 2)?,
                    5 => clone = Some(side.clone()),
                    _ => clone = None,
                }
                for side in std::iter::once(&original).chain(&clone) {
                    for col in (0..2).filter(|col| side.is_indexed(*col)) {
                        check(side, col)?;
                    }
                }
            }
            for side in std::iter::once(&original).chain(&clone) {
                check(side, 0)?;
                check(side, 1)?;
            }
        }

        /// Semi-naive delta evaluation produces exactly the derivations
        /// that use the delta: eval(I ∪ Δ) = eval(I) ∪ delta-eval(Δ).
        #[test]
        fn delta_evaluation_is_exact(
            inst in arb_instance(10),
            body in arb_body(),
            delta in proptest::collection::vec((0i64..8, 0i64..8), 1..5),
        ) {
            // Full evaluation over I ∪ Δ (Δ inserted into relation e); what
            // was new is what `e` gained since.
            let mut with_delta = inst.clone();
            let before = with_delta.get("e").unwrap().version();
            for (a, b) in delta {
                with_delta.insert("e", Tuple::new(vec![Value::Int(a), Value::Int(b)])).unwrap();
            }
            let new: Vec<Tuple> = with_delta.get("e").unwrap().since(before).unwrap().cloned().collect();

            let mut full: Vec<_> = evaluate_body(&body, &with_delta).unwrap();
            full.sort(); full.dedup();

            // Old evaluation ∪ semi-naive delta evaluation.
            let mut combined: Vec<_> = evaluate_body(&body, &inst).unwrap();
            combined.extend(
                codb::relational::evaluate_body_delta(&body, &with_delta, "e", &new).unwrap()
            );
            combined.sort(); combined.dedup();

            prop_assert_eq!(full, combined);
        }

        /// A relation is its insertion log. A random program of inserts,
        /// clones, probes and dropped clones over an instance and a clone
        /// of it; after every step, for every version either side showed
        /// earlier, `since` on that side returns exactly the tuples it
        /// inserted after it, in order (and the other side answers `None`),
        /// no clone ever shows its source's version, and the body evaluated
        /// then, with the delta evaluation over what `since` returns, is
        /// the body evaluated now.
        #[test]
        fn since_is_what_a_side_inserted_after_each_version_it_showed(
            inst in arb_instance(6),
            body in arb_body(),
            program in proptest::collection::vec(
                (0u8..6, any::<bool>(), any::<bool>(), 0i64..8, 0i64..8),
                1..24,
            ),
        ) {
            /// One side: its instance, what it inserted since it was made,
            /// per relation, and each point it showed — its versions, how
            /// much of its log it had, and the body's answers then.
            type Answers = Vec<codb::relational::eval::Bindings>;
            type Point = (BTreeMap<String, codb::relational::Version>, BTreeMap<String, usize>, Answers);
            struct Side {
                inst: Instance,
                log: BTreeMap<String, Vec<Tuple>>,
                shown: Vec<Point>,
            }
            fn answers(body: &CqBody, inst: &Instance) -> Answers {
                let mut all = evaluate_body(body, inst).unwrap();
                all.sort();
                all.dedup();
                all
            }
            fn fresh_side(inst: Instance) -> Side {
                Side { inst, log: BTreeMap::new(), shown: Vec::new() }
            }
            fn show(side: &mut Side, body: &CqBody) {
                let versions = side.inst.relations().map(|r| (r.name().to_owned(), r.version()));
                let lens = side.inst.relations().map(|r| {
                    (r.name().to_owned(), side.log.get(r.name()).map_or(0, Vec::len))
                });
                let point = (versions.collect(), lens.collect(), answers(body, &side.inst));
                side.shown.push(point);
            }
            fn check(side: &Side, other: Option<&Side>, body: &CqBody) -> Result<(), TestCaseError> {
                for (versions, lens, then) in &side.shown {
                    let mut combined = then.clone();
                    for (name, version) in versions {
                        let since: Vec<Tuple> =
                            side.inst.get(name).unwrap().since(*version).unwrap().cloned().collect();
                        let log = side.log.get(name).map_or(&[][..], Vec::as_slice);
                        prop_assert_eq!(&since[..], &log[lens[name]..]);
                        combined.extend(
                            codb::relational::evaluate_body_delta(body, &side.inst, name, &since)
                                .unwrap(),
                        );
                        if let Some(other) = other {
                            prop_assert!(other.inst.get(name).unwrap().since(*version).is_none());
                        }
                    }
                    combined.sort();
                    combined.dedup();
                    prop_assert_eq!(combined, answers(body, &side.inst));
                }
                if let Some(other) = other {
                    for rel in side.inst.relations() {
                        prop_assert_ne!(rel.version(), other.inst.get(rel.name()).unwrap().version());
                    }
                }
                Ok(())
            }

            let mut original = fresh_side(inst);
            show(&mut original, &body);
            let mut clone: Option<Side> = None;
            for (op, on_clone, into_e, a, b) in program {
                let side = match &mut clone {
                    Some(clone) if on_clone => clone,
                    _ => &mut original,
                };
                let rel = if into_e { "e" } else { "f" };
                match op {
                    0 | 1 => {
                        let tuple = Tuple::new(vec![Value::Int(a), Value::Int(b)]);
                        if side.inst.insert(rel, tuple.clone()).unwrap() {
                            side.log.entry(rel.to_owned()).or_default().push(tuple);
                        }
                    }
                    2 => show(side, &body),
                    3 => {
                        side.inst.get(rel).unwrap().matching(a as usize % 2, &Value::Int(b));
                    }
                    4 => {
                        let mut twin = fresh_side(side.inst.clone());
                        show(&mut twin, &body);
                        for r in side.inst.relations() {
                            prop_assert_ne!(r.version(), twin.inst.get(r.name()).unwrap().version());
                        }
                        clone = Some(twin);
                    }
                    _ => clone = None,
                }
                check(&original, clone.as_ref(), &body)?;
                if let Some(clone) = &clone {
                    check(clone, Some(&original), &body)?;
                }
            }
        }

        /// What query-time serving relies on: over a view that only grows,
        /// firing each batch's deltas and dropping what was already sent
        /// ships the same sequence as firing the whole view and dropping
        /// what was already sent, and what has been sent is always the
        /// whole view's firings.
        #[test]
        fn firing_the_deltas_streams_what_firing_the_view_would(
            inst in arb_instance(6),
            body in arb_body(),
            head in proptest::collection::vec((arb_term(6), arb_term(6)), 1..3),
            batches in proptest::collection::vec(
                proptest::collection::vec((any::<bool>(), 0i64..8, 0i64..8), 0..6),
                1..5,
            ),
            served in any::<bool>(),
        ) {
            // Variables 0..4 may occur in the body; a head variable that
            // does not (4 and 5 never do) is existential.
            let head = head
                .into_iter()
                .zip(["h", "g"])
                .map(|((t1, t2), rel)| Atom::new(rel, vec![t1, t2]))
                .collect();
            let names = ["A", "B", "C", "D", "E", "F"].map(String::from).to_vec();
            let rule = PreparedRule::new(GlavRule::new("r", head, body, names).unwrap());

            // As a serving node has it: the overlay is a clone of an LDB
            // whose indexes earlier requests left warm, and the LDB must
            // fire after the overlay's writes what it fired before them.
            // Otherwise the overlay owns its indexes and keeps them up.
            let ldb = served.then(|| {
                for rel in inst.relations() {
                    rel.matching(0, &Value::Int(0));
                    rel.matching(1, &Value::Int(0));
                }
                (inst.clone(), rule.fire(&inst).unwrap())
            });
            let mut overlay = inst;
            let mut sent: HashSet<RuleFiring> = rule.fire(&overlay).unwrap().into_iter().collect();
            for batch in batches {
                let then = ["e", "f"].map(|rel| (rel, overlay.get(rel).unwrap().version()));
                for (into_e, a, b) in batch {
                    let rel = if into_e { "e" } else { "f" };
                    overlay.insert(rel, Tuple::new(vec![Value::Int(a), Value::Int(b)])).unwrap();
                }
                let view = rule.fire(&overlay).unwrap();
                let unsent = |firings: &[RuleFiring]| -> Vec<RuleFiring> {
                    firings.iter().filter(|f| !sent.contains(*f)).cloned().collect()
                };
                let fresh = rule.fire_since(&overlay, then.into_iter()).unwrap().unwrap();
                let instalment = unsent(&fresh);
                prop_assert_eq!(&instalment, &unsent(&view));
                sent.extend(instalment);
                // The view is sorted, or in the log's order where the rule
                // fires in scan order: then it is the sent set once over.
                let mut so_far: Vec<RuleFiring> = sent.iter().cloned().collect();
                so_far.sort();
                let mut view = view;
                if rule.fires_in_scan_order() {
                    view.sort();
                }
                prop_assert_eq!(so_far, view);
            }
            if let Some((ldb, fired)) = ldb {
                prop_assert_eq!(rule.fire(&ldb).unwrap(), fired);
            }
        }

        /// `apply_firings` is its definition, spelled out here one firing,
        /// one atom, one field at a time: the same per-relation delta
        /// sequences, the same null ids, the same final instance — over
        /// duplicate firings, a placeholder shared by two atoms, two atoms
        /// over one relation, batches of mixed shape and a batch that is
        /// all duplicates.
        #[test]
        fn apply_firings_matches_its_naive_reference(
            batches in proptest::collection::vec(
                proptest::collection::vec(
                    proptest::collection::vec(
                        (any::<bool>(), arb_field(), arb_field()),
                        1..4,
                    ),
                    0..12,
                ),
                1..4,
            ),
            origin in 0u64..1000,
        ) {
            fn apply_reference(
                target: &mut Instance,
                firings: &[RuleFiring],
                nulls: &mut NullFactory,
            ) -> BTreeMap<String, Vec<Tuple>> {
                let mut deltas: BTreeMap<String, Vec<Tuple>> = BTreeMap::new();
                for firing in firings {
                    let mut invented = BTreeMap::new();
                    for (rel, fields) in firing.atoms() {
                        let mut values = Vec::new();
                        for field in fields.iter() {
                            values.push(match field {
                                FieldRef::Const(v) => v.clone(),
                                FieldRef::Fresh(id) => Value::Null(
                                    *invented.entry(id).or_insert_with(|| nulls.fresh()),
                                ),
                            });
                        }
                        let tuple = Tuple::new(values);
                        if target.insert(rel, tuple.clone()).unwrap() {
                            deltas.entry(rel.to_string()).or_default().push(tuple);
                        }
                    }
                }
                deltas
            }

            let mut batches: Vec<Vec<RuleFiring>> = batches
                .into_iter()
                .map(|batch| {
                    batch
                        .into_iter()
                        .map(|atoms| {
                            RuleFiring::new(atoms.into_iter().map(|(into_h, a, b)| {
                                (if into_h { "h" } else { "g" }, vec![a, b])
                            }))
                        })
                        .collect()
                })
                .collect();
            // Again, in full: ground firings are all duplicates by now.
            batches.push(batches[0].clone());

            let mut target = Instance::new();
            for rel in ["g", "h"] {
                target.add_relation(RelationSchema::with_types(
                    rel,
                    &[ValueType::Int, ValueType::Int],
                ));
            }
            let (mut reference, mut reference_nulls) = (target.clone(), NullFactory::new(origin));
            let mut nulls = NullFactory::new(origin);
            for batch in &batches {
                let grown = apply_firings(&mut target, batch, &mut nulls).unwrap();
                let expected = apply_reference(&mut reference, batch, &mut reference_nulls);
                let suffixes: BTreeMap<String, Vec<Tuple>> = grown
                    .iter()
                    .map(|(rel, v)| (rel.to_string(), target.get(rel).unwrap().since(*v).unwrap().cloned().collect()))
                    .collect();
                prop_assert_eq!(grown.len(), suffixes.len(), "a relation is named once");
                prop_assert_eq!(suffixes, expected);
                prop_assert_eq!(nulls.invented(), reference_nulls.invented());
                prop_assert_eq!(&target, &reference);
            }
        }

        /// Every tuple `apply_firings` files — a ground one-atom firing's
        /// under the firing's own hash, any other under the tuple's — is
        /// found again by an equal tuple built afresh, over ints, strings
        /// (empty and multi-byte), nulls given and nulls invented.
        #[test]
        fn every_tuple_apply_firings_files_is_found_when_built_again(
            batches in proptest::collection::vec(
                proptest::collection::vec(
                    proptest::collection::vec((any::<bool>(), arb_field(), 0usize..6), 1..3),
                    0..12,
                ),
                1..4,
            ),
        ) {
            let text = |k: usize| match k {
                0..=3 => TField::Const(Value::str(["", "a", "ab", "ü☃"][k])),
                4 => TField::Const(Value::Null(NullId::new(9, 1))),
                _ => TField::Fresh(1),
            };
            let mut target = Instance::new();
            for rel in ["g", "h"] {
                target.add_relation(RelationSchema::with_types(rel, &[ValueType::Int, ValueType::Str]));
            }
            let mut nulls = NullFactory::new(3);
            for batch in batches {
                let firings: Vec<RuleFiring> = batch
                    .into_iter()
                    .map(|atoms| {
                        RuleFiring::new(atoms.into_iter().map(|(into_h, a, b)| {
                            (if into_h { "h" } else { "g" }, vec![a, text(b)])
                        }))
                    })
                    .collect();
                apply_firings(&mut target, &firings, &mut nulls).unwrap();
                for rel in target.relations() {
                    for t in rel.iter() {
                        let again: Tuple = t.values().cloned().collect();
                        prop_assert!(!again.ptr_eq(t));
                        prop_assert!(rel.contains(&again), "{} lost {}", rel.name(), t);
                    }
                }
                for firing in firings.iter().filter(|f| f.is_ground() && f.atoms().len() == 1) {
                    let (rel, fields) = &firing.atoms()[0];
                    let again: Tuple = fields
                        .iter()
                        .map(|f| match f {
                            FieldRef::Const(v) => v.clone(),
                            FieldRef::Fresh(_) => unreachable!("a ground firing"),
                        })
                        .collect();
                    prop_assert!(target.get(rel).unwrap().contains(&again), "{:?}", firing);
                }
            }
        }

        /// Rule firing + instantiation is idempotent under template dedup:
        /// re-applying the same firings adds nothing.
        #[test]
        fn rule_application_idempotent(inst in arb_instance(10), seed in any::<u64>()) {
            let rule = GlavRule::new(
                "p",
                vec![Atom::new("f", vec![Term::Var(Var(0)), Term::Var(Var(2))])],
                CqBody::new(vec![Atom::new("e", vec![Term::Var(Var(0)), Term::Var(Var(1))])], vec![]),
                vec!["X".into(), "Y".into(), "Z".into()],
            ).unwrap();
            let firings = rule.fire(&inst).unwrap();
            let mut target = Instance::new();
            target.add_relation(
                codb::relational::RelationSchema::with_types("f", &[ValueType::Int, ValueType::Int])
            );
            let mut nulls = NullFactory::new(seed % 1000);
            let d1 = apply_firings(&mut target, &firings, &mut nulls).unwrap();
            let before = target.tuple_count();
            // The node-level recv-cache drops duplicate templates before
            // apply; emulate by not re-applying — but even a raw re-apply
            // of *ground* firings must add nothing.
            let ground: Vec<RuleFiring> =
                firings.iter().filter(|f| f.is_ground()).cloned().collect();
            let d2 = apply_firings(&mut target, &ground, &mut nulls).unwrap();
            prop_assert!(d2.is_empty());
            prop_assert_eq!(target.tuple_count(), before);
            let _ = d1;
        }
    }
}

// ---------------------------------------------------------------------
// Snapshots.
// ---------------------------------------------------------------------

mod snapshot_props {
    use super::*;
    use codb::relational::{Relation, RelationSchema, TField, Tuple, Value, ValueType};

    fn rel_from(pairs: &[(i64, i64)], name: &str) -> Relation {
        let mut r =
            Relation::new(RelationSchema::with_types(name, &[ValueType::Int, ValueType::Int]));
        for (a, b) in pairs {
            r.insert(Tuple::new(vec![Value::Int(*a), Value::Int(*b)])).unwrap();
        }
        r
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: crate::cases(64), ..ProptestConfig::default() })]

        /// Snapshot round-trip is lossless for arbitrary instances.
        #[test]
        fn snapshot_round_trip(
            pairs in proptest::collection::vec((0i64..50, 0i64..50), 0..30),
            invented in 0u64..20,
        ) {
            let mut inst = Instance::new();
            inst.insert_relation(rel_from(&pairs, "r"));
            let mut nulls = NullFactory::new(3);
            for _ in 0..invented {
                let label = nulls.fresh();
                inst.get_mut("r").unwrap().insert(Tuple::new(vec![
                    Value::Null(label),
                    Value::Int(0),
                ])).unwrap();
            }
            let snap = codb::relational::Snapshot::capture(&inst, &nulls);
            let restored = codb::relational::Snapshot::from_binary_bytes(&snap.to_binary_bytes()).unwrap();
            prop_assert_eq!(restored.instance.get("r").unwrap().filed(), inst.get("r").unwrap().filed());
            prop_assert_eq!(restored.instance, inst);
            prop_assert_eq!(restored.nulls.invented(), invented);
        }

        /// A relation files each tuple under the tuple's content hash and
        /// keeps that hash, however it came to hold the tuple: an insert; a
        /// copy rule's firing, filed under the hash it carried; a firing
        /// with a fresh null; a clone; a snapshot decoded from its bytes; a
        /// WAL record of firings, decoded and replayed.
        #[test]
        fn every_filed_hash_is_the_content_hash_of_its_tuple(
            steps in proptest::collection::vec((0u8..6, 0i64..6, 0i64..6), 1..40),
        ) {
            use codb::relational::{apply_new_firings, Atom, CqBody, Term, Var};
            use codb::relational::Snapshot;
            use codb::store::codec::{decode_record, encode_record};
            use codb::store::{apply_arrived, RecvCaches, WalRecord};
            let [x, y, z] = [0, 1, 2].map(|v| Term::Var(Var(v)));
            let rule = |name: &str, head: Vec<Term>| {
                let body = CqBody::new(vec![Atom::new("r", vec![x.clone(), y.clone()])], vec![]);
                let names = ["X", "Y", "Z"].map(String::from).to_vec();
                PreparedRule::new(GlavRule::new(name, vec![Atom::new("s", head)], body, names).unwrap())
            };
            let copy = rule("c", vec![x.clone(), y.clone()]);
            let invent = rule("i", vec![y.clone(), z.clone()]);
            let mut inst = Instance::new();
            inst.insert_relation(rel_from(&[], "r")).insert_relation(rel_from(&[], "s"));
            let mut nulls = NullFactory::new(3);
            let mut recv = RecvCaches::default();
            for (step, a, b) in steps {
                match step {
                    0 => {
                        inst.insert("r", Tuple::new(vec![Value::Int(a), Value::Int(b)])).unwrap();
                    }
                    1 => {
                        let mut fired = copy.fire(&inst).unwrap();
                        apply_new_firings(&mut inst, &mut fired, &mut nulls).unwrap();
                    }
                    2 => {
                        let fired = invent.fire(&inst).unwrap();
                        apply_firings(&mut inst, &fired, &mut nulls).unwrap();
                    }
                    3 => inst = inst.clone(),
                    4 => {
                        let snap = Snapshot::capture(&inst, &nulls);
                        let read = Snapshot::from_binary_bytes(&snap.to_binary_bytes()).unwrap();
                        prop_assert_eq!(&read.instance, &inst);
                        (inst, nulls) = (read.instance, read.nulls);
                    }
                    _ => {
                        let mut firings = copy.fire(&inst).unwrap();
                        let tuple = [Value::Int(b), Value::Int(a)].map(TField::Const).to_vec();
                        firings.push(RuleFiring::new([("s", tuple)]));
                        let record = WalRecord::Applied { rule: "c".into(), firings, mark: None };
                        let bytes = encode_record(&record);
                        let Ok(WalRecord::Applied { rule, mut firings, .. }) = decode_record(&bytes)
                        else { panic!("an Applied record decodes as one") };
                        apply_arrived(&mut inst, &mut nulls, &mut recv, &rule, &mut firings).unwrap();
                    }
                }
                for relation in inst.relations() {
                    let filed = relation.filed();
                    prop_assert_eq!(filed.len(), relation.len());
                    for (tuple, hash) in filed {
                        prop_assert_eq!(*hash, tuple.content_hash(), "{} in {}", tuple, relation.name());
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Text-format round trips.
// ---------------------------------------------------------------------

mod text_props {
    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: crate::cases(48), ..ProptestConfig::default() })]

        /// Generated network configurations survive the text format:
        /// `parse(to_text(c))` reaches a fixed point and preserves the
        /// network's structure (variable indices may be re-interned, so
        /// the comparison is on the rendered form and the shape).
        #[test]
        fn config_text_format_is_a_fixed_point(
            topology in arb_topology(),
            style in arb_rule_style(),
            tuples in 0usize..6,
            seed in any::<u64>(),
        ) {
            let scenario = Scenario {
                topology,
                tuples_per_node: tuples.max(1),
                rule_style: style,
                dist: DataDist::Uniform { domain: 50 },
                seed,
            };
            let config = scenario.build_config();
            let text = config.to_text();
            let parsed = NetworkConfig::parse(&text)
                .map_err(|e| TestCaseError::fail(format!("{e}\n{text}")))?;
            prop_assert_eq!(parsed.to_text(), text);
            prop_assert_eq!(parsed.nodes.len(), config.nodes.len());
            prop_assert_eq!(parsed.rules.len(), config.rules.len());
            for (a, b) in parsed.nodes.iter().zip(&config.nodes) {
                prop_assert_eq!(&a.schema, &b.schema);
                prop_assert_eq!(a.data.len(), b.data.len());
            }
            prop_assert!(parsed.validate().is_ok());
        }

        /// Rule display is a parse fixed point: `parse(display(r))`
        /// renders identically.
        #[test]
        fn rule_display_is_a_parse_fixed_point(
            topology in arb_topology(),
            style in arb_rule_style(),
        ) {
            let scenario = Scenario {
                topology,
                tuples_per_node: 1,
                rule_style: style,
                dist: DataDist::Uniform { domain: 10 },
                seed: 1,
            };
            for rule in &scenario.build_config().rules {
                let text = rule.rule.to_string();
                let parsed = codb::relational::parse_rule(&text)
                    .map_err(|e| TestCaseError::fail(format!("{e}\n{text}")))?;
                prop_assert_eq!(parsed.to_string(), text);
            }
        }

        /// Parsed user queries evaluated against generated instances never
        /// panic and agree with the reference evaluator.
        #[test]
        fn parsed_queries_evaluate_safely(
            pairs in proptest::collection::vec((0i64..9, 0i64..9), 0..12),
            threshold in 0i64..9,
        ) {
            let mut inst = Instance::new();
            inst.add_relation(codb::relational::RelationSchema::with_types(
                "e",
                &[codb::relational::ValueType::Int, codb::relational::ValueType::Int],
            ));
            for (a, b) in &pairs {
                inst.insert("e", codb::relational::Tuple::new(vec![
                    codb::relational::Value::Int(*a),
                    codb::relational::Value::Int(*b),
                ])).unwrap();
            }
            let q = codb::relational::parse_query(
                &format!("ans(X) :- e(X, Y), Y >= {threshold}.")
            ).unwrap();
            let fast = codb::relational::answer_query(&q, &inst).unwrap();
            let mut slow: Vec<_> = evaluate_body_reference(&q.body, &inst)
                .unwrap()
                .into_iter()
                .map(|b| b[0].clone().unwrap())
                .collect();
            slow.sort();
            slow.dedup();
            let fast_vals: Vec<_> = fast.iter().map(|t| t[0].clone()).collect();
            prop_assert_eq!(fast_vals, slow);
        }
    }
}
