//! An allocation budget for the per-message path.
//!
//! The benchmark notices a `name.clone()` on the data path a week later, as
//! half a millisecond on `update_wide`; this test notices it the same
//! afternoon, as a number. A counting global allocator wraps the system's
//! for this one test binary, three nodes of a chain are driven by hand —
//! every delivery is one `on_message` call the count is taken around — and
//! the three message shapes that make up a wide update are held to what
//! they are known to need, and a data hop's every firing more to its own
//! share. Decoding a WAL firing, which replay and recovery do per record,
//! is held to what its atoms need.

use codb_core::{Body, CoDbNode, Envelope, Kind, NetworkConfig, NodeId, NodeSettings};
use codb_net::{Command, Context, Peer, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;

/// The system allocator, counting every request for memory (a `realloc` is
/// a request: a vector that grows has allocated) on the thread that makes
/// it, so that tests running side by side do not count each other's.
struct Counting;

thread_local! {
    static REQUESTS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one request of the calling thread.
fn count() {
    // A thread being torn down has nothing left to measure.
    let _ = REQUESTS.try_with(|n| n.set(n.get() + 1));
}

/// The requests the calling thread has made so far.
fn requests() -> u64 {
    REQUESTS.get()
}

// SAFETY: every method hands its arguments to `System` unchanged and
// returns what `System` returns, so `System`'s guarantees are this
// allocator's; the counter is a thread-local cell that allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` through this allocator, and the
        // caller upholds the rest of `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `a -> b -> c`, copy rules, all the data at `a`: twenty tuples, so that
/// the twenty-first and twenty-second — the measured ones — land in hash
/// tables with room (they grow at 14 and at 28).
fn config() -> NetworkConfig {
    let data: String = (0..20).map(|k| format!(" ta({k}, {}).", k * 7)).collect();
    NetworkConfig::parse(&format!(
        r#"
        node a
        node b
        node c
        schema a: ta(int, int)
        schema b: tb(int, int)
        schema c: tc(int, int)
        data a:{data}
        rule ab @ a -> b: tb(X, Y) <- ta(X, Y).
        rule bc @ b -> c: tc(X, Y) <- tb(X, Y).
        "#
    ))
    .unwrap()
}

/// One delivery, as the count saw it.
#[derive(Debug)]
struct Delivery {
    to: NodeId,
    kind: Kind,
    /// Firings carried, for a data message.
    firings: usize,
    /// Firings of the data messages the callback sent.
    firings_out: Vec<usize>,
    allocations: u64,
}

/// The three nodes and the messages between them, first in first out.
struct Chain {
    nodes: Vec<CoDbNode>,
    wire: VecDeque<(NodeId, NodeId, Envelope)>,
    /// Lent to every callback, as a runtime lends its one queue.
    commands: VecDeque<Command<Envelope>>,
}

const HARNESS: NodeId = NodeId(u64::MAX);

impl Chain {
    fn new() -> Chain {
        let config = config();
        let nodes = config.nodes.iter().map(|nc| {
            let (schema, data) = (nc.schema.clone(), nc.data.clone());
            CoDbNode::new(nc.id, &nc.name, schema, data, &config.rules, NodeSettings::default())
        });
        Chain { nodes: nodes.collect(), wire: VecDeque::new(), commands: VecDeque::new() }
    }

    fn control(&mut self, to: NodeId, body: Body) {
        self.wire.push_back((HARNESS, to, Envelope::control(body)));
    }

    /// Delivers the oldest message on the wire.
    fn deliver(&mut self) -> Option<Delivery> {
        let (from, to, env) = self.wire.pop_front()?;
        let kind = env.body.kind();
        let firings = match &env.body {
            Body::UpdateData { firings, .. } => firings.len(),
            _ => 0,
        };
        let node = self.nodes.iter_mut().find(|n| n.id == to).expect("a node of the chain");
        let mut ctx = Context::new(to.peer(), SimTime::ZERO, &[], &mut self.commands);
        let before = requests();
        node.on_message(&mut ctx, from.peer(), env);
        let allocations = requests() - before;
        let mut firings_out = Vec::new();
        for command in self.commands.drain(..) {
            // No loss here, so the retransmission timer has nothing to do.
            if let Command::Send { to: next, msg } = command {
                if let Body::UpdateData { firings, .. } = &msg.body {
                    firings_out.push(firings.len());
                }
                self.wire.push_back((to, NodeId::from(next), msg));
            }
        }
        Some(Delivery { to, kind, firings, firings_out, allocations })
    }

    /// One global update from `c`, run dry; every delivery of it.
    fn update(&mut self) -> Vec<Delivery> {
        let c = self.nodes[2].id;
        self.control(c, Body::StartUpdate);
        std::iter::from_fn(|| self.deliver()).collect()
    }
}

/// What one `UpdateData` hop at `b` may request: a message of one firing
/// comes in on `ab`, carrying `ab`'s close, is checked, deduplicated and
/// applied; `bc`, held until then, closes behind it and is fired since its
/// mark with the one new tuple (the mark re-written in place, and no list
/// of closing links built), and a message of one firing goes out, carrying
/// `bc`'s close.
///
/// * receive — 1: `admits`' vector of the head atoms' schemas;
/// * apply — 1: the list of the relations that grew (the firing's ground
///   atom is the tuple, which the relation files by handle; the delta is
///   the relation's suffix);
/// * re-fire — 5: the list of dependent links; the evaluator's binding
///   vector and its trail; the answer list; the firing (a one-atom head is
///   held in it, and a copy head is the tuple the body matched, shared);
/// * send — 1: the retransmission copy's firing vector (the firings
///   themselves are shared, and so is the rule name, the book's own
///   `RuleName`, in the message and in the copy);
/// * the statistics module — 4, once per update and link: the update
///   report's `received["ab"]` and `sent["bc"]`, a key and a map node each.
const DATA_HOP_BUDGET: u64 = 12;

#[test]
fn the_message_shapes_of_a_wide_update_stay_within_their_allocation_budget() {
    let mut chain = Chain::new();
    let (a, b) = (chain.nodes[0].id, chain.nodes[1].id);
    // Warm: the first update moves all twenty tuples and sizes every table,
    // cache and queue; the second is the first of the shape measured.
    chain.update();
    let mut hops = Vec::new();
    let (mut acks, mut ds_acks) = (0, 0);
    for round in 0..3i64 {
        let tuple = codb_relational::tup![100 + round, 1];
        chain.control(a, Body::IngestLocal { relation: "ta".to_owned(), tuple });
        for d in chain.update() {
            match d.kind {
                // Bare, it retires a message and may note an engagement;
                // the link's state has room for both.
                Kind::Ack => {
                    acks += 1;
                    assert_eq!(d.allocations, 0, "a transport ack allocated: {d:?}");
                }
                // The reply that returns a credit, and the sequenced one
                // of a disengagement: the ring, the window and the deficit
                // are all the receiver touches.
                Kind::DsAck => {
                    ds_acks += 1;
                    assert_eq!(d.allocations, 0, "a DsAck allocated: {d:?}");
                }
                Kind::UpdateData if d.to == b => {
                    assert_eq!((d.firings, &d.firings_out[..]), (1, &[1][..]), "{d:?}");
                    hops.push(d.allocations);
                }
                _ => {}
            }
        }
    }
    // Per update, `bc` and `ab` are held until their closes, so one data
    // message crosses each pipe, carrying the close: two credit replies (b
    // for a's data, c for b's) and two disengagements (a under b, b under
    // c) are every DsAck there is.
    assert!(acks >= 12 && ds_acks == 12, "{acks} acks, {ds_acks} DsAcks");
    assert_eq!(hops.len(), 3, "one one-firing hop at b per update");
    assert!(
        hops.iter().all(|hop| *hop <= DATA_HOP_BUDGET),
        "an UpdateData hop allocated: {hops:?}"
    );
    // The data arrived: the budget was not met by doing less.
    assert_eq!(chain.nodes[2].ldb().tuple_count(), 23);
}

/// What each firing more on an `UpdateData` hop at `b` may request: the
/// firing `bc` re-fires. Re-firing allocates no field vector — the copy
/// head is the tuple its body matched — and applying allocates no tuple —
/// `ab`'s ground firing is the tuple it files. The one-firing hop above
/// cannot see this constant.
const PER_FIRING: u64 = 1;

/// What a hop of a hundred firings may request beyond those, once: the
/// growth of what now holds a hundred more — the relation's log and its
/// position table, the answer list. Measured at 10 (a hop of one firing
/// 12, of a hundred 121).
const GROWTH_ALLOWANCE: u64 = 10;

#[test]
fn each_firing_more_on_a_hop_costs_its_firing_only() {
    let mut chain = Chain::new();
    let (a, b) = (chain.nodes[0].id, chain.nodes[1].id);
    chain.update();
    let mut hop = |keys: std::ops::Range<i64>| {
        let n = (keys.end - keys.start) as usize;
        for k in keys {
            let tuple = codb_relational::tup![k, 1];
            chain.control(a, Body::IngestLocal { relation: "ta".to_owned(), tuple });
        }
        let hops: Vec<Delivery> = chain
            .update()
            .into_iter()
            .filter(|d| matches!(d.kind, Kind::UpdateData) && d.to == b)
            .collect();
        assert_eq!(hops.len(), 1, "{hops:?}");
        assert_eq!((hops[0].firings, &hops[0].firings_out[..]), (n, &[n][..]), "{hops:?}");
        hops[0].allocations
    };
    let one = hop(100..101);
    let hundred = hop(200..300);
    assert!(
        hundred <= one + 99 * PER_FIRING + GROWTH_ALLOWANCE,
        "a hop of one firing allocated {one}, of a hundred {hundred}"
    );
    assert_eq!(chain.nodes[2].ldb().tuple_count(), 121);
}

/// What decoding a WAL firing may request for each ground atom: the
/// relation's name, built straight into its shared copy where it is not the
/// atom before's, and the tuple. The values are read into one scratch the
/// firing's atoms share and drained into the tuple, so no field vector is
/// built and copied from.
const DECODE_PER_GROUND_ATOM: u64 = 2;

/// What decoding a firing may request once: the scratch and the firing
/// (a head of more than one atom adds its atom list).
const DECODE_PER_FIRING: u64 = 2;

#[test]
fn decoding_a_ground_firing_builds_each_tuple_once() {
    use codb_relational::binenc::{put_firing, take_firing, Reader};
    use codb_relational::{RuleFiring, TField, Value};
    for k in 1..=4u64 {
        let atoms = (0..k as i64).map(|i| {
            (format!("t{i}"), vec![TField::Const(Value::Int(i)), TField::Const(Value::Int(7))])
        });
        let firing = RuleFiring::new(atoms);
        let mut bytes = Vec::new();
        put_firing(&mut bytes, &firing);
        let before = requests();
        let decoded = take_firing(&mut Reader::new(&bytes)).unwrap();
        let allocations = requests() - before;
        assert_eq!(decoded, firing);
        assert!(decoded.is_ground());
        assert!(
            allocations <= k * DECODE_PER_GROUND_ATOM + DECODE_PER_FIRING + u64::from(k > 1),
            "decoding a firing of {k} ground atoms allocated {allocations}"
        );
    }
}

/// A record of firings of one relation, as a WAL's `Applied` record holds
/// them: its reader builds the name and the scratch once, then each firing
/// is its tuple and itself.
#[test]
fn a_record_of_one_relation_decodes_its_name_once() {
    use codb_relational::binenc::{put_firing, FiringReader, Reader};
    use codb_relational::{RuleFiring, TField, Value};
    const N: u64 = 50;
    let written: Vec<RuleFiring> = (0..N as i64)
        .map(|k| RuleFiring::new([("ta", vec![TField::Const(Value::Int(k)); 2])]))
        .collect();
    let mut bytes = Vec::new();
    written.iter().for_each(|f| put_firing(&mut bytes, f));
    let (mut r, mut reader) = (Reader::new(&bytes), FiringReader::default());
    let mut read = Vec::with_capacity(N as usize);
    let before = requests();
    for _ in 0..N {
        read.push(reader.take(&mut r).unwrap());
    }
    let allocations = requests() - before;
    assert_eq!(read, written);
    let name = &read[0].atoms()[0].0;
    assert!(read.iter().all(|f| std::sync::Arc::ptr_eq(&f.atoms()[0].0, name)), "one name");
    let once = DECODE_PER_GROUND_ATOM + DECODE_PER_FIRING;
    assert!(
        allocations <= once + (N - 1) * (DECODE_PER_GROUND_ATOM - 1 + DECODE_PER_FIRING - 1),
        "decoding {N} firings of one relation allocated {allocations}"
    );
}
