//! Flight recorder on a coDB global update: record a fixed-seed update
//! over a 120-node scale-free network to a `.trc` file, then read it
//! back and print the postmortem summary — the programmatic equivalent of
//! `codb-demo trace inspect`.
//!
//! Run with: `cargo run --release --example flight_recorder`

use codb::prelude::*;

fn main() {
    let path = std::env::temp_dir().join("codb-flight-recorder-example.trc");

    // Two tuples a node, copy rules along every edge: the shape whose cost
    // is the event loop and the protocol rather than rule evaluation.
    let scenario = Scenario {
        tuples_per_node: 2,
        ..Scenario::quick(Topology::ScaleFree { n: 120, m: 2, seed: 7 })
    };
    let mut net = CoDbNetwork::build(scenario.build_config(), SimConfig::default())
        .expect("generated configs build");

    // A file-backed tracer on the whole stack: the simulator stamps every
    // send/deliver with sim time, the nodes add their protocol events, and
    // the `update` phase bracket adds the run's host time.
    let (tracer, recorder) = Tracer::to_file(&path).expect("create trace file");
    net.attach_tracer(&tracer);
    let outcome = tracer.phase("update", || net.run_update(scenario.sink()));
    drop(tracer);
    drop(net);
    {
        use codb::trace::TraceSink as _;
        let mut rec = recorder.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        rec.flush().expect("flush trace");
        println!(
            "recorded {} events over a {}-node update ({} messages, {} tuples added)\n",
            rec.recorded(),
            scenario.topology.node_count(),
            outcome.messages,
            outcome.summary.tuples_added,
        );
    }

    // Postmortem: decode the file and summarise — per-phase host time,
    // busiest peers, event counts.
    let trace = read_trace_file(&path).expect("read trace back");
    print!("{}", Summary::from_trace(&trace).render());
    println!(
        "\ntrace file: {} ({} bytes)",
        path.display(),
        std::fs::metadata(&path).unwrap().len()
    );
}
