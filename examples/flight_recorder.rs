//! Flight recorder at simulator scale: record a fixed-seed 1000-node
//! E19-style flood run to a `.trc` file, then read it back and print the
//! postmortem summary — the programmatic equivalent of
//! `codb-demo trace inspect`.
//!
//! Run with: `cargo run --release --example flight_recorder`

use codb::prelude::*;
use codb::trace::read_trace_file;
use codb::workload::run_flood;

fn main() {
    let path = std::env::temp_dir().join("codb-flight-recorder-example.trc");

    // A file-backed tracer: the simulator stamps every send/deliver with
    // sim time, and the `flood` phase bracket adds the run's host time.
    let (tracer, recorder) = Tracer::to_file(&path).expect("create trace file");
    let report = tracer.phase("flood", || {
        run_flood(
            &Topology::ScaleFree { n: 1000, m: 2, seed: 7 },
            PipeConfig::lan(),
            None,
            4,
            0xE19,
            false,
            &tracer,
        )
    });
    drop(tracer);
    {
        use codb::trace::TraceSink as _;
        let mut rec = recorder.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        rec.flush().expect("flush trace");
        println!(
            "recorded {} events over a {}-node / {}-edge flood ({} sim messages)\n",
            rec.recorded(),
            report.nodes,
            report.edges,
            report.messages
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
