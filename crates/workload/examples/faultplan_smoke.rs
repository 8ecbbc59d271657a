//! Fixed-seed fault-injection smoke run for CI.
//!
//! Executes a handful of seeded crash/restart/checkpoint/loss schedules
//! (every crash takes the rejoin handshake's path: neighbours drop the
//! sent caches they keep toward the victim and repair it) and fails
//! loudly if any recovered network does not reconverge to its
//! never-crashed control.
//!
//! Every schedule runs **codec-differentially**: the identical plan is
//! executed once with all-JSON stores and once with all-binary stores,
//! and the reconverged states must match byte for byte — the CI pin of
//! the binary on-disk codec's behavioural equivalence under crashes.
//!
//! Usage: `cargo run -p codb-workload --example faultplan_smoke [seed...]`
//! (defaults to seeds 1, 2, 3 over a chain, a ring and a star).
//!
//! With `--trace FILE` as the first two arguments, the run instead
//! executes one fixed-seed **overlapping-rejoin** schedule — a node
//! crashes mid-update, survivors park their traffic behind the rejoin
//! barrier, and the node restarts mid-way through the *next* update so
//! barrier release and `RejoinRepair` interleave with live traffic —
//! with a flight recorder attached, writing the postmortem to FILE for
//! `codb-demo trace inspect` (the CI rejoin-barrier smoke step).

use codb_store::ScratchDir;
use codb_workload::{
    run_fault_plan_differential, run_fault_plan_traced, FaultPlan, RuleStyle, Scenario, Topology,
};

/// The traced rejoin-barrier run: one overlapping-rejoin schedule on a
/// chain, recorded end to end. Fails loudly unless the barrier actually
/// engaged (held and released) and the network reconverged.
fn traced_run(path: &str) -> ! {
    let scenario = Scenario { tuples_per_node: 10, ..Scenario::quick(Topology::Chain(4)) };
    // Seed 13 is pinned because its schedule provably exercises the whole
    // machinery on this chain: the crash lands while survivor traffic is
    // still in flight (messages park and release) and the victim has
    // incoming links (survivors push `RejoinRepair`).
    let plan = FaultPlan::overlapping_rejoin(scenario, 13);
    let tmp = ScratchDir::new("faultplan-smoke-trace");
    let (tracer, recorder) =
        codb_trace::Tracer::to_file(path).expect("trace file path is writable");
    let report = run_fault_plan_traced(&plan, tmp.path(), &tracer).expect("store i/o on scratch");
    tracer.flush().expect("trace flushes");
    drop(tracer);
    drop(recorder);
    println!(
        "traced overlapping rejoin: seed {} crashes={} live_restarts={} barrier_parked={} \
         barrier_released={} repairs={} converged={} -> {path}",
        report.seed,
        report.crashes,
        report.live_restarts,
        report.barrier_parked,
        report.barrier_released,
        report.repair_messages,
        report.converged,
    );
    let ok = report.converged
        && report.crashes == 1
        && report.live_restarts == 1
        && report.barrier_parked > 0
        && report.barrier_released > 0;
    if !ok {
        eprintln!("FAILED: the traced schedule must engage the barrier and reconverge");
        std::process::exit(1);
    }
    std::process::exit(0);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--trace") {
        if args.len() != 2 {
            eprintln!("usage: faultplan_smoke --trace FILE");
            std::process::exit(2);
        }
        traced_run(&args.remove(1));
    }
    let seeds: Vec<u64> =
        args.iter().map(|a| a.parse().unwrap_or_else(|_| panic!("not a seed: {a:?}"))).collect();
    let seeds = if seeds.is_empty() { vec![1, 2, 3] } else { seeds };
    let scenarios = [
        Scenario { tuples_per_node: 10, ..Scenario::quick(Topology::Chain(4)) },
        Scenario { tuples_per_node: 8, ..Scenario::quick(Topology::Ring(4)) },
        Scenario {
            tuples_per_node: 8,
            rule_style: RuleStyle::ProjectGlav,
            ..Scenario::quick(Topology::Star { leaves: 3 })
        },
    ];
    let mut failures = 0;
    for scenario in &scenarios {
        for &seed in &seeds {
            let plan = FaultPlan::generate(*scenario, seed);
            let tmp = ScratchDir::new("faultplan-smoke");
            let report =
                run_fault_plan_differential(&plan, tmp.path()).expect("store i/o on a scratch dir");
            println!(
                "seed {seed:>3} {:<22} rounds={} crashes={} checkpoints={} loss={:.2} \
                 rejoin_msgs={:>3} converged(json)={} converged(binary)={} states_identical={}",
                format!("{:?}", scenario.topology),
                report.json.rounds,
                report.json.crashes,
                report.json.checkpoints,
                plan.loss,
                report.json.rejoin_messages,
                report.json.converged,
                report.binary.converged,
                report.states_identical,
            );
            if !report.agreed() {
                eprintln!("FAILED: replay with FaultPlan::generate({scenario:?}, {seed})");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("{failures} schedule(s) failed to reconverge identically under both codecs");
        std::process::exit(1);
    }
    println!("all schedules reconverged, byte-identical across codecs");
}
