//! Experiment runner: prints the tables listed in README.md, "Experiments".
//!
//! Usage: `cargo run -p codb-bench --release --bin exp -- [ID … | all]`,
//! the ids being those of [`codb_bench::EXPERIMENTS`] (`e1` … `e20`).
//!
//! `e19-quick` runs the CI-sized E19 acceptance smoke (100 → 10k chain
//! sweep plus scale-free and geo rows) instead of the full sweep;
//! `e20-quick` runs the E20 acceptance smoke (two worker counts plus the
//! host-crash durability row on the sharded threaded runtime).
//!
//! Extra modes:
//! * `exp --quick` — a seconds-scale smoke run of the full harness
//!   (update + query on small topologies), for CI.
//! * `exp timeline [chain|ring|grid]` — render an update Gantt chart.
//! * `exp --json PATH …` — additionally write the selected experiments'
//!   tables (title, headers, rows) as JSON to PATH; the human-readable
//!   tables are printed unchanged. Combines with ids, `all` and
//!   `--quick`.

use codb_bench::{all, by_id, Table, EXPERIMENTS};

/// `exp timeline [chain|ring|grid]` — render an update Gantt chart.
fn timeline(kind: &str) {
    use codb_core::CoDbNetwork;
    use codb_net::SimConfig;
    use codb_workload::{Scenario, Topology};
    let topology = match kind {
        "ring" => Topology::Ring(8),
        "grid" => Topology::Grid { w: 4, h: 2 },
        _ => Topology::Chain(8),
    };
    let s = Scenario { tuples_per_node: 100, ..Scenario::quick(topology) };
    let mut net = CoDbNetwork::build(s.build_config(), SimConfig::default()).unwrap();
    let o = net.run_update(s.sink());
    println!("{}", codb_bench::render_timeline(&net.network_report(), o.update, 60));
}

/// `exp --quick` — one cheap end-to-end pass per topology family, so CI
/// exercises the bench harness (scenario build, update, query, reporting)
/// without paying for the full experiment suite.
fn quick() -> Table {
    use codb_bench::experiments::run_update;
    use codb_workload::{Scenario, Topology};

    let mut t = Table::new(
        "quick smoke — update + query per topology (10 tuples/node)",
        &["topology", "nodes", "data msgs", "tuples added", "query answers"],
    );
    let topologies = [
        Topology::Chain(4),
        Topology::Ring(4),
        Topology::Star { leaves: 3 },
        Topology::Grid { w: 2, h: 2 },
    ];
    for topology in topologies {
        let s = Scenario { tuples_per_node: 10, ..Scenario::quick(topology) };
        let (o, _host, mut net) = run_update(&s);
        let q = net.run_query(s.sink(), s.sink_query(), false);
        t.row(vec![
            format!("{topology}"),
            o.summary.nodes.to_string(),
            o.summary.data_messages.to_string(),
            o.summary.tuples_added.to_string(),
            q.result.answers.len().to_string(),
        ]);
    }
    t
}

fn fail(msg: &str) -> ! {
    eprintln!("exp: {msg}");
    std::process::exit(1);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Extract `--json PATH` wherever it appears.
    let json_path = match args.iter().position(|a| a == "--json") {
        Some(i) => {
            args.remove(i);
            if i >= args.len() {
                fail("--json needs a PATH argument");
            }
            Some(args.remove(i))
        }
        None => None,
    };

    let tables: Vec<Table> = if args.iter().any(|a| a == "--quick") {
        if args.len() > 1 {
            fail(&format!("--quick takes no other arguments (got {:?})", args));
        }
        vec![quick()]
    } else if args.first().map(String::as_str) == Some("timeline") {
        if json_path.is_some() {
            fail("timeline renders a chart; --json applies to experiment tables");
        }
        timeline(args.get(1).map(String::as_str).unwrap_or("chain"));
        return;
    } else if args.is_empty() || args.iter().any(|a| a == "all") {
        all()
    } else {
        args.iter()
            .map(|id| {
                by_id(id).unwrap_or_else(|| {
                    let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
                    fail(&format!(
                        "unknown experiment {id:?} (use {}, all, --quick or timeline)",
                        ids.join(", ")
                    ))
                })
            })
            .collect()
    };

    for t in &tables {
        println!("{}", t.render());
    }
    if let Some(path) = json_path {
        let js = match serde_json::to_string_pretty(&tables) {
            Ok(js) => js,
            Err(e) => fail(&format!("JSON serialisation failed: {e}")),
        };
        if let Err(e) = std::fs::write(&path, js + "\n") {
            fail(&format!("cannot write {path}: {e}"));
        }
        eprintln!("exp: wrote {} table(s) to {path}", tables.len());
    }
}
