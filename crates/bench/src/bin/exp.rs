//! Experiment runner: prints the tables listed in README.md, "Experiments".
//!
//! Usage: `cargo run -p codb-bench --release --bin exp -- [ID … | all]`,
//! the ids being those of [`codb_bench::EXPERIMENTS`]. Every cell is a
//! function of the experiments' seeds; `docs/EXPERIMENTS.json` is
//! `exp all --json` committed, and CI diffs a fresh run against it.
//!
//! Extra modes:
//! * `exp timeline [chain|ring|grid]` — render an update Gantt chart.
//! * `exp --json PATH …` — additionally write the selected experiments'
//!   tables (title, headers, rows) as JSON to PATH; the human-readable
//!   tables are printed unchanged. Combines with ids and `all`.

use codb_bench::{all, by_id, Table, EXPERIMENTS};

/// `exp timeline [chain|ring|grid]` — render an update Gantt chart.
fn timeline(kind: &str) {
    use codb_core::CoDbNetwork;
    use codb_net::SimConfig;
    use codb_workload::{Scenario, Topology};
    let topology = match kind {
        "chain" => Topology::Chain(8),
        "ring" => Topology::Ring(8),
        "grid" => Topology::Grid { w: 4, h: 2 },
        _ => fail(&format!("unknown timeline topology {kind:?} (use chain, ring or grid)")),
    };
    let s = Scenario { tuples_per_node: 100, ..Scenario::quick(topology) };
    let mut net = CoDbNetwork::build(s.build_config(), SimConfig::default()).unwrap();
    let o = net.run_update(s.sink());
    println!("{}", codb_bench::render_timeline(&net.network_report(), o.update, 60));
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

    let tables: Vec<Table> = if args.first().map(String::as_str) == Some("timeline") {
        if json_path.is_some() {
            fail("timeline renders a chart; --json applies to experiment tables");
        }
        if let Some(extra) = args.get(2) {
            fail(&format!("timeline takes one topology (got {extra:?} as well)"));
        }
        timeline(args.get(1).map(String::as_str).unwrap_or("chain"));
        return;
    } else {
        // Check every name before running anything: `all bogus` must not
        // run the suite and drop `bogus`, nor `e1 bogus` run E1 first.
        let known = |id: &str| id == "all" || EXPERIMENTS.iter().any(|(k, _)| *k == id);
        if let Some(bad) = args.iter().find(|id| !known(id)) {
            let ids: Vec<&str> = EXPERIMENTS.iter().map(|(id, _)| *id).collect();
            fail(&format!("unknown experiment {bad:?} (use {}, all or timeline)", ids.join(", ")));
        }
        if args.is_empty() || args.iter().any(|a| a == "all") {
            all()
        } else {
            args.iter().filter_map(|id| by_id(id)).collect()
        }
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
