//! Command-line demo driver — the library stand-in for the paper's demo
//! UI: load a coordination-rules file, run updates and queries at chosen
//! nodes, inspect databases and the super-peer's statistical report, and
//! (with `--data-dir`) persist node state across invocations.
//!
//! ```text
//! codb-demo [--data-dir DIR] [--codec json|binary] [--sync POLICY] [--trace FILE]
//!           CONFIG_FILE COMMAND...
//! codb-demo trace dump FILE
//! codb-demo trace inspect FILE
//! codb-demo trace diff A B
//!
//! Options:
//!   --data-dir DIR                durable stores under DIR/<node>; nodes
//!                                 with saved state recover it on startup
//!   --codec json|binary           on-disk payload encoding for new store
//!                                 files (default binary); existing stores
//!                                 recover either format and convert to the
//!                                 chosen codec at their next save
//!   --sync POLICY                 WAL fsync policy (default always):
//!                                 always | never | everyN:N |
//!                                 group[:RECORDS[,BATCH]] — group shares
//!                                 one fsync scheduler across every node's
//!                                 store (see docs/DURABILITY.md)
//!   --trace FILE                  record a binary flight-recorder trace of
//!                                 the whole run (net, protocol and storage
//!                                 events; each command becomes a phase);
//!                                 read it back with `trace dump`/`inspect`
//!
//! Commands (executed in order):
//!   update NODE                   start a global update at NODE
//!   scoped-update NODE REL[,REL]  query-dependent update for relations
//!   query NODE 'ans(X) :- r(X).'  query-time (network) answering
//!   local-query NODE 'QUERY'      answer from the local database only
//!   show NODE                     print NODE's local database
//!   save NODE                     checkpoint NODE's store (snapshot +
//!                                 WAL compaction; needs --data-dir)
//!   recover NODE                  crash NODE and restore it from disk
//!                                 (needs --data-dir)
//!   stats                         super-peer statistics report (JSON)
//!
//! Trace mode (first argument `trace`; no CONFIG_FILE):
//!   trace dump FILE               print every recorded event
//!   trace inspect FILE            per-phase time breakdown, per-peer
//!                                 traffic and fsync histogram
//!   trace diff A B                the first event at which two captures
//!                                 disagree, and the per-kind event-count
//!                                 delta (net events also per payload
//!                                 size); exits 1 if they differ
//! ```
//!
//! Example:
//! `cargo run --bin codb-demo -- examples/university.codb update portal show portal`

use codb::prelude::*;
use codb::relational::pretty::render_relation;
use codb::trace::TraceSink as _;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: codb-demo [--data-dir DIR] [--codec json|binary] \
    [--sync always|never|everyN:N|group[:RECORDS[,BATCH]]] [--trace FILE] CONFIG_FILE COMMAND...\n\
    \x20      codb-demo trace dump FILE | trace inspect FILE | trace diff A B\n\
    commands: update NODE | scoped-update NODE REL[,REL] | query NODE 'Q' |\n\
    local-query NODE 'Q' | show NODE | save NODE | recover NODE | stats";

fn fail(msg: &str) -> ExitCode {
    eprintln!("codb-demo: {msg}");
    ExitCode::FAILURE
}

/// `codb-demo trace dump|inspect FILE`, `trace diff A B` — offline readers
/// for recorded flight-recorder files; no CONFIG_FILE, no network.
fn trace_mode(args: &[String]) -> ExitCode {
    let Some((sub, files)) = args.split_first() else {
        return fail(&format!("trace needs a subcommand and FILE\n{USAGE}"));
    };
    let wanted = if sub == "diff" { 2 } else { 1 };
    if files.len() != wanted {
        return fail(&format!("trace {sub} takes exactly {wanted} FILE argument(s)\n{USAGE}"));
    }
    let mut traces = Vec::new();
    for path in files {
        match codb::trace::read_trace_file(path) {
            Ok(t) => traces.push(t),
            Err(e) => return fail(&format!("cannot read trace {path}: {e}")),
        }
    }
    match sub.as_str() {
        "dump" => print!("{}", codb::trace::dump(&traces[0])),
        "inspect" => print!("{}", codb::trace::Summary::from_trace(&traces[0]).render()),
        "diff" => {
            let diff = codb::trace::TraceDiff::between(&traces[0], &traces[1]);
            print!("{}", diff.render());
            if !diff.is_empty() {
                return ExitCode::FAILURE;
            }
        }
        other => return fail(&format!("unknown trace subcommand {other:?} (dump|inspect|diff)")),
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();

    // Offline trace readers bypass the config/network machinery entirely.
    if args.first().map(String::as_str) == Some("trace") {
        return trace_mode(&args[1..]);
    }

    // Options first (any order, before the config file).
    let mut data_dir: Option<PathBuf> = None;
    let mut codec = Codec::default();
    let mut sync = SyncPolicy::Always;
    let mut trace_path: Option<PathBuf> = None;
    while let Some(first) = args.first() {
        match first.as_str() {
            "--data-dir" => {
                args.remove(0);
                if args.is_empty() {
                    return fail(&format!("--data-dir needs a DIR argument\n{USAGE}"));
                }
                data_dir = Some(PathBuf::from(args.remove(0)));
            }
            "--codec" => {
                args.remove(0);
                if args.is_empty() {
                    return fail(&format!("--codec needs json or binary\n{USAGE}"));
                }
                codec = match args.remove(0).parse() {
                    Ok(c) => c,
                    Err(e) => return fail(&format!("{e}\n{USAGE}")),
                };
            }
            "--sync" => {
                args.remove(0);
                if args.is_empty() {
                    return fail(&format!("--sync needs a policy argument\n{USAGE}"));
                }
                sync = match args.remove(0).parse() {
                    Ok(p) => p,
                    Err(e) => return fail(&format!("{e}\n{USAGE}")),
                };
            }
            "--trace" => {
                args.remove(0);
                if args.is_empty() {
                    return fail(&format!("--trace needs a FILE argument\n{USAGE}"));
                }
                trace_path = Some(PathBuf::from(args.remove(0)));
            }
            flag if flag.starts_with("--") => {
                return fail(&format!("unknown option {flag:?}\n{USAGE}"));
            }
            _ => break,
        }
    }
    let Some((config_path, rest)) = args.split_first() else {
        return fail(USAGE);
    };
    let text = match std::fs::read_to_string(config_path) {
        Ok(t) => t,
        Err(e) => return fail(&format!("cannot read {config_path}: {e}")),
    };
    let config = match NetworkConfig::parse(&text) {
        Ok(c) => c,
        Err(e) => return fail(&e.to_string()),
    };
    let mut net = match CoDbNetwork::build_with_superpeer(config, SimConfig::default()) {
        Ok(n) => n,
        Err(e) => return fail(&e.to_string()),
    };
    // Attach the flight recorder before persistence opens so the stores
    // inherit it; each command below becomes a named phase in the trace.
    let (tracer, recorder) = match &trace_path {
        Some(path) => match Tracer::to_file(path) {
            Ok((t, r)) => (t, Some(r)),
            Err(e) => return fail(&format!("cannot create trace {}: {e}", path.display())),
        },
        None => (Tracer::disabled(), None),
    };
    net.attach_tracer(&tracer);
    if let Some(dir) = &data_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            return fail(&format!("cannot create data dir {}: {e}", dir.display()));
        }
        match net.open_persistence_all(dir, sync, codec) {
            Ok(recovered) => {
                for name in recovered {
                    eprintln!("codb-demo: recovered {name} from {}", dir.display());
                }
            }
            Err(e) => return fail(&format!("persistence setup failed: {e}")),
        }
    }

    let node_arg = |net: &CoDbNetwork, name: &str| -> Option<codb::core::NodeId> {
        let id = net.node_id(name);
        if id.is_none() {
            eprintln!("codb-demo: unknown node {name:?}");
        }
        id
    };

    let mut it = rest.iter();
    while let Some(cmd) = it.next() {
        // Every command is a trace phase; a command that fails hard exits
        // before its `phase_end`, which `trace inspect` reports as open.
        tracer.phase_begin(cmd);
        match cmd.as_str() {
            "update" => {
                let Some(name) = it.next() else { return fail("update needs NODE") };
                let Some(id) = node_arg(&net, name) else { return ExitCode::FAILURE };
                let o = net.run_update(id);
                println!(
                    "update {} at {name}: {} tuples in {} ({} msgs, {} bytes, longest path {})",
                    o.update,
                    o.summary.tuples_added,
                    o.duration,
                    o.messages,
                    o.bytes,
                    o.summary.longest_path
                );
            }
            "scoped-update" => {
                let (Some(name), Some(rels)) = (it.next(), it.next()) else {
                    return fail("scoped-update needs NODE REL[,REL]");
                };
                let Some(id) = node_arg(&net, name) else { return ExitCode::FAILURE };
                let relations: Vec<String> =
                    rels.split(',').map(str::trim).map(str::to_owned).collect();
                let o = net.run_scoped_update(id, relations);
                println!(
                    "scoped update {} at {name}: {} tuples in {} ({} msgs)",
                    o.update, o.summary.tuples_added, o.duration, o.messages
                );
            }
            "query" | "local-query" => {
                let fetch = cmd == "query";
                let (Some(name), Some(q)) = (it.next(), it.next()) else {
                    return fail("query needs NODE 'QUERY'");
                };
                let Some(id) = node_arg(&net, name) else { return ExitCode::FAILURE };
                match net.run_query_text(id, q, fetch) {
                    Ok(out) => {
                        if let Some(e) = &out.result.error {
                            return fail(&format!("query failed at {name}: {e}"));
                        }
                        println!(
                            "{} answers in {} ({} msgs):",
                            out.result.answers.len(),
                            out.duration,
                            out.messages
                        );
                        for t in &out.result.answers {
                            println!("  {t}");
                        }
                    }
                    Err(e) => return fail(&format!("bad query: {e}")),
                }
            }
            "show" => {
                let Some(name) = it.next() else { return fail("show needs NODE") };
                let Some(id) = node_arg(&net, name) else { return ExitCode::FAILURE };
                println!("== {name} ==");
                for rel in net.node(id).ldb().relations() {
                    print!("{}", render_relation(rel));
                }
            }
            "save" => {
                let Some(name) = it.next() else { return fail("save needs NODE") };
                if data_dir.is_none() {
                    return fail("save needs --data-dir");
                }
                let Some(id) = node_arg(&net, name) else { return ExitCode::FAILURE };
                match net.checkpoint_node(id) {
                    Ok(true) => {
                        let node = net.node(id);
                        let generation =
                            node.store().map(codb::store::Store::generation).unwrap_or(0);
                        println!(
                            "saved {name}: generation {generation}, {} tuples",
                            node.ldb().tuple_count()
                        );
                    }
                    Ok(false) => return fail(&format!("{name} has no store attached")),
                    Err(e) => return fail(&format!("save {name} failed: {e}")),
                }
            }
            "recover" => {
                let Some(name) = it.next() else { return fail("recover needs NODE") };
                let Some(dir) = &data_dir else {
                    return fail("recover needs --data-dir");
                };
                let Some(id) = node_arg(&net, name) else { return ExitCode::FAILURE };
                net.crash_node(id);
                let node_dir = CoDbNetwork::node_data_dir(dir, name);
                match net.restart_node_from_disk(id, &node_dir, sync, codec) {
                    Ok(stats) => println!(
                        "recovered {name} from {}: {} tuples (generation {}, {} WAL records{})",
                        node_dir.display(),
                        net.node(id).ldb().tuple_count(),
                        stats.generation,
                        stats.wal_records_replayed,
                        if stats.torn_tail { ", torn tail truncated" } else { "" }
                    ),
                    Err(e) => return fail(&format!("recover {name} failed: {e}")),
                }
            }
            "stats" => {
                let report = net.collect_stats();
                match serde_json::to_string_pretty(&report) {
                    Ok(js) => println!("{js}"),
                    Err(e) => return fail(&format!("stats serialisation: {e}")),
                }
            }
            other => return fail(&format!("unknown command {other:?}\n{USAGE}")),
        }
        tracer.phase_end(cmd);
    }
    if let Some(rec) = &recorder {
        let flushed = rec.lock().unwrap_or_else(|poisoned| poisoned.into_inner()).flush();
        if let Err(e) = flushed {
            return fail(&format!("trace flush failed: {e}"));
        }
        if let Some(path) = &trace_path {
            eprintln!("codb-demo: wrote trace to {}", path.display());
        }
    }
    ExitCode::SUCCESS
}
