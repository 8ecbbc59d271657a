//! A heterogeneous university data-sharing network, in the spirit of the
//! coDB paper's motivating setting (the authors' institutes in Bolzano,
//! Trento and Manchester sharing people data under different schemas).
//!
//! Three universities publish staff under three different schemas; a
//! fourth node — a research portal — integrates them with GLAV rules,
//! including an existential rule that invents marked nulls for unknown
//! affiliation identifiers. A cyclic pair of rules keeps two universities
//! mutually synchronised.
//!
//! Run with: `cargo run --example university_network`

use codb::prelude::*;
use codb::relational::pretty::render_relation;

const CONFIG: &str = r#"
    node bolzano
    node trento
    node manchester
    node portal

    % Bolzano: researchers with name and age.
    schema bolzano: researcher(str, int)
    data bolzano: researcher("franconi", 45). researcher("lopatenko", 30).

    % Trento: staff with name and department string.
    schema trento: staff(str, str)
    data trento: staff("kuper", "dit"). staff("zaihrayeu", "dit").

    % Manchester: visiting researchers by name only.
    schema manchester: visitor(str)
    data manchester: visitor("lopatenko").

    % The portal integrates everyone: person(name, affiliation_id) where
    % the affiliation id is an invented (marked null) identifier, plus an
    % affiliation registry keyed by those ids.
    schema portal: person(str, int)
    schema portal: affiliation(int)

    % GLAV rules with existential head variables: the portal does not know
    % the universities' internal ids, so fresh marked nulls are invented,
    % shared between person and affiliation within each firing.
    rule from_bz @ bolzano -> portal: person(N, F), affiliation(F) <- researcher(N, A).
    rule from_tn @ trento -> portal: person(N, F), affiliation(F) <- staff(N, D).
    rule from_mc @ manchester -> portal: person(N, F), affiliation(F) <- visitor(N).

    % Bolzano and Manchester mutually exchange visiting researchers: a
    % cyclic coordination-rule pair (the fixpoint case).
    schema bolzano: visiting(str)
    schema manchester: hosted(str)
    rule bz_mc @ bolzano -> manchester: hosted(N) <- visiting(N).
    rule mc_bz @ manchester -> bolzano: visiting(N) <- hosted(N).
    data bolzano: visiting("kuper").
    data manchester: hosted("franconi").
"#;

fn main() {
    let config = NetworkConfig::parse(CONFIG).expect("valid configuration");
    println!("rule graph cyclic: {}", codb::core::rule_graph_is_cyclic(&config.rules));

    let mut net = CoDbNetwork::build_with_superpeer(config, SimConfig::default()).expect("builds");
    let portal = net.node_id("portal").unwrap();
    let bolzano = net.node_id("bolzano").unwrap();
    let manchester = net.node_id("manchester").unwrap();

    // Global update started at the portal.
    let outcome = net.run_update(portal);
    println!(
        "update {} finished in {} — {} tuples materialised, longest path {}",
        outcome.update,
        outcome.duration,
        outcome.summary.tuples_added,
        outcome.summary.longest_path
    );

    println!("\n== portal after integration ==");
    println!("{}", render_relation(net.node(portal).ldb().get("person").unwrap()));
    println!("{}", render_relation(net.node(portal).ldb().get("affiliation").unwrap()));

    println!("== cyclic exchange reached its fixpoint ==");
    println!("{}", render_relation(net.node(bolzano).ldb().get("visiting").unwrap()));
    println!("{}", render_relation(net.node(manchester).ldb().get("hosted").unwrap()));

    // Certain answers: people whose affiliation is *known* — none, since
    // all affiliations are invented nulls; every answer is merely possible.
    let q = net.run_query_text(portal, "ans(N, F) :- person(N, F).", false).unwrap();
    println!(
        "person query: {} possible answers, {} certain",
        q.result.answers.len(),
        q.result.certain().len()
    );

    // The super-peer aggregates the statistics the demo would display.
    let report = net.collect_stats();
    let summary = report.summarise(outcome.update).unwrap();
    println!(
        "\nsuper-peer report: {} nodes, {} data messages, {} bytes, total time {}",
        summary.nodes, summary.data_messages, summary.data_bytes, summary.total_time
    );
    println!("report as JSON (excerpt): {:.120}…", serde_json_string(&summary));
}

fn serde_json_string<T: serde::Serialize>(t: &T) -> String {
    serde_json::to_string(t).unwrap_or_default()
}
