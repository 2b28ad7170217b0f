//! Quickstart: define an NGD, catch a numeric inconsistency, fix it.
//!
//! This walks through the paper's Example 1 (2): the Yago village Bhonpur
//! claims 600 female + 722 male inhabitants but a total population of 1572.
//! We (1) build the graph, (2) write the rule φ2 in the `.ngdl` rule
//! language, (3) detect the violation, (4) repair the value and re-check.
//!
//! Run with `cargo run -p ngd-examples --example quickstart`.

use ngd_core::RuleSet;
use ngd_detect::dect;
use ngd_examples::{describe_violation, section};
use ngd_graph::{intern, GraphBuilder, Value};
use ngd_lang::parse_rule;

fn main() {
    // (1) A small property graph: the village and its three counters.
    let mut builder = GraphBuilder::new();
    builder.node("bhonpur", "area");
    builder.node_with_attrs("female", "integer", [("val", Value::Int(600))]);
    builder.node_with_attrs("male", "integer", [("val", Value::Int(722))]);
    builder.node_with_attrs("total", "integer", [("val", Value::Int(1572))]);
    builder.edge("bhonpur", "female", "femalePopulation");
    builder.edge("bhonpur", "male", "malePopulation");
    builder.edge("bhonpur", "total", "populationTotal");
    let (mut graph, names) = builder.build_with_names();

    // (2) The rule φ2 of the paper, written in `.ngdl`: in any area,
    // female + male population must equal the total.
    let phi2 = parse_rule(
        r#"
        RULE phi2:
          MATCH (x:area)-[:femalePopulation]->(y:integer),
                (x)-[:malePopulation]->(z:integer),
                (x)-[:populationTotal]->(w:integer)
          => y.val + z.val = w.val
        "#,
    )
    .expect("the quickstart rule is well-formed");
    let sigma = RuleSet::from_rules(vec![phi2]);

    // (3) Detect: the match h(x̄) = (Bhonpur, 600, 722, 1572) violates φ2.
    section("violations before repair");
    let report = dect(&sigma, &graph);
    for violation in report.violations.iter() {
        println!("{}", describe_violation(&graph, &sigma, violation));
    }
    assert_eq!(
        report.violation_count(),
        1,
        "the seeded error must be caught"
    );

    // (4) Repair the total and re-check: the graph now satisfies Σ.
    section("after repairing populationTotal to 1322");
    graph.set_attr(names["total"], intern("val"), Value::Int(600 + 722));
    let clean = dect(&sigma, &graph);
    println!(
        "violations after repair: {} (graph ⊨ Σ: {})",
        clean.violation_count(),
        clean.violations.is_empty()
    );
    assert!(clean.violations.is_empty());
}
