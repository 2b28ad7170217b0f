//! The paper's worked examples, end to end: Figure 1 / Example 1 errors,
//! Example 3 rules, Example 4 semantics, Example 6 incremental deletions,
//! Example 7 parallel detection, and the Exp-5 real-life rules NGD1–NGD3.

use ngd_core::{paper, RuleSet};
use ngd_detect::{dect, inc_dect, pinc_dect, DetectorConfig};
use ngd_graph::{intern, AttrMap, BatchUpdate, Dir, GraphBuilder, Value};
use ngd_match::find_violations;

#[test]
fn example1_all_four_figure1_errors_are_caught() {
    // (1) BBC Trust destroyed before it was created.
    let (g1, bbc) = paper::figure1_g1();
    let v1 = find_violations(&paper::phi1(1), &g1);
    assert_eq!(v1.len(), 1);
    assert!(v1.iter().next().unwrap().involves(bbc));

    // (2) Bhonpur's population split does not add up.
    let (g2, village) = paper::figure1_g2();
    let v2 = find_violations(&paper::phi2(), &g2);
    assert_eq!(v2.len(), 1);
    assert!(v2.iter().next().unwrap().involves(village));

    // (3) Downey is ranked ahead of Corona despite the smaller population.
    let (g3, downey) = paper::figure1_g3();
    let v3 = find_violations(&paper::phi3(), &g3);
    assert_eq!(v3.len(), 1);
    assert_eq!(v3.iter().next().unwrap().nodes[0], downey);

    // (4) NatWest_Help is a fake account.
    let (g4, fake) = paper::figure1_g4();
    let v4 = find_violations(&paper::phi4(1, 1, 10_000), &g4);
    assert_eq!(v4.len(), 1);
    assert_eq!(v4.iter().next().unwrap().nodes[1], fake);
}

#[test]
fn example4_satisfaction_semantics() {
    // G1 ⊭ φ1 but a corrected G1 ⊨ φ1.
    let (g1, _) = paper::figure1_g1();
    assert!(!find_violations(&paper::phi1(1), &g1).is_empty());

    let mut fixed = GraphBuilder::new();
    fixed.node("inst", "institution");
    fixed.node_with_attrs("c", "date", [("val", Value::from_date(1927, 1, 1))]);
    fixed.node_with_attrs("d", "date", [("val", Value::from_date(2017, 1, 1))]);
    fixed.edge("inst", "c", "wasCreatedOnDate");
    fixed.edge("inst", "d", "wasDestroyedOnDate");
    assert!(find_violations(&paper::phi1(1), &fixed.build()).is_empty());

    // Matches missing a required attribute do not satisfy the literal: an
    // entity whose date nodes carry no `val` is reported as a violation of
    // the (empty-premise) rule rather than silently accepted.
    let mut missing = GraphBuilder::new();
    missing.node("inst", "institution");
    missing.node("c", "date");
    missing.node("d", "date");
    missing.edge("inst", "c", "wasCreatedOnDate");
    missing.edge("inst", "d", "wasDestroyedOnDate");
    assert_eq!(find_violations(&paper::phi1(1), &missing.build()).len(), 1);
}

#[test]
fn example6_deleting_the_status_edge_removes_the_fake_account_violation() {
    let (graph, fake) = paper::figure1_g4();
    let sigma = RuleSet::from_rules(vec![paper::phi4(1, 1, 10_000)]);
    let status_node = graph
        .neighbors(fake, Dir::Out)
        .iter()
        .find(|&&(_, l)| l == intern("status"))
        .map(|&(n, _)| n)
        .unwrap();
    let mut delta = BatchUpdate::new();
    delta.delete_edge(fake, status_node, intern("status"));

    let report = inc_dect(&sigma, &graph, &delta);
    assert_eq!(report.delta.removed.len(), 1);
    assert!(report.delta.added.is_empty());
    assert!(report.delta.removed.iter().next().unwrap().involves(fake));
}

#[test]
fn example6_consistent_insertions_add_no_violations() {
    // Inserting a small account with consistent counts (and the same batch
    // deleting nothing) introduces no update-driven violations.
    let (graph, _) = paper::figure1_g4();
    let sigma = RuleSet::from_rules(vec![paper::phi4(1, 1, 10_000)]);
    let company = graph.nodes_with_label(intern("company"))[0];
    let mut delta = BatchUpdate::new();
    let base = graph.node_count();
    let acct = delta.add_node(base, intern("account"), AttrMap::new());
    let following = delta.add_node(
        base,
        intern("integer"),
        AttrMap::from_pairs([("val", Value::Int(21_000))]),
    );
    let follower = delta.add_node(
        base,
        intern("integer"),
        AttrMap::from_pairs([("val", Value::Int(70_000))]),
    );
    let status = delta.add_node(
        base,
        intern("boolean"),
        AttrMap::from_pairs([("val", Value::Bool(true))]),
    );
    delta.insert_edge(acct, company, intern("keys"));
    delta.insert_edge(acct, following, intern("following"));
    delta.insert_edge(acct, follower, intern("follower"));
    delta.insert_edge(acct, status, intern("status"));
    let report = inc_dect(&sigma, &graph, &delta);
    assert!(report.delta.removed.is_empty());
    // The new account is large enough that neither direction of the pair
    // exceeds the threshold against the existing real account, and the
    // pre-existing fake-account violation is not re-reported.
    assert!(
        report.delta.added.iter().all(|v| v.involves(acct)),
        "only update-driven matches may appear"
    );
}

#[test]
fn example7_ninety_nine_violations_removed_in_parallel() {
    // G4 extended with 98 small helper accounts; deleting the real
    // account's status edge removes 99 violations (Example 7).
    let (graph, delta, sigma) = ngd_integration_tests::example7_workload();
    assert_eq!(dect(&sigma, &graph).violation_count(), 99);
    let report = pinc_dect(&sigma, &graph, &delta, &DetectorConfig::with_processors(4));
    assert_eq!(report.delta.removed.len(), 99);
    assert!(report.delta.added.is_empty());
}

#[test]
fn exp5_rules_catch_their_textbook_errors() {
    // NGD1: a living person born in 1713.
    let mut b = GraphBuilder::new();
    b.node("macpherson", "person");
    b.node_with_attrs("birth", "integer", [("val", Value::Int(1713))]);
    b.node_with_attrs(
        "cat",
        "string",
        [("val", Value::Str("living people".into()))],
    );
    b.edge("macpherson", "birth", "birthYear");
    b.edge("macpherson", "cat", "category");
    assert_eq!(find_violations(&paper::ngd1(), &b.build()).len(), 1);

    // NGD2: 24 athletes representing 34 countries at an Olympic event.
    let mut b = GraphBuilder::new();
    b.node("sailboard", "competition");
    b.node_with_attrs(
        "olympics92",
        "event",
        [("type", Value::Str("Olympic".into()))],
    );
    b.node_with_attrs("competitors", "integer", [("val", Value::Int(24))]);
    b.node_with_attrs("nations", "integer", [("val", Value::Int(34))]);
    b.edge("sailboard", "olympics92", "includes");
    b.edge("sailboard", "competitors", "competitors");
    b.edge("sailboard", "nations", "nations");
    assert_eq!(find_violations(&paper::ngd2(), &b.build()).len(), 1);

    // NGD3: Vettel + Verstappen won one race in 2016; Ferrari won none.
    let mut b = GraphBuilder::new();
    b.node_with_attrs("ferrari", "team", [("numberOfWins", Value::Int(0))]);
    b.node_with_attrs("vettel", "driver", [("numberOfWins", Value::Int(1))]);
    b.node_with_attrs("verstappen", "driver", [("numberOfWins", Value::Int(0))]);
    b.node_with_attrs("y2016", "year", [("val", Value::Int(2016))]);
    b.edge("vettel", "ferrari", "team");
    b.edge("verstappen", "ferrari", "team");
    b.edge("ferrari", "y2016", "year");
    b.edge("vettel", "y2016", "year");
    b.edge("verstappen", "y2016", "year");
    let violations = find_violations(&paper::ngd3(), &b.build());
    assert!(
        !violations.is_empty(),
        "the Ferrari/Vettel error of Exp-5 must be caught"
    );
}

#[test]
fn phi4_weights_and_threshold_change_what_counts_as_fake() {
    let (graph, _) = paper::figure1_g4();
    // With an absurdly high threshold nothing is fake.
    assert!(find_violations(&paper::phi4(1, 1, 10_000_000), &graph).is_empty());
    // Weighting followers much higher than followings still catches it.
    assert_eq!(
        find_violations(&paper::phi4(0, 5, 100_000), &graph).len(),
        1
    );
}
