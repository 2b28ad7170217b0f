//! The static analyses of Section 4 — satisfiability, strong
//! satisfiability and implication — exercised across crate boundaries:
//! paper examples, GFD special cases, rules coming out of the parser and
//! the generator, and the Theorem-3 boundary (non-linear rules are
//! refused, not mis-analysed).

use ngd_core::satisfiability::{is_satisfiable, is_strongly_satisfiable, AnalysisConfig, Verdict};
use ngd_core::{implies, paper, Expr, Literal, Ngd, Pattern, RuleSet};
use ngd_datagen::{generate_knowledge, generate_rules, KnowledgeConfig, RuleGenConfig};

fn cfg() -> AnalysisConfig {
    AnalysisConfig::default()
}

#[test]
fn example5_verdicts() {
    // φ5 and φ6 conflict on every node: A = B = 7 but A + B = 11.
    let conflict = RuleSet::from_rules(vec![paper::phi5(), paper::phi6(None)]);
    assert_eq!(is_satisfiable(&conflict, &cfg()).unwrap(), Verdict::No);
    assert_eq!(
        is_strongly_satisfiable(&conflict, &cfg()).unwrap(),
        Verdict::No
    );

    // Restricting φ6 to label `a` makes the set satisfiable (use only
    // `b`-labelled nodes) but not strongly satisfiable.
    let separated = RuleSet::from_rules(vec![paper::phi5(), paper::phi6(Some("a"))]);
    assert_eq!(is_satisfiable(&separated, &cfg()).unwrap(), Verdict::Yes);
    assert_eq!(
        is_strongly_satisfiable(&separated, &cfg()).unwrap(),
        Verdict::No
    );

    // φ7, φ8, φ9 cannot hold together: whatever x.A is, x.B must exceed 6
    // (by φ7 or φ8), but φ9 forces x.B < 6.
    let trio = RuleSet::from_rules(vec![paper::phi7(), paper::phi8(), paper::phi9()]);
    assert_eq!(is_satisfiable(&trio, &cfg()).unwrap(), Verdict::No);
}

#[test]
fn single_rules_of_the_paper_are_individually_satisfiable() {
    for rule in [
        paper::phi1(1),
        paper::phi2(),
        paper::phi3(),
        paper::phi4(1, 1, 10_000),
        paper::phi5(),
        paper::phi6(None),
        paper::ngd1(),
        paper::ngd2(),
        paper::ngd3(),
    ] {
        let singleton = RuleSet::from_rules(vec![rule.clone()]);
        assert_eq!(
            is_satisfiable(&singleton, &cfg()).unwrap(),
            Verdict::Yes,
            "{} alone must be satisfiable",
            rule.id
        );
    }
}

#[test]
fn implication_is_reflexive_and_respects_strengthening() {
    let phi5_set = RuleSet::from_rules(vec![paper::phi5()]);
    // Reflexivity.
    assert!(implies(&phi5_set, &paper::phi5(), &cfg()).unwrap().is_yes());
    // A = B = 7 entails A + B = 14 …
    let q = {
        let mut q = Pattern::new();
        q.add_wildcard("x");
        q
    };
    let x = q.var_by_name("x").unwrap();
    let sum14 = Ngd::new(
        "sum14",
        q.clone(),
        vec![],
        vec![Literal::eq(
            Expr::add(Expr::attr(x, "A"), Expr::attr(x, "B")),
            Expr::constant(14),
        )],
    )
    .unwrap();
    assert!(implies(&phi5_set, &sum14, &cfg()).unwrap().is_yes());
    // … but not A + B = 11.
    assert!(!implies(&phi5_set, &paper::phi6(None), &cfg())
        .unwrap()
        .is_yes());
    // And a weaker inequality is implied as well: A + B ≥ 10.
    let sum_ge_10 = Ngd::new(
        "sum_ge_10",
        q,
        vec![],
        vec![Literal::ge(
            Expr::add(Expr::attr(x, "A"), Expr::attr(x, "B")),
            Expr::constant(10),
        )],
    )
    .unwrap();
    assert!(implies(&phi5_set, &sum_ge_10, &cfg()).unwrap().is_yes());
}

#[test]
fn gfd_special_case_keeps_its_classical_behaviour() {
    // GFD-style rules (equality of terms only) are a special case of NGDs;
    // conflicting constant bindings are caught by the same analysis.
    let single = |id: &str, value: i64| {
        let mut q = Pattern::new();
        let x = q.add_node("x", "item");
        Ngd::new(
            id,
            q,
            vec![],
            vec![Literal::eq(Expr::attr(x, "code"), Expr::constant(value))],
        )
        .unwrap()
    };
    let conflicting = RuleSet::from_rules(vec![single("g1", 3), single("g2", 4)]);
    assert!(conflicting.rules().iter().all(|r| r.is_gfd()));
    assert_eq!(is_satisfiable(&conflicting, &cfg()).unwrap(), Verdict::No);

    let agreeing = RuleSet::from_rules(vec![single("g1", 3), single("g3", 3)]);
    assert_eq!(
        is_strongly_satisfiable(&agreeing, &cfg()).unwrap(),
        Verdict::Yes
    );
    assert!(implies(&agreeing, &single("g4", 3), &cfg())
        .unwrap()
        .is_yes());
}

#[test]
fn nonlinear_rules_are_refused_not_misanalysed() {
    // Theorem 3: with non-linear arithmetic the analyses become
    // undecidable, so the implementation refuses such rules explicitly.
    let mut q = Pattern::new();
    let x = q.add_wildcard("x");
    let quadratic = Ngd::new_unchecked(
        "quadratic",
        q,
        vec![],
        vec![Literal::eq(
            Expr::Mul(Box::new(Expr::attr(x, "A")), Box::new(Expr::attr(x, "A"))),
            Expr::constant(4),
        )],
    );
    assert!(!quadratic.is_linear());
    let sigma = RuleSet::from_rules(vec![quadratic.clone()]);
    assert!(is_satisfiable(&sigma, &cfg()).is_err());
    assert!(is_strongly_satisfiable(&sigma, &cfg()).is_err());
    assert!(implies(&sigma, &quadratic, &cfg()).is_err());
    // The *detectors* still evaluate such rules (validation stays decidable,
    // Corollary 4): a node with A = 2 satisfies A × A = 4.
    let mut builder = ngd_graph::GraphBuilder::new();
    builder.node_with_attrs("n", "thing", [("A", ngd_graph::Value::Int(3))]);
    let graph = builder.build();
    assert_eq!(ngd_match::find_violations(&quadratic, &graph).len(), 1);
}

#[test]
fn parsed_and_programmatic_rules_get_the_same_verdicts() {
    let parsed = ngd_lang::parse_rule(
        r#"
        RULE bound:
          MATCH (x:sensor)
          WHERE x.low <= x.high
          => 2 * x.low <= x.high + x.high
        "#,
    )
    .unwrap();
    let singleton = RuleSet::from_rules(vec![parsed.clone()]);
    assert_eq!(is_satisfiable(&singleton, &cfg()).unwrap(), Verdict::Yes);
    // The consequence is a consequence of the premise: the rule is implied
    // by the empty rule set restricted to the same pattern?  No — but it is
    // implied by itself, and adding it to a set changes nothing.
    assert!(implies(&singleton, &parsed, &cfg()).unwrap().is_yes());
}

#[test]
fn generated_rule_sets_are_strongly_satisfiable_when_violation_free() {
    // Rules generated with violation_prob = 0 hold on their own sample, so
    // the generated set has a model by construction; the analysis agrees on
    // a small set.
    let graph = generate_knowledge(&KnowledgeConfig::yago_like(1).with_seed(5)).graph;
    let sigma = generate_rules(
        &graph,
        &RuleGenConfig {
            count: 3,
            max_literals: 2,
            max_expr_terms: 2,
            ..RuleGenConfig::paper_style(3, 2)
        }
        .with_violation_prob(0.0)
        .with_seed(5),
    );
    assert_eq!(sigma.len(), 3);
    assert!(sigma.rules().iter().all(|r| r.is_linear()));
    match is_satisfiable(&sigma, &cfg()).unwrap() {
        Verdict::Yes | Verdict::Unknown => {}
        Verdict::No => panic!("a rule set with a witness graph cannot be unsatisfiable"),
    }
}

#[test]
fn analysis_budget_is_respected_on_larger_sets() {
    // The analyses are exponential in the worst case (Σ₂ᵖ-complete); the
    // configurable budget keeps them from running away and reports Unknown
    // instead of hanging.
    let tight = AnalysisConfig {
        solver_budget: 50,
        max_instances: 4,
    };
    let sigma = paper::paper_rule_set();
    // With a tiny budget the answer may be Unknown but must come back.
    let verdict = is_strongly_satisfiable(&sigma, &tight).unwrap();
    assert!(matches!(
        verdict,
        Verdict::Yes | Verdict::No | Verdict::Unknown
    ));
}
