//! Rule auditing with the static analyses of Section 4: before a rule set
//! is deployed as data-quality rules, check that it is (strongly)
//! satisfiable — i.e. the rules do not contradict each other — and drop
//! rules that are implied by the rest (they are redundant and only cost
//! detection time).
//!
//! The example audits a small `.ngdl` rule file that mixes
//! the paper's Example-5 rules (φ5–φ9) with a redundant weakening of one of
//! them, then prints which subsets conflict and which rules are redundant.
//!
//! Run with `cargo run -p ngd-examples --example rule_auditing`.

use ngd_core::satisfiability::{is_satisfiable, is_strongly_satisfiable, AnalysisConfig};
use ngd_core::{implies, RuleSet};
use ngd_examples::section;
use ngd_lang::parse_rules;

const RULE_FILE: &str = r#"
# Every sensor reading must report a plausible split of its two channels.
RULE channels_sum:
  MATCH (x:sensor)
  => x.chanA + x.chanB = x.total

# Channel A never exceeds the total.
RULE chanA_bounded:
  MATCH (x:sensor)
  => x.chanA <= x.total

# The same constraint as chanA_bounded, written the other way around: the
# audit flags the pair as mutually redundant, so either one can be dropped.
RULE total_not_smaller:
  MATCH (x:sensor)
  => x.total >= x.chanA

# Example 5 of the paper: these two conflict on every node.
RULE phi5:
  MATCH (x)
  => x.A = 7, x.B = 7
RULE phi6:
  MATCH (x)
  => x.A + x.B = 11
"#;

fn audit(sigma: &RuleSet) {
    let cfg = AnalysisConfig::default();

    section("satisfiability");
    match is_satisfiable(sigma, &cfg) {
        Ok(verdict) => println!("  satisfiable: {verdict:?}"),
        Err(err) => println!("  analysis refused: {err}"),
    }
    match is_strongly_satisfiable(sigma, &cfg) {
        Ok(verdict) => println!("  strongly satisfiable: {verdict:?}"),
        Err(err) => println!("  analysis refused: {err}"),
    }

    section("pairwise conflict localisation");
    for i in 0..sigma.len() {
        for j in (i + 1)..sigma.len() {
            let pair =
                RuleSet::from_rules(vec![sigma.rules()[i].clone(), sigma.rules()[j].clone()]);
            if let Ok(verdict) = is_satisfiable(&pair, &cfg) {
                if verdict.is_no() {
                    println!(
                        "  {} and {} cannot hold together",
                        sigma.rules()[i].id,
                        sigma.rules()[j].id
                    );
                }
            }
        }
    }

    section("redundancy (implication) check");
    for idx in 0..sigma.len() {
        let candidate = &sigma.rules()[idx];
        let rest: Vec<_> = sigma
            .rules()
            .iter()
            .enumerate()
            .filter(|&(other, _)| other != idx)
            .map(|(_, r)| r.clone())
            .collect();
        let rest = RuleSet::from_rules(rest);
        match implies(&rest, candidate, &cfg) {
            Ok(verdict) if verdict.is_yes() => {
                println!(
                    "  {} is implied by the remaining rules (redundant)",
                    candidate.id
                )
            }
            Ok(_) => println!("  {} is not redundant", candidate.id),
            Err(err) => println!("  {}: analysis refused: {err}", candidate.id),
        }
    }
}

fn main() {
    let sigma = parse_rules(RULE_FILE).expect("the audit rule file parses");
    println!("auditing {} rules", sigma.len());
    audit(&sigma);

    // The φ5/φ6 conflict makes the whole set unusable; after dropping φ6
    // the set becomes usable (and total_not_smaller shows up as redundant —
    // it is a comparison-only weakening of chanA_bounded's counterpart).
    section("after dropping phi6");
    let cleaned = RuleSet::from_rules(
        sigma
            .rules()
            .iter()
            .filter(|r| r.id != "phi6")
            .cloned()
            .collect(),
    );
    audit(&cleaned);
}
