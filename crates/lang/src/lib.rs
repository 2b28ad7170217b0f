//! # ngd-lang
//!
//! A declarative, Cypher-flavoured rule language (`.ngdl`) for the NGDs of
//! *"Catching Numeric Inconsistencies in Graphs"* (Fan, Liu, Lu, Tian —
//! SIGMOD 2018), replacing programmatic `Pattern`/`Literal` construction
//! with text files:
//!
//! ```text
//! RULE no_fake_accts:
//!   MATCH (x:Account)-[:follows]->(y:Account)
//!   WHERE x.balance > 10 * y.balance
//!   => false
//! ```
//!
//! The crate provides a hand-written lexer and recursive-descent parser
//! ([`parse_rules`], [`parse_rule`]) that lower directly onto
//! `ngd_core::{Pattern, Ngd, RuleSet}`, a canonical pretty-printer
//! ([`print_rule`], [`print_rule_set`]) with `parse(print(r)) ≡ r`, and a
//! format-sniffing loader ([`load_rules`]) that accepts `.ngdl` and the
//! JSON rule interchange format behind one entry point — so every
//! rule-loading surface (`ngd-serve --rules`, `ngd-cli`, the `RULES` wire
//! frame, examples) understands both.
//!
//! Variables are numbered in order of first mention in the `MATCH`
//! clause, and the match planner breaks cost ties toward lower variable
//! indices — so the order a rule lists its nodes doubles as a seed hint
//! for `ngd_match::plan::compile_plan`.
//!
//! Errors are span-carrying: [`ParseError`] renders a caret snippet
//! pointing at the offending character, in the house style of
//! `PersistError`/`ProtocolError`.
//!
//! ## Example
//!
//! ```
//! use ngd_lang::{parse_rules, print_rule, is_denial};
//!
//! let sigma = parse_rules(
//!     r#"
//!     // Entities cannot be destroyed before they are created.
//!     RULE creation_before_destruction:
//!       MATCH (x)-[:wasCreatedOnDate]->(y:date),
//!             (x)-[:wasDestroyedOnDate]->(z:date)
//!       => z.val - y.val >= 1
//!     "#,
//! )?;
//! assert_eq!(sigma.len(), 1);
//! let rule = sigma.by_id("creation_before_destruction").unwrap();
//! assert_eq!(rule.pattern.node_count(), 3);
//! assert!(!is_denial(rule));
//!
//! // The canonical printed form re-parses to the identical rule.
//! let reparsed = ngd_lang::parse_rule(&print_rule(rule))?;
//! assert_eq!(&reparsed, rule);
//! # Ok::<(), ngd_lang::ParseError>(())
//! ```

pub mod error;
mod lexer;
pub mod parser;
pub mod printer;

pub use error::ParseError;
pub use parser::{denial_literal, is_denial, parse_rule, parse_rules};
pub use printer::{print_rule, print_rule_set};

use ngd_core::RuleSet;

/// The on-disk rule formats [`load_rules`] understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleFormat {
    /// The JSON interchange format of `RuleSet::{to_json, from_json}`.
    Json,
    /// The declarative `RULE name: MATCH … => …` language of this crate.
    Ngdl,
}

impl std::fmt::Display for RuleFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            RuleFormat::Json => "json",
            RuleFormat::Ngdl => "ngdl",
        })
    }
}

/// Errors from [`load_rules`], tagged by the format that was attempted.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadError {
    /// The source sniffed as JSON but failed to decode.
    Json(ngd_json::JsonError),
    /// The source sniffed as `.ngdl` but failed to parse.
    Ngdl(ParseError),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Json(e) => write!(f, "invalid rule json: {e}"),
            LoadError::Ngdl(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LoadError {}

/// Sniff which rule format `source` is written in, without parsing it.
///
/// The first significant character decides: after leading whitespace and
/// `#` / `//` comment lines, `[`, `{` or `"` means JSON and anything else
/// means `.ngdl`.  Empty or comment-only sources sniff as
/// [`RuleFormat::Ngdl`], whose parser accepts them as an empty rule set.
///
/// ```
/// use ngd_lang::{detect_format, RuleFormat};
///
/// assert_eq!(detect_format("[]"), RuleFormat::Json);
/// assert_eq!(detect_format("# Σ\n{\"rules\": []}"), RuleFormat::Json);
/// assert_eq!(detect_format("RULE phi: MATCH (x) => false"),
///            RuleFormat::Ngdl);
/// ```
pub fn detect_format(source: &str) -> RuleFormat {
    let mut rest = source.trim_start();
    while rest.starts_with('#') || rest.starts_with("//") {
        rest = rest
            .split_once('\n')
            .map_or("", |(_, tail)| tail)
            .trim_start();
    }
    if rest.starts_with(['[', '{', '"']) {
        RuleFormat::Json
    } else {
        RuleFormat::Ngdl
    }
}

/// Parse rules in whichever supported format `source` is written in.
///
/// This is the loader behind every rule-accepting entry point of the
/// workspace (`ngd-serve --rules`, the `ngd-cli` subcommands, the `RULES`
/// wire frame): it sniffs the format with [`detect_format`] and
/// dispatches to the matching parser.
///
/// ```
/// use ngd_lang::load_rules;
///
/// let from_ngdl = load_rules("RULE r: MATCH (x:A) => x.v >= 0")?;
/// let from_json = load_rules(&from_ngdl.to_json())?;
/// assert_eq!(from_ngdl.rules(), from_json.rules());
/// # Ok::<(), ngd_lang::LoadError>(())
/// ```
pub fn load_rules(source: &str) -> Result<RuleSet, LoadError> {
    match detect_format(source) {
        RuleFormat::Json => RuleSet::from_json(source).map_err(LoadError::Json),
        RuleFormat::Ngdl => parse_rules(source).map_err(LoadError::Ngdl),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sniffing_ignores_comments_and_quoted_colons() {
        assert_eq!(detect_format(""), RuleFormat::Ngdl);
        assert_eq!(detect_format("# only a comment\n"), RuleFormat::Ngdl);
        assert_eq!(detect_format("// no newline after it"), RuleFormat::Ngdl);
        assert_eq!(
            detect_format("// note\n  [ {\"id\": \"r\"} ]"),
            RuleFormat::Json
        );
        assert_eq!(
            detect_format("# one\n  // two\n{\"rules\": []}"),
            RuleFormat::Json
        );
        assert_eq!(
            detect_format("RULE \"has { brace\": MATCH (x) => false"),
            RuleFormat::Ngdl
        );
        assert_eq!(
            detect_format("# note\nrule phi1 {\n  match (x:_);\n}"),
            RuleFormat::Ngdl
        );
    }

    #[test]
    fn load_rules_accepts_both_formats() {
        let ngdl = "RULE r: MATCH (x:A)-[:e]->(y:B) WHERE x.v > y.v => false";
        let sigma = load_rules(ngdl).unwrap();
        assert_eq!(sigma.len(), 1);

        let json = sigma.to_json();
        assert_eq!(load_rules(&json).unwrap().rules(), sigma.rules());

        let quoted = load_rules("RULE \"has { brace\": MATCH (x) => false").unwrap();
        assert_eq!(quoted.rules()[0].id, "has { brace");
    }

    #[test]
    fn load_errors_carry_the_sniffed_format() {
        assert!(matches!(load_rules("[ broken"), Err(LoadError::Json(_))));
        assert!(matches!(
            load_rules("RULE r: MATCH ("),
            Err(LoadError::Ngdl(_))
        ));
        // The retired `rule name { … }` block syntax has no parser left: it
        // reaches the `.ngdl` one, which refuses it at the `{`.
        let retired = "# old syntax\nrule r { match (x:A); then x.v = 1; }";
        let Err(LoadError::Ngdl(err)) = load_rules(retired) else {
            panic!("expected a positioned ngdl refusal");
        };
        assert_eq!((err.line, err.col), (2, 8), "{err}");
        assert!(err.to_string().contains('^'), "{err}");
    }
}
