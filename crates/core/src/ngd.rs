//! Numeric graph dependencies `φ = Q[x̄](X → Y)` and rule sets `Σ`.
//!
//! An [`Ngd`] combines a topological constraint (a [`Pattern`]) with an
//! attribute dependency `X → Y` between two sets of [`Literal`]s.  The
//! constructor validates the rule: every variable used by a literal must
//! belong to the pattern, and every expression must be *linear* (the paper
//! proves that relaxing linearity makes the static analyses undecidable —
//! Theorem 3 — so non-linear rules are rejected with
//! [`NgdError::NonLinear`] unless explicitly constructed via
//! [`Ngd::new_unchecked`], which exists so the undecidability boundary can
//! be demonstrated and tested).

use crate::literal::Literal;
use crate::pattern::{Pattern, Var};
use std::fmt;

/// Errors raised when constructing an NGD.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NgdError {
    /// A literal references a variable that is not in the pattern.
    UnknownVariable(Var),
    /// A literal uses a non-linear arithmetic expression.
    NonLinear(String),
    /// The rule id is empty.
    EmptyId,
}

impl fmt::Display for NgdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NgdError::UnknownVariable(v) => write!(f, "literal references unknown variable {v}"),
            NgdError::NonLinear(lit) => {
                write!(f, "non-linear arithmetic expression in literal `{lit}`")
            }
            NgdError::EmptyId => write!(f, "rule id must not be empty"),
        }
    }
}

impl std::error::Error for NgdError {}

/// A numeric graph dependency `Q[x̄](X → Y)`.
///
/// [`Ngd::new`] validates the rule: every attribute reference must name a
/// pattern variable and every expression must stay in the linear fragment.
///
/// ```
/// use ngd_core::{Expr, Literal, Ngd, NgdError, Pattern};
/// use ngd_core::pattern::Var;
///
/// let mut q = Pattern::new();
/// let x = q.add_node("x", "account");
///
/// // A literal over an undeclared variable is rejected, typed.
/// let bad = Literal::eq(Expr::attr(Var(7), "val"), Expr::constant(1));
/// assert_eq!(
///     Ngd::new("oops", q.clone(), vec![], vec![bad]),
///     Err(NgdError::UnknownVariable(Var(7))),
/// );
///
/// let ok = Literal::ge(Expr::attr(x, "balance"), Expr::constant(0));
/// assert!(Ngd::new("solvent", q, vec![], vec![ok]).is_ok());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ngd {
    /// A human-readable rule identifier (e.g. `"phi1"`).
    pub id: String,
    /// The graph pattern `Q[x̄]`.
    pub pattern: Pattern,
    /// The precondition literal set `X` (a conjunction; may be empty).
    pub premise: Vec<Literal>,
    /// The consequence literal set `Y` (a conjunction; may be empty).
    pub consequence: Vec<Literal>,
}

impl Ngd {
    /// Construct and validate an NGD.
    pub fn new(
        id: impl Into<String>,
        pattern: Pattern,
        premise: Vec<Literal>,
        consequence: Vec<Literal>,
    ) -> Result<Ngd, NgdError> {
        let id = id.into();
        if id.is_empty() {
            return Err(NgdError::EmptyId);
        }
        let rule = Ngd {
            id,
            pattern,
            premise,
            consequence,
        };
        rule.validate()?;
        Ok(rule)
    }

    /// Construct an NGD without the linearity check.  Intended only for
    /// representing the *extended* (non-linear) dependencies of Theorem 3;
    /// the detectors still evaluate such rules, but the static analyses
    /// refuse them.
    pub fn new_unchecked(
        id: impl Into<String>,
        pattern: Pattern,
        premise: Vec<Literal>,
        consequence: Vec<Literal>,
    ) -> Ngd {
        Ngd {
            id: id.into(),
            pattern,
            premise,
            consequence,
        }
    }

    fn validate(&self) -> Result<(), NgdError> {
        let nvars = self.pattern.node_count() as u32;
        for literal in self.literals() {
            for var in literal.vars() {
                if var.0 >= nvars {
                    return Err(NgdError::UnknownVariable(var));
                }
            }
            if !literal.is_linear() {
                return Err(NgdError::NonLinear(literal.to_string()));
            }
        }
        Ok(())
    }

    /// Iterate over all literals (premise then consequence).
    pub fn literals(&self) -> impl Iterator<Item = &Literal> {
        self.premise.iter().chain(self.consequence.iter())
    }

    /// Number of literals (the paper reports rules with 1–4 literals).
    pub fn literal_count(&self) -> usize {
        self.premise.len() + self.consequence.len()
    }

    /// The diameter `d_Q` of the rule's pattern.
    pub fn diameter(&self) -> usize {
        self.pattern.diameter()
    }

    /// Is this rule expressible as a GFD of Fan et al. (SIGMOD'16)?
    /// GFDs restrict literals to equality between plain terms.
    pub fn is_gfd(&self) -> bool {
        self.literals().all(Literal::is_gfd_literal)
    }

    /// Does the rule use arithmetic anywhere (i.e. is it strictly beyond
    /// GFD expressivity because of arithmetic)?
    pub fn uses_arithmetic(&self) -> bool {
        self.literals().any(Literal::uses_arithmetic)
    }

    /// Is every literal in the rule linear?
    pub fn is_linear(&self) -> bool {
        self.literals().all(Literal::is_linear)
    }

    /// The largest expression degree appearing in the rule.
    pub fn degree(&self) -> u32 {
        self.literals().map(Literal::degree).max().unwrap_or(0)
    }

    /// The maximum expression length over the rule's literals.
    pub fn max_expression_length(&self) -> usize {
        self.literals().map(Literal::length).max().unwrap_or(0)
    }
}

impl fmt::Display for Ngd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: Q[{}](", self.id, self.pattern.describe())?;
        for (idx, l) in self.premise.iter().enumerate() {
            if idx > 0 {
                write!(f, " && ")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, " -> ")?;
        for (idx, l) in self.consequence.iter().enumerate() {
            if idx > 0 {
                write!(f, " && ")?;
            }
            write!(f, "{l}")?;
        }
        write!(f, ")")
    }
}

ngd_json::impl_json_struct!(Ngd {
    id,
    pattern,
    premise,
    consequence
});

/// A set `Σ` of NGDs used as data-quality rules.
///
/// Round-trips through JSON byte-identically, which is what lets rule sets
/// travel over the serve protocol and live on disk:
///
/// ```
/// use ngd_core::{paper, RuleSet};
///
/// let sigma = paper::paper_rule_set();
/// assert_eq!(sigma.len(), 7);
/// assert_eq!(sigma.diameter(), 4);   // dΣ, the radius incremental detection explores
///
/// let json = sigma.to_json();
/// let back = RuleSet::from_json(&json).expect("own output parses");
/// assert_eq!(back, sigma);
/// assert_eq!(back.to_json(), json);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuleSet {
    rules: Vec<Ngd>,
}

ngd_json::impl_json_struct!(RuleSet { rules });

impl RuleSet {
    /// An empty rule set.
    pub fn new() -> Self {
        RuleSet::default()
    }

    /// Build a rule set from rules.
    pub fn from_rules(rules: Vec<Ngd>) -> Self {
        RuleSet { rules }
    }

    /// Add a rule.
    pub fn push(&mut self, rule: Ngd) {
        self.rules.push(rule);
    }

    /// Number of rules `‖Σ‖`.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The rules.
    pub fn rules(&self) -> &[Ngd] {
        &self.rules
    }

    /// Iterate over the rules.
    pub fn iter(&self) -> impl Iterator<Item = &Ngd> {
        self.rules.iter()
    }

    /// Look up a rule by id.
    pub fn by_id(&self, id: &str) -> Option<&Ngd> {
        self.rules.iter().find(|r| r.id == id)
    }

    /// The diameter `dΣ`: the maximum pattern diameter over all rules.
    pub fn diameter(&self) -> usize {
        self.rules.iter().map(Ngd::diameter).max().unwrap_or(0)
    }

    /// Total size `|Σ|`: the sum of pattern sizes and literal counts,
    /// the measure the complexity bounds are stated in.
    pub fn total_size(&self) -> usize {
        self.rules
            .iter()
            .map(|r| r.pattern.size() + r.literal_count())
            .sum()
    }

    /// Keep only the first `n` rules (used by the `‖Σ‖`-varying experiments).
    pub fn truncated(&self, n: usize) -> RuleSet {
        RuleSet {
            rules: self.rules.iter().take(n).cloned().collect(),
        }
    }

    /// Fraction of rules that are not plain GFDs (i.e. need NGD
    /// expressivity) — the statistic behind the paper's "92% can only be
    /// caught by NGDs" claim.
    pub fn ngd_only_fraction(&self) -> f64 {
        if self.rules.is_empty() {
            return 0.0;
        }
        let beyond = self.rules.iter().filter(|r| !r.is_gfd()).count();
        beyond as f64 / self.rules.len() as f64
    }

    /// Serialize the rule set to pretty JSON.
    pub fn to_json(&self) -> String {
        ngd_json::to_string_pretty(self)
    }

    /// Parse a rule set from JSON.
    pub fn from_json(json: &str) -> Result<RuleSet, ngd_json::JsonError> {
        ngd_json::from_str(json)
    }
}

impl IntoIterator for RuleSet {
    type Item = Ngd;
    type IntoIter = std::vec::IntoIter<Ngd>;
    fn into_iter(self) -> Self::IntoIter {
        self.rules.into_iter()
    }
}

impl<'a> IntoIterator for &'a RuleSet {
    type Item = &'a Ngd;
    type IntoIter = std::slice::Iter<'a, Ngd>;
    fn into_iter(self) -> Self::IntoIter {
        self.rules.iter()
    }
}

impl FromIterator<Ngd> for RuleSet {
    fn from_iter<T: IntoIterator<Item = Ngd>>(iter: T) -> Self {
        RuleSet {
            rules: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::literal::Literal;

    fn simple_pattern() -> Pattern {
        let mut q = Pattern::new();
        let x = q.add_wildcard("x");
        let y = q.add_node("y", "date");
        q.add_edge(x, y, "created");
        q
    }

    #[test]
    fn valid_rule_construction() {
        let q = simple_pattern();
        let y = q.var_by_name("y").unwrap();
        let rule = Ngd::new(
            "phi",
            q,
            vec![],
            vec![Literal::ge(Expr::attr(y, "val"), Expr::constant(0))],
        )
        .unwrap();
        assert_eq!(rule.literal_count(), 1);
        assert!(rule.is_linear());
        assert!(!rule.is_gfd());
        assert_eq!(rule.diameter(), 1);
    }

    #[test]
    fn unknown_variable_rejected() {
        let q = simple_pattern();
        let err = Ngd::new(
            "phi",
            q,
            vec![],
            vec![Literal::eq(Expr::attr(Var(9), "val"), Expr::constant(0))],
        )
        .unwrap_err();
        assert_eq!(err, NgdError::UnknownVariable(Var(9)));
    }

    #[test]
    fn nonlinear_rule_rejected_but_unchecked_allows_it() {
        let q = simple_pattern();
        let x = q.var_by_name("x").unwrap();
        let nonlinear = Literal::eq(
            Expr::Mul(Box::new(Expr::attr(x, "A")), Box::new(Expr::attr(x, "B"))),
            Expr::constant(4),
        );
        assert!(matches!(
            Ngd::new("phi", q.clone(), vec![], vec![nonlinear.clone()]),
            Err(NgdError::NonLinear(_))
        ));
        let unchecked = Ngd::new_unchecked("phi", q, vec![], vec![nonlinear]);
        assert!(!unchecked.is_linear());
        assert_eq!(unchecked.degree(), 2);
    }

    #[test]
    fn empty_id_rejected() {
        assert_eq!(
            Ngd::new("", simple_pattern(), vec![], vec![]).unwrap_err(),
            NgdError::EmptyId
        );
    }

    #[test]
    fn gfd_detection() {
        let q = simple_pattern();
        let x = q.var_by_name("x").unwrap();
        let gfd = Ngd::new(
            "gfd",
            q.clone(),
            vec![Literal::eq(Expr::attr(x, "A"), Expr::constant(1))],
            vec![Literal::eq(Expr::attr(x, "B"), Expr::constant(2))],
        )
        .unwrap();
        assert!(gfd.is_gfd());
        assert!(!gfd.uses_arithmetic());
        let ngd = Ngd::new(
            "ngd",
            q,
            vec![],
            vec![Literal::ge(
                Expr::sub(Expr::attr(x, "A"), Expr::attr(x, "B")),
                Expr::constant(0),
            )],
        )
        .unwrap();
        assert!(!ngd.is_gfd());
        assert!(ngd.uses_arithmetic());
    }

    #[test]
    fn rule_set_statistics() {
        let q = simple_pattern();
        let x = q.var_by_name("x").unwrap();
        let r1 = Ngd::new(
            "r1",
            q.clone(),
            vec![],
            vec![Literal::eq(Expr::attr(x, "A"), Expr::constant(1))],
        )
        .unwrap();
        let r2 = Ngd::new(
            "r2",
            q,
            vec![],
            vec![Literal::ge(
                Expr::add(Expr::attr(x, "A"), Expr::attr(x, "B")),
                Expr::constant(1),
            )],
        )
        .unwrap();
        let sigma = RuleSet::from_rules(vec![r1, r2]);
        assert_eq!(sigma.len(), 2);
        assert_eq!(sigma.diameter(), 1);
        assert!(sigma.total_size() > 0);
        assert_eq!(sigma.ngd_only_fraction(), 0.5);
        assert!(sigma.by_id("r2").is_some());
        assert!(sigma.by_id("zzz").is_none());
        assert_eq!(sigma.truncated(1).len(), 1);
    }

    #[test]
    fn rule_set_json_roundtrip() {
        let q = simple_pattern();
        let y = q.var_by_name("y").unwrap();
        let rule = Ngd::new(
            "phi",
            q,
            vec![],
            vec![Literal::ge(Expr::attr(y, "val"), Expr::constant(0))],
        )
        .unwrap();
        let sigma = RuleSet::from_rules(vec![rule]);
        let json = sigma.to_json();
        let back = RuleSet::from_json(&json).unwrap();
        assert_eq!(back, sigma);
    }

    #[test]
    fn display_contains_id_and_arrow() {
        let q = simple_pattern();
        let y = q.var_by_name("y").unwrap();
        let rule = Ngd::new(
            "phi1",
            q,
            vec![Literal::gt(Expr::attr(y, "val"), Expr::constant(0))],
            vec![Literal::le(Expr::attr(y, "val"), Expr::constant(10))],
        )
        .unwrap();
        let s = rule.to_string();
        assert!(s.contains("phi1"));
        assert!(s.contains("->"));
    }
}
