//! Evaluation of expressions, literals and dependencies on matches.
//!
//! Given a graph `G` and a match `h(x̄)` (an assignment of graph nodes to
//! pattern variables), Section 3 of the paper defines:
//!
//! * `h(x̄) ⊨ l` for a literal `l = e₁ ⊗ e₂` iff **(a)** every term `x.A`
//!   in `l` maps to a node `h(x)` that actually carries attribute `A`, and
//!   **(b)** `h(e₁) ⊗ h(e₂)` holds under the usual arithmetic semantics;
//! * `h(x̄) ⊨ Z` for a literal set iff it satisfies every literal in `Z`;
//! * `h(x̄) ⊨ X → Y` iff `h(x̄) ⊨ X` implies `h(x̄) ⊨ Y`;
//! * `h(x̄)` is a **violation** of `φ = Q[x̄](X → Y)` iff `h(x̄) ⊨ X` and
//!   `h(x̄) ⊭ Y`.
//!
//! Numeric evaluation is exact: integers accumulate through
//! [`Rational`] so constant division never truncates.  Non-numeric values
//! (strings, booleans) participate only in direct comparisons.

use crate::expr::Expr;
use crate::literal::Literal;
use crate::ngd::Ngd;
use crate::pattern::Var;
use crate::rational::Rational;
use ngd_graph::{GraphView, NodeId, Value};
use std::cmp::Ordering;

/// The result of evaluating an expression on a match.
#[derive(Debug, Clone, PartialEq)]
pub enum Evaluated {
    /// A numeric (exact rational) result.
    Num(Rational),
    /// A non-numeric constant (string or boolean) result.
    Val(Value),
}

impl Evaluated {
    /// Compare two evaluated values following the paper's semantics:
    /// numeric values compare numerically, non-numeric values compare when
    /// they have the same shape, and mixed numeric readings coerce.
    pub fn compare(&self, other: &Evaluated) -> Option<Ordering> {
        match (self, other) {
            (Evaluated::Num(a), Evaluated::Num(b)) => Some(a.cmp(b)),
            (Evaluated::Val(a), Evaluated::Val(b)) => a.partial_cmp_value(b),
            (Evaluated::Num(a), Evaluated::Val(b)) => {
                b.as_int().map(|i| a.cmp(&Rational::from_int(i)))
            }
            (Evaluated::Val(a), Evaluated::Num(b)) => {
                a.as_int().map(|i| Rational::from_int(i).cmp(b))
            }
        }
    }
}

/// A resolver from pattern variables to graph nodes.  Total matches use a
/// slice; the incremental matcher uses partial maps.
pub trait VarLookup {
    /// The graph node assigned to `var`, if any.
    fn node_of(&self, var: Var) -> Option<NodeId>;
}

impl VarLookup for [NodeId] {
    fn node_of(&self, var: Var) -> Option<NodeId> {
        self.get(var.index()).copied()
    }
}

impl VarLookup for Vec<NodeId> {
    fn node_of(&self, var: Var) -> Option<NodeId> {
        self.as_slice().node_of(var)
    }
}

impl VarLookup for [Option<NodeId>] {
    fn node_of(&self, var: Var) -> Option<NodeId> {
        self.get(var.index()).copied().flatten()
    }
}

impl VarLookup for Vec<Option<NodeId>> {
    fn node_of(&self, var: Var) -> Option<NodeId> {
        self.as_slice().node_of(var)
    }
}

impl<F> VarLookup for F
where
    F: Fn(Var) -> Option<NodeId>,
{
    fn node_of(&self, var: Var) -> Option<NodeId> {
        self(var)
    }
}

/// Why an expression could not be evaluated on a (partial) match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalFailure {
    /// A variable in the expression has not been assigned a node yet —
    /// the literal is *undecided* (partial matches only).
    UnboundVariable(Var),
    /// The assigned node does not carry the required attribute — per the
    /// paper, the literal is *not satisfied*.
    MissingAttribute,
    /// A non-numeric value flowed into an arithmetic operator, or a
    /// division by zero occurred — the literal is *not satisfied*.
    TypeError,
}

/// Evaluate an expression on a (possibly partial) match.
pub fn eval_expr<G: GraphView + ?Sized, L: VarLookup + ?Sized>(
    expr: &Expr,
    graph: &G,
    lookup: &L,
) -> Result<Evaluated, EvalFailure> {
    match expr {
        Expr::Const(c) => Ok(Evaluated::Num(Rational::from_int(*c))),
        Expr::Lit(v) => Ok(Evaluated::Val(v.clone())),
        Expr::Attr(r) => {
            let node = lookup
                .node_of(r.var)
                .ok_or(EvalFailure::UnboundVariable(r.var))?;
            let value = graph
                .attr(node, r.attr)
                .ok_or(EvalFailure::MissingAttribute)?;
            match value {
                Value::Int(i) => Ok(Evaluated::Num(Rational::from_int(i))),
                Value::Bool(b) => Ok(Evaluated::Num(Rational::from_int(i64::from(b)))),
                Value::Str(_) => Ok(Evaluated::Val(value)),
            }
        }
        Expr::Abs(e) => match eval_expr(e, graph, lookup)? {
            Evaluated::Num(r) => Ok(Evaluated::Num(r.abs())),
            Evaluated::Val(_) => Err(EvalFailure::TypeError),
        },
        Expr::Add(a, b) => numeric_binop(a, b, graph, lookup, |x, y| Some(x + y)),
        Expr::Sub(a, b) => numeric_binop(a, b, graph, lookup, |x, y| Some(x - y)),
        Expr::Mul(a, b) => numeric_binop(a, b, graph, lookup, |x, y| Some(x * y)),
        Expr::Div(a, b) => numeric_binop(a, b, graph, lookup, |x, y| {
            if y == Rational::ZERO {
                None
            } else {
                Some(x / y)
            }
        }),
    }
}

fn numeric_binop<G: GraphView + ?Sized, L: VarLookup + ?Sized>(
    a: &Expr,
    b: &Expr,
    graph: &G,
    lookup: &L,
    op: impl Fn(Rational, Rational) -> Option<Rational>,
) -> Result<Evaluated, EvalFailure> {
    let left = as_number(eval_expr(a, graph, lookup)?)?;
    let right = as_number(eval_expr(b, graph, lookup)?)?;
    op(left, right)
        .map(Evaluated::Num)
        .ok_or(EvalFailure::TypeError)
}

fn as_number(value: Evaluated) -> Result<Rational, EvalFailure> {
    match value {
        Evaluated::Num(r) => Ok(r),
        Evaluated::Val(v) => v
            .as_int()
            .map(Rational::from_int)
            .ok_or(EvalFailure::TypeError),
    }
}

/// Evaluate a literal on a (possibly partial) match.
///
/// * `Ok(true)` / `Ok(false)` — the literal is decided;
/// * `Err(var)` — the literal is undecided because `var` is unbound.
///
/// Missing attributes and type errors decide the literal to `false`, per
/// the paper's satisfaction semantics.
pub fn eval_literal_partial<G: GraphView + ?Sized, L: VarLookup + ?Sized>(
    literal: &Literal,
    graph: &G,
    lookup: &L,
) -> Result<bool, Var> {
    let lhs = match eval_expr(&literal.lhs, graph, lookup) {
        Ok(v) => Some(v),
        Err(EvalFailure::UnboundVariable(v)) => return Err(v),
        Err(_) => None,
    };
    let rhs = match eval_expr(&literal.rhs, graph, lookup) {
        Ok(v) => Some(v),
        Err(EvalFailure::UnboundVariable(v)) => return Err(v),
        Err(_) => None,
    };
    match (lhs, rhs) {
        (Some(l), Some(r)) => Ok(l
            .compare(&r)
            .map(|ord| literal.op.holds(ord))
            .unwrap_or(false)),
        _ => Ok(false),
    }
}

/// Does the match satisfy the literal? (Total-match convenience wrapper;
/// unbound variables count as unsatisfied.)
pub fn literal_holds<G: GraphView + ?Sized>(
    literal: &Literal,
    graph: &G,
    assignment: &[NodeId],
) -> bool {
    eval_literal_partial(literal, graph, assignment).unwrap_or(false)
}

/// Does the match satisfy every literal in the set (`h(x̄) ⊨ Z`)?
pub fn literals_hold<G: GraphView + ?Sized>(
    literals: &[Literal],
    graph: &G,
    assignment: &[NodeId],
) -> bool {
    literals.iter().all(|l| literal_holds(l, graph, assignment))
}

/// Does the match satisfy the dependency `X → Y`?
pub fn dependency_holds<G: GraphView + ?Sized>(
    rule: &Ngd,
    graph: &G,
    assignment: &[NodeId],
) -> bool {
    !literals_hold(&rule.premise, graph, assignment)
        || literals_hold(&rule.consequence, graph, assignment)
}

/// Is the match a violation of the rule (`h ⊨ X` and `h ⊭ Y`)?
pub fn is_violation<G: GraphView + ?Sized>(rule: &Ngd, graph: &G, assignment: &[NodeId]) -> bool {
    literals_hold(&rule.premise, graph, assignment)
        && !literals_hold(&rule.consequence, graph, assignment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::literal::Literal;
    use crate::pattern::Pattern;
    use ngd_graph::{AttrMap, Graph};

    /// Graph: a village node with population attributes, plus a node with a
    /// string category.
    fn graph() -> (Graph, NodeId, NodeId) {
        let mut g = Graph::new();
        let village = g.add_node_named(
            "village",
            AttrMap::from_pairs([
                ("female", Value::Int(600)),
                ("male", Value::Int(722)),
                ("total", Value::Int(1572)),
            ]),
        );
        let person = g.add_node_named(
            "person",
            AttrMap::from_pairs([
                ("birthYear", Value::Int(1713)),
                ("category", Value::Str("living people".into())),
                ("verified", Value::Bool(true)),
            ]),
        );
        (g, village, person)
    }

    fn v(i: u32) -> Var {
        Var(i)
    }

    #[test]
    fn arithmetic_evaluation() {
        let (g, village, _) = graph();
        let asg = vec![village];
        // female + male = 1322
        let e = Expr::add(Expr::attr(v(0), "female"), Expr::attr(v(0), "male"));
        assert_eq!(
            eval_expr(&e, &g, &asg).unwrap(),
            Evaluated::Num(Rational::from_int(1322))
        );
        // |female - male| = 122
        let e = Expr::abs(Expr::sub(
            Expr::attr(v(0), "female"),
            Expr::attr(v(0), "male"),
        ));
        assert_eq!(
            eval_expr(&e, &g, &asg).unwrap(),
            Evaluated::Num(Rational::from_int(122))
        );
        // total ÷ 5 = 314.4 exactly
        let e = Expr::div_const(Expr::attr(v(0), "total"), 5);
        assert_eq!(
            eval_expr(&e, &g, &asg).unwrap(),
            Evaluated::Num(Rational::new(1572, 5))
        );
    }

    #[test]
    fn missing_attribute_decides_literal_false() {
        let (g, village, _) = graph();
        let asg = vec![village];
        let lit = Literal::ge(Expr::attr(v(0), "areaTotal"), Expr::constant(0));
        assert!(!literal_holds(&lit, &g, &asg));
        // ...even when the comparison itself would be a tautology.
        let lit = Literal::eq(Expr::attr(v(0), "areaTotal"), Expr::attr(v(0), "areaTotal"));
        assert!(!literal_holds(&lit, &g, &asg));
    }

    #[test]
    fn paper_example_population_sum_violation() {
        // φ2: female + male = total — Bhonpur violates it (600+722 ≠ 1572).
        let (g, village, _) = graph();
        let mut q = Pattern::new();
        q.add_node("w", "village");
        let rule = Ngd::new(
            "phi2",
            q,
            vec![],
            vec![Literal::eq(
                Expr::add(Expr::attr(v(0), "female"), Expr::attr(v(0), "male")),
                Expr::attr(v(0), "total"),
            )],
        )
        .unwrap();
        let asg = vec![village];
        assert!(!dependency_holds(&rule, &g, &asg));
        assert!(is_violation(&rule, &g, &asg));
    }

    #[test]
    fn string_comparison_literals() {
        let (g, _, person) = graph();
        let asg = vec![person];
        let eq = Literal::eq(Expr::attr(v(0), "category"), Expr::string("living people"));
        let ne = Literal::ne(Expr::attr(v(0), "category"), Expr::string("living people"));
        assert!(literal_holds(&eq, &g, &asg));
        assert!(!literal_holds(&ne, &g, &asg));
        // String vs number comparison is unsatisfiable rather than an error.
        let cross = Literal::eq(Expr::attr(v(0), "category"), Expr::constant(0));
        assert!(!literal_holds(&cross, &g, &asg));
    }

    #[test]
    fn booleans_read_as_zero_one() {
        let (g, _, person) = graph();
        let asg = vec![person];
        let lit = Literal::eq(Expr::attr(v(0), "verified"), Expr::constant(1));
        assert!(literal_holds(&lit, &g, &asg));
    }

    #[test]
    fn implication_semantics() {
        // NGD1: birthYear < 1800 → category ≠ "living people".
        let (g, _, person) = graph();
        let mut q = Pattern::new();
        q.add_node("x", "person");
        let rule = Ngd::new(
            "ngd1",
            q,
            vec![Literal::lt(
                Expr::attr(v(0), "birthYear"),
                Expr::constant(1800),
            )],
            vec![Literal::ne(
                Expr::attr(v(0), "category"),
                Expr::string("living people"),
            )],
        )
        .unwrap();
        let asg = vec![person];
        // Premise holds (1713 < 1800) but consequence fails: a violation.
        assert!(is_violation(&rule, &g, &asg));

        // If the premise does not hold the rule holds vacuously.
        let mut g2 = g.clone();
        g2.set_attr(person, ngd_graph::intern("birthYear"), Value::Int(1990));
        assert!(dependency_holds(&rule, &g2, &asg));
        assert!(!is_violation(&rule, &g2, &asg));
    }

    #[test]
    fn partial_evaluation_reports_unbound_variable() {
        let (g, village, _) = graph();
        let lit = Literal::eq(
            Expr::add(Expr::attr(v(0), "female"), Expr::attr(v(1), "male")),
            Expr::constant(0),
        );
        // Only variable 0 bound: undecided on variable 1.
        let partial: Vec<Option<NodeId>> = vec![Some(village), None];
        assert_eq!(eval_literal_partial(&lit, &g, &partial), Err(v(1)));
        // Both bound: decided.
        let full: Vec<Option<NodeId>> = vec![Some(village), Some(village)];
        assert_eq!(eval_literal_partial(&lit, &g, &full), Ok(false));
    }

    #[test]
    fn division_by_zero_is_unsatisfied_not_a_panic() {
        let (g, village, _) = graph();
        let asg = vec![village];
        let lit = Literal::eq(
            Expr::Div(
                Box::new(Expr::attr(v(0), "female")),
                Box::new(Expr::constant(0)),
            ),
            Expr::constant(1),
        );
        assert!(!literal_holds(&lit, &g, &asg));
    }

    #[test]
    fn exact_division_comparison() {
        let (g, village, _) = graph();
        let asg = vec![village];
        // total ÷ 5 > 314 must hold exactly (314.4 > 314).
        let lit = Literal::gt(
            Expr::div_const(Expr::attr(v(0), "total"), 5),
            Expr::constant(314),
        );
        assert!(literal_holds(&lit, &g, &asg));
    }

    #[test]
    fn closure_lookup_implements_varlookup() {
        let (g, village, _) = graph();
        let lit = Literal::gt(Expr::attr(v(0), "female"), Expr::constant(0));
        let lookup = |var: Var| if var == v(0) { Some(village) } else { None };
        assert_eq!(eval_literal_partial(&lit, &g, &lookup), Ok(true));
    }
}
