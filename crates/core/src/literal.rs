//! Literals `e₁ ⊗ e₂` with built-in comparison predicates.
//!
//! A literal compares two arithmetic expressions with one of
//! `=, ≠, <, ≤, >, ≥` (Section 3).  GFD-style literals (`x.A = c`,
//! `x.A = x.B`) are the special case where both expressions are plain terms
//! and the operator is `=`.

use crate::expr::{AttrRef, Expr};
use crate::pattern::Var;
use std::cmp::Ordering;
use std::fmt;

/// A built-in comparison predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `≠`
    Ne,
    /// `<`
    Lt,
    /// `≤`
    Le,
    /// `>`
    Gt,
    /// `≥`
    Ge,
}

impl CmpOp {
    /// Apply the predicate to an ordering of the two sides.
    pub fn holds(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }

    /// The complement predicate (`¬(a ⊗ b)` ⇔ `a ⊗ᶜ b`).
    pub fn complement(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// The predicate with its operands swapped (`a ⊗ b` ⇔ `b ⊗ˢ a`).
    pub fn swap(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// Is the predicate equality or inequality (the only predicates GFDs
    /// support is `=`; `≠` is part of the extension)?
    pub fn is_equality(self) -> bool {
        self == CmpOp::Eq
    }

    /// Parse from the textual representation used by the `.ngdl` rule language.
    /// ASCII digraphs and the Unicode comparison glyphs are accepted
    /// interchangeably; [`CmpOp`]'s `Display` prints the canonical ASCII
    /// spelling back:
    ///
    /// ```
    /// use ngd_core::CmpOp;
    ///
    /// assert_eq!(CmpOp::parse("=="), Some(CmpOp::Eq));
    /// assert_eq!(CmpOp::parse("<>"), Some(CmpOp::Ne));
    /// assert_eq!(CmpOp::parse("≥"), Some(CmpOp::Ge));
    /// assert_eq!(CmpOp::parse("⊗"), None);
    /// assert_eq!(CmpOp::Le.to_string(), "<=");
    /// ```
    pub fn parse(s: &str) -> Option<CmpOp> {
        match s {
            "=" | "==" => Some(CmpOp::Eq),
            "!=" | "<>" | "≠" => Some(CmpOp::Ne),
            "<" => Some(CmpOp::Lt),
            "<=" | "≤" => Some(CmpOp::Le),
            ">" => Some(CmpOp::Gt),
            ">=" | "≥" => Some(CmpOp::Ge),
            _ => None,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

ngd_json::impl_json_unit_enum!(CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge
});

/// A literal `lhs ⊗ rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct Literal {
    /// Left-hand expression.
    pub lhs: Expr,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right-hand expression.
    pub rhs: Expr,
}

ngd_json::impl_json_struct!(Literal { lhs, op, rhs });

impl Literal {
    /// Construct a literal.
    pub fn new(lhs: Expr, op: CmpOp, rhs: Expr) -> Self {
        Literal { lhs, op, rhs }
    }

    /// `lhs = rhs`.
    pub fn eq(lhs: Expr, rhs: Expr) -> Self {
        Literal::new(lhs, CmpOp::Eq, rhs)
    }

    /// `lhs ≠ rhs`.
    pub fn ne(lhs: Expr, rhs: Expr) -> Self {
        Literal::new(lhs, CmpOp::Ne, rhs)
    }

    /// `lhs < rhs`.
    pub fn lt(lhs: Expr, rhs: Expr) -> Self {
        Literal::new(lhs, CmpOp::Lt, rhs)
    }

    /// `lhs ≤ rhs`.
    pub fn le(lhs: Expr, rhs: Expr) -> Self {
        Literal::new(lhs, CmpOp::Le, rhs)
    }

    /// `lhs > rhs`.
    pub fn gt(lhs: Expr, rhs: Expr) -> Self {
        Literal::new(lhs, CmpOp::Gt, rhs)
    }

    /// `lhs ≥ rhs`.
    pub fn ge(lhs: Expr, rhs: Expr) -> Self {
        Literal::new(lhs, CmpOp::Ge, rhs)
    }

    /// The literal with the comparison negated (same attribute-existence
    /// requirements, complemented predicate).
    pub fn negated(&self) -> Literal {
        Literal {
            lhs: self.lhs.clone(),
            op: self.op.complement(),
            rhs: self.rhs.clone(),
        }
    }

    /// Are both sides linear arithmetic expressions?
    pub fn is_linear(&self) -> bool {
        self.lhs.is_linear() && self.rhs.is_linear()
    }

    /// The degree of the literal (maximum of the two sides).
    pub fn degree(&self) -> u32 {
        self.lhs.degree().max(self.rhs.degree())
    }

    /// All attribute references mentioned on either side.
    pub fn attr_refs(&self) -> Vec<AttrRef> {
        let mut refs = self.lhs.attr_refs();
        refs.extend(self.rhs.attr_refs());
        refs.sort();
        refs.dedup();
        refs
    }

    /// All pattern variables mentioned on either side.
    pub fn vars(&self) -> Vec<Var> {
        let mut vars: Vec<Var> = self.attr_refs().into_iter().map(|r| r.var).collect();
        vars.sort();
        vars.dedup();
        vars
    }

    /// Combined expression length of both sides (the paper's
    /// expression-length statistic).
    pub fn length(&self) -> usize {
        self.lhs.length() + self.rhs.length()
    }

    /// Is this a GFD-style literal: plain terms compared with `=`
    /// (`x.A = c` or `x.A = y.B`)?
    pub fn is_gfd_literal(&self) -> bool {
        fn is_term(e: &Expr) -> bool {
            matches!(e, Expr::Const(_) | Expr::Lit(_) | Expr::Attr(_))
        }
        self.op == CmpOp::Eq && is_term(&self.lhs) && is_term(&self.rhs)
    }

    /// Does the literal use any arithmetic operator (as opposed to bare
    /// terms)?  Used by Corollary 2-style analyses and rule statistics.
    pub fn uses_arithmetic(&self) -> bool {
        fn has_op(e: &Expr) -> bool {
            !matches!(e, Expr::Const(_) | Expr::Lit(_) | Expr::Attr(_))
        }
        has_op(&self.lhs) || has_op(&self.rhs)
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.lhs, self.op, self.rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering::*;

    #[test]
    fn predicates_hold_on_the_right_orderings() {
        assert!(CmpOp::Eq.holds(Equal) && !CmpOp::Eq.holds(Less));
        assert!(CmpOp::Ne.holds(Less) && !CmpOp::Ne.holds(Equal));
        assert!(CmpOp::Lt.holds(Less) && !CmpOp::Lt.holds(Equal));
        assert!(CmpOp::Le.holds(Less) && CmpOp::Le.holds(Equal) && !CmpOp::Le.holds(Greater));
        assert!(CmpOp::Gt.holds(Greater) && !CmpOp::Gt.holds(Equal));
        assert!(CmpOp::Ge.holds(Greater) && CmpOp::Ge.holds(Equal) && !CmpOp::Ge.holds(Less));
    }

    #[test]
    fn complement_is_involutive_and_correct() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(op.complement().complement(), op);
            for ord in [Less, Equal, Greater] {
                assert_eq!(op.holds(ord), !op.complement().holds(ord));
            }
        }
    }

    #[test]
    fn swap_mirrors_orderings() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            for ord in [Less, Equal, Greater] {
                assert_eq!(op.holds(ord), op.swap().holds(ord.reverse()));
            }
        }
    }

    #[test]
    fn parse_and_display_roundtrip() {
        for s in ["=", "!=", "<", "<=", ">", ">="] {
            let op = CmpOp::parse(s).unwrap();
            assert_eq!(CmpOp::parse(&op.to_string()), Some(op));
        }
        assert_eq!(CmpOp::parse("~"), None);
        assert_eq!(CmpOp::parse("=="), Some(CmpOp::Eq));
        assert_eq!(CmpOp::parse("≥"), Some(CmpOp::Ge));
    }

    #[test]
    fn literal_metadata() {
        let x = Var(0);
        let y = Var(1);
        // a×(x.f − y.f) > c : the Twitter rule shape.
        let lit = Literal::gt(
            Expr::scale(
                2,
                Expr::sub(Expr::attr(x, "follower"), Expr::attr(y, "follower")),
            ),
            Expr::constant(1000),
        );
        assert!(lit.is_linear());
        assert!(lit.uses_arithmetic());
        assert!(!lit.is_gfd_literal());
        assert_eq!(lit.vars(), vec![x, y]);
        assert_eq!(lit.attr_refs().len(), 2);
        assert!(lit.length() >= 5);
        assert_eq!(lit.degree(), 1);
    }

    #[test]
    fn gfd_literal_detection() {
        let x = Var(0);
        assert!(Literal::eq(Expr::attr(x, "A"), Expr::constant(7)).is_gfd_literal());
        assert!(Literal::eq(Expr::attr(x, "A"), Expr::attr(x, "B")).is_gfd_literal());
        assert!(!Literal::ne(Expr::attr(x, "A"), Expr::constant(7)).is_gfd_literal());
        assert!(!Literal::eq(
            Expr::add(Expr::attr(x, "A"), Expr::constant(1)),
            Expr::constant(7)
        )
        .is_gfd_literal());
    }

    #[test]
    fn negation_produces_complement() {
        let x = Var(0);
        let lit = Literal::le(Expr::attr(x, "A"), Expr::constant(3));
        let neg = lit.negated();
        assert_eq!(neg.op, CmpOp::Gt);
        assert_eq!(neg.lhs, lit.lhs);
    }

    #[test]
    fn nonlinear_literal_detected() {
        let x = Var(0);
        let lit = Literal::eq(
            Expr::Mul(Box::new(Expr::attr(x, "A")), Box::new(Expr::attr(x, "B"))),
            Expr::constant(11),
        );
        assert!(!lit.is_linear());
        assert_eq!(lit.degree(), 2);
    }

    #[test]
    fn serde_roundtrip() {
        let lit = Literal::ge(Expr::attr(Var(0), "val"), Expr::constant(0));
        let json = ngd_json::to_string(&lit);
        let back: Literal = ngd_json::from_str(&json).unwrap();
        assert_eq!(back, lit);
    }
}
