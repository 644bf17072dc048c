//! Candidate execution strategies per operator (paper §4.1, Figure 2).
//!
//! Every operator has a set of alternative execution strategies, each
//! specifying the partition schemes it *requires* for its inputs and the
//! scheme(s) it *produces*. Matrix multiplication has the three strategies
//! of Figure 2:
//!
//! ```text
//! RMM1:  A(b) × B(c) → AB(c)      (no communication during execution)
//! RMM2:  A(r) × B(b) → AB(r)      (no communication during execution)
//! CPMM:  A(c) × B(r) → AB(r|c)    (output shuffle: N·|AB|)
//! ```
//!
//! Cell-wise operators need both operands under the *same* scheme (row,
//! column, or broadcast) and produce that scheme. Unary operators and
//! reductions are local under any placement and impose no requirement.

use dmac_cluster::PartitionScheme;
use dmac_lang::{BinOp, OpKind};

/// An execution strategy for one operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Replication-based multiplication, left operand broadcast.
    Rmm1,
    /// Replication-based multiplication, right operand broadcast.
    Rmm2,
    /// Cross-product multiplication (output shuffled).
    Cpmm,
    /// Scheme-aligned cell-wise operator at the given scheme.
    CellAligned(PartitionScheme),
    /// Unary operator executed locally under whatever placement the input
    /// has (scheme preserved).
    UnaryLocal,
    /// Reduction executed locally with a driver-side combine.
    ReduceLocal,
}

impl Strategy {
    /// Short display name.
    pub fn name(self) -> String {
        match self {
            Strategy::Rmm1 => "RMM1".into(),
            Strategy::Rmm2 => "RMM2".into(),
            Strategy::Cpmm => "CPMM".into(),
            Strategy::CellAligned(s) => format!("Cell({s})"),
            Strategy::UnaryLocal => "Unary".into(),
            Strategy::ReduceLocal => "Reduce".into(),
        }
    }

    /// Does this strategy's own execution shuffle data (beyond acquiring
    /// its inputs)? Only CPMM does — its partial results are aggregated
    /// across the cluster (§4.1: the output event of CPMM costs `N·|A|`).
    pub fn output_communicates(self) -> bool {
        self == Strategy::Cpmm
    }
}

/// What a strategy yields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutScheme {
    /// The output is materialised under this fixed scheme.
    Fixed(PartitionScheme),
    /// CPMM: the output can be materialised under Row *or* Column at the
    /// same cost — the planner's Re-assignment heuristic picks (Table 1's
    /// `W1ᵀW1(r|c)` notation in Figure 3).
    FlexibleRc,
    /// Reductions produce a driver-side scalar, not a matrix.
    Scalar,
    /// Unary operators keep their input's placement.
    SameAsInput,
}

/// A candidate: the strategy plus its input-scheme requirements and output.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The strategy.
    pub strategy: Strategy,
    /// Required scheme per input (`None` = no requirement, any placement).
    pub inputs: Vec<Option<PartitionScheme>>,
    /// What comes out.
    pub output: OutScheme,
}

/// Enumerate the candidate strategies for an operator: a multiplication
/// is RMM1, RMM2 or CPMM (Figure 2), in that order, which is the index a
/// forced choice names.
pub fn candidates(kind: &OpKind) -> Vec<Candidate> {
    use PartitionScheme::{Broadcast, Col, Row};
    match kind {
        OpKind::Binary {
            op: BinOp::MatMul, ..
        } => vec![
            Candidate {
                strategy: Strategy::Rmm1,
                inputs: vec![Some(Broadcast), Some(Col)],
                output: OutScheme::Fixed(Col),
            },
            Candidate {
                strategy: Strategy::Rmm2,
                inputs: vec![Some(Row), Some(Broadcast)],
                output: OutScheme::Fixed(Row),
            },
            Candidate {
                strategy: Strategy::Cpmm,
                inputs: vec![Some(Col), Some(Row)],
                output: OutScheme::FlexibleRc,
            },
        ],
        OpKind::Binary { .. } => [Row, Col, Broadcast]
            .into_iter()
            .map(|s| Candidate {
                strategy: Strategy::CellAligned(s),
                inputs: vec![Some(s), Some(s)],
                output: OutScheme::Fixed(s),
            })
            .collect(),
        OpKind::Unary { .. } => vec![Candidate {
            strategy: Strategy::UnaryLocal,
            inputs: vec![None],
            output: OutScheme::SameAsInput,
        }],
        OpKind::Reduce { .. } => vec![Candidate {
            strategy: Strategy::ReduceLocal,
            inputs: vec![None],
            output: OutScheme::Scalar,
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmac_lang::{Expr, ReduceOp, ScalarExpr, UnaryOp};

    fn matmul_kind() -> OpKind {
        OpKind::Binary {
            op: BinOp::MatMul,
            lhs: Expr::new(0).into(),
            rhs: Expr::new(1).into(),
        }
    }

    #[test]
    fn matmul_has_three_strategies_of_figure2() {
        let c = candidates(&matmul_kind());
        assert_eq!(c.len(), 3);
        assert_eq!(c[0].strategy, Strategy::Rmm1);
        assert_eq!(
            c[0].inputs,
            vec![Some(PartitionScheme::Broadcast), Some(PartitionScheme::Col)]
        );
        assert_eq!(c[0].output, OutScheme::Fixed(PartitionScheme::Col));
        assert_eq!(c[1].strategy, Strategy::Rmm2);
        assert_eq!(c[1].output, OutScheme::Fixed(PartitionScheme::Row));
        assert_eq!(c[2].strategy, Strategy::Cpmm);
        assert_eq!(c[2].output, OutScheme::FlexibleRc);
        assert!(c[2].strategy.output_communicates());
        assert!(!c[0].strategy.output_communicates());
    }

    #[test]
    fn cellwise_has_three_aligned_strategies() {
        let kind = OpKind::Binary {
            op: BinOp::CellMul,
            lhs: Expr::new(0).into(),
            rhs: Expr::new(1).into(),
        };
        let c = candidates(&kind);
        assert_eq!(c.len(), 3);
        for cand in &c {
            let Strategy::CellAligned(s) = cand.strategy else {
                panic!("wrong strategy");
            };
            assert_eq!(cand.inputs, vec![Some(s), Some(s)]);
            assert_eq!(cand.output, OutScheme::Fixed(s));
        }
    }

    #[test]
    fn unary_and_reduce_impose_no_requirement() {
        let u = OpKind::Unary {
            op: UnaryOp::Scale(ScalarExpr::c(2.0)),
            input: Expr::new(0).into(),
        };
        let c = candidates(&u);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].inputs, vec![None]);
        assert_eq!(c[0].output, OutScheme::SameAsInput);

        let r = OpKind::Reduce {
            op: ReduceOp::Sum,
            input: Expr::new(0).into(),
        };
        let c = candidates(&r);
        assert_eq!(c[0].output, OutScheme::Scalar);
    }

    #[test]
    fn names_render() {
        assert_eq!(Strategy::Rmm1.name(), "RMM1");
        assert_eq!(
            Strategy::CellAligned(PartitionScheme::Col).name(),
            "Cell(c)"
        );
    }
}
