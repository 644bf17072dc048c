//! [`Program`]: builder and container for a decomposed matrix program.

use crate::error::{LangError, Result};
use crate::expr::{
    BinOp, Expr, MatrixId, MatrixRef, OpKind, Operator, ReduceOp, ScalarExpr, ScalarId, UnaryOp,
};
use crate::infer::{infer_binary, infer_unary, MatrixStats};

/// Where a matrix value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatrixOrigin {
    /// Loaded from storage (or an already-materialised session matrix).
    Load,
    /// Generated randomly at run time (`RandomMatrix` in the paper's codes).
    Random,
    /// Produced by the operator at this index.
    Op(usize),
}

/// Declaration of one matrix value in a program.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixDecl {
    /// The value's id.
    pub id: MatrixId,
    /// Name: user-given for loads/randoms, synthesised for intermediates.
    pub name: String,
    /// Shape and worst-case sparsity.
    pub stats: MatrixStats,
    /// Provenance.
    pub origin: MatrixOrigin,
}

/// A straight-line matrix program: declarations, an operator sequence in
/// program order, and the set of output values.
#[derive(Debug, Clone, Default)]
pub struct Program {
    matrices: Vec<MatrixDecl>,
    ops: Vec<Operator>,
    scalar_count: u32,
    outputs: Vec<(MatrixRef, Option<String>)>,
    phase: usize,
}

impl Program {
    /// An empty program.
    pub fn new() -> Program {
        Program::default()
    }

    /// Declare a matrix loaded from storage / the session environment.
    /// `sparsity` is the pre-computed or user-specified density (§5.1).
    pub fn load(&mut self, name: &str, rows: usize, cols: usize, sparsity: f64) -> Expr {
        self.declare(name.to_string(), rows, cols, sparsity, MatrixOrigin::Load)
    }

    /// Declare a randomly initialised (dense) matrix.
    pub fn random(&mut self, name: &str, rows: usize, cols: usize) -> Expr {
        self.declare(name.to_string(), rows, cols, 1.0, MatrixOrigin::Random)
    }

    fn declare(
        &mut self,
        name: String,
        rows: usize,
        cols: usize,
        sparsity: f64,
        origin: MatrixOrigin,
    ) -> Expr {
        let id = self.matrices.len() as MatrixId;
        self.matrices.push(MatrixDecl {
            id,
            name,
            stats: MatrixStats::new(rows, cols, sparsity),
            origin,
        });
        Expr::new(id)
    }

    /// Transposed view of an expression (no operator is emitted).
    pub fn t(&self, e: Expr) -> Expr {
        e.t()
    }

    /// Set the phase tag (iteration number) attached to operators emitted
    /// from now on. Used for per-iteration reporting of unrolled loops.
    pub fn set_phase(&mut self, phase: usize) {
        self.phase = phase;
    }

    /// Current phase tag.
    pub fn phase(&self) -> usize {
        self.phase
    }

    /// Stats of the value an expression refers to (transpose-aware).
    pub fn stats_of(&self, e: Expr) -> Result<MatrixStats> {
        let decl = self
            .matrices
            .get(e.id as usize)
            .ok_or(LangError::UnknownMatrix(e.id))?;
        Ok(if e.transposed {
            decl.stats.transposed()
        } else {
            decl.stats
        })
    }

    /// Declaration of a matrix id.
    pub fn decl(&self, id: MatrixId) -> Result<&MatrixDecl> {
        self.matrices
            .get(id as usize)
            .ok_or(LangError::UnknownMatrix(id))
    }

    /// All declarations.
    pub fn matrices(&self) -> &[MatrixDecl] {
        &self.matrices
    }

    /// The operator sequence in program order.
    pub fn ops(&self) -> &[Operator] {
        &self.ops
    }

    /// Marked outputs: `(reference, optional store name)`.
    pub fn outputs(&self) -> &[(MatrixRef, Option<String>)] {
        &self.outputs
    }

    fn push_binary(&mut self, op: BinOp, a: Expr, b: Expr) -> Result<Expr> {
        let sa = self.stats_of(a)?;
        let sb = self.stats_of(b)?;
        let out_stats = infer_binary(op, sa, sb)?;
        let index = self.ops.len();
        let out = self.declare(
            format!("_t{index}"),
            out_stats.rows,
            out_stats.cols,
            out_stats.sparsity,
            MatrixOrigin::Op(index),
        );
        self.ops.push(Operator {
            index,
            kind: OpKind::Binary {
                op,
                lhs: a.into(),
                rhs: b.into(),
            },
            out_matrix: Some(out.id),
            out_scalar: None,
            phase: self.phase,
        });
        Ok(out)
    }

    /// `a %*% b`.
    pub fn matmul(&mut self, a: Expr, b: Expr) -> Result<Expr> {
        self.push_binary(BinOp::MatMul, a, b)
    }

    /// `a + b`.
    pub fn add(&mut self, a: Expr, b: Expr) -> Result<Expr> {
        self.push_binary(BinOp::Add, a, b)
    }

    /// `a - b`.
    pub fn sub(&mut self, a: Expr, b: Expr) -> Result<Expr> {
        self.push_binary(BinOp::Sub, a, b)
    }

    /// Cell-wise `a * b`.
    pub fn cell_mul(&mut self, a: Expr, b: Expr) -> Result<Expr> {
        self.push_binary(BinOp::CellMul, a, b)
    }

    /// Cell-wise `a / b`.
    pub fn cell_div(&mut self, a: Expr, b: Expr) -> Result<Expr> {
        self.push_binary(BinOp::CellDiv, a, b)
    }

    fn push_unary(&mut self, op: UnaryOp, a: Expr) -> Result<Expr> {
        for dep in op.scalar().deps() {
            if dep >= self.scalar_count {
                return Err(LangError::UnknownScalar(dep));
            }
        }
        let sa = self.stats_of(a)?;
        let densifies =
            matches!(&op, UnaryOp::AddScalar(s) if !matches!(s, ScalarExpr::Const(0.0)));
        let out_stats = infer_unary(densifies, sa);
        let index = self.ops.len();
        let out = self.declare(
            format!("_t{index}"),
            out_stats.rows,
            out_stats.cols,
            out_stats.sparsity,
            MatrixOrigin::Op(index),
        );
        self.ops.push(Operator {
            index,
            kind: OpKind::Unary {
                op,
                input: a.into(),
            },
            out_matrix: Some(out.id),
            out_scalar: None,
            phase: self.phase,
        });
        Ok(out)
    }

    /// Multiply every cell by a scalar expression.
    pub fn scale(&mut self, a: Expr, s: ScalarExpr) -> Result<Expr> {
        self.push_unary(UnaryOp::Scale(s), a)
    }

    /// Multiply every cell by a constant.
    pub fn scale_const(&mut self, a: Expr, c: f64) -> Result<Expr> {
        self.scale(a, ScalarExpr::Const(c))
    }

    /// Add a scalar expression to every cell.
    pub fn add_scalar(&mut self, a: Expr, s: ScalarExpr) -> Result<Expr> {
        self.push_unary(UnaryOp::AddScalar(s), a)
    }

    fn push_reduce(&mut self, op: ReduceOp, a: Expr) -> Result<ScalarExpr> {
        let stats = self.stats_of(a)?;
        if op == ReduceOp::Value && stats.shape() != (1, 1) {
            return Err(LangError::NotScalarShaped {
                shape: stats.shape(),
            });
        }
        let index = self.ops.len();
        let sid: ScalarId = self.scalar_count;
        self.scalar_count += 1;
        self.ops.push(Operator {
            index,
            kind: OpKind::Reduce {
                op,
                input: a.into(),
            },
            out_matrix: None,
            out_scalar: Some(sid),
            phase: self.phase,
        });
        Ok(ScalarExpr::Ref(sid))
    }

    /// Sum of all cells, as a scalar expression.
    pub fn sum(&mut self, a: Expr) -> Result<ScalarExpr> {
        self.push_reduce(ReduceOp::Sum, a)
    }

    /// Frobenius norm, as a scalar expression.
    pub fn norm2(&mut self, a: Expr) -> Result<ScalarExpr> {
        self.push_reduce(ReduceOp::Norm2, a)
    }

    /// The single cell of a 1×1 matrix, as a scalar expression.
    pub fn value(&mut self, a: Expr) -> Result<ScalarExpr> {
        self.push_reduce(ReduceOp::Value, a)
    }

    /// Mark an expression as a program output.
    pub fn output(&mut self, e: Expr) {
        self.outputs.push((e.into(), None));
    }

    /// Mark an output and ask the session to store it under `name` after
    /// the run (feeds the next program's `load(name, ...)`).
    pub fn store(&mut self, e: Expr, name: &str) {
        self.outputs.push((e.into(), Some(name.to_string())));
    }

    /// Number of scalars produced.
    pub fn scalar_count(&self) -> u32 {
        self.scalar_count
    }

    /// Validate the program: at least one output, all references in range.
    pub fn validate(&self) -> Result<()> {
        if self.outputs.is_empty() {
            return Err(LangError::NoOutputs);
        }
        for (r, _) in &self.outputs {
            self.decl(r.id)?;
        }
        for op in &self.ops {
            for input in op.kind.inputs() {
                self.decl(input.id)?;
            }
        }
        Ok(())
    }

    /// Decomposition-phase ordering (§4.2.3): a topological order of the
    /// operator sequence in which, among simultaneously-ready operators,
    /// multiplications come first ("we put the operators with
    /// multiplication ahead of the other operators because matrices will
    /// probably be broadcasted by multiplication"). With
    /// `hoist_matmuls == false` the original program order is kept
    /// (how SystemML-S plans).
    pub fn planner_order(&self, hoist_matmuls: bool) -> Vec<usize> {
        if !hoist_matmuls {
            return (0..self.ops.len()).collect();
        }
        let n = self.ops.len();
        // producer maps
        let mut matrix_producer = vec![usize::MAX; self.matrices.len()];
        let mut scalar_producer = vec![usize::MAX; self.scalar_count as usize];
        for (i, op) in self.ops.iter().enumerate() {
            if let Some(m) = op.out_matrix {
                matrix_producer[m as usize] = i;
            }
            if let Some(s) = op.out_scalar {
                scalar_producer[s as usize] = i;
            }
        }
        // in-degrees
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, op) in self.ops.iter().enumerate() {
            for input in op.kind.inputs() {
                let p = matrix_producer[input.id as usize];
                if p != usize::MAX {
                    preds[i].push(p);
                }
            }
            for s in op.kind.scalar_deps() {
                let p = scalar_producer[s as usize];
                if p != usize::MAX {
                    preds[i].push(p);
                }
            }
        }
        let mut indegree = vec![0usize; n];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, ps) in preds.iter().enumerate() {
            for &p in ps {
                succs[p].push(i);
                indegree[i] += 1;
            }
        }
        // Kahn with (is_not_matmul, index) priority: matmuls first, then
        // program order.
        let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<(bool, usize)>> =
            std::collections::BinaryHeap::new();
        for (i, &d) in indegree.iter().enumerate() {
            if d == 0 {
                ready.push(std::cmp::Reverse((!self.ops[i].kind.is_matmul(), i)));
            }
        }
        let mut order = Vec::with_capacity(n);
        while let Some(std::cmp::Reverse((_, i))) = ready.pop() {
            order.push(i);
            for &s in &succs[i] {
                indegree[s] -= 1;
                if indegree[s] == 0 {
                    ready.push(std::cmp::Reverse((!self.ops[s].kind.is_matmul(), s)));
                }
            }
        }
        debug_assert_eq!(order.len(), n, "operator graph must be acyclic");
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build the H-update of GNMF (Code 1, line 9):
    /// `H = H * (Wt %*% V) / (Wt %*% W %*% H)`.
    fn gnmf_h_update() -> (Program, Expr) {
        let mut p = Program::new();
        let v = p.load("V", 100, 80, 0.05);
        let w = p.random("W", 100, 10);
        let h = p.random("H", 10, 80);
        let wt_v = p.matmul(w.t(), v).unwrap();
        let wt_w = p.matmul(w.t(), w).unwrap();
        let wt_w_h = p.matmul(wt_w, h).unwrap();
        let num = p.cell_mul(h, wt_v).unwrap();
        let h_new = p.cell_div(num, wt_w_h).unwrap();
        p.store(h_new, "H");
        (p, h_new)
    }

    #[test]
    fn shapes_propagate_through_gnmf_update() {
        let (p, h_new) = gnmf_h_update();
        let stats = p.stats_of(h_new).unwrap();
        assert_eq!(stats.shape(), (10, 80));
        p.validate().unwrap();
        assert_eq!(p.ops().len(), 5);
    }

    #[test]
    fn transposed_stats() {
        let mut p = Program::new();
        let v = p.load("V", 100, 80, 0.05);
        let s = p.stats_of(v.t()).unwrap();
        assert_eq!(s.shape(), (80, 100));
    }

    #[test]
    fn shape_errors_surface() {
        let mut p = Program::new();
        let a = p.load("A", 3, 4, 1.0);
        let b = p.load("B", 3, 4, 1.0);
        assert!(p.matmul(a, b).is_err()); // 3x4 * 3x4
        assert!(p.add(a, b.t()).is_err()); // 3x4 + 4x3
        assert!(p.matmul(a, b.t()).is_ok());
    }

    #[test]
    fn value_requires_1x1() {
        let mut p = Program::new();
        let a = p.load("A", 1, 5, 1.0);
        assert!(p.value(a).is_err());
        let one = p.matmul(a, a.t()).unwrap(); // 1x1
        assert!(p.value(one).is_ok());
    }

    #[test]
    fn validate_requires_output() {
        let mut p = Program::new();
        let a = p.load("A", 2, 2, 1.0);
        let _ = p.scale_const(a, 2.0).unwrap();
        assert_eq!(p.validate(), Err(LangError::NoOutputs));
    }

    #[test]
    fn phases_tag_operators() {
        let mut p = Program::new();
        let a = p.load("A", 2, 2, 1.0);
        p.set_phase(0);
        let b = p.scale_const(a, 2.0).unwrap();
        p.set_phase(1);
        let c = p.scale_const(b, 2.0).unwrap();
        p.output(c);
        assert_eq!(p.ops()[0].phase, 0);
        assert_eq!(p.ops()[1].phase, 1);
    }

    #[test]
    fn planner_order_puts_ready_matmuls_first() {
        let mut p = Program::new();
        let a = p.load("A", 4, 4, 1.0);
        let b = p.load("B", 4, 4, 1.0);
        // op0: add (ready), op1: matmul (ready), op2: consumes both
        let s = p.add(a, b).unwrap();
        let m = p.matmul(a, b).unwrap();
        let f = p.cell_mul(s, m).unwrap();
        p.output(f);
        let order = p.planner_order(true);
        assert_eq!(order, vec![1, 0, 2], "matmul (op1) hoisted first");
        assert_eq!(p.planner_order(false), vec![0, 1, 2]);
    }

    #[test]
    fn planner_order_respects_scalar_dependencies() {
        let mut p = Program::new();
        let a = p.load("A", 4, 4, 1.0);
        let s = p.sum(a).unwrap(); // op0: reduce -> scalar
        let scaled = p.scale(a, s).unwrap(); // op1 depends on op0's scalar
        let m = p.matmul(scaled, a).unwrap(); // op2
        p.output(m);
        let order = p.planner_order(true);
        let pos = |i: usize| order.iter().position(|&x| x == i).unwrap();
        assert!(pos(0) < pos(1));
        assert!(pos(1) < pos(2));
    }

    #[test]
    fn stores_remember_names() {
        let (p, _) = gnmf_h_update();
        assert_eq!(p.outputs().len(), 1);
        assert_eq!(p.outputs()[0].1.as_deref(), Some("H"));
    }
}
