//! Shared helpers for the integration tests: a straight-line reference
//! interpreter that evaluates a `dmac-lang` program directly on local
//! blocked matrices, bypassing the planner and cluster entirely (every
//! engine under test must agree with it), and the all-pinned reference
//! program the fusion and liveness tests compare the planner against;
//! the blob-file listing the durable-store tests compare before and
//! after a call; and the temp-dir guard every test with a data dir makes
//! it under.

// Each test crate that includes this module uses a subset of it.
#![allow(dead_code)]

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use dmac::lang::{
    BinOp, Expr, MatrixId, MatrixOrigin, OpKind, Program, ReduceOp, ScalarId, UnaryOp,
};
use dmac::matrix::BlockedMatrix;

/// An empty directory under the system temp dir, named for this process
/// and `tag`, removed with all it holds when the guard drops: when the
/// test that made it ends, passed or failed. Borrow it (`&dir`) to hand
/// it to a store; moved into one, it would be removed when that call
/// returns.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> TempDir {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("dmac-it-{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl std::ops::Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TempDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `(inode, mtime ns, length)` of every blob file of a data directory, by
/// file name. A blob written again — even with the same bytes — is a new
/// temp file renamed into place, so its inode changes.
pub fn blob_files(data_dir: &Path) -> BTreeMap<String, (u64, i64, u64)> {
    use std::os::unix::fs::MetadataExt;
    std::fs::read_dir(data_dir.join("blocks"))
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let md = e.metadata().unwrap();
            let mtime = md.mtime() * 1_000_000_000 + md.mtime_nsec();
            let name = e.file_name().to_string_lossy().into_owned();
            (name, (md.ino(), mtime, md.len()))
        })
        .collect()
}

/// `program` with every operator result also marked as an output. The
/// planner never absorbs a program output into a fused group and never
/// frees one before the run ends, so the production planner's plan for
/// this program is the *unfused, retain-to-end* reference: the same
/// operators and communication, every intermediate materialised and kept.
pub fn pin_all_intermediates(program: &Program) -> Program {
    let mut pinned = program.clone();
    for decl in program.matrices() {
        if matches!(decl.origin, MatrixOrigin::Op(_)) {
            pinned.output(Expr::new(decl.id));
        }
    }
    pinned
}

/// Evaluate `program` locally. `bindings` supplies loads by name;
/// `randoms` supplies random matrices by id (use
/// [`dmac::core::engine::random_cell`] to match a session's generator).
pub fn eval_reference(
    program: &Program,
    bindings: &HashMap<String, BlockedMatrix>,
    randoms: &HashMap<MatrixId, BlockedMatrix>,
) -> HashMap<MatrixId, BlockedMatrix> {
    let mut values: HashMap<MatrixId, BlockedMatrix> = HashMap::new();
    let mut scalars: HashMap<ScalarId, f64> = HashMap::new();
    for decl in program.matrices() {
        match decl.origin {
            MatrixOrigin::Load => {
                let m = bindings
                    .get(&decl.name)
                    .unwrap_or_else(|| panic!("missing binding {}", decl.name));
                values.insert(decl.id, m.clone());
            }
            MatrixOrigin::Random => {
                let m = randoms
                    .get(&decl.id)
                    .unwrap_or_else(|| panic!("missing random {}", decl.id));
                values.insert(decl.id, m.clone());
            }
            MatrixOrigin::Op(_) => {}
        }
    }
    let fetch =
        |values: &HashMap<MatrixId, BlockedMatrix>, r: &dmac::lang::MatrixRef| -> BlockedMatrix {
            let m = values.get(&r.id).expect("operand defined").clone();
            if r.transposed {
                m.transpose()
            } else {
                m
            }
        };
    for op in program.ops() {
        match &op.kind {
            OpKind::Binary { op: bin, lhs, rhs } => {
                let a = fetch(&values, lhs);
                let b = fetch(&values, rhs);
                let out = match bin {
                    BinOp::MatMul => a.matmul_reference(&b),
                    BinOp::Add => a.add(&b),
                    BinOp::Sub => a.sub(&b),
                    BinOp::CellMul => a.cell_mul(&b),
                    BinOp::CellDiv => a.cell_div(&b),
                }
                .expect("reference binary op");
                values.insert(op.out_matrix.unwrap(), out);
            }
            OpKind::Unary { op: un, input } => {
                let a = fetch(&values, input);
                let out = match un {
                    UnaryOp::Scale(s) => a.scale(s.eval(&|id| scalars[&id])),
                    UnaryOp::AddScalar(s) => a.add_scalar(s.eval(&|id| scalars[&id])),
                };
                values.insert(op.out_matrix.unwrap(), out);
            }
            OpKind::Reduce { op: red, input } => {
                let a = fetch(&values, input);
                let v = match red {
                    ReduceOp::Sum | ReduceOp::Value => a.sum(),
                    ReduceOp::Norm2 => a.norm2(),
                };
                scalars.insert(op.out_scalar.unwrap(), v);
            }
        }
    }
    values
}

/// Assert two matrices agree within a tolerance, with a useful message.
pub fn assert_matrix_eq(got: &BlockedMatrix, expect: &BlockedMatrix, tol: f64, what: &str) {
    assert_eq!(got.rows(), expect.rows(), "{what}: row count");
    assert_eq!(got.cols(), expect.cols(), "{what}: col count");
    if let Some(i) =
        dmac::matrix::approx_eq_slice(got.to_dense().data(), expect.to_dense().data(), tol)
    {
        panic!(
            "{what}: mismatch at flat index {i}: got {} expected {}",
            got.to_dense().data()[i],
            expect.to_dense().data()[i]
        );
    }
}
