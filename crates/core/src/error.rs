//! Error type spanning planning and execution.

use std::fmt;

/// Errors from planning or executing a matrix program.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Program-construction/validation error.
    Lang(dmac_lang::LangError),
    /// Distributed-runtime error.
    Cluster(dmac_cluster::ClusterError),
    /// Local-kernel error.
    Matrix(dmac_matrix::MatrixError),
    /// Planner invariant violation.
    Planner(String),
    /// Engine invariant violation (plan/runtime mismatch).
    Engine(String),
    /// A load referred to a name the session has no binding for.
    Unbound(String),
    /// Two in-flight programs declared a write intent for the same store
    /// name; admitting both would make the result scheduling-dependent.
    StoreConflict(String),
    /// Requested value is not available (expression not part of the last
    /// run's outputs, or no run has happened).
    NoValue(String),
    /// Worker losses exhausted the configured recovery attempt budget.
    RecoveryExhausted {
        /// Host whose loss could not be recovered.
        worker: usize,
        /// The attempt budget that was exhausted.
        attempts: usize,
    },
    /// A prepared plan met an input under another placement than the one
    /// it was planned from ([`crate::Session::run_prepared`]): nothing
    /// ran; prepare again.
    StalePlan {
        /// The input that moved.
        input: String,
        /// The placement the plan assumed.
        planned: dmac_cluster::PartitionScheme,
        /// The placement it has now (`None`: no longer bound).
        found: Option<dmac_cluster::PartitionScheme>,
    },
    /// Disk-tier failure: I/O error, torn file, or checksum mismatch.
    Disk(String),
    /// The disk tier's I/O seam crashed the process model at its armed
    /// file-system call instead of making it (on-disk state is whatever
    /// the calls before it left behind, plus half of a stopped write).
    InjectedCrash {
        /// 0-based index of the call, counted from when the plan was armed.
        op: u64,
        /// What the call would have done.
        kind: crate::disk::IoKind,
        /// The file or directory it would have touched.
        path: std::path::PathBuf,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Lang(e) => write!(f, "program error: {e}"),
            CoreError::Cluster(e) => write!(f, "cluster error: {e}"),
            CoreError::Matrix(e) => write!(f, "kernel error: {e}"),
            CoreError::Planner(m) => write!(f, "planner error: {m}"),
            CoreError::Engine(m) => write!(f, "engine error: {m}"),
            CoreError::Unbound(n) => write!(f, "no binding for input matrix '{n}'"),
            CoreError::StoreConflict(n) => write!(
                f,
                "store conflict: another in-flight program is writing matrix '{n}'"
            ),
            CoreError::NoValue(m) => write!(f, "value unavailable: {m}"),
            CoreError::RecoveryExhausted { worker, attempts } => write!(
                f,
                "lost worker {worker}: recovery budget of {attempts} attempt(s) exhausted"
            ),
            CoreError::StalePlan {
                input,
                planned,
                found,
            } => write!(
                f,
                "prepared plan is stale: input '{input}' moved from {planned} to {}; re-prepare",
                found.map_or_else(|| "unbound".into(), |s| s.to_string())
            ),
            CoreError::Disk(m) => write!(f, "disk tier error: {m}"),
            CoreError::InjectedCrash { op, kind, path } => write!(
                f,
                "injected crash at disk operation {op} ({kind:?} {})",
                path.display()
            ),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Lang(e) => Some(e),
            CoreError::Cluster(e) => Some(e),
            CoreError::Matrix(e) => Some(e),
            _ => None,
        }
    }
}

impl From<dmac_lang::LangError> for CoreError {
    fn from(e: dmac_lang::LangError) -> Self {
        CoreError::Lang(e)
    }
}

impl From<dmac_cluster::ClusterError> for CoreError {
    fn from(e: dmac_cluster::ClusterError) -> Self {
        CoreError::Cluster(e)
    }
}

impl From<dmac_matrix::MatrixError> for CoreError {
    fn from(e: dmac_matrix::MatrixError) -> Self {
        CoreError::Matrix(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: CoreError = dmac_lang::LangError::NoOutputs.into();
        assert!(e.to_string().contains("no outputs"));
        let e: CoreError = dmac_matrix::MatrixError::InvalidBlockSize(0).into();
        assert!(std::error::Error::source(&e).is_some());
        assert!(CoreError::Unbound("V".into()).to_string().contains("'V'"));
    }
}
