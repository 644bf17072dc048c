//! Error types for local matrix computation.

use std::fmt;

/// Errors produced by local block/matrix kernels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MatrixError {
    /// Two operands had incompatible dimensions for the requested operation.
    DimensionMismatch {
        /// Operation name, e.g. `"multiply"`.
        op: &'static str,
        /// Dimensions of the left operand.
        left: (usize, usize),
        /// Dimensions of the right operand.
        right: (usize, usize),
    },
    /// An index was outside the matrix bounds.
    IndexOutOfBounds {
        /// The offending `(row, col)` index.
        index: (usize, usize),
        /// The matrix dimensions.
        dims: (usize, usize),
    },
    /// A block size of zero (or otherwise unusable) was requested.
    InvalidBlockSize(usize),
    /// A sparse block's internal arrays were inconsistent.
    MalformedSparse(String),
    /// A tile product needed the input tile pair at shared-dimension block
    /// `k` and one of the two was not where the caller's lookup said.
    MissingTile {
        /// The shared-dimension block index of the absent tile.
        k: usize,
    },
    /// Cell-wise division encountered a zero divisor and the caller asked
    /// for strict semantics.
    DivisionByZero {
        /// The `(row, col)` position of the zero divisor.
        index: (usize, usize),
    },
}

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MatrixError::DimensionMismatch { op, left, right } => write!(
                f,
                "dimension mismatch in {op}: left is {}x{}, right is {}x{}",
                left.0, left.1, right.0, right.1
            ),
            MatrixError::IndexOutOfBounds { index, dims } => write!(
                f,
                "index ({}, {}) out of bounds for {}x{} matrix",
                index.0, index.1, dims.0, dims.1
            ),
            MatrixError::InvalidBlockSize(m) => write!(f, "invalid block size {m}"),
            MatrixError::MalformedSparse(msg) => write!(f, "malformed sparse block: {msg}"),
            MatrixError::MissingTile { k } => write!(f, "missing input tile at k={k}"),
            MatrixError::DivisionByZero { index } => {
                write!(
                    f,
                    "cell-wise division by zero at ({}, {})",
                    index.0, index.1
                )
            }
        }
    }
}

impl std::error::Error for MatrixError {}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, MatrixError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_readable() {
        let e = MatrixError::DimensionMismatch {
            op: "multiply",
            left: (2, 3),
            right: (4, 5),
        };
        assert_eq!(
            e.to_string(),
            "dimension mismatch in multiply: left is 2x3, right is 4x5"
        );
        let e = MatrixError::IndexOutOfBounds {
            index: (9, 9),
            dims: (3, 3),
        };
        assert!(e.to_string().contains("out of bounds"));
        let e = MatrixError::InvalidBlockSize(0);
        assert_eq!(e.to_string(), "invalid block size 0");
        let e = MatrixError::DivisionByZero { index: (1, 2) };
        assert!(e.to_string().contains("(1, 2)"));
    }
}
