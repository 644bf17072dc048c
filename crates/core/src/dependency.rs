//! Matrix-dependency classification (paper §3.2, Table 2).
//!
//! **Definition 1 (Matrix Dependency).** An input event `In(B, pj, opj)` is
//! dependent on an output event `Out(A, pi, opi)` if `B = A` or `B = Aᵀ`,
//! and `Precede(opi, opj)` holds.
//!
//! Of the 18 combinations of scheme pairs and transpose relationship, eight
//! distinct matrix processes suffice (Table 2). Four require communication
//! (Partition, Transpose-Partition, Broadcast, Transpose-Broadcast); four
//! are free (Reference, Transpose, Extract, Extract-Transpose).
//!
//! [`classify`] is the one place that decides which of them links two
//! copies of a matrix: the planner asks it which held copy satisfies an
//! input for free, and the liveness pass which copy rebuilds a dropped
//! one. Both hold copies of one matrix, so `B = A` or `B = Aᵀ` is a
//! matter of handedness; and both ask only about copies already made, so
//! `Precede` holds by construction — the `OutputSet` holds only outputs of
//! earlier operators.

use dmac_cluster::PartitionScheme;

/// The eight dependency types of Table 2, named after the matrix process
/// that satisfies them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DependencyType {
    /// `A = B`, `Oppose(pi, pj)` — repartition. **Communication.**
    Partition,
    /// `A = Bᵀ`, `EqualRC(pi, pj)` — transpose then repartition.
    /// **Communication.**
    TransposePartition,
    /// `A = B`, `Contain(pj, pi)` — broadcast. **Communication.**
    Broadcast,
    /// `A = Bᵀ`, `Contain(pj, pi)` — transpose then broadcast.
    /// **Communication.**
    TransposeBroadcast,
    /// `A = B`, `EqualRC(pi, pj) || EqualB(pi, pj)` — direct reuse. Free.
    Reference,
    /// `A = Bᵀ`, `Oppose(pi, pj) || EqualB(pi, pj)` — local transpose. Free.
    Transpose,
    /// `A = B`, `Contain(pi, pj)` — local filter of a broadcast copy. Free.
    Extract,
    /// `A = Bᵀ`, `Contain(pi, pj)` — local filter + local transpose. Free.
    ExtractTranspose,
}

impl DependencyType {
    /// Does satisfying this dependency move data between workers?
    /// (The paper's two categories: Communication Dependency vs
    /// Non-Communication Dependency.)
    pub fn communicates(self) -> bool {
        matches!(
            self,
            DependencyType::Partition
                | DependencyType::TransposePartition
                | DependencyType::Broadcast
                | DependencyType::TransposeBroadcast
        )
    }

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            DependencyType::Partition => "Partition",
            DependencyType::TransposePartition => "Transpose-Partition",
            DependencyType::Broadcast => "Broadcast",
            DependencyType::TransposeBroadcast => "Transpose-Broadcast",
            DependencyType::Reference => "Reference",
            DependencyType::Transpose => "Transpose",
            DependencyType::Extract => "Extract",
            DependencyType::ExtractTranspose => "Extract-Transpose",
        }
    }
}

/// Classify, per Table 2, the dependency that lets `input` — a copy of a
/// matrix some operator reads — be satisfied from `out`, a copy of the same
/// matrix an earlier operator wrote. Each is a placement — `(transposed,
/// scheme)`: whether the copy holds the transpose, and how it is
/// partitioned — so equal handedness is `A = B` and opposite `B = Aᵀ`. Returns `None` when
/// either side is Hash-placed: a Hash copy satisfies nothing without a
/// repartition (callers treat it as an implicit Partition/Broadcast
/// source), and Hash is never required.
///
/// ```
/// use dmac_cluster::PartitionScheme::{Col, Row};
/// use dmac_core::dependency::{classify, DependencyType};
///
/// // W is held row-partitioned; an operator reads Wᵀ column-partitioned:
/// // a free, local Transpose dependency.
/// let dep = classify((false, Row), (true, Col)).unwrap();
/// assert_eq!(dep, DependencyType::Transpose);
/// assert!(!dep.communicates());
/// ```
pub fn classify(
    out: (bool, PartitionScheme),
    input: (bool, PartitionScheme),
) -> Option<DependencyType> {
    let ((out_t, pi), (in_t, pj)) = (out, input);
    if pi == PartitionScheme::Hash || pj == PartitionScheme::Hash {
        return None;
    }
    let dep = if out_t == in_t {
        if pi.equal_rc(pj) || pi.equal_b(pj) {
            DependencyType::Reference
        } else if pi.oppose(pj) {
            DependencyType::Partition
        } else if pj.contain(pi) {
            DependencyType::Broadcast
        } else {
            debug_assert!(pi.contain(pj));
            DependencyType::Extract
        }
    } else if pi.oppose(pj) || pi.equal_b(pj) {
        DependencyType::Transpose
    } else if pi.equal_rc(pj) {
        DependencyType::TransposePartition
    } else if pj.contain(pi) {
        DependencyType::TransposeBroadcast
    } else {
        debug_assert!(pi.contain(pj));
        DependencyType::ExtractTranspose
    };
    Some(dep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use PartitionScheme::{Broadcast as B, Col as C, Hash as H, Row as R};

    /// Exhaustive check of all 18 combinations of Table 2: 9 scheme pairs
    /// × 2 transpose relationships, each from both handednesses of the
    /// held copy (`Out(A)` and `Out(Aᵀ)`).
    #[test]
    fn all_eighteen_combinations_match_table2() {
        use DependencyType::*;
        let cases: Vec<(PartitionScheme, PartitionScheme, bool, DependencyType)> = vec![
            // same matrix (A = B)
            (R, R, false, Reference),
            (C, C, false, Reference),
            (B, B, false, Reference),
            (R, C, false, Partition),
            (C, R, false, Partition),
            (R, B, false, Broadcast),
            (C, B, false, Broadcast),
            (B, R, false, Extract),
            (B, C, false, Extract),
            // transposed (B = Aᵀ)
            (R, C, true, Transpose),
            (C, R, true, Transpose),
            (B, B, true, Transpose),
            (R, R, true, TransposePartition),
            (C, C, true, TransposePartition),
            (R, B, true, TransposeBroadcast),
            (C, B, true, TransposeBroadcast),
            (B, R, true, ExtractTranspose),
            (B, C, true, ExtractTranspose),
        ];
        assert_eq!(cases.len(), 18);
        for (pi, pj, transposed, expect) in cases {
            for held in [false, true] {
                assert_eq!(
                    classify((held, pi), (held != transposed, pj)),
                    Some(expect),
                    "Out({}, {pi}) -> In({}, {pj})",
                    if held { "At" } else { "A" },
                    if held != transposed { "At" } else { "A" }
                );
            }
        }
    }

    #[test]
    fn communication_category_matches_table2() {
        use DependencyType::*;
        for (dep, comm) in [
            (Partition, true),
            (TransposePartition, true),
            (Broadcast, true),
            (TransposeBroadcast, true),
            (Reference, false),
            (Transpose, false),
            (Extract, false),
            (ExtractTranspose, false),
        ] {
            assert_eq!(dep.communicates(), comm, "{}", dep.name());
        }
    }

    /// A Hash copy satisfies nothing, and nothing satisfies a Hash
    /// requirement: every scheme on the other side, either handedness.
    #[test]
    fn hash_on_either_side_links_nothing() {
        for other in [R, C, B, H] {
            for (out_t, in_t) in [(false, false), (false, true), (true, false), (true, true)] {
                assert_eq!(
                    classify((out_t, H), (in_t, other)),
                    None,
                    "Out(h) -> In({other})"
                );
                assert_eq!(
                    classify((out_t, other), (in_t, H)),
                    None,
                    "Out({other}) -> In(h)"
                );
            }
        }
    }
}
