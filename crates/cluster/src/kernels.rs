//! The reduction order shared by the in-process simulator and the
//! `dmac-workerd` worker daemon.
//!
//! A physical backend proves its reduction partials bit-equal to the
//! simulator's, which holds because both sides run this fold: each logical
//! worker folds its tiles in ascending `(bi, bj)` order
//! ([`reduce_shard`]), the driver combines the per-worker partials in
//! ascending worker order ([`reduce_combine`]). The multiply fold both
//! sides share is [`dmac_matrix::exec::fold_tile`].

use dmac_matrix::Block;

use crate::cluster::ReduceKind;

/// Fold one logical worker's tiles, visited in ascending `(bi, bj)`
/// order, into a raw (un-finished) reduction partial.
pub fn reduce_shard<'t>(kind: ReduceKind, tiles: impl Iterator<Item = &'t Block>) -> f64 {
    let mut partial = 0.0;
    for t in tiles {
        partial += kind.fold_tile(t);
    }
    partial
}

/// Combine per-worker raw partials (indexed by logical worker,
/// ascending) into the raw total. A Broadcast-partitioned matrix is
/// fully replicated, so only worker 0's partial counts — the others are
/// identical copies.
pub fn reduce_combine(broadcast: bool, partials: &[f64]) -> f64 {
    if broadcast {
        partials.first().copied().unwrap_or(0.0)
    } else {
        let mut total = 0.0;
        for &p in partials {
            total += p;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_combine_broadcast_uses_first_partial() {
        assert_eq!(reduce_combine(true, &[2.5, 2.5, 2.5]), 2.5);
        assert_eq!(reduce_combine(false, &[1.0, 2.0, 3.0]), 6.0);
        assert_eq!(reduce_combine(true, &[]), 0.0);
    }
}
