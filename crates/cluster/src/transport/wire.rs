//! The canonical checksum both ends of the real transport use to prove
//! shard equality, and the FNV-1a hasher under it (which the `DMB1`
//! trailer and the disk tier's payload names use too). What travels, and
//! how it is spelled, is [`crate::transport::proto`]'s.
//!
//! The shard checksum is FNV-1a-64 over a canonical binary encoding:
//! tiles sorted by `(bi, bj)`, each contributing its coordinates and a
//! tagged body (`0` dense → LE value bits; `1` sparse → col_ptr u32s,
//! row_index u32s, value bits). The coordinator computes it from the
//! simulator oracle's shard, the worker from its store, and any
//! difference — value bits, representation, or tile set — changes the
//! sum.

use dmac_matrix::Block;

/// FNV-1a 64-bit streaming hasher (dependency-free, stable across
/// platforms and runs — unlike `DefaultHasher`).
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Fnv64 {
    /// Standard FNV-1a offset basis.
    pub fn new() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    /// Absorb bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Absorb a `u32` (little-endian).
    pub fn update_u32(&mut self, v: u32) {
        self.update(&v.to_le_bytes());
    }

    /// Current digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// Absorb one tile's canonical binary encoding into a hasher: tag byte,
/// dims, then the representation-specific body.
pub fn hash_tile(h: &mut Fnv64, tile: &Block) {
    match tile {
        Block::Dense(d) => {
            h.update(&[0u8]);
            h.update_u32(d.rows() as u32);
            h.update_u32(d.cols() as u32);
            for v in d.data() {
                h.update(&v.to_bits().to_le_bytes());
            }
        }
        Block::Sparse(s) => {
            h.update(&[1u8]);
            h.update_u32(s.rows() as u32);
            h.update_u32(s.cols() as u32);
            for p in s.col_ptrs() {
                h.update_u32(p);
            }
            for &i in s.row_indices() {
                h.update_u32(i);
            }
            for v in s.values() {
                h.update(&v.to_bits().to_le_bytes());
            }
        }
    }
}

/// Checksum one logical worker's shard: tiles sorted by `(bi, bj)`, each
/// contributing its coordinates and canonical body. An empty shard hashes
/// to the FNV offset basis — a legitimate value (non-owning workers hold
/// nothing).
pub fn shard_checksum<'t>(tiles: impl IntoIterator<Item = ((usize, usize), &'t Block)>) -> u64 {
    let mut sorted: Vec<((usize, usize), &Block)> = tiles.into_iter().collect();
    sorted.sort_by_key(|(k, _)| *k);
    let mut h = Fnv64::new();
    for ((bi, bj), tile) in sorted {
        h.update_u32(bi as u32);
        h.update_u32(bj as u32);
        hash_tile(&mut h, tile);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmac_matrix::{CscBlock, DenseBlock};

    #[test]
    fn checksum_is_order_insensitive_but_content_sensitive() {
        let t1 = Block::Dense(DenseBlock::from_vec(1, 1, vec![1.0]).unwrap());
        let t2 = Block::Dense(DenseBlock::from_vec(1, 1, vec![2.0]).unwrap());
        let a = shard_checksum([((0, 0), &t1), ((0, 1), &t2)]);
        let b = shard_checksum([((0, 1), &t2), ((0, 0), &t1)]);
        assert_eq!(a, b);
        let c = shard_checksum([((0, 0), &t2), ((0, 1), &t1)]);
        assert_ne!(a, c);
        // dense vs sparse representation of the same values differ
        let sp = Block::Sparse(CscBlock::from_dense(
            &DenseBlock::from_vec(1, 1, vec![1.0]).unwrap(),
        ));
        assert_ne!(
            shard_checksum([((0, 0), &t1)]),
            shard_checksum([((0, 0), &sp)])
        );
        assert_eq!(shard_checksum(std::iter::empty()), Fnv64::new().finish());
    }
}
