//! The canonical checksum both ends of the real transport use to prove
//! shard equality, and the digest under it (which the `DMB3` trailer, the
//! disk tier's blob names and its one frame around every file it writes
//! use too). What
//! travels, and how it is spelled, is [`crate::transport::proto`]'s.
//!
//! The shard checksum is a [`Digest`] over a canonical binary encoding:
//! tiles sorted by `(bi, bj)`, each contributing its coordinates and a
//! tagged body (`0` dense → LE value bits; `1` sparse → col_ptr u32s,
//! row_index u32s, value bits). The coordinator computes it from the
//! simulator oracle's shard, the worker from its store, and any
//! difference — value bits, representation, or tile set — changes the
//! sum.

use dmac_matrix::Block;

/// Odd multiplier of every lane step (2⁶⁴ ÷ φ, rounded to odd).
const K: u64 = 0x9E37_79B9_7F4A_7C15;

/// One lane step, a bijection in the lane and in the word (one changed
/// word changes its lane for good); the rotation brings the product's high
/// bits down, so two sign flips in one lane cannot cancel.
#[inline(always)]
fn step(lane: u64, word: u64) -> u64 {
    (lane ^ word).wrapping_mul(K).rotate_left(31)
}

/// One round: the next four words, one per lane (in the caller's locals).
#[inline(always)]
fn round(lanes: &mut [u64; 4], words: &[u8]) {
    for (lane, word) in lanes.iter_mut().zip(words.chunks_exact(8)) {
        *lane = step(*lane, u64::from_le_bytes(word.try_into().expect("8 bytes")));
    }
}

/// The one 64-bit digest of every integrity check: frame trailers, shard
/// seals, blob names, and the disk tier's frame around every blob,
/// manifest, `CURRENT` and plan file.
/// Four lanes take the stream's little-endian 8-byte words in turn, so a
/// word's multiply does not wait on the previous word's; the finish folds
/// the lanes and the length through a bijective mixer. Not cryptographic:
/// it guards against rot, torn writes and divergence, not an adversary.
#[derive(Debug, Clone)]
pub struct Digest {
    lanes: [u64; 4],
    /// Bytes absorbed; word `len / 8` goes to lane `len / 8 % 4`.
    len: u64,
    /// The current round's first `len % 32` bytes.
    buf: [u8; 32],
}

impl Digest {
    /// The digest of nothing yet; the lanes start distinct and non-zero.
    pub fn new() -> Digest {
        Digest {
            lanes: [1, 2, 3, 4].map(|i| K.wrapping_mul(i)),
            len: 0,
            buf: [0; 32],
        }
    }

    /// The digest of `bytes`, in one call.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut h = Digest::new();
        h.update(bytes);
        h.finish()
    }

    /// Absorb bytes: complete the buffered round, then whole rounds
    /// straight from `bytes`, and buffer the rest.
    pub fn update(&mut self, mut bytes: &[u8]) {
        let have = (self.len % 32) as usize;
        self.len += bytes.len() as u64;
        let mut lanes = self.lanes;
        if have > 0 {
            let take = (32 - have).min(bytes.len());
            self.buf[have..have + take].copy_from_slice(&bytes[..take]);
            bytes = &bytes[take..];
            if have + take < 32 {
                return;
            }
            round(&mut lanes, &self.buf);
        }
        let rounds = bytes.chunks_exact(32);
        let rest = rounds.remainder();
        rounds.for_each(|r| round(&mut lanes, r));
        self.lanes = lanes;
        self.buf[..rest.len()].copy_from_slice(rest);
    }

    /// Absorb values' little-endian bytes through a stack buffer.
    fn staged<T, const W: usize>(
        &mut self,
        vals: impl IntoIterator<Item = T>,
        le_bytes: impl Fn(T) -> [u8; W],
    ) {
        let mut buf = [0u8; 1024];
        let mut vals = vals.into_iter();
        loop {
            let mut n = 0;
            for (out, v) in buf.chunks_exact_mut(W).zip(&mut vals) {
                out.copy_from_slice(&le_bytes(v));
                n += W;
            }
            self.update(&buf[..n]);
            if n < buf.len() {
                return;
            }
        }
    }

    /// Absorb `u32`s, each as its little-endian bytes.
    pub fn update_u32s(&mut self, vals: impl IntoIterator<Item = u32>) {
        self.staged(vals, u32::to_le_bytes);
    }

    /// Absorb `f64`s as their little-endian bit patterns.
    pub fn update_f64s(&mut self, vals: &[f64]) {
        self.staged(vals, |v| v.to_bits().to_le_bytes());
    }

    /// Current digest: the buffered words into their lanes, the last one
    /// zero-padded, the lanes folded with the length, then MurmurHash3's
    /// bijective `fmix64`.
    pub fn finish(&self) -> u64 {
        let mut lanes = self.lanes;
        let tail = &self.buf[..(self.len % 32) as usize];
        for (lane, word) in lanes.iter_mut().zip(tail.chunks(8)) {
            let mut padded = [0u8; 8];
            padded[..word.len()].copy_from_slice(word);
            *lane = step(*lane, u64::from_le_bytes(padded));
        }
        let lanes = lanes.iter().zip([1, 7, 12, 18]);
        let mut h = lanes.fold(self.len, |h, (lane, r)| h.wrapping_add(lane.rotate_left(r)));
        h = (h ^ h >> 33).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h = (h ^ h >> 33).wrapping_mul(0xC4CE_B9FE_1A85_EC53);
        h ^ h >> 33
    }
}

impl Default for Digest {
    fn default() -> Self {
        Digest::new()
    }
}

/// Absorb one tile's canonical binary encoding into a hasher: tag byte,
/// dims, then the representation-specific body.
pub fn hash_tile(h: &mut Digest, tile: &Block) {
    match tile {
        Block::Dense(d) => {
            h.update(&[0u8]);
            h.update(&(d.rows() as u32).to_le_bytes());
            h.update(&(d.cols() as u32).to_le_bytes());
            h.update_f64s(d.data());
        }
        Block::Sparse(s) => {
            h.update(&[1u8]);
            h.update(&(s.rows() as u32).to_le_bytes());
            h.update(&(s.cols() as u32).to_le_bytes());
            h.update_u32s(s.col_ptrs());
            h.update_u32s(s.row_indices().iter().copied());
            h.update_f64s(s.values());
        }
    }
}

/// Checksum one logical worker's shard: tiles sorted by `(bi, bj)`, each
/// contributing its coordinates and canonical body. An empty shard hashes
/// to `Digest::new().finish()` — a legitimate value (non-owning workers
/// hold nothing).
pub fn shard_checksum<'t>(tiles: impl IntoIterator<Item = ((usize, usize), &'t Block)>) -> u64 {
    let mut sorted: Vec<((usize, usize), &Block)> = tiles.into_iter().collect();
    sorted.sort_by_key(|(k, _)| *k);
    let mut h = Digest::new();
    for ((bi, bj), tile) in sorted {
        h.update(&(bi as u32).to_le_bytes());
        h.update(&(bj as u32).to_le_bytes());
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
        assert_eq!(shard_checksum(std::iter::empty()), Digest::new().finish());
    }

    fn message(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 131 + 7) as u8).collect()
    }

    /// Pinned answers: the digest is part of every on-disk and on-wire
    /// format, so it may not drift with the platform or a refactor. The
    /// lengths straddle the tail word and one four-lane round.
    #[test]
    fn digest_has_known_answers() {
        let got: Vec<u64> = [0, 1, 31, 32, 33, 1000]
            .iter()
            .map(|&n| Digest::of(&message(n)))
            .collect();
        assert_eq!(
            got,
            [
                0xBE38_F461_DD72_3316,
                0xB718_E3CA_02F5_B10B,
                0xFCDA_E046_1F9D_8532,
                0x9B11_E797_9CE1_E2F3,
                0x0CD9_A97B_7FF4_4963,
                0xC9A9_590D_86E2_AF81
            ]
        );
    }

    /// However the stream is cut into `update` calls, the digest is the
    /// one-call digest.
    #[test]
    fn digest_ignores_how_the_input_is_split() {
        let mut rng = dmac_matrix::SplitMix64::new(0xD16E_5701);
        for n in 0..300 {
            let msg = message(n);
            let whole = Digest::of(&msg);
            for _ in 0..8 {
                let mut h = Digest::new();
                let mut at = 0;
                while at < n {
                    let take = 1 + (rng.next_u64() as usize) % (n - at).min(40);
                    h.update(&msg[at..at + take]);
                    at += take;
                }
                assert_eq!(h.finish(), whole, "{n} bytes");
            }
        }
    }

    /// Every single-bit flip is seen — certainly, not probably: the flip
    /// changes one word, and each lane step is a bijection — and so is
    /// a trailing zero byte.
    #[test]
    fn digest_sees_every_bit_flip_and_a_trailing_zero() {
        for n in 0..=128 {
            let mut msg = message(n);
            let clean = Digest::of(&msg);
            for bit in 0..8 * n {
                msg[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(Digest::of(&msg), clean, "{n} bytes, bit {bit}");
                msg[bit / 8] ^= 1 << (bit % 8);
            }
            msg.push(0);
            assert_ne!(Digest::of(&msg), clean, "{n} bytes + a zero");
        }
        // Two top-bit flips in one lane (words 0 and 4) do not cancel.
        let mut msg = message(64);
        let clean = Digest::of(&msg);
        msg[7] ^= 0x80;
        msg[39] ^= 0x80;
        assert_ne!(Digest::of(&msg), clean);
    }

    /// The bulk paths are the byte path: `update_f64s` at every offset
    /// into the current word, `update_u32s` per value.
    #[test]
    fn bulk_updates_equal_the_byte_path() {
        let vals: Vec<f64> = (0..37).map(|i| (i as f64 - 11.5) * 0.37).collect();
        let bytes: Vec<u8> = vals
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect();
        for lead in 0..12 {
            for n in [0, 1, 3, 4, 5, 37] {
                let mut a = Digest::new();
                a.update(&message(lead));
                let mut b = a.clone();
                a.update_f64s(&vals[..n]);
                b.update(&bytes[..8 * n]);
                b.update(&[9]);
                a.update(&[9]);
                assert_eq!(a.finish(), b.finish(), "{lead} leading bytes, {n} values");
            }
            let words: Vec<u32> = (0..200u32).map(|i| i.wrapping_mul(2_654_435_761)).collect();
            let mut a = Digest::new();
            a.update(&message(lead));
            let mut b = a.clone();
            a.update_u32s(words.iter().copied());
            for &w in &words {
                b.update(&w.to_le_bytes());
            }
            assert_eq!(a.finish(), b.finish(), "{lead} leading bytes, u32s");
        }
    }

    /// A seal tells a tile from its negation: every value's sign bit
    /// flips, an even number per lane.
    #[test]
    fn checksum_tells_a_tile_from_its_negation() {
        let vals: Vec<f64> = (0..64).map(|i| i as f64 + 1.0).collect();
        let neg: Vec<f64> = vals.iter().map(|v| -v).collect();
        let t = Block::Dense(DenseBlock::from_vec(8, 8, vals).unwrap());
        let n = Block::Dense(DenseBlock::from_vec(8, 8, neg).unwrap());
        assert_ne!(
            shard_checksum([((0, 0), &t)]),
            shard_checksum([((0, 0), &n)])
        );
    }
}
