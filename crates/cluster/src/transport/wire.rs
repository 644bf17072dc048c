//! JSON control-message helpers, plus the canonical checksum both ends
//! use to prove shard equality.
//!
//! Commands and replies travel as JSON objects inside the
//! length-prefixed frames of [`crate::transport::frame`]; tile payload
//! never does — it rides in binary `DMB1` bodies
//! ([`crate::transport::binfmt`]), like a cell-wise program's constants.
//! The few `f64`/`u64` scalars a control message carries (reduce partials,
//! seal checksums) are shipped as fixed-width hex renderings of their bit
//! patterns, not as decimal numbers: the conformance contract is *bit*
//! equality, and JSON numbers only carry 53 bits exactly.
//!
//! The shard checksum is FNV-1a-64 over a canonical binary encoding:
//! tiles sorted by `(bi, bj)`, each contributing its coordinates and a
//! tagged body (`0` dense → LE value bits; `1` sparse → col_ptr u32s,
//! row_index u32s, value bits). The coordinator computes it from the
//! simulator oracle's shard, the worker from its store, and any
//! difference — value bits, representation, or tile set — changes the
//! sum.

use dmac_matrix::Block;

use crate::json::{JsonArr, JsonObj};
use crate::jsonin::Json;

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

/// Render one `f64` as its 16-hex-char bit pattern.
pub fn hex_f64(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Parse a single 16-hex-char f64 bit pattern.
pub fn parse_hex_f64(s: &str) -> Option<f64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

/// Render a `u64` as 16 hex chars (checksums travel this way — JSON
/// numbers only carry 53 bits exactly).
pub fn hex_u64(v: u64) -> String {
    format!("{v:016x}")
}

/// Parse a 16-hex-char `u64`.
pub fn parse_hex_u64(s: &str) -> Option<u64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// Required `u64` member of a protocol object.
pub fn field_u64(j: &Json, key: &str) -> Result<u64, String> {
    j.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("frame missing integer '{key}'"))
}

/// Required string member of a protocol object.
pub fn field_str<'j>(j: &'j Json, key: &str) -> Result<&'j str, String> {
    j.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("frame missing string '{key}'"))
}

/// Required array member of a protocol object.
pub fn field_arr<'j>(j: &'j Json, key: &str) -> Result<&'j [Json], String> {
    j.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("frame missing array '{key}'"))
}

/// Required `usize` list member (logical worker ids, k indices …).
pub fn field_usize_arr(j: &Json, key: &str) -> Result<Vec<usize>, String> {
    let arr = field_arr(j, key)?;
    let mut out = Vec::with_capacity(arr.len());
    for v in arr {
        out.push(
            v.as_u64()
                .map(|n| n as usize)
                .ok_or_else(|| format!("frame array '{key}' holds a non-integer"))?,
        );
    }
    Ok(out)
}

/// Required `usize` member of a protocol object.
pub fn field_usize(j: &Json, key: &str) -> Result<usize, String> {
    j.get(key)
        .and_then(Json::as_u64)
        .map(|v| v as usize)
        .ok_or_else(|| format!("frame missing integer '{key}'"))
}

/// Encode the cell-wise program of a `fused` command (every aligned
/// stage's): scalar constants go to a slot vector (a raw little-endian f64
/// body section) and ops reference them by index (`{"o":"scale","ci":0}`).
pub fn encode_prog_indexed(prog: &[dmac_matrix::FusedOp]) -> (String, Vec<f64>) {
    use dmac_matrix::FusedOp;
    let mut consts = Vec::new();
    let slot = |c: f64, consts: &mut Vec<f64>| -> u64 {
        consts.push(c);
        (consts.len() - 1) as u64
    };
    let mut arr = JsonArr::new();
    for op in prog {
        let obj = match op {
            FusedOp::Leaf(i) => JsonObj::new().str("o", "leaf").u64("i", *i as u64),
            FusedOp::Add => JsonObj::new().str("o", "add"),
            FusedOp::Sub => JsonObj::new().str("o", "sub"),
            FusedOp::CellMul => JsonObj::new().str("o", "cmul"),
            FusedOp::CellDiv => JsonObj::new().str("o", "cdiv"),
            FusedOp::Scale(c) => JsonObj::new()
                .str("o", "scale")
                .u64("ci", slot(*c, &mut consts)),
            FusedOp::AddScalar(c) => JsonObj::new()
                .str("o", "adds")
                .u64("ci", slot(*c, &mut consts)),
        };
        arr = arr.raw(&obj.build());
    }
    (arr.build(), consts)
}

/// Decode a program encoded by [`encode_prog_indexed`], resolving
/// constant slots against the message body's f64 section.
pub fn decode_prog_indexed(
    arr: &[Json],
    consts: &[f64],
) -> Result<Vec<dmac_matrix::FusedOp>, String> {
    use dmac_matrix::FusedOp;
    let mut out = Vec::with_capacity(arr.len());
    for j in arr {
        let name = field_str(j, "o")?;
        let constant = || -> Result<f64, String> {
            let ci = field_usize(j, "ci")?;
            consts
                .get(ci)
                .copied()
                .ok_or_else(|| format!("constant slot {ci} out of range"))
        };
        out.push(match name {
            "leaf" => FusedOp::Leaf(field_usize(j, "i")?),
            "add" => FusedOp::Add,
            "sub" => FusedOp::Sub,
            "cmul" => FusedOp::CellMul,
            "cdiv" => FusedOp::CellDiv,
            "scale" => FusedOp::Scale(constant()?),
            "adds" => FusedOp::AddScalar(constant()?),
            other => return Err(format!("unknown fused op '{other}'")),
        });
    }
    Ok(out)
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

    #[test]
    fn hex_helpers_round_trip() {
        let v = -0.1f64;
        assert_eq!(parse_hex_f64(&hex_f64(v)).unwrap().to_bits(), v.to_bits());
        assert_eq!(parse_hex_u64(&hex_u64(u64::MAX)).unwrap(), u64::MAX);
        assert!(parse_hex_u64("xyz").is_none());
    }

    #[test]
    fn indexed_prog_round_trips_constants_bit_exactly() {
        use dmac_matrix::FusedOp;
        let prog = vec![
            FusedOp::Leaf(0),
            FusedOp::Scale(-0.0),
            FusedOp::Leaf(1),
            FusedOp::AddScalar(f64::from_bits(0x7ff8_0000_0000_0001)),
            FusedOp::Add,
        ];
        let (arr_json, consts) = encode_prog_indexed(&prog);
        assert_eq!(consts.len(), 2);
        let parsed = Json::parse(&arr_json).unwrap();
        let back = decode_prog_indexed(parsed.as_arr().unwrap(), &consts).unwrap();
        for (a, b) in prog.iter().zip(&back) {
            match (a, b) {
                (FusedOp::Scale(x), FusedOp::Scale(y))
                | (FusedOp::AddScalar(x), FusedOp::AddScalar(y)) => {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
                _ => assert_eq!(a, b),
            }
        }
        // A slot index past the constants section is a typed error.
        assert!(decode_prog_indexed(parsed.as_arr().unwrap(), &consts[..1]).is_err());
    }
}
