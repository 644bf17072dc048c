//! Property/fuzz tests for the shared wire layer: the length-prefixed
//! frame codec ([`dmac::cluster::transport::frame`]) — its one-shot
//! readers and the incremental `FrameReader` the coordinator reads worker
//! replies with — and the strict JSON
//! decoder ([`dmac::cluster::jsonin`]) that every protocol in the
//! workspace (serve clients, coordinator ↔ `dmac-workerd`) sits on.
//!
//! The contract under test: **no input — truncated, oversized, or pure
//! garbage — may panic or hang the decoder**. Every malformed input must
//! surface as a typed error (`io::ErrorKind` for frames, `JsonError` for
//! JSON), and every well-formed input must round-trip bit-exactly.
//! Cases are drawn from the in-tree [`SplitMix64`] generator with fixed
//! seeds, so failures replay deterministically — same idiom as
//! `tests/prop_kernels.rs`.

use std::io::{self, ErrorKind, Read};

use std::sync::Arc;

use dmac::cluster::cluster::ReduceKind;
use dmac::cluster::dist::GridMeta;
use dmac::cluster::jsonin::Json;
use dmac::cluster::transport::binfmt;
use dmac::cluster::transport::frame::{
    read_frame, write_frame, write_frame_bytes, FrameReader, MAX_FRAME,
};
use dmac::cluster::transport::proto::{
    Cmd, Combine, Desc, Edge, Group, Mul, Part, Peer, Place, Placed, Reply, Route, Shard,
};
use dmac::matrix::{Block, CscBlock, DenseBlock, SplitMix64};

/// A printable-ish random payload (valid UTF-8 by construction).
fn payload(rng: &mut SplitMix64, max_len: usize) -> String {
    let len = rng.below(max_len + 1);
    (0..len)
        .map(|_| (0x20 + rng.below(0x5f) as u8) as char)
        .collect()
}

/// Drain a byte buffer through `read_frame` until EOF or error. Returns
/// the decoded frames and the terminal outcome. Reading from a slice
/// cannot block, and every call consumes input or terminates, so this
/// provably cannot hang.
fn drain(bytes: &[u8]) -> (Vec<String>, Option<ErrorKind>) {
    let mut r = bytes;
    let mut frames = Vec::new();
    loop {
        match read_frame(&mut r) {
            Ok(Some(f)) => frames.push(f),
            Ok(None) => return (frames, None),
            Err(e) => return (frames, Some(e.kind())),
        }
    }
}

/// Well-formed frame streams decode back to the exact payload sequence.
#[test]
fn round_trip_random_frame_streams() {
    let mut rng = SplitMix64::new(0xF4A3_0001);
    for _ in 0..200 {
        let n = rng.below(8);
        let payloads: Vec<String> = (0..n).map(|_| payload(&mut rng, 300)).collect();
        let mut buf = Vec::new();
        for p in &payloads {
            write_frame(&mut buf, p).unwrap();
        }
        let (frames, err) = drain(&buf);
        assert_eq!(err, None, "clean stream must end at a frame boundary");
        assert_eq!(frames, payloads);
    }
}

/// Truncating a valid stream at *any* byte offset yields a prefix of the
/// original payloads followed by clean EOF (cut exactly at a boundary)
/// or a typed `UnexpectedEof` — never a panic, never garbage frames.
#[test]
fn truncation_at_every_offset_is_typed() {
    let mut rng = SplitMix64::new(0xF4A3_0002);
    let payloads: Vec<String> = (0..4).map(|_| payload(&mut rng, 40)).collect();
    let mut buf = Vec::new();
    for p in &payloads {
        write_frame(&mut buf, p).unwrap();
    }
    for cut in 0..buf.len() {
        let (frames, err) = drain(&buf[..cut]);
        assert!(
            frames.len() <= payloads.len(),
            "cut {cut}: more frames out than in"
        );
        for (a, b) in frames.iter().zip(payloads.iter()) {
            assert_eq!(a, b, "cut {cut}: decoded frame diverged");
        }
        match err {
            None => {} // cut landed exactly on a frame boundary
            Some(k) => assert_eq!(k, ErrorKind::UnexpectedEof, "cut {cut}"),
        }
    }
}

/// A length prefix past `MAX_FRAME` is rejected as `InvalidData` before
/// any allocation, whatever follows it.
#[test]
fn oversized_length_prefix_is_rejected() {
    let mut rng = SplitMix64::new(0xF4A3_0003);
    for _ in 0..200 {
        let n = (MAX_FRAME as u64 + 1 + rng.below(u32::MAX as usize) as u64).min(u32::MAX as u64);
        let mut buf = (n as u32).to_be_bytes().to_vec();
        let tail = rng.below(64);
        buf.extend(std::iter::repeat_n(0u8, tail));
        let (frames, err) = drain(&buf);
        assert!(frames.is_empty());
        assert_eq!(err, Some(ErrorKind::InvalidData));
    }
}

/// Non-UTF-8 payload bytes are a typed `InvalidData`, not a panic.
#[test]
fn non_utf8_payloads_are_rejected() {
    let mut rng = SplitMix64::new(0xF4A3_0004);
    for _ in 0..200 {
        let len = 1 + rng.below(32);
        let mut body: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        // Force at least one invalid byte so the case never degenerates.
        let at = rng.below(len);
        body[at] = 0xFF;
        let mut buf = (len as u32).to_be_bytes().to_vec();
        buf.extend_from_slice(&body);
        let (_, err) = drain(&buf);
        assert!(
            matches!(err, Some(ErrorKind::InvalidData | ErrorKind::UnexpectedEof)),
            "got {err:?}"
        );
    }
}

/// Pure byte soup: whatever the stream, the decoder terminates with
/// frames + a typed outcome. (Random 4-byte prefixes are almost always
/// oversized or truncated; the loop also covers small-length accidents.)
#[test]
fn garbage_streams_never_panic() {
    let mut rng = SplitMix64::new(0xF4A3_0005);
    for _ in 0..500 {
        let len = rng.below(257);
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let (_, err) = drain(&bytes);
        if let Some(k) = err {
            assert!(
                matches!(k, ErrorKind::InvalidData | ErrorKind::UnexpectedEof),
                "got {k:?}"
            );
        }
    }
}

/// A stream that hands its bytes out in seeded chunks of 1..=17 and times
/// out (`WouldBlock`) before some of them, as a socket with a read timeout
/// does; `Ok(0)` once it is dry.
struct Trickle<'a> {
    bytes: &'a [u8],
    rng: SplitMix64,
    stalled: bool,
}

impl Read for Trickle<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if !self.stalled && self.rng.chance(0.3) {
            self.stalled = true;
            return Err(ErrorKind::WouldBlock.into());
        }
        self.stalled = false;
        let n = (1 + self.rng.below(17))
            .min(self.bytes.len())
            .min(out.len());
        out[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// Drain `bytes` through one `FrameReader` in seeded chunks: the frames
/// it yields, how often it reported a timeout, and the error that ended
/// the stream. Every timeout is followed by a chunk of data, so this
/// terminates.
fn trickle(bytes: &[u8], seed: u64) -> (Vec<Vec<u8>>, usize, ErrorKind) {
    let mut src = Trickle {
        bytes,
        rng: SplitMix64::new(seed),
        stalled: false,
    };
    let mut reader = FrameReader::default();
    let (mut frames, mut timeouts) = (Vec::new(), 0);
    loop {
        match reader.next(&mut src) {
            Ok(Some(f)) => frames.push(f),
            Ok(None) => timeouts += 1,
            Err(e) => return (frames, timeouts, e.kind()),
        }
    }
}

/// The incremental reader under every chunking: a whole stream yields its
/// frames, then `UnexpectedEof` when the peer closes; a stream cut at any
/// offset yields a prefix of them, then `UnexpectedEof`; a length prefix
/// past `MAX_FRAME` after the first `k` frames yields those `k`, then
/// `InvalidData` — typed every time, and never a frame that was not sent.
#[test]
fn frame_reader_survives_any_chunking_truncation_and_oversize() {
    let mut rng = SplitMix64::new(0xF4A3_0008);
    let mut timeouts = 0;
    for case in 0..24u64 {
        let payloads: Vec<Vec<u8>> = (0..rng.below(6))
            .map(|_| (0..rng.below(120)).map(|_| rng.next_u64() as u8).collect())
            .collect();
        let mut buf = Vec::new();
        for p in &payloads {
            write_frame_bytes(&mut buf, p).unwrap();
        }
        let (frames, t, end) = trickle(&buf, case);
        assert_eq!((frames, end), (payloads.clone(), ErrorKind::UnexpectedEof));
        timeouts += t;
        for cut in 0..buf.len() {
            let (frames, _, end) = trickle(&buf[..cut], case ^ cut as u64);
            assert!(payloads.starts_with(&frames), "case {case} cut {cut}");
            assert_eq!(end, ErrorKind::UnexpectedEof, "case {case} cut {cut}");
        }
        let k = rng.below(payloads.len() + 1);
        let mut bad = Vec::new();
        for p in &payloads[..k] {
            write_frame_bytes(&mut bad, p).unwrap();
        }
        let n = MAX_FRAME as u64 + 1 + rng.below(1 << 20) as u64;
        bad.extend((n.min(u32::MAX as u64) as u32).to_be_bytes());
        bad.extend((0..rng.below(64)).map(|_| rng.next_u64() as u8));
        let (frames, _, end) = trickle(&bad, case);
        assert_eq!((&frames[..], end), (&payloads[..k], ErrorKind::InvalidData));
    }
    assert!(timeouts > 0, "the sweep never timed out mid-stream");
    // A frame larger than the reader's read buffer arrives whole.
    let big: Vec<u8> = (0..70_000u32).map(|i| i as u8).collect();
    let mut buf = Vec::new();
    write_frame_bytes(&mut buf, &big).unwrap();
    assert_eq!(trickle(&buf, 9).0, vec![big]);
}

/// The strict JSON decoder never panics on arbitrary printable input,
/// and anything it accepts it accepts deterministically.
#[test]
fn json_decoder_survives_garbage() {
    let mut rng = SplitMix64::new(0xF4A3_0006);
    for _ in 0..500 {
        let s = payload(&mut rng, 200);
        let a = Json::parse(&s).is_ok();
        let b = Json::parse(&s).is_ok();
        assert_eq!(a, b);
    }
}

/// A random tile: arbitrary f64 bit patterns (incl. NaN/inf territory),
/// dense or CSC at random.
fn random_tile(rng: &mut SplitMix64) -> Block {
    let rows = 1 + rng.below(6);
    let cols = 1 + rng.below(6);
    let dense = DenseBlock::from_fn(rows, cols, |_, _| {
        if rng.below(3) == 0 {
            0.0
        } else {
            f64::from_bits(rng.next_u64())
        }
    });
    if rng.below(2) == 0 {
        Block::Dense(dense)
    } else {
        Block::Sparse(CscBlock::from_dense(&dense))
    }
}

/// The binary `DMB3` codec: random tile batches round-trip exactly, and
/// decoded tiles re-encode to the byte-identical section — the encoding
/// is canonical, so decode∘encode is the identity on bytes too.
#[test]
fn binary_tile_messages_round_trip_canonically() {
    let mut rng = SplitMix64::new(0xF4A3_0008);
    for _ in 0..100 {
        let n = rng.below(5);
        let tiles: Vec<(usize, usize, usize, Block)> = (0..n)
            .map(|_| {
                (
                    rng.below(4),
                    rng.below(6),
                    rng.below(6),
                    random_tile(&mut rng),
                )
            })
            .collect();
        let body = binfmt::encode_tiles(tiles.iter().map(|(w, bi, bj, t)| (*w, *bi, *bj, t)));
        let header = format!(r#"{{"t":"push","rid":{}}}"#, rng.next_u64() >> 32);
        let msg = binfmt::encode(&header, &body);
        assert!(binfmt::is_binary(&msg));
        let (h, b) = binfmt::decode(&msg).expect("clean message must decode");
        assert_eq!(h, header);
        let decoded = binfmt::decode_tiles(b).expect("clean tile section must decode");
        assert_eq!(decoded.len(), tiles.len());
        let re = binfmt::encode_tiles(decoded.iter().map(|(w, bi, bj, t)| (*w, *bi, *bj, t)));
        assert_eq!(re, body, "decode then encode must be byte-identical");
    }
}

/// A tile's layout in memory is nobody's business outside the process. A
/// CSC tile with 2 of its 8 columns occupied keeps pointers for those two
/// only, yet its `DMB3` frame, its shard checksum and its disk payload are
/// defined over Figure 5's `cols + 1` pointer array: each is pinned, and
/// each is also rebuilt here by hand over that unpacked layout — the frame
/// and the payload byte for byte, all three digests from those bytes —
/// and decode goes through `from_csc` to the same block.
///
/// The disk payload's `(len, digest)` is of the `DMDM2` layout — the 39-byte
/// head `"DMDM2\n"` ∥ rows, cols, block, workers (`u64` LE) ∥ scheme `u8`,
/// then the same `DMB3` tile section a frame carries: `u32` count, and per
/// tile ascending `(bi, bj)` `u32` w (the holder; `u32::MAX` = replicated),
/// bi, bj, `u8` kind, `u32` rows, cols, then for a sparse tile `u32` np +
/// pointers, `u32` ni + row indices, `u32` nv + values. Here: 39 + 4 +
/// 4 tiles × (33 + 9 pointers × 4) + 5 items × 12 = 379 bytes. The shard
/// checksum's stream is `u32` bi, bj, then the tile without `w` and
/// without the three counts.
#[test]
fn packed_tiles_keep_their_external_bytes() {
    use dmac::cluster::transport::wire::{shard_checksum, Digest};
    use dmac::cluster::{DistMatrix, PartitionScheme};
    use dmac::core::disk;
    use dmac::matrix::BlockedMatrix;

    let u32s = |p: &mut Vec<u8>, vs: &[u32]| {
        for v in vs {
            p.extend_from_slice(&v.to_le_bytes());
        }
    };
    // One 8 x 8 sparse tile in Figure 5's layout, `cols + 1` pointers;
    // `counted` puts the tile section's count word before each array.
    let sparse = |p: &mut Vec<u8>, counted: bool, ptr: &[u32], idx: &[u32], val: &[f64]| {
        p.push(1);
        u32s(p, &[8, 8]);
        for arr in [ptr, idx] {
            if counted {
                u32s(p, &[arr.len() as u32]);
            }
            u32s(p, arr);
        }
        if counted {
            u32s(p, &[val.len() as u32]);
        }
        for v in val {
            p.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    };

    let col_ptr = vec![0, 0, 0, 2, 2, 2, 2, 3, 3];
    let csc = CscBlock::from_csc(8, 8, col_ptr.clone(), vec![1, 5, 0], vec![0.5, -0.0, 0.25]);
    let csc = csc.unwrap();
    // Packed: 2 ids + 3 pointers, not 9 pointers, beside the 3 items.
    assert_eq!(csc.actual_bytes(), 4 * 5 + 12 * 3);
    assert_eq!(csc.col_ptrs().collect::<Vec<_>>(), col_ptr);
    let tile = Block::Sparse(csc);
    let items = (&col_ptr[..], &[1, 5, 0][..], &[0.5, -0.0, 0.25][..]);

    let body = binfmt::encode_tiles([(1, 2, 3, &tile)]);
    assert_eq!(body.len(), 4 + binfmt::tile_wire_len(&tile));
    assert_eq!(binfmt::tile_wire_len(&tile), 105);
    let frame = binfmt::encode(r#"{"t":"push"}"#, &body);
    let trailer = u64::from_le_bytes(frame[frame.len() - 8..].try_into().unwrap());
    assert_eq!((frame.len(), trailer), (141, 0xF4C3_6FE6_24C5_A934));
    let mut hand = b"DMB3".to_vec();
    u32s(&mut hand, &[12]);
    hand.extend_from_slice(br#"{"t":"push"}"#);
    u32s(&mut hand, &[109, 1, 1, 2, 3]); // blen, count, w, bi, bj
    sparse(&mut hand, true, items.0, items.1, items.2);
    assert_eq!(hand, frame[..frame.len() - 8]);
    assert_eq!(Digest::of(&hand), trailer);
    let (_, section) = binfmt::decode(&frame).unwrap();
    let decoded = binfmt::decode_tiles(section).unwrap();
    assert!(decoded[0].3.bits_eq(&tile) && decoded[0].3.actual_bytes() == tile.actual_bytes());
    let seal = shard_checksum([((2, 3), &tile)]);
    assert_eq!(seal, 0xF1E7_A284_1CD1_AD08);
    let mut hand = Vec::new();
    u32s(&mut hand, &[2, 3]);
    sparse(&mut hand, false, items.0, items.1, items.2);
    assert_eq!(Digest::of(&hand), seal);

    let trips = vec![
        (1, 2, 0.5),
        (5, 2, 4.0),
        (0, 6, 0.25),
        (9, 12, -1.5),
        (15, 0, 2.0),
    ];
    let m = BlockedMatrix::from_triplets(16, 16, 8, trips).unwrap();
    let dist = DistMatrix::from_blocked(&m, PartitionScheme::Row, 2);
    let payload = disk::encode_dist(&dist);
    let sum = Digest::of(&payload);
    assert_eq!((payload.len(), sum), (379, 0xB9EE_3A42_1299_9A12));
    let mut hand = b"DMDM2\n".to_vec();
    for word in [16u64, 16, 8, 2] {
        hand.extend_from_slice(&word.to_le_bytes());
    }
    hand.push(0); // Row
    u32s(&mut hand, &[4]);
    let at = |c: u32| -> Vec<u32> { (0..9).map(|j| u32::from(j > c)).collect() };
    for (head, ptr, idx, val) in [
        (
            [0, 0, 0],
            col_ptr.clone(),
            &[1, 5, 0][..],
            &[0.5, 4.0, 0.25][..],
        ),
        ([0, 0, 1], vec![0; 9], &[][..], &[][..]),
        ([1, 1, 0], at(0), &[7][..], &[2.0][..]),
        ([1, 1, 1], at(4), &[1][..], &[-1.5][..]),
    ] {
        u32s(&mut hand, &head); // w, bi, bj
        sparse(&mut hand, true, &ptr, idx, val);
    }
    assert_eq!(hand, payload);
    assert_eq!(Digest::of(&hand), sum);
    let back = disk::decode_dist(&payload).unwrap();
    assert_eq!(disk::encode_dist(&back), payload);
    for w in 0..2 {
        for (at, tile) in dist.worker_blocks(w) {
            assert!(back.worker_blocks(w)[at].bits_eq(tile));
        }
    }
}

/// The frame contract on the disk tier. A matrix payload outlives the
/// process that wrote it, so it is outside input: `decode_dist` answers
/// every malformed one with a typed `CoreError::Disk` — no panic, and no
/// allocation sized by a count the remaining bytes cannot back. The two
/// `DMDM1` payloads are the previous layout's (47-byte head ending in a
/// `u64` tile count; tiles of `u64` bi, bj, `u32` owner, kind, `u32` rows,
/// cols): its own decoder panicked on both with `capacity overflow`; here
/// they are foreign bytes.
#[test]
fn disk_payloads_fail_typed_before_allocating() {
    use dmac::cluster::{DistMatrix, PartitionScheme};
    use dmac::core::{disk, CoreError};
    use dmac::matrix::BlockedMatrix;

    let head = |magic: &[u8; 6], words: [u64; 4]| {
        let mut p = magic.to_vec();
        for w in words {
            p.extend_from_slice(&w.to_le_bytes());
        }
        p.push(0); // Row
        p
    };
    let u32s = |p: &mut Vec<u8>, vs: &[u32]| {
        for v in vs {
            p.extend_from_slice(&v.to_le_bytes());
        }
    };
    let typed = |what: &str, p: &[u8]| match disk::decode_dist(p) {
        Err(CoreError::Disk(_)) => {}
        other => panic!("{what}: expected a typed disk error, got {other:?}"),
    };

    let mut p = head(b"DMDM1\n", [8, 8, 8, 2]);
    p.extend_from_slice(&u64::MAX.to_le_bytes());
    assert_eq!(p.len(), 47);
    typed("DMDM1, count = u64::MAX", &p);
    let mut p = head(b"DMDM1\n", [8, 8, 8, 2]);
    for v in [1u64, 0, 0] {
        p.extend_from_slice(&v.to_le_bytes()); // count, bi, bj
    }
    u32s(&mut p, &[0]); // owner
    p.push(0); // dense
    u32s(&mut p, &[u32::MAX, u32::MAX]);
    typed("DMDM1, dense tile of u32::MAX x u32::MAX", &p);

    // One tile of a DMDM2 payload up to its first count word.
    let one_tile = |kind: u8, rows: u32, cols: u32| {
        let mut p = head(b"DMDM2\n", [8, 8, 8, 2]);
        u32s(&mut p, &[1, 0, 0, 0]); // count, w, bi, bj
        p.push(kind);
        u32s(&mut p, &[rows, cols]);
        p
    };
    let mut p = head(b"DMDM2\n", [8, 8, 8, 2]);
    u32s(&mut p, &[u32::MAX]);
    typed("count = u32::MAX", &p);
    let mut p = one_tile(0, u32::MAX, u32::MAX);
    u32s(&mut p, &[u32::MAX]);
    typed("dense tile of u32::MAX x u32::MAX", &p);
    let mut p = one_tile(1, 8, 8);
    u32s(&mut p, &[9, 0, 0, 0, 0, 0, 0, 0, 0, 0]); // np + 9 pointers
    u32s(&mut p, &[u32::MAX]); // ni
    typed("sparse tile whose nnz exceeds the remaining bytes", &p);

    let m = BlockedMatrix::from_triplets(16, 16, 8, vec![(1, 2, 0.5), (9, 12, -1.5)]).unwrap();
    let dense = BlockedMatrix::from_fn(16, 16, 8, |i, j| (i * 16 + j) as f64).unwrap();
    for scheme in [PartitionScheme::Row, PartitionScheme::Broadcast] {
        for m in [&m, &dense] {
            let good = disk::encode_dist(&DistMatrix::from_blocked(m, scheme, 2));
            assert!(disk::decode_dist(&good).is_ok());
            for cut in 0..good.len() {
                typed(&format!("cut at {cut} of {}", good.len()), &good[..cut]);
            }
            let mut long = good.clone();
            long.push(0);
            typed("trailing byte", &long);
            // The head sizes the per-worker stores: bounded before it does.
            for workers in [0, 1 << 20, u64::from(u32::MAX), u64::MAX] {
                let mut bad = good.clone();
                bad[30..38].copy_from_slice(&workers.to_le_bytes());
                typed(&format!("{workers} workers"), &bad);
            }
            // A head that describes another grid than the tiles fill.
            let mut bad = good.clone();
            bad[6..14].copy_from_slice(&64u64.to_le_bytes());
            typed("64 rows over a 16-row tile set", &bad);
        }
    }
}

/// Truncating a binary message (or a bare tile section) at *any* byte
/// offset is a typed decode error — the structural length checks and the
/// trailing-checksum placement make every proper prefix invalid.
#[test]
fn binary_truncation_at_every_offset_is_rejected() {
    let mut rng = SplitMix64::new(0xF4A3_0009);
    let tiles: Vec<(usize, usize, usize, Block)> = (0..3)
        .map(|i| (i, i + 1, i + 2, random_tile(&mut rng)))
        .collect();
    let body = binfmt::encode_tiles(tiles.iter().map(|(w, bi, bj, t)| (*w, *bi, *bj, t)));
    let msg = binfmt::encode(r#"{"t":"push","rid":9}"#, &body);
    for cut in 0..msg.len() {
        assert!(
            binfmt::decode(&msg[..cut]).is_err(),
            "cut at {cut} must not decode"
        );
    }
    for cut in 0..body.len() {
        assert!(
            binfmt::decode_tiles(&body[..cut]).is_err(),
            "tile section cut at {cut} must not decode"
        );
    }
}

/// Flipping any single bit of a binary message is caught — by the magic
/// check, a structural length check, or the digest trailer — never
/// silently accepted, never a panic.
#[test]
fn binary_bit_flips_never_decode() {
    let mut rng = SplitMix64::new(0xF4A3_000A);
    let tiles: Vec<(usize, usize, usize, Block)> =
        (0..2).map(|i| (i, i, i, random_tile(&mut rng))).collect();
    let body = binfmt::encode_tiles(tiles.iter().map(|(w, bi, bj, t)| (*w, *bi, *bj, t)));
    let msg = binfmt::encode(r#"{"t":"install","rid":3}"#, &body);
    for at in 0..msg.len() {
        for bit in [0x01u8, 0x80u8] {
            let mut m = msg.clone();
            m[at] ^= bit;
            assert!(
                binfmt::decode(&m).is_err(),
                "flip of bit {bit:#04x} at byte {at} must not decode"
            );
        }
    }
}

/// A shard seal is the digest of the shard's canonical bytes — tiles
/// ascending `(bi, bj)`, each `u32` bi, bj, `u8` kind, `u32` rows, cols,
/// then the dense values, or the sparse tile's `cols + 1` pointers, row
/// indices and values — on random shards whose tile heads leave the bulk
/// paths at every offset into a word, and however those bytes are cut
/// into `update` calls.
#[test]
fn shard_checksums_digest_their_canonical_bytes() {
    use dmac::cluster::transport::wire::{shard_checksum, Digest};
    use std::collections::BTreeMap;

    fn u32s(bytes: &mut Vec<u8>, vs: impl IntoIterator<Item = u32>) {
        for v in vs {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
    }

    let mut rng = SplitMix64::new(0xF4A3_0026);
    for _ in 0..300 {
        let tiles: BTreeMap<(usize, usize), Block> = (0..rng.below(6))
            .map(|_| ((rng.below(5), rng.below(5)), random_tile(&mut rng)))
            .collect();
        let mut bytes = Vec::new();
        for (&(bi, bj), tile) in &tiles {
            u32s(&mut bytes, [bi as u32, bj as u32]);
            let vals = match tile {
                Block::Dense(d) => {
                    bytes.push(0);
                    u32s(&mut bytes, [d.rows() as u32, d.cols() as u32]);
                    d.data()
                }
                Block::Sparse(s) => {
                    bytes.push(1);
                    u32s(&mut bytes, [s.rows() as u32, s.cols() as u32]);
                    u32s(&mut bytes, s.col_ptrs());
                    u32s(&mut bytes, s.row_indices().iter().copied());
                    s.values()
                }
            };
            for v in vals {
                bytes.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        let seal = shard_checksum(tiles.iter().map(|(&at, t)| (at, t)));
        assert_eq!(seal, Digest::of(&bytes));
        let mut h = Digest::new();
        let mut rest = &bytes[..];
        while !rest.is_empty() {
            let (piece, tail) = rest.split_at(rng.below(rest.len().min(24)) + 1);
            h.update(piece);
            rest = tail;
        }
        assert_eq!(h.finish(), seal);
    }
}

/// Release-mode ratio guard: the digest runs at memory speed, not at a
/// multiply per byte. Digesting 8 MB may take at most 4x a
/// `copy_from_slice` of 8 MB, and so may sealing 8 MB of dense 128 x 128
/// tiles — both sides on this host, so the ratio, not a rate, is
/// checked. FNV-1a sat at ~17x. `cargo test --release --test prop_frames
/// -- --ignored keeps_pace`.
#[test]
#[ignore = "timing guard; run in release"]
fn digest_keeps_pace_with_a_copy() {
    use dmac::cluster::transport::wire::{shard_checksum, Digest};
    use std::hint::black_box;
    use std::time::Instant;

    const MB8: usize = 8 << 20;
    let best = |f: &mut dyn FnMut()| {
        (0..9)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let src: Vec<u8> = (0..MB8).map(|i| (i * 131 + 7) as u8).collect();
    let mut dst = vec![0u8; MB8];
    let copy = best(&mut || {
        dst.copy_from_slice(black_box(&src));
        black_box(&dst);
    });
    let digest = best(&mut || {
        black_box(Digest::of(black_box(&src)));
    });
    let tiles: Vec<((usize, usize), Block)> = (0..MB8 / (128 * 128 * 8))
        .map(|k| {
            let d = DenseBlock::from_fn(128, 128, |i, j| (k * 7 + i * 128 + j) as f64 * 0.5);
            ((k / 8, k % 8), Block::Dense(d))
        })
        .collect();
    let seal = best(&mut || {
        black_box(shard_checksum(tiles.iter().map(|(at, t)| (*at, t))));
    });
    let us = |s: f64| s * 1e6;
    println!(
        "8 MB: copy {:.0} us, digest {:.0} us ({:.2}x), seal of 64 dense 128x128 tiles {:.0} us ({:.2}x)",
        us(copy),
        us(digest),
        digest / copy,
        us(seal),
        seal / copy
    );
    assert!(digest <= 4.0 * copy, "digest {:.2}x a copy", digest / copy);
    assert!(seal <= 4.0 * copy, "seal {:.2}x a copy", seal / copy);
}

/// Oversized counts — a tile count or element count far past the actual
/// body — fail *before* any proportional allocation, whatever random
/// garbage follows.
#[test]
fn binary_oversize_counts_fail_before_allocation() {
    let mut rng = SplitMix64::new(0xF4A3_000B);
    for _ in 0..100 {
        // Huge tile count over a tiny body.
        let count = (1u64 << 31) as u32 + rng.below(1 << 20) as u32;
        let mut body = count.to_le_bytes().to_vec();
        let tail = rng.below(64);
        body.extend((0..tail).map(|_| rng.next_u64() as u8));
        assert!(binfmt::decode_tiles(&body).is_err());
    }
    // A dense tile whose element count promises gigabytes the body
    // doesn't have.
    let mut body = 1u32.to_le_bytes().to_vec();
    for field in [0u32, 0, 0] {
        body.extend(field.to_le_bytes()); // w, bi, bj
    }
    body.push(0); // dense
    body.extend(4u32.to_le_bytes()); // rows
    body.extend(4u32.to_le_bytes()); // cols
    body.extend(0x3FFF_FFFFu32.to_le_bytes()); // element count
    body.extend([0u8; 16]);
    assert!(binfmt::decode_tiles(&body).is_err());
}

/// Mutating one byte of a well-formed worker command either still decodes
/// (the mutation hit a value) or fails with a typed error — `Cmd::decode`
/// must never panic on near-miss protocol frames. What the daemon then
/// makes of a mutated RMM (`fused`) / `cpmm1` that still decodes is the
/// same sweep run through its dispatcher, next to it (`workerd.rs`,
/// `rmm_and_cpmm1_hold_their_commands_against_their_shards`). The
/// `fused`, `xfer` and generating `install` texts name their tiles as the
/// coordinator does, once per group (`"k":[bi,bj,…]`); what the daemon
/// makes of a mutated generator is
/// `a_generator_the_grid_contradicts_installs_nothing` in `workerd.rs`.
#[test]
fn mutated_commands_fail_typed() {
    let commands = [
        r#"{"t":"install","rid":"00000000000000ff","tiles":["0_1_x"],"n":3}"#,
        r#"{"t":"install","rid":7,"seed":"00000000000000ff","m":3,"rows":37,"cols":50,"block":16,"tasks":[{"w":0,"k":[0,0,2,3]},{"w":1,"k":[1,2]}]}"#,
        r#"{"t":"fused","rids":[],"muls":[{"a":1,"b":2,"kb":4}],"prog":[{"o":"leaf","i":0}],"rid_out":3,"tasks":[{"w":0,"k":[2,0,2,2]},{"w":1,"k":[0,1]}]}"#,
        r#"{"t":"cpmm1","rows":7,"cols":8,"block":3,"rid_a":4,"rid_b":5,"stage":1099511627776,"n":2,"kb":4,"ws":[0,1]}"#,
        r#"{"t":"fused","rids":[8,9],"muls":[],"prog":[{"o":"leaf","i":0},{"o":"leaf","i":1},{"o":"add"}],"rid_out":10,"tasks":[{"w":0,"k":[0,0,1,0]},{"w":1,"k":[0,1]}]}"#,
        r#"{"t":"xfer","rid_in":6,"rid_out":7,"tr":"transpose","groups":[{"wi":0,"wo":1,"dh":1,"k":[0,1,2,1]},{"wi":1,"wo":1,"k":[2,0]}]}"#,
    ];
    let mut rng = SplitMix64::new(0xF4A3_0007);
    for base in commands {
        for _ in 0..500 {
            let mut bytes = base.as_bytes().to_vec();
            let at = rng.below(bytes.len());
            bytes[at] = 0x20 + rng.below(0x5f) as u8;
            // Ok or a typed Err — both fine; a panic fails the test.
            let _ = Cmd::decode(&bytes);
        }
    }
}

/// The same sweep over every reply a worker sends, `DMB1` bodies
/// included: each mutated byte gives a reply or a typed error from
/// `Reply::decode`, never a panic.
#[test]
fn mutated_replies_fail_typed() {
    let mut rng = SplitMix64::new(0xF4A3_000C);
    let replies = [
        r#"{"t":"hello","host":1,"pid":4242,"peer":"127.0.0.1:9","bin":1}"#,
        r#"{"t":"hb","host":1}"#,
        r#"{"t":"err","msg":"unknown command 'x'","q":5}"#,
        r#"{"t":"peerfail","host":2,"q":5}"#,
        r#"{"t":"sealed","shards":[{"w":0,"n":3,"x":"cbf29ce484222325"},{"w":2,"n":0,"x":"cbf29ce484222325"}],"q":5}"#,
        r#"{"t":"xferred","bytes":[8,48],"edges":[{"h":1,"f":2,"b":141}],"q":5}"#,
        r#"{"t":"partials","descs":[{"w":0,"bi":1,"bj":2,"b":72}],"q":5}"#,
        r#"{"t":"reduced","parts":[{"w":0,"x":"bff0000000000000"}],"q":5}"#,
    ];
    let tiles: Vec<Placed> = (0..2)
        .map(|i| (i, i, i + 1, Arc::new(random_tile(&mut rng))))
        .collect();
    let mut frames: Vec<Vec<u8>> = replies.iter().map(|r| r.as_bytes().to_vec()).collect();
    frames.push(Reply::Tiles { tiles }.encode(Some(5)));
    for base in &frames {
        assert!(
            Reply::decode(base).msg.is_ok(),
            "{}",
            String::from_utf8_lossy(base)
        );
        for _ in 0..500 {
            let mut bytes = base.clone();
            let at = rng.below(bytes.len());
            bytes[at] = rng.next_u64() as u8;
            let _ = Reply::decode(&bytes);
        }
    }
}

/// A random tile of finite values, so that a decoded message compares
/// equal to the one encoded.
fn finite_tile(rng: &mut SplitMix64) -> Block {
    let (rows, cols) = (1 + rng.below(4), 1 + rng.below(4));
    let dense = DenseBlock::from_fn(rows, cols, |_, _| {
        let zero = rng.below(3) == 0;
        if zero {
            0.0
        } else {
            rng.below(4096) as f64 / 64.0 - 32.0
        }
    });
    if rng.below(2) == 0 {
        Block::Dense(dense)
    } else {
        Block::Sparse(CscBlock::from_dense(&dense))
    }
}

/// A seeded random message of every kind, each field drawn at random.
struct Gen(SplitMix64);

impl Gen {
    fn n(&mut self) -> usize {
        self.0.below(1 << 20)
    }

    fn rid(&mut self) -> u64 {
        self.0.next_u64() >> 12
    }

    fn ns(&mut self) -> Vec<usize> {
        (0..self.0.below(5)).map(|_| self.n()).collect()
    }

    fn keys(&mut self) -> Vec<(usize, usize)> {
        (0..self.0.below(4)).map(|_| (self.n(), self.n())).collect()
    }

    fn groups(&mut self) -> Vec<Group> {
        (0..self.0.below(4))
            .map(|_| Group {
                w: self.n(),
                keys: self.keys(),
            })
            .collect()
    }

    fn grid(&mut self) -> GridMeta {
        GridMeta::new(self.n(), self.n(), 1 + self.0.below(512))
    }

    fn text(&mut self) -> String {
        let chars = ['a', '"', '\\', '\n', 'é', ':', '{', ' '];
        (0..self.0.below(12))
            .map(|_| chars[self.0.below(chars.len())])
            .collect()
    }

    fn tiles(&mut self) -> Vec<Placed> {
        (0..self.0.below(4))
            .map(|_| {
                (
                    self.n(),
                    self.n(),
                    self.n(),
                    Arc::new(finite_tile(&mut self.0)),
                )
            })
            .collect()
    }

    fn constant(&mut self) -> f64 {
        f64::from_bits(self.0.next_u64() >> 2)
    }

    fn cmd(&mut self) -> Cmd {
        use dmac::matrix::FusedOp;
        match self.0.below(12) {
            0 => Cmd::Peers {
                peers: (0..self.0.below(4)).map(|_| self.text()).collect(),
                timeout_ms: self.rid(),
            },
            1 => Cmd::Install {
                rid: self.rid(),
                tiles: self.tiles(),
            },
            2 => Cmd::Generate {
                rid: self.rid(),
                seed: self.0.next_u64(),
                matrix: self.0.next_u64() as u32,
                grid: self.grid(),
                tasks: self.groups(),
            },
            3 => Cmd::Collect {
                rid: self.rid(),
                items: (0..self.0.below(4))
                    .map(|_| Place {
                        w: self.n(),
                        bi: self.n(),
                        bj: self.n(),
                    })
                    .collect(),
            },
            4 => Cmd::Seal {
                rid: self.rid(),
                ws: self.ns(),
            },
            5 => Cmd::Fused {
                rids: (0..self.0.below(4)).map(|_| self.rid()).collect(),
                // Every leaf's view bit, or none when no leaf reads a view.
                tr: match self.0.below(3) {
                    0 => None,
                    k => Some((0..=k).map(|i| i == k || self.0.chance(0.5)).collect()),
                },
                muls: (0..self.0.below(3))
                    .map(|_| Mul {
                        a: self.rid(),
                        b: self.rid(),
                        ta: self.0.chance(0.5).then_some(true),
                        tb: self.0.chance(0.5).then_some(true),
                        kb: self.n(),
                    })
                    .collect(),
                prog: (0..self.0.below(8))
                    .map(|_| match self.0.below(7) {
                        0 => FusedOp::Leaf(self.0.below(4)),
                        1 => FusedOp::Add,
                        2 => FusedOp::Sub,
                        3 => FusedOp::CellMul,
                        4 => FusedOp::CellDiv,
                        5 => FusedOp::Scale(self.constant()),
                        _ => FusedOp::AddScalar(self.constant()),
                    })
                    .collect(),
                rid_out: self.rid(),
                tasks: self.groups(),
            },
            6 => Cmd::Cpmm1 {
                rid_a: self.rid(),
                rid_b: self.rid(),
                ta: self.0.chance(0.5).then_some(true),
                tb: self.0.chance(0.5).then_some(true),
                stage: self.rid(),
                n: self.n(),
                kb: self.n(),
                grid: self.grid(),
                ws: self.ns(),
            },
            7 => Cmd::Cpmm2 {
                stage: self.rid(),
                rid_out: self.rid(),
                grid: self.grid(),
                tasks: (0..self.0.below(4))
                    .map(|_| Combine {
                        w: self.n(),
                        bi: self.n(),
                        bj: self.n(),
                        srcs: self.ns(),
                    })
                    .collect(),
            },
            8 => Cmd::Reduce {
                kind: [ReduceKind::Sum, ReduceKind::Norm2][self.0.below(2)],
                rid: self.rid(),
                ws: self.ns(),
            },
            9 => Cmd::Free { rid: self.rid() },
            10 => Cmd::Xfer {
                rid_in: self.rid(),
                rid_out: self.rid(),
                groups: (0..self.0.below(4))
                    .map(|_| Route {
                        wi: self.n(),
                        wo: self.n(),
                        dh: self.0.chance(0.5).then(|| self.n()),
                        keys: self.keys(),
                    })
                    .collect(),
            },
            _ => Cmd::Shutdown,
        }
    }

    fn reply(&mut self) -> Reply {
        match self.0.below(11) {
            0 => Reply::Hello {
                host: self.n(),
                pid: self.rid(),
                peer: self.text(),
                bin: self.0.chance(0.5).then(|| self.rid()),
            },
            1 => Reply::Hb { host: self.n() },
            2 => Reply::Ok,
            3 => Reply::Bye,
            4 => Reply::Err { msg: self.text() },
            5 => Reply::PeerFail { host: self.n() },
            6 => Reply::Sealed {
                shards: (0..self.0.below(4))
                    .map(|_| Shard {
                        w: self.n(),
                        n: self.n(),
                        x: self.0.next_u64(),
                    })
                    .collect(),
            },
            7 => Reply::Xferred {
                bytes: (0..self.0.below(4)).map(|_| self.rid()).collect(),
                edges: (0..self.0.below(3))
                    .map(|_| Edge {
                        h: self.n(),
                        f: self.rid(),
                        b: self.rid(),
                    })
                    .collect(),
            },
            8 => Reply::Partials {
                descs: (0..self.0.below(4))
                    .map(|_| Desc {
                        w: self.n(),
                        bi: self.n(),
                        bj: self.n(),
                        b: self.rid(),
                    })
                    .collect(),
            },
            9 => Reply::Reduced {
                parts: (0..self.0.below(4))
                    .map(|_| Part {
                        w: self.n(),
                        x: self.constant(),
                    })
                    .collect(),
            },
            _ => Reply::Tiles {
                tiles: self.tiles(),
            },
        }
    }

    fn peer(&mut self) -> Peer {
        match self.0.below(3) {
            0 => Peer::Push {
                rid: self.rid(),
                tiles: self.tiles(),
            },
            1 => Peer::Got,
            _ => Peer::Err { msg: self.text() },
        }
    }
}

/// Every message the protocol can say decodes back to itself, with the
/// sequence number it was sent with, and encodes again to the same bytes:
/// over seeded random commands, replies and peer messages of every kind.
#[test]
fn protocol_messages_round_trip_canonically() {
    let mut g = Gen(SplitMix64::new(0xF4A3_000D));
    for round in 0..600u64 {
        let q = (round % 3 != 0).then_some(round);
        let cmd = g.cmd();
        let raw = cmd.encode(q);
        let back = Cmd::decode(&raw);
        assert_eq!((back.q, back.msg.as_ref()), (q, Ok(&cmd)), "{cmd:?}");
        assert_eq!(back.msg.unwrap().encode(q), raw);

        let reply = g.reply();
        let raw = reply.encode(q);
        let back = Reply::decode(&raw);
        assert_eq!((back.q, back.msg.as_ref()), (q, Ok(&reply)), "{reply:?}");
        assert_eq!(back.msg.unwrap().encode(q), raw);

        let peer = g.peer();
        let raw = peer.encode(None);
        let back = Peer::decode(&raw);
        assert_eq!((back.q, back.msg.as_ref()), (None, Ok(&peer)));
        assert_eq!(back.msg.unwrap().encode(None), raw);
    }
}
