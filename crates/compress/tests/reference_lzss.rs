//! Byte-identity tests: the optimised codec against a frozen reference.
//!
//! `reference` below is the original, straightforward greedy hash-chain
//! matcher and byte-at-a-time decoder, kept verbatim as the oracle. Every
//! stored size, reduction statistic and modelled number in the workspace
//! derives from the encoded bytes, so `compress` must reproduce the
//! reference output exactly, and `decompress` must accept and reject
//! exactly the same streams.

use fidr_compress::{compress, decompress, ContentGenerator};
use proptest::prelude::*;

mod reference {
    const MIN_MATCH: usize = 4;
    const MAX_OFFSET: usize = 65_535;
    const HASH_BITS: u32 = 13;
    const CHAIN_TRIES: u32 = 16;

    fn hash4(window: &[u8]) -> usize {
        let v = u32::from_le_bytes([window[0], window[1], window[2], window[3]]);
        (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
    }

    struct Matcher {
        head: Vec<u32>,
        prev: Vec<u32>,
        tries: u32,
    }

    impl Matcher {
        fn new(tries: u32) -> Self {
            Matcher {
                head: vec![0u32; 1 << HASH_BITS],
                prev: vec![0u32; MAX_OFFSET + 1],
                tries,
            }
        }

        fn insert_and_find(&mut self, input: &[u8], pos: usize) -> (usize, usize) {
            let n = input.len();
            let h = hash4(&input[pos..]);
            let mut candidate = self.head[h] as usize;
            self.head[h] = (pos + 1) as u32;
            self.prev[pos % (MAX_OFFSET + 1)] = candidate as u32;

            let mut best_len = 0usize;
            let mut best_off = 0usize;
            let mut tries = self.tries;
            while candidate > 0 && tries > 0 {
                let cand = candidate - 1;
                if cand >= pos {
                    candidate = self.prev[cand % (MAX_OFFSET + 1)] as usize;
                    tries -= 1;
                    continue;
                }
                if pos - cand > MAX_OFFSET {
                    break;
                }
                let max_len = n - pos;
                let mut l = 0usize;
                while l < max_len && input[cand + l] == input[pos + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_off = pos - cand;
                    if l >= max_len {
                        break;
                    }
                }
                candidate = self.prev[cand % (MAX_OFFSET + 1)] as usize;
                tries -= 1;
            }
            (best_off, best_len)
        }

        fn insert_only(&mut self, input: &[u8], pos: usize) {
            let h = hash4(&input[pos..]);
            self.prev[pos % (MAX_OFFSET + 1)] = self.head[h];
            self.head[h] = (pos + 1) as u32;
        }
    }

    pub fn compress(input: &[u8]) -> Vec<u8> {
        let n = input.len();
        let mut out = Vec::with_capacity(n / 2 + 16);
        if n == 0 {
            return out;
        }

        let mut matcher = Matcher::new(CHAIN_TRIES);
        let mut pos = 0usize;
        let mut literal_start = 0usize;
        let match_limit = n.saturating_sub(MIN_MATCH);

        while pos < match_limit {
            let (best_off, mut best_len) = matcher.insert_and_find(input, pos);
            if best_len >= MIN_MATCH {
                let room = n - pos;
                if best_len > room.saturating_sub(MIN_MATCH) {
                    best_len = room.saturating_sub(MIN_MATCH);
                }
                if best_len >= MIN_MATCH {
                    emit_sequence(
                        &mut out,
                        &input[literal_start..pos],
                        Some((best_off, best_len)),
                    );
                    let end = (pos + best_len).min(match_limit);
                    let mut p = pos + 1;
                    while p < end {
                        matcher.insert_only(input, p);
                        p += 2;
                    }
                    pos += best_len;
                    literal_start = pos;
                    continue;
                }
            }
            pos += 1;
        }

        emit_sequence(&mut out, &input[literal_start..], None);
        out
    }

    fn emit_length(out: &mut Vec<u8>, mut extra: usize) {
        while extra >= 255 {
            out.push(255);
            extra -= 255;
        }
        out.push(extra as u8);
    }

    fn emit_sequence(out: &mut Vec<u8>, literals: &[u8], m: Option<(usize, usize)>) {
        let lit_len = literals.len();
        let lit_nibble = lit_len.min(15) as u8;
        let (match_nibble, off, mlen) = match m {
            Some((off, mlen)) => (((mlen - MIN_MATCH).min(15)) as u8, off, mlen),
            None => (0, 0, 0),
        };
        out.push((lit_nibble << 4) | match_nibble);
        if lit_len >= 15 {
            emit_length(out, lit_len - 15);
        }
        out.extend_from_slice(literals);
        if m.is_some() {
            out.push((off & 0xff) as u8);
            out.push((off >> 8) as u8);
            if mlen - MIN_MATCH >= 15 {
                emit_length(out, mlen - MIN_MATCH - 15);
            }
        }
    }

    /// The original decoder; errors are reduced to `()` because the
    /// optimised decoder's error type is opaque outside the crate.
    pub fn decompress(input: &[u8], expected_len: usize) -> Result<Vec<u8>, ()> {
        let mut out = Vec::with_capacity(expected_len);
        let mut p = 0usize;
        let n = input.len();

        if n == 0 {
            return if expected_len == 0 { Ok(out) } else { Err(()) };
        }

        while p < n {
            let token = input[p];
            p += 1;
            let mut lit_len = (token >> 4) as usize;
            if lit_len == 15 {
                loop {
                    let b = *input.get(p).ok_or(())?;
                    p += 1;
                    lit_len += b as usize;
                    if b != 255 {
                        break;
                    }
                }
            }
            if p + lit_len > n {
                return Err(());
            }
            out.extend_from_slice(&input[p..p + lit_len]);
            p += lit_len;

            if p == n {
                break;
            }

            if p + 2 > n {
                return Err(());
            }
            let off = input[p] as usize | ((input[p + 1] as usize) << 8);
            p += 2;
            if off == 0 || off > out.len() {
                return Err(());
            }
            let mut mlen = (token & 0x0f) as usize + MIN_MATCH;
            if mlen == 15 + MIN_MATCH {
                loop {
                    let b = *input.get(p).ok_or(())?;
                    p += 1;
                    mlen += b as usize;
                    if b != 255 {
                        break;
                    }
                }
            }
            let start = out.len() - off;
            for i in 0..mlen {
                let b = out[start + i];
                out.push(b);
            }
            if out.len() > expected_len {
                return Err(());
            }
        }

        if out.len() != expected_len {
            return Err(());
        }
        Ok(out)
    }
}

/// Asserts the optimised codec matches the reference on `data`, and that
/// the encoding roundtrips.
fn assert_identical(data: &[u8]) {
    let got = compress(data);
    let want = reference::compress(data);
    assert!(
        got == want,
        "encoding diverges from the reference on a {}-byte input \
         (got {} bytes, want {})",
        data.len(),
        got.len(),
        want.len()
    );
    assert_eq!(decompress(&got, data.len()).unwrap(), data);
}

/// Asserts both decoders accept the same streams with the same output
/// and reject the same streams.
fn assert_same_decode(stream: &[u8], expected_len: usize) {
    let got = decompress(stream, expected_len).map_err(|_| ());
    let want = reference::decompress(stream, expected_len);
    assert_eq!(
        got, want,
        "decoders disagree on {stream:?} / {expected_len}"
    );
}

fn xorshift(seed: u64, len: usize) -> Vec<u8> {
    let mut s = seed | 1;
    (0..len)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 24) as u8
        })
        .collect()
}

/// An arena in the shape of the reduce-churn workload's fresh contents:
/// 64 bytes of noise alternating with 64 bytes of a repeated 8-byte motif.
fn churn_arena(seed: u64, len: usize) -> Vec<u8> {
    let noise = xorshift(seed, len);
    let motif = xorshift(seed ^ 0xA5A5, 8);
    (0..len)
        .map(|i| {
            if (i / 64) % 2 == 0 {
                noise[i]
            } else {
                motif[i % 8]
            }
        })
        .collect()
}

/// Content shapes the fixed-length sweep covers.
fn shapes(len: usize) -> [Vec<u8>; 5] {
    [
        vec![0x42; len],
        xorshift(len as u64 + 1, len),
        (0..len).map(|i| (i % 37) as u8).collect(),
        churn_arena(len as u64 + 7, len),
        ContentGenerator::new(0.5).chunk(len as u64, len),
    ]
}

#[test]
fn every_length_up_to_4200_matches_the_reference() {
    for len in 0..=4200 {
        for data in shapes(len) {
            assert_identical(&data);
        }
    }
}

#[test]
fn window_wrap_lengths_match_the_reference() {
    for len in [65_535, 65_536, 65_537, 200_000] {
        for data in shapes(len) {
            assert_identical(&data);
        }
    }
    // Noise repeating at distances around the window edge: the only
    // matches lie exactly at, just inside or just outside the window.
    for period in [65_530, 65_534, 65_535, 65_536, 65_537] {
        let noise = xorshift(period as u64, period);
        let data: Vec<u8> = (0..140_000).map(|i| noise[i % period]).collect();
        assert_identical(&data);
    }
}

#[test]
fn content_generator_chunks_match_the_reference() {
    for ratio in [0.1, 0.25, 0.5, 0.75, 1.0] {
        let gen = ContentGenerator::new(ratio);
        for seed in 0..64 {
            assert_identical(&gen.chunk(seed, 4096));
        }
    }
}

#[test]
fn decoders_agree_on_overlapping_matches() {
    // One literal run of `lit` bytes, then a match at offset `off` whose
    // length the token and extension bytes set, against several
    // expected lengths: short overlap, exact fit, and overrun.
    for lit in 1..=8usize {
        for off in 1..=lit {
            for ext in [0u8, 1, 200, 254] {
                let mut stream = vec![((lit as u8) << 4) | 0x0f];
                stream.extend((0..lit as u8).map(|b| b.wrapping_mul(37)));
                stream.extend([off as u8, 0, ext]);
                stream.push(0x40);
                stream.extend_from_slice(b"tail");
                let exact = lit + 19 + ext as usize + 4;
                for expected_len in [exact - 1, exact, exact + 1, 4096] {
                    assert_same_decode(&stream, expected_len);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_match_the_reference(
        data in proptest::collection::vec(any::<u8>(), 0..8192)
    ) {
        assert_identical(&data);
    }

    #[test]
    fn small_alphabet_matches_the_reference(
        data in proptest::collection::vec(0u8..4, 0..8192)
    ) {
        assert_identical(&data);
    }

    #[test]
    fn rle_blocks_match_the_reference(
        blocks in proptest::collection::vec((any::<u8>(), 1usize..500), 1..20)
    ) {
        let mut data = Vec::new();
        for (b, n) in blocks {
            data.extend(std::iter::repeat_n(b, n));
        }
        assert_identical(&data);
    }

    /// 4-KiB cuts of a churn-shaped arena at arbitrary offsets, so the
    /// noise/motif boundary falls anywhere in the chunk.
    #[test]
    fn churn_arena_cuts_match_the_reference(seed in any::<u64>(), at in 0usize..8192) {
        let arena = churn_arena(seed, 16_384);
        assert_identical(&arena[at..at + 4096]);
    }

    #[test]
    fn content_generator_ratios_match_the_reference(
        seed in any::<u64>(),
        ratio_pct in 1u64..=100,
        len in 0usize..8192
    ) {
        let data = ContentGenerator::new(ratio_pct as f64 / 100.0).chunk(seed, len);
        assert_identical(&data);
    }

    /// Corrupted streams: both decoders give the same verdict.
    #[test]
    fn decoders_agree_on_corrupt_streams(
        data in proptest::collection::vec(0u8..8, 1..1024),
        flip in 0usize..8192,
        explen in 0usize..8192
    ) {
        let mut c = compress(&data);
        let i = flip % c.len();
        c[i] = c[i].wrapping_add(1 + (flip % 255) as u8);
        assert_same_decode(&c, explen);
        assert_same_decode(&c, data.len());
    }
}
