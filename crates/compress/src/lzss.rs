//! A from-scratch LZ77-family block codec.
//!
//! The FIDR Compression Engine and the CIDR baseline both run LZ-class
//! lossless compression on FPGAs (paper §2.3, §6.1; CIDR builds on
//! "Gzip on a chip"-style cores). This module is the functional stand-in:
//! a byte-oriented block format in the LZ4 spirit — token byte with literal
//! run length and match length nibbles, 2-byte little-endian match offsets,
//! 255-continuation extension bytes — implemented with a hash-chain matcher.
//!
//! The format is self-terminating given the compressed length: the final
//! sequence carries only literals.
//!
//! # The matcher
//!
//! Greedy, one pass: at each position the matcher hashes the next four
//! bytes into a 2^13-bucket `head` table, walks that bucket's chain of
//! earlier positions (`prev`, newest first, at most 16 candidates within
//! the 64-KiB window) and takes the longest match, the nearest on ties.
//! A match of at least four bytes is emitted, and every other position
//! inside it is indexed without a search. Matches never reach into the
//! last four bytes, so every stream ends in literals.
//!
//! The search is tuned to do little work per position: `prev` is sized to
//! the input (a power of two, at most the window) and indexed by mask; a
//! candidate is only extended when the byte at the current best length
//! agrees, since no other candidate can beat the best; extension compares
//! eight bytes at a time; and the output buffer is sized once for the
//! worst case.
//!
//! **Byte-identity contract.** None of that tuning may change which match
//! is chosen: for every input, [`compress`] emits exactly the bytes of the
//! plain byte-at-a-time matcher it replaced. Every stored size, reduction
//! statistic and modelled number in the workspace derives from these
//! bytes. `tests/reference_lzss.rs` keeps that plain matcher as the oracle.

use std::fmt;

/// Minimum match length worth encoding (a match costs 3 bytes: token share +
/// 2-byte offset).
const MIN_MATCH: usize = 4;
/// Maximum backward distance the 2-byte offset can express.
const MAX_OFFSET: usize = 65_535;
/// Hash table size (log2) for the matcher.
const HASH_BITS: u32 = 13;
/// Chain candidates examined per searched position.
const CHAIN_TRIES: u32 = 16;

/// Error returned when decompression encounters a malformed stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecompressError {
    detail: &'static str,
}

impl DecompressError {
    fn new(detail: &'static str) -> Self {
        DecompressError { detail }
    }
}

impl fmt::Display for DecompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed compressed stream: {}", self.detail)
    }
}

impl std::error::Error for DecompressError {}

fn hash4(input: &[u8], pos: usize) -> usize {
    let v = u32::from_le_bytes(input[pos..pos + 4].try_into().expect("four bytes"));
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of `a` and `b`, where `b` is the shorter.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let mut l = 0usize;
    for (wa, wb) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let x = u64::from_le_bytes(wa.try_into().expect("eight bytes"))
            ^ u64::from_le_bytes(wb.try_into().expect("eight bytes"));
        if x != 0 {
            return l + (x.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    l + a[l..]
        .iter()
        .zip(&b[l..])
        .take_while(|(x, y)| x == y)
        .count()
}

/// Hash-chain matcher state for one input.
struct Matcher {
    /// head[h] = most recent position with hash h (+1, 0 = empty).
    head: Box<[u32; 1 << HASH_BITS]>,
    /// prev[i & mask] = previous position in i's hash chain (+1).
    prev: Vec<u32>,
    mask: usize,
}

impl Matcher {
    fn new(n: usize) -> Self {
        // Positions are inserted in increasing order and chains are only
        // followed within the window, so a table of min(n, window) entries
        // (rounded up to a power of two) never aliases a live entry.
        let len = n.next_power_of_two().min(MAX_OFFSET + 1);
        Matcher {
            head: vec![0u32; 1 << HASH_BITS]
                .into_boxed_slice()
                .try_into()
                .expect("head table has 1 << HASH_BITS entries"),
            prev: vec![0u32; len],
            mask: len - 1,
        }
    }

    /// Indexes position `pos` and returns the best (offset, len) match.
    fn insert_and_find(&mut self, input: &[u8], pos: usize) -> (usize, usize) {
        let h = hash4(input, pos);
        let mut candidate = self.head[h] as usize;
        self.head[h] = (pos + 1) as u32;
        self.prev[pos & self.mask] = candidate as u32;

        let max_len = input.len() - pos;
        let mut best_len = 0usize;
        let mut best_off = 0usize;
        for _ in 0..CHAIN_TRIES {
            if candidate == 0 {
                break;
            }
            let cand = candidate - 1;
            debug_assert!(cand < pos, "chains only hold earlier positions");
            if pos - cand > MAX_OFFSET {
                break;
            }
            // Only a candidate that also agrees at `best_len` can be
            // strictly longer than the best so far.
            if input[cand + best_len] == input[pos + best_len] {
                let l = common_prefix(&input[cand..], &input[pos..]);
                if l > best_len {
                    best_len = l;
                    best_off = pos - cand;
                    if l >= max_len {
                        break;
                    }
                }
            }
            candidate = self.prev[cand & self.mask] as usize;
        }
        (best_off, best_len)
    }

    /// Indexes a position without searching (inside emitted matches).
    fn insert_only(&mut self, input: &[u8], pos: usize) {
        let h = hash4(input, pos);
        self.prev[pos & self.mask] = self.head[h];
        self.head[h] = (pos + 1) as u32;
    }
}

/// Compresses `input` into the block format.
///
/// The output of compressing an empty input is empty. Compression never
/// fails; incompressible data expands by at most ~0.5 %.
///
/// # Examples
///
/// ```
/// let data = b"abcabcabcabcabcabcabcabc".to_vec();
/// let packed = fidr_compress::compress(&data);
/// assert!(packed.len() < data.len());
/// assert_eq!(fidr_compress::decompress(&packed, data.len()).unwrap(), data);
/// ```
pub fn compress(input: &[u8]) -> Vec<u8> {
    let n = input.len();
    if n == 0 {
        return Vec::new();
    }
    // Worst case: all literals, one extension byte per 255 of them.
    let mut out = Vec::with_capacity(n + n / 255 + 16);

    let mut matcher = Matcher::new(n);
    let mut pos = 0usize;
    let mut literal_start = 0usize;

    // Matches may not extend into the final MIN_MATCH bytes so the last
    // sequence always ends in literals.
    let match_limit = n.saturating_sub(MIN_MATCH);

    while pos < match_limit {
        let (best_off, mut best_len) = matcher.insert_and_find(input, pos);
        if best_len >= MIN_MATCH {
            // Trim so the stream always ends with at least MIN_MATCH
            // literal bytes; truncated streams then fail decompression.
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
                // Index the skipped positions sparsely (every other byte) to
                // keep compression fast on long matches.
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

    // Final literal-only sequence.
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
        Some((off, mlen)) => {
            debug_assert!(mlen >= MIN_MATCH);
            (((mlen - MIN_MATCH).min(15)) as u8, off, mlen)
        }
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

/// Decompresses a block produced by [`compress`].
///
/// `expected_len` is the exact original length (the storage system records
/// it in the PBN→PBA map, paper §2.1.4).
///
/// # Errors
///
/// Returns [`DecompressError`] if the stream is truncated, an offset points
/// before the output start, or the output length disagrees with
/// `expected_len`.
pub fn decompress(input: &[u8], expected_len: usize) -> Result<Vec<u8>, DecompressError> {
    let mut out = Vec::with_capacity(expected_len);
    let mut p = 0usize;
    let n = input.len();

    if n == 0 {
        return if expected_len == 0 {
            Ok(out)
        } else {
            Err(DecompressError::new("empty stream for non-empty data"))
        };
    }

    while p < n {
        let token = input[p];
        p += 1;
        let mut lit_len = (token >> 4) as usize;
        if lit_len == 15 {
            loop {
                let b = *input
                    .get(p)
                    .ok_or(DecompressError::new("truncated literal length"))?;
                p += 1;
                lit_len += b as usize;
                if b != 255 {
                    break;
                }
            }
        }
        if p + lit_len > n {
            return Err(DecompressError::new("literal run past end of stream"));
        }
        out.extend_from_slice(&input[p..p + lit_len]);
        p += lit_len;

        if p == n {
            break; // final literal-only sequence
        }

        if p + 2 > n {
            return Err(DecompressError::new("truncated match offset"));
        }
        let off = input[p] as usize | ((input[p + 1] as usize) << 8);
        p += 2;
        if off == 0 || off > out.len() {
            return Err(DecompressError::new("match offset out of range"));
        }
        let mut mlen = (token & 0x0f) as usize + MIN_MATCH;
        if mlen == 15 + MIN_MATCH {
            loop {
                let b = *input
                    .get(p)
                    .ok_or(DecompressError::new("truncated match length"))?;
                p += 1;
                mlen += b as usize;
                if b != 255 {
                    break;
                }
            }
        }
        // Bound before copying: a corrupt length may claim far more
        // bytes than the block holds.
        if out.len() + mlen > expected_len {
            return Err(DecompressError::new("output exceeds expected length"));
        }
        let start = out.len() - off;
        if off >= mlen {
            out.extend_from_within(start..start + mlen);
        } else {
            // Overlapping copy: the match repeats the last `off` bytes.
            // Each pass copies everything written since `start`, a whole
            // number of periods, so the copied span doubles per pass.
            let end = out.len() + mlen;
            while out.len() < end {
                let k = (out.len() - start).min(end - out.len());
                out.extend_from_within(start..start + k);
            }
        }
    }

    if out.len() != expected_len {
        return Err(DecompressError::new("output shorter than expected length"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let c = compress(data);
        let d = decompress(&c, data.len()).expect("decompress");
        assert_eq!(d, data);
    }

    #[test]
    fn empty() {
        roundtrip(b"");
    }

    #[test]
    fn tiny() {
        roundtrip(b"a");
        roundtrip(b"abc");
        roundtrip(b"abcd");
    }

    #[test]
    fn highly_repetitive_compresses_well() {
        let data = vec![0x42u8; 4096];
        let c = compress(&data);
        assert!(
            c.len() < 100,
            "4 KB of one byte should pack tiny, got {}",
            c.len()
        );
        roundtrip(&data);
    }

    #[test]
    fn pattern_data() {
        let data: Vec<u8> = (0..4096u32).map(|i| (i % 37) as u8).collect();
        let c = compress(&data);
        assert!(c.len() < data.len() / 4);
        roundtrip(&data);
    }

    #[test]
    fn incompressible_random_bytes_expand_little() {
        // xorshift-ish deterministic noise
        let mut s = 0x12345678u64;
        let data: Vec<u8> = (0..4096)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s & 0xff) as u8
            })
            .collect();
        let c = compress(&data);
        assert!(c.len() <= data.len() + data.len() / 128 + 16);
        roundtrip(&data);
    }

    #[test]
    fn long_match_extension_lengths() {
        // Force matches with length requiring several 255-extensions.
        let mut data = b"0123456789abcdef".to_vec();
        let rep = data.clone();
        for _ in 0..200 {
            data.extend_from_slice(&rep);
        }
        roundtrip(&data);
    }

    #[test]
    fn long_literal_runs() {
        // >270 distinct bytes to force extended literal length encoding.
        let data: Vec<u8> = (0u32..1000)
            .map(|i| (i.wrapping_mul(179) >> 3) as u8)
            .collect();
        roundtrip(&data);
    }

    #[test]
    fn truncated_stream_errors() {
        let data = vec![7u8; 1024];
        let c = compress(&data);
        assert!(decompress(&c[..c.len() - 1], data.len()).is_err());
    }

    #[test]
    fn wrong_expected_len_errors() {
        let data = b"hello world hello world hello world".to_vec();
        let c = compress(&data);
        assert!(decompress(&c, data.len() + 1).is_err());
        assert!(decompress(&c, data.len() - 1).is_err());
    }

    #[test]
    fn corrupt_offset_errors() {
        // Token demanding a match with offset beyond produced output.
        let stream = [0x10, b'a', 0xff, 0xff, 0x00];
        assert!(decompress(&stream, 100).is_err());
    }

    #[test]
    fn oversized_match_length_errors_before_copying() {
        // A 4-KiB stream whose one match claims ~1 MiB: literal "ab",
        // offset 2, then a run of 255-extension bytes.
        let mut stream = vec![0x2f, b'a', b'b', 0x02, 0x00];
        stream.resize(4095, 255);
        stream.push(0);
        let claimed = 2 + 19 + 255 * (4095 - 5);
        assert!(claimed > 1_000_000);
        assert!(decompress(&stream, 4096).is_err());
    }
}
