//! Multi-lane (interleaved) SHA-256 batch digest.
//!
//! The FIDR NIC sustains line rate by instantiating several SHA-256
//! cores and hashing a *batch* of chunks at once (paper §6.2). This
//! module is the software stand-in for those parallel cores: instead of
//! one thread per core, it interleaves up to [`MAX_LANES`] independent
//! messages through a single SIMD compression function, so one host
//! thread retires several hash streams per round — the only way a
//! software "multi-core hash engine" actually gets faster on a machine
//! with fewer CPUs than engines.
//!
//! # Lane layout
//!
//! SHA-256 state is eight 32-bit words; a 256-bit AVX2 register holds
//! eight 32-bit words. The kernel therefore transposes the state: SIMD
//! register `j` holds word `j` of *eight different messages* (one per
//! 32-bit element, the "lane"). Every compression round then performs
//! its adds/rotates/boolean ops on all eight messages at once. Message
//! blocks are fed lock-step: round `b` compresses block `b` of every
//! lane that still has blocks.
//!
//! # Lane-count selection
//!
//! The process-wide kernel choice ([`crate::kernel`]) decides the lane
//! width, by CPU feature, never by the configured engine or worker count
//! — engines scale the *modelled* hash time in `fidr-hwsim`, lanes are
//! merely how the software stand-in keeps up:
//!
//! * SHA-NI → **1 lane**: each message runs alone through the SHA-NI
//!   kernel, which beats eight interleaved AVX2 lanes per message
//!   (~3.5 µs vs ~5.5 µs per 4-KiB chunk).
//! * AVX2 without SHA-NI → **8 lanes** through this module's kernel,
//!   ~5× the scalar core on 4-KiB chunks.
//! * otherwise → **1 lane** (the scalar core per message).
//!   Narrower interleaving (e.g. 4 lanes through plain `[u32; 4]`
//!   arrays) was measured *slower* than scalar under the default
//!   `x86-64` baseline codegen, so it is deliberately not offered.
//!
//! # Byte-identity guarantee
//!
//! [`digest_batch`] returns exactly `Sha256::digest(msg)` for every
//! message, bit for bit, on every kernel: each computes the same
//! FIPS 180-4 rounds over the same padded blocks, group tails shorter
//! than the lane width hash as single streams, and lanes whose messages
//! outlive the group's common block count finish through the
//! single-stream kernel. `kernel.rs` checks every kernel the host has
//! against the scalar reference. Dedup fingerprints, and therefore every
//! exported metric derived from them, cannot depend on which kernel
//! hashed a chunk.

use crate::kernel::Kernel;
use crate::sha256::{Sha256, H0};

/// Widest interleave the kernel supports (AVX2: eight 32-bit lanes).
pub const MAX_LANES: usize = 8;

/// Number of SHA-256 streams one call to [`digest_batch`] interleaves on
/// this host: [`MAX_LANES`] under the AVX2 kernel, else 1 (SHA-NI and
/// scalar hash one message at a time).
pub fn lane_count() -> usize {
    match Kernel::active() {
        Kernel::Avx2x8 => MAX_LANES,
        Kernel::ShaNi | Kernel::Scalar => 1,
    }
}

/// Digests a batch of messages, byte-identical to calling
/// [`Sha256::digest`] on each (see the module docs for the guarantee).
///
/// # Examples
///
/// ```
/// use fidr_hash::{digest_batch, Sha256};
///
/// let msgs: Vec<Vec<u8>> = (0..20u8).map(|i| vec![i; 1000 + i as usize]).collect();
/// let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
/// for (msg, digest) in msgs.iter().zip(digest_batch(&refs)) {
///     assert_eq!(digest, Sha256::digest(msg));
/// }
/// ```
pub fn digest_batch(msgs: &[&[u8]]) -> Vec<[u8; 32]> {
    digest_batch_with(Kernel::active(), msgs)
}

/// [`digest_batch`] on `kernel`, which must be available on the host.
pub(crate) fn digest_batch_with(kernel: Kernel, msgs: &[&[u8]]) -> Vec<[u8; 32]> {
    let single = |m: &&[u8]| {
        let mut h = Sha256::with_kernel(kernel);
        h.update(m);
        h.finalize()
    };
    #[cfg(target_arch = "x86_64")]
    if kernel == Kernel::Avx2x8 {
        let mut out = Vec::with_capacity(msgs.len());
        let mut groups = msgs.chunks_exact(MAX_LANES);
        for group in &mut groups {
            let lanes: &[&[u8]; MAX_LANES] =
                group.try_into().expect("chunks_exact yields full groups");
            out.extend(digest_group(lanes));
        }
        out.extend(groups.remainder().iter().map(single));
        return out;
    }
    msgs.iter().map(single).collect()
}

/// Padded SHA-256 block count of an `len`-byte message: the message
/// bytes plus the mandatory `0x80` marker and 8-byte bit length.
fn padded_blocks(len: usize) -> usize {
    (len + 9).div_ceil(64)
}

/// Materializes padded block `b` of `msg` (`total` = full padded block
/// count): message bytes where the block overlaps the message, the
/// `0x80` terminator at the message end, zero fill, and the big-endian
/// bit length in the final 8 bytes of the last block.
fn padded_block(msg: &[u8], b: usize, total: usize) -> [u8; 64] {
    let mut block = [0u8; 64];
    let start = b * 64;
    if start < msg.len() {
        let take = (msg.len() - start).min(64);
        block[..take].copy_from_slice(&msg[start..start + take]);
        if take < 64 {
            block[take] = 0x80;
        }
    } else if start == msg.len() {
        block[0] = 0x80;
    }
    if b + 1 == total {
        let bit_len = (msg.len() as u64).wrapping_mul(8);
        block[56..].copy_from_slice(&bit_len.to_be_bytes());
    }
    block
}

/// Serializes a lane's final state words into the 32-byte digest.
fn digest_bytes(state: &[u32; 8]) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Digests one full group of [`MAX_LANES`] messages: blocks common to
/// all lanes run through the SIMD kernel; lanes whose (padded) messages
/// are longer finish through the AVX2 kernel's single-stream (scalar)
/// compression. (The `allow` covers only the feature-gated kernel call;
/// see its SAFETY comment.)
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn digest_group(lanes: &[&[u8]; MAX_LANES]) -> [[u8; 32]; MAX_LANES] {
    assert!(
        Kernel::Avx2x8.available(),
        "AVX2 kernel on a host without it"
    );
    let totals: [usize; MAX_LANES] = std::array::from_fn(|l| padded_blocks(lanes[l].len()));
    let common = *totals.iter().min().expect("MAX_LANES > 0");
    let mut states = [H0; MAX_LANES];
    let mut scratch = [[0u8; 64]; MAX_LANES];
    for b in 0..common {
        // A lane's block borrows straight from the message when fully
        // inside it (the hot case for equal-size chunks); padding-bearing
        // blocks materialize into per-lane scratch first.
        for l in 0..MAX_LANES {
            if (b + 1) * 64 > lanes[l].len() {
                scratch[l] = padded_block(lanes[l], b, totals[l]);
            }
        }
        let blocks: [&[u8; 64]; MAX_LANES] = std::array::from_fn(|l| {
            if (b + 1) * 64 <= lanes[l].len() {
                lanes[l][b * 64..(b + 1) * 64]
                    .try_into()
                    .expect("64-byte block slice")
            } else {
                &scratch[l]
            }
        });
        // SAFETY: the assert on entry confirmed (through the cached
        // runtime probe) that the host supports every instruction the
        // kernel uses.
        unsafe { avx2::compress8(&mut states, &blocks) };
    }
    for l in 0..MAX_LANES {
        for b in common..totals[l] {
            Kernel::Avx2x8.compress_blocks(&mut states[l], &padded_block(lanes[l], b, totals[l]));
        }
    }
    std::array::from_fn(|l| digest_bytes(&states[l]))
}

/// The AVX2 8-lane SHA-256 compression kernel. Its `unsafe` is
/// `core::arch` intrinsics, which are unsafe solely
/// because they require the `avx2` target feature — the caller gates on
/// runtime detection. No raw pointers escape; loads/stores go through
/// `_mm256_loadu_si256`/`_mm256_storeu_si256` on stack arrays.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use super::MAX_LANES;
    use crate::sha256::K;
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_and_si256, _mm256_andnot_si256, _mm256_loadu_si256,
        _mm256_or_si256, _mm256_set1_epi32, _mm256_setzero_si256, _mm256_slli_epi32,
        _mm256_srli_epi32, _mm256_storeu_si256, _mm256_xor_si256,
    };

    /// One FIPS 180-4 compression round over eight interleaved lanes:
    /// SIMD element `l` of every vector belongs to message `l`.
    ///
    /// # Safety
    ///
    /// The host CPU must support AVX2 (`is_x86_feature_detected!`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn compress8(
        states: &mut [[u32; 8]; MAX_LANES],
        blocks: &[&[u8; 64]; MAX_LANES],
    ) {
        macro_rules! rotr {
            ($x:expr, $r:expr) => {
                _mm256_or_si256(_mm256_srli_epi32($x, $r), _mm256_slli_epi32($x, 32 - $r))
            };
        }
        macro_rules! add {
            ($a:expr, $b:expr) => {
                _mm256_add_epi32($a, $b)
            };
        }
        let load = |vals: [u32; MAX_LANES]| {
            // SAFETY: `vals` is a properly-aligned-for-loadu 32-byte
            // stack array; unaligned load is explicitly allowed.
            unsafe { _mm256_loadu_si256(vals.as_ptr().cast::<__m256i>()) }
        };

        // Message schedule: w[t] holds word t of all eight lanes.
        let mut w = [_mm256_setzero_si256(); 64];
        for (t, wt) in w.iter_mut().enumerate().take(16) {
            let mut words = [0u32; MAX_LANES];
            for (l, word) in words.iter_mut().enumerate() {
                *word = u32::from_be_bytes(
                    blocks[l][t * 4..t * 4 + 4]
                        .try_into()
                        .expect("4-byte word slice"),
                );
            }
            *wt = load(words);
        }
        for t in 16..64 {
            let x = w[t - 15];
            let s0 = _mm256_xor_si256(
                _mm256_xor_si256(rotr!(x, 7), rotr!(x, 18)),
                _mm256_srli_epi32(x, 3),
            );
            let y = w[t - 2];
            let s1 = _mm256_xor_si256(
                _mm256_xor_si256(rotr!(y, 17), rotr!(y, 19)),
                _mm256_srli_epi32(y, 10),
            );
            w[t] = add!(add!(w[t - 16], s0), add!(w[t - 7], s1));
        }

        // Transpose state in: vector j = state word j across lanes.
        let col = |j: usize, states: &[[u32; 8]; MAX_LANES]| {
            let mut words = [0u32; MAX_LANES];
            for (l, word) in words.iter_mut().enumerate() {
                *word = states[l][j];
            }
            load(words)
        };
        let (mut a, mut b, mut c, mut d) = (
            col(0, states),
            col(1, states),
            col(2, states),
            col(3, states),
        );
        let (mut e, mut f, mut g, mut h) = (
            col(4, states),
            col(5, states),
            col(6, states),
            col(7, states),
        );

        for (t, &wt) in w.iter().enumerate() {
            let s1 = _mm256_xor_si256(_mm256_xor_si256(rotr!(e, 6), rotr!(e, 11)), rotr!(e, 25));
            let ch = _mm256_xor_si256(_mm256_and_si256(e, f), _mm256_andnot_si256(e, g));
            let kt = _mm256_set1_epi32(K[t] as i32);
            let t1 = add!(add!(h, s1), add!(ch, add!(kt, wt)));
            let s0 = _mm256_xor_si256(_mm256_xor_si256(rotr!(a, 2), rotr!(a, 13)), rotr!(a, 22));
            let maj = _mm256_xor_si256(
                _mm256_xor_si256(_mm256_and_si256(a, b), _mm256_and_si256(a, c)),
                _mm256_and_si256(b, c),
            );
            let t2 = add!(s0, maj);
            h = g;
            g = f;
            f = e;
            e = add!(d, t1);
            d = c;
            c = b;
            b = a;
            a = add!(t1, t2);
        }

        // Transpose back and fold into each lane's running state.
        let store = |v: __m256i| {
            let mut words = [0u32; MAX_LANES];
            // SAFETY: 32-byte stack array destination; unaligned store
            // is explicitly allowed.
            unsafe { _mm256_storeu_si256(words.as_mut_ptr().cast::<__m256i>(), v) };
            words
        };
        let cols = [
            store(a),
            store(b),
            store(c),
            store(d),
            store(e),
            store(f),
            store(g),
            store(h),
        ];
        for (l, state) in states.iter_mut().enumerate() {
            for (j, col) in cols.iter().enumerate() {
                state[j] = state[j].wrapping_add(col[l]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_count_follows_the_kernel() {
        let expected = if Kernel::active() == Kernel::Avx2x8 {
            MAX_LANES
        } else {
            1
        };
        assert_eq!(lane_count(), expected);
    }
}
