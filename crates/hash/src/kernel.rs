//! SHA-256 kernel selection.
//!
//! Three compression kernels produce the same FIPS 180-4 digests:
//!
//! * **SHA-NI** — the x86 SHA extensions (`sha256rnds2`,
//!   `sha256msg1/2`). One stream at a time; the state stays in two XMM
//!   registers across a whole run of 64-byte blocks.
//! * **AVX2 ×8** — the 8-lane interleaved kernel in [`crate::lanes`]:
//!   eight streams per compression round. Single streams (and lanes the
//!   group outlives) fall back to the scalar core.
//! * **scalar** — the portable reference core in `sha256.rs`.
//!
//! [`Kernel::active`] picks one per process by CPU feature, in that
//! order, on the first hash. Every digest in the crate goes through that
//! choice: [`crate::Sha256`], [`crate::Fingerprint::of`],
//! [`crate::digest_batch`] and the lanes kernel's tails. There is no
//! flag, environment variable or config field to override it; the
//! digests are bit-identical on every kernel, so nothing downstream can
//! tell which one ran.

use crate::sha256::compress_block;
use std::sync::OnceLock;

/// One SHA-256 compression kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Kernel {
    /// x86 SHA extensions, one stream.
    ShaNi,
    /// AVX2 eight-lane interleave for batches; scalar for single streams.
    Avx2x8,
    /// The portable FIPS 180-4 reference core.
    Scalar,
}

impl Kernel {
    /// Every kernel, in dispatch preference order.
    #[cfg(test)]
    pub(crate) const ALL: [Kernel; 3] = [Kernel::ShaNi, Kernel::Avx2x8, Kernel::Scalar];

    /// The kernel every hash in this process uses: the first of SHA-NI,
    /// AVX2 ×8 and scalar the CPU supports, probed once.
    pub(crate) fn active() -> Kernel {
        static ACTIVE: OnceLock<Kernel> = OnceLock::new();
        *ACTIVE.get_or_init(|| {
            [Kernel::ShaNi, Kernel::Avx2x8]
                .into_iter()
                .find(|k| k.available())
                .unwrap_or(Kernel::Scalar)
        })
    }

    /// Whether the host CPU supports this kernel.
    pub(crate) fn available(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Kernel::ShaNi => {
                std::arch::is_x86_feature_detected!("sha")
                    && std::arch::is_x86_feature_detected!("sse2")
                    && std::arch::is_x86_feature_detected!("ssse3")
                    && std::arch::is_x86_feature_detected!("sse4.1")
            }
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2x8 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            Kernel::ShaNi | Kernel::Avx2x8 => false,
            Kernel::Scalar => true,
        }
    }

    /// The name [`kernel`] reports.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Kernel::ShaNi => "sha-ni",
            Kernel::Avx2x8 => "avx2x8",
            Kernel::Scalar => "scalar",
        }
    }

    /// Compresses a run of whole 64-byte blocks into one stream's
    /// `state`. The caller must pass a kernel [`available`](Self::available)
    /// on this host.
    ///
    /// # Panics
    ///
    /// Panics if `blocks.len()` is not a multiple of 64.
    #[allow(unsafe_code)]
    pub(crate) fn compress_blocks(self, state: &mut [u32; 8], blocks: &[u8]) {
        assert_eq!(blocks.len() % 64, 0, "whole 64-byte blocks only");
        match self {
            #[cfg(target_arch = "x86_64")]
            Kernel::ShaNi => {
                assert!(self.available(), "SHA-NI kernel on a host without it");
                // SAFETY: the assert above confirmed (through the cached
                // runtime probe) that the CPU supports every target
                // feature `sha_ni::compress` enables.
                unsafe { sha_ni::compress(state, blocks) }
            }
            _ => {
                for block in blocks.chunks_exact(64) {
                    compress_block(state, block.try_into().expect("64-byte block"));
                }
            }
        }
    }
}

/// Name of the SHA-256 kernel this process hashes with: `"sha-ni"`,
/// `"avx2x8"` or `"scalar"`, the first the CPU supports, picked once per
/// process. Every kernel yields the same digests.
///
/// # Examples
///
/// ```
/// assert!(["sha-ni", "avx2x8", "scalar"].contains(&fidr_hash::kernel()));
/// ```
pub fn kernel() -> &'static str {
    Kernel::active().name()
}

/// The SHA-NI compression kernel. Its `unsafe` is the intrinsics'
/// target-feature requirement (the caller probes the CPU first) and
/// unaligned 16-byte loads/stores from fixed-size arrays.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod sha_ni {
    use crate::sha256::K;
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16, _mm_loadu_si128, _mm_set_epi64x,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
        _mm_shuffle_epi8, _mm_storeu_si128,
    };

    /// Compresses every whole 64-byte block of `blocks` into `state`.
    /// The state stays packed in two registers (`abef`, `cdgh`, the
    /// layout `sha256rnds2` expects) for the whole run.
    ///
    /// # Safety
    ///
    /// The host CPU must support SHA, SSE2, SSSE3 and SSE4.1
    /// (`is_x86_feature_detected!`).
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) unsafe fn compress(state: &mut [u32; 8], blocks: &[u8]) {
        // Byte swap of each 32-bit word: message words are big-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let k4 = |i: usize| {
            let k: &[u32; 4] = K[4 * i..4 * i + 4].try_into().expect("4 words");
            // SAFETY: `k` is 16 bytes; unaligned loads are allowed.
            unsafe { _mm_loadu_si128(k.as_ptr().cast::<__m128i>()) }
        };
        let load = |block: &[u8], j: usize| {
            let w: &[u8; 16] = block[16 * j..16 * j + 16].try_into().expect("16 bytes");
            // SAFETY: `w` is 16 bytes; unaligned loads are allowed.
            _mm_shuffle_epi8(
                unsafe { _mm_loadu_si128(w.as_ptr().cast::<__m128i>()) },
                bswap,
            )
        };

        // SAFETY: `state` is 32 bytes: two in-bounds 16-byte loads.
        let (dcba, hgfe) = unsafe {
            let p = state.as_ptr().cast::<__m128i>();
            (_mm_loadu_si128(p), _mm_loadu_si128(p.add(1)))
        };
        let cdab = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

        // Four rounds on message words `w` (plus K[4i..4i + 4]):
        // sha256rnds2 takes two W+K words per call from the low half of
        // its third operand.
        macro_rules! rounds4 {
            ($w:expr, $i:expr) => {{
                let wk = _mm_add_epi32($w, k4($i));
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            }};
        }
        // Replaces the oldest four message words `w0` with the next four,
        // from the previous sixteen (`w0` oldest .. `w3` newest).
        macro_rules! schedule {
            ($w0:ident, $w1:ident, $w2:ident, $w3:ident) => {
                $w0 = _mm_sha256msg2_epu32(
                    _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4)),
                    $w3,
                );
            };
        }

        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let (mut w0, mut w1, mut w2, mut w3) = (
                load(block, 0),
                load(block, 1),
                load(block, 2),
                load(block, 3),
            );
            rounds4!(w0, 0);
            rounds4!(w1, 1);
            rounds4!(w2, 2);
            rounds4!(w3, 3);
            for i in [4, 8, 12] {
                schedule!(w0, w1, w2, w3);
                rounds4!(w0, i);
                schedule!(w1, w2, w3, w0);
                rounds4!(w1, i + 1);
                schedule!(w2, w3, w0, w1);
                rounds4!(w2, i + 2);
                schedule!(w3, w0, w1, w2);
                rounds4!(w3, i + 3);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
        let hgfe = _mm_alignr_epi8(dchg, feba, 8);
        // SAFETY: two in-bounds 16-byte stores into the 32-byte `state`.
        unsafe {
            let p = state.as_mut_ptr().cast::<__m128i>();
            _mm_storeu_si128(p, dcba);
            _mm_storeu_si128(p.add(1), hgfe);
        }
    }
}

/// Byte-identity of every kernel the host has against the scalar
/// reference core. Digests through [`Sha256::digest`] alone would only
/// compare the active kernel with itself.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::digest_batch_with;
    use crate::{splitmix64, Sha256};

    /// The kernels this host can run; each one it lacks is named on
    /// stdout rather than passing silently.
    fn host_kernels() -> Vec<Kernel> {
        Kernel::ALL
            .into_iter()
            .filter(|k| {
                let ok = k.available();
                if !ok {
                    println!("skipping the {} kernel: this CPU lacks it", k.name());
                }
                ok
            })
            .collect()
    }

    fn digest_with(kernel: Kernel, data: &[u8]) -> [u8; 32] {
        let mut h = Sha256::with_kernel(kernel);
        h.update(data);
        h.finalize()
    }

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Deterministic test PRNG built on the crate's own mixer.
    fn next(seed: &mut u64) -> u64 {
        *seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(*seed)
    }

    fn random_bytes(seed: &mut u64, len: usize) -> Vec<u8> {
        (0..len).map(|_| next(seed) as u8).collect()
    }

    #[test]
    fn active_kernel_is_the_first_available() {
        let first = Kernel::ALL.into_iter().find(|k| k.available());
        assert_eq!(Some(Kernel::active()), first);
        assert_eq!(crate::kernel(), Kernel::active().name());
    }

    #[test]
    fn fips_vectors_on_every_kernel() {
        let long = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
        let vectors: [(&[u8], &str); 4] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                long,
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
        ];
        for kernel in host_kernels() {
            for (msg, want) in vectors {
                assert_eq!(hex(&digest_with(kernel, msg)), want, "{kernel:?}");
                let batch = digest_batch_with(kernel, &[msg; 9]);
                assert!(batch.iter().all(|d| hex(d) == want), "{kernel:?} batch");
            }
            let mut h = Sha256::with_kernel(kernel);
            for _ in 0..1000 {
                h.update(&[b'a'; 1000]);
            }
            assert_eq!(
                hex(&h.finalize()),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{kernel:?} million-a"
            );
        }
    }

    /// Every length 0..=4160 (one 4-KiB chunk plus a block) crosses the
    /// 55/56/63/64 padding boundaries of every block count, alone and
    /// in a batch.
    #[test]
    fn every_length_matches_the_scalar_reference() {
        let data = random_bytes(&mut 0x1e47_0f5e_ed00_0001, 4160);
        let reference: Vec<[u8; 32]> = (0..=data.len())
            .map(|len| Sha256::scalar_digest(&data[..len]))
            .collect();
        let prefixes: Vec<&[u8]> = (0..=data.len()).map(|len| &data[..len]).collect();
        for kernel in host_kernels() {
            for (len, want) in reference.iter().enumerate() {
                assert_eq!(
                    &digest_with(kernel, &data[..len]),
                    want,
                    "{kernel:?} len {len}"
                );
            }
            // As one batch: AVX2 groups of eight neighbouring lengths.
            assert_eq!(
                digest_batch_with(kernel, &prefixes),
                reference,
                "{kernel:?} batch"
            );
        }
    }

    #[test]
    fn streaming_at_random_splits_matches_the_scalar_reference() {
        let mut seed = 0x5711_7500_0000_0002u64;
        for kernel in host_kernels() {
            for _case in 0..200 {
                let len = (next(&mut seed) % 4200) as usize;
                let data = random_bytes(&mut seed, len);
                let mut h = Sha256::with_kernel(kernel);
                let mut rest = data.as_slice();
                while !rest.is_empty() {
                    let take = (next(&mut seed) as usize % 300).min(rest.len());
                    h.update(&rest[..take]);
                    rest = &rest[take..];
                }
                assert_eq!(
                    h.finalize(),
                    Sha256::scalar_digest(&data),
                    "{kernel:?} len {len}"
                );
            }
        }
    }

    /// Random batch sizes of mixed lengths exercise the AVX2 kernel's
    /// mixed-length groups (common SIMD blocks plus single-stream lane
    /// tails) and its sub-group remainder.
    #[test]
    fn random_batches_match_the_scalar_reference() {
        let mut seed = 0x5eed_cafe_f1d4_2026u64;
        for kernel in host_kernels() {
            assert!(digest_batch_with(kernel, &[]).is_empty());
            for _case in 0..40 {
                let batch_len = (next(&mut seed) % 23) as usize;
                let msgs: Vec<Vec<u8>> = (0..batch_len)
                    .map(|_| {
                        let len = match next(&mut seed) % 3 {
                            0 => 4096,
                            1 => (next(&mut seed) % 300) as usize,
                            _ => (next(&mut seed) % 4200) as usize,
                        };
                        random_bytes(&mut seed, len)
                    })
                    .collect();
                let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
                let got = digest_batch_with(kernel, &refs);
                assert_eq!(got.len(), msgs.len());
                for (msg, digest) in msgs.iter().zip(got) {
                    assert_eq!(
                        digest,
                        Sha256::scalar_digest(msg),
                        "{kernel:?} len {}",
                        msg.len()
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "whole 64-byte blocks")]
    fn partial_block_run_panics() {
        Kernel::Scalar.compress_blocks(&mut crate::sha256::H0.clone(), &[0u8; 65]);
    }
}
