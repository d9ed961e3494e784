//! # fidr-hash
//!
//! Hashing primitives for the FIDR inline data-reduction system
//! (MICRO-52 2019): a from-scratch streaming [`Sha256`], a batch digest
//! ([`digest_batch`], module [`lanes`]) standing in for the NIC's
//! parallel SHA cores, the 32-byte chunk [`Fingerprint`] used as the
//! deduplication signature, and the cheap [`fnv1a`] mix used by
//! non-cryptographic helpers.
//!
//! In the paper, SHA-256 cores run on the FIDR NIC (or on the CIDR baseline's
//! FPGA). In this reproduction the same digests are computed in software and
//! the hash *placement* (NIC vs FPGA vs CPU) is captured by the hardware
//! model in `fidr-hwsim`. The software stand-in compresses blocks on the
//! fastest kernel the CPU offers, chosen once per process: SHA-NI, else
//! the AVX2 8-lane interleave of [`lanes`], else the scalar core
//! ([`kernel`] names the choice). The configured hash-engine and worker
//! counts never pick the kernel, and every kernel produces digests
//! byte-identical to the scalar core.
//!
//! # Examples
//!
//! ```
//! use fidr_hash::{Fingerprint, Sha256};
//!
//! // Fingerprint a 4-KB chunk and derive its Hash-PBN bucket.
//! let chunk = vec![7u8; 4096];
//! let fp = Fingerprint::of(&chunk);
//! let bucket = fp.bucket_index(1 << 20);
//! assert!(bucket < (1 << 20));
//!
//! // Streaming digest over the same bytes agrees.
//! let mut h = Sha256::new();
//! h.update(&chunk[..1000]);
//! h.update(&chunk[1000..]);
//! assert_eq!(&h.finalize(), fp.as_bytes());
//! ```

// Unsafe is denied crate-wide; the exceptions are the SIMD intrinsics
// kernels (SHA-NI in `kernel`, AVX2 in `lanes`), which carry targeted
// allows and document their safety contract (runtime feature detection).
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod fingerprint;
mod fnv;
mod kernel;
pub mod lanes;
mod sha256;

pub use fingerprint::{Fingerprint, FINGERPRINT_LEN};
pub use fnv::{fnv1a, fnv1a_u64, splitmix64};
pub use kernel::kernel;
pub use lanes::{digest_batch, lane_count};
pub use sha256::Sha256;
