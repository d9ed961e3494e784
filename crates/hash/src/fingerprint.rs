//! Chunk fingerprints and bucket-index derivation.
//!
//! The Hash-PBN table keys chunks by their SHA-256 digest (paper §2.1.2 uses
//! "strong hash functions (e.g., SHA2) with no practical collisions in
//! petabytes of data"). A [`Fingerprint`] wraps the 32-byte digest and knows
//! how to derive the bucket index used by the bucket-based Hash-PBN table
//! ("the server uses a simple modular function to calculate the bucket
//! index", §2.1.3).

use crate::sha256::Sha256;
use std::fmt;

/// Size of a fingerprint in bytes (SHA-256 digest).
pub const FINGERPRINT_LEN: usize = 32;

/// The SHA-256 fingerprint (signature) of a data chunk.
///
/// # Examples
///
/// ```
/// use fidr_hash::Fingerprint;
///
/// let fp = Fingerprint::of(b"hello chunk");
/// assert_eq!(fp.as_bytes().len(), 32);
/// assert_eq!(fp, Fingerprint::of(b"hello chunk"));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint([u8; FINGERPRINT_LEN]);

impl Fingerprint {
    /// Computes the fingerprint of `data`.
    pub fn of(data: &[u8]) -> Self {
        Fingerprint(Sha256::digest(data))
    }

    /// Computes the fingerprints of a whole batch of chunks in one
    /// [`crate::digest_batch`] call (the AVX2 kernel interleaves eight at
    /// a time); the result is byte-identical to calling
    /// [`Fingerprint::of`] per chunk.
    ///
    /// # Examples
    ///
    /// ```
    /// use fidr_hash::Fingerprint;
    ///
    /// let chunks: Vec<Vec<u8>> = (0..9u8).map(|i| vec![i; 4096]).collect();
    /// let refs: Vec<&[u8]> = chunks.iter().map(|c| c.as_slice()).collect();
    /// let fps = Fingerprint::of_batch(&refs);
    /// assert_eq!(fps[3], Fingerprint::of(&chunks[3]));
    /// ```
    pub fn of_batch(chunks: &[&[u8]]) -> Vec<Self> {
        crate::digest_batch(chunks)
            .into_iter()
            .map(Fingerprint)
            .collect()
    }

    /// Wraps an already-computed digest.
    pub fn from_bytes(bytes: [u8; FINGERPRINT_LEN]) -> Self {
        Fingerprint(bytes)
    }

    /// The raw 32-byte digest.
    pub fn as_bytes(&self) -> &[u8; FINGERPRINT_LEN] {
        &self.0
    }

    /// Derives the Hash-PBN bucket index for a table with `num_buckets`
    /// buckets using the paper's "simple modular function" (§2.1.3).
    ///
    /// # Panics
    ///
    /// Panics if `num_buckets` is zero.
    pub fn bucket_index(&self, num_buckets: u64) -> u64 {
        assert!(num_buckets > 0, "bucket count must be non-zero");
        self.prefix_u64() % num_buckets
    }

    /// The first eight digest bytes as a big-endian integer. SHA-256 output
    /// is uniform, so any fixed 8-byte window is a uniform 64-bit value.
    pub fn prefix_u64(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("digest has 32 bytes"))
    }

    /// A short hex form used in logs and debug output.
    pub fn short_hex(&self) -> String {
        self.0[..6].iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Fingerprint({}…)", self.short_hex())
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl AsRef<[u8]> for Fingerprint {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<[u8; FINGERPRINT_LEN]> for Fingerprint {
    fn from(bytes: [u8; FINGERPRINT_LEN]) -> Self {
        Fingerprint(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_stable_and_in_range() {
        let fp = Fingerprint::of(b"some chunk data");
        let idx = fp.bucket_index(1024);
        assert!(idx < 1024);
        assert_eq!(idx, fp.bucket_index(1024));
    }

    #[test]
    fn bucket_index_spreads_over_buckets() {
        // 4 K fingerprints over 64 buckets should hit every bucket.
        let mut seen = [false; 64];
        for i in 0u32..4096 {
            let fp = Fingerprint::of(&i.to_le_bytes());
            seen[fp.bucket_index(64) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "some bucket never hit");
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_buckets_panics() {
        Fingerprint::of(b"x").bucket_index(0);
    }

    #[test]
    fn display_is_full_hex() {
        let fp = Fingerprint::of(b"abc");
        let s = fp.to_string();
        assert_eq!(s.len(), 64);
        assert!(s.starts_with("ba7816bf"));
    }

    #[test]
    fn roundtrip_from_bytes() {
        let fp = Fingerprint::of(b"roundtrip");
        let fp2 = Fingerprint::from_bytes(*fp.as_bytes());
        assert_eq!(fp, fp2);
    }
}
