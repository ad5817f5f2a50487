//! Seeded inputs: the position-dependent payload pattern and the loss phase.
//!
//! Everything a workload feeds the crates is derived here from `--seed`, with
//! a generator of the benchmark's own so that no change to the code under test
//! can change the inputs. Payload is never buffered for comparison: byte `p`
//! of a stream is a pure function of `(seed, p)`, so the receiver recomputes
//! what it should have got.

/// SplitMix64 (Steele, Lea, Flood 2014): tiny, full-period, and good enough
/// to decorrelate neighbouring positions and seeds.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN);
        mix(self.0)
    }
}

/// A stream key: the run seed crossed with a stream number, so connections
/// of one run carry different bytes.
pub fn key(seed: u64, stream: u64) -> u64 {
    mix(seed ^ stream.wrapping_mul(GOLDEN))
}

/// The eight pattern bytes at word index `idx` of the stream keyed `key`.
#[inline]
fn word(key: u64, idx: u64) -> [u8; 8] {
    mix(key.wrapping_add(idx.wrapping_mul(GOLDEN))).to_le_bytes()
}

/// Fill `buf` with the pattern bytes of positions `pos..pos + buf.len()`.
/// Every workload writes whole words, so `pos` and the length must be
/// multiples of eight: one mix per eight bytes.
pub fn fill(key: u64, pos: u64, buf: &mut [u8]) {
    assert!(
        pos % 8 == 0 && buf.len() % 8 == 0,
        "pattern writes are word-aligned"
    );
    for (i, chunk) in buf.chunks_exact_mut(8).enumerate() {
        chunk.copy_from_slice(&word(key, pos / 8 + i as u64));
    }
}

/// Check that `got` holds the pattern bytes of positions `pos..`; on a
/// mismatch, the stream position of the first bad byte.
pub fn verify(key: u64, pos: u64, got: &[u8]) -> Result<(), u64> {
    if pos % 8 == 0 {
        let mut chunks = got.chunks_exact(8);
        for (i, chunk) in chunks.by_ref().enumerate() {
            if chunk != word(key, pos / 8 + i as u64) {
                return verify_bytes(key, pos + 8 * i as u64, chunk);
            }
        }
        let done = got.len() - chunks.remainder().len();
        verify_bytes(key, pos + done as u64, chunks.remainder())
    } else {
        verify_bytes(key, pos, got)
    }
}

fn verify_bytes(key: u64, pos: u64, got: &[u8]) -> Result<(), u64> {
    for (i, b) in got.iter().enumerate() {
        let p = pos + i as u64;
        if *b != word(key, p / 8)[(p % 8) as usize] {
            return Err(p);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_repeat_for_a_seed_and_differ_across_seeds() {
        let draws = |seed| {
            let mut r = SplitMix::new(key(seed, 0x1055));
            (0..100).map(|_| r.next_u64() % 100).collect::<Vec<_>>()
        };
        assert_eq!(draws(42), draws(42));
        assert_ne!(draws(42), draws(43));
        // Loss phases spread over the whole period, not a corner of it.
        let distinct: std::collections::BTreeSet<u64> = draws(42).into_iter().collect();
        assert!(
            distinct.len() > 50,
            "{} distinct phases of 100",
            distinct.len()
        );
    }

    #[test]
    fn splitmix_matches_reference_vector() {
        // First outputs for seed 1234567 from the reference implementation.
        let mut r = SplitMix::new(1234567);
        assert_eq!(r.next_u64(), 6457827717110365317);
        assert_eq!(r.next_u64(), 3203168211198807973);
    }

    #[test]
    fn pattern_is_position_dependent_and_verifies() {
        let k = key(42, 3);
        let mut a = vec![0u8; 8192];
        fill(k, 8192, &mut a);
        assert_eq!(verify(k, 8192, &a), Ok(()));
        // The same bytes at another position, or under another key, fail.
        assert!(verify(k, 0, &a).is_err());
        assert!(verify(key(42, 4), 8192, &a).is_err());
        assert!(verify(key(43, 3), 8192, &a).is_err());
    }

    #[test]
    fn first_bad_offset_is_reported() {
        let k = key(7, 0);
        let mut whole = vec![0u8; 1024];
        fill(k, 0, &mut whole);
        let a = &mut whole[13..1013]; // unaligned start, odd length
        assert_eq!(verify(k, 13, a), Ok(()));
        a[517] ^= 0x40;
        assert_eq!(verify(k, 13, a), Err(13 + 517));
        let mut b = vec![0u8; 64];
        fill(k, 64, &mut b);
        b[63] ^= 1;
        assert_eq!(verify(k, 64, &b), Err(127));
    }
}
