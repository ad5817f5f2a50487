//! Deterministic pseudo-random number generation.
//!
//! Every stochastic element of the simulator (loss models, RED, traffic
//! sources) draws from its own [`DetRng`] stream, seeded from the master
//! simulation seed plus a stream identifier. Streams are independent, so
//! adding a flow or a queue never perturbs the draws of existing components —
//! a property plain `rand` sharing one generator would not give us, and the
//! reason experiment outputs are bit-reproducible across runs.
//!
//! The generator is xoshiro256** (public domain, Blackman & Vigna), seeded
//! through SplitMix64 as its authors recommend.

/// SplitMix64 step, used for seeding and stream derivation.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A deterministic xoshiro256** generator.
#[derive(Debug, Clone)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // xoshiro must not start from the all-zero state.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E3779B97F4A7C15;
        }
        DetRng { s }
    }

    /// Derive an independent stream from a master seed and a stream id.
    ///
    /// Mixing through SplitMix64 twice decorrelates consecutive ids.
    pub fn stream(master_seed: u64, stream_id: u64) -> Self {
        let mut sm = master_seed ^ stream_id.wrapping_mul(0xA24BAED4963EE407);
        let s0 = splitmix64(&mut sm);
        let s1 = splitmix64(&mut sm);
        DetRng::new(s0 ^ s1.rotate_left(17))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    ///
    /// Uses Lemire rejection to avoid modulo bias.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut lo = m as u64;
        if lo < n {
            let t = n.wrapping_neg() % n;
            while lo < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform float in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn streams_are_independent() {
        let mut a = DetRng::stream(7, 0);
        let mut b = DetRng::stream(7, 1);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = DetRng::new(3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::new(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn chance_frequency_close_to_p() {
        let mut r = DetRng::new(11);
        let n = 100_000;
        let hits = (0..n).filter(|_| r.chance(0.3)).count();
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.3).abs() < 0.01, "freq={freq}");
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = DetRng::new(13);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let v = r.below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn uniform_bounds() {
        let mut r = DetRng::new(19);
        for _ in 0..1_000 {
            let x = r.uniform(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&x));
        }
    }
}
