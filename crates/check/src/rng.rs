//! The workspace's canonical deterministic PRNG.
//!
//! One xorshift64* generator, shared by the fuzzer, the benchmark
//! workloads and every
//! randomized test in the workspace. It replaces the per-test copies
//! that used to be re-declared in `tests/random_system.rs` and the
//! `crates/*/tests/random_*.rs` files, and the `rand` crate, which is
//! unreachable from the offline build environment.
//!
//! The sequence is fully determined by the seed, so fuzz campaigns,
//! benchmark inputs and test data are reproducible across runs and
//! platforms.

/// A deterministic xorshift64* pseudo-random generator.
///
/// # Example
///
/// ```
/// use tcsim_check::rng::XorShift64Star;
///
/// let mut a = XorShift64Star::new(42);
/// let mut b = XorShift64Star::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug)]
pub struct XorShift64Star {
    state: u64,
}

impl XorShift64Star {
    /// Creates a generator from a seed (a zero seed is remapped, as the
    /// all-zero state is a fixed point of the xorshift recurrence).
    pub fn new(seed: u64) -> XorShift64Star {
        XorShift64Star {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Next 32-bit output (upper half of the 64-bit stream, which has the
    /// better-mixed bits in xorshift*).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Multiply-shift range reduction; the modulo bias is < 2^-32 for
        // the bounds used in tests.
        ((self.next_u64() >> 32).wrapping_mul(bound)) >> 32
    }

    /// Uniform integer in `[lo, hi)`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range");
        lo + self.below((hi - lo) as u64) as i64
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Next 16-bit output (top bits of the 64-bit stream).
    pub fn next_u16(&mut self) -> u16 {
        (self.next_u64() >> 48) as u16
    }

    /// Arbitrary f32 bit pattern (including NaN/inf/subnormal).
    pub fn next_f32_bits(&mut self) -> f32 {
        f32::from_bits(self.next_u32())
    }

    /// Uniform integer in the **inclusive** range `[lo, hi]`.
    pub fn range_i32(&mut self, lo: i32, hi: i32) -> i32 {
        assert!(lo <= hi, "empty range");
        lo + self.below((hi - lo + 1) as u64) as i32
    }

    /// A uniformly random boolean.
    pub fn next_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// `true` with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    /// Uniformly picks one element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// A seeded open-loop exponential inter-arrival stream — the Poisson
/// arrival process both `tcsim-loadgen` (wall-clock seconds against the
/// job server) and the `tcsim-infer` serving simulator (simulated
/// cycles) draw from. One implementation, one bit-exact sequence: the
/// generator is seeded with `seed ^ SEED_SALT` and each interval is
/// `-ln(1 - u) / rate` for the next uniform `u`, so a given `(seed,
/// rate)` always produces the same arrival pattern regardless of the
/// time unit the caller assigns to `rate`.
///
/// # Example
///
/// ```
/// use tcsim_check::rng::ExpArrivals;
///
/// let mut a = ExpArrivals::new(7, 2.0);
/// let mut b = ExpArrivals::new(7, 2.0);
/// let iv = a.next_interval();
/// assert!(iv > 0.0);
/// assert_eq!(iv, b.next_interval());
/// ```
#[derive(Clone, Debug)]
pub struct ExpArrivals {
    rng: XorShift64Star,
    rate: f64,
}

impl ExpArrivals {
    /// Salt folded into the seed (`"LOADGEN!"` in ASCII) so arrival
    /// streams are decorrelated from other consumers of the same user
    /// seed. Kept bit-compatible with the generator `tcsim-loadgen`
    /// inlined before this module existed, so committed benchmark
    /// artifacts stay reproducible.
    pub const SEED_SALT: u64 = 0x4C4F_4144_4745_4E21;

    /// Creates the stream. `rate` is arrivals per unit time (the caller
    /// picks the unit: seconds, cycles, Mcycles).
    ///
    /// # Panics
    ///
    /// Panics unless `rate` is positive and finite.
    pub fn new(seed: u64, rate: f64) -> ExpArrivals {
        assert!(
            rate > 0.0 && rate.is_finite(),
            "arrival rate must be positive"
        );
        ExpArrivals {
            rng: XorShift64Star::new(seed ^ Self::SEED_SALT),
            rate,
        }
    }

    /// The next exponential inter-arrival interval, in the caller's time
    /// unit. Always positive and finite (`u < 1` by construction).
    pub fn next_interval(&mut self) -> f64 {
        let u = self.rng.next_f64();
        -(1.0 - u).ln() / self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_seed_sensitive() {
        let mut a = XorShift64Star::new(7);
        let mut b = XorShift64Star::new(7);
        let mut c = XorShift64Star::new(8);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn consecutive_outputs_differ() {
        let mut r = XorShift64Star::new(7);
        let xs: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
        for w in xs.windows(2) {
            assert_ne!(w[0], w[1]);
        }
    }

    #[test]
    fn ranges_and_unit_floats_stay_in_bounds() {
        let mut r = XorShift64Star::new(123);
        for _ in 0..1000 {
            let v = r.range_i64(-5, 6);
            assert!((-5..6).contains(&v));
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut z = XorShift64Star::new(0);
        assert_ne!(z.next_u64(), 0);
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = XorShift64Star::new(3);
        for bound in [1u64, 2, 7, 100] {
            for _ in 0..100 {
                assert!(r.below(bound) < bound);
            }
        }
    }

    #[test]
    fn matches_the_historic_bench_sequence() {
        // The recurrence must stay bit-compatible with the generator the
        // benchmark binaries used when the committed golden results were
        // produced.
        let mut r = XorShift64Star::new(1);
        let x = r.next_u64();
        let expect = {
            let mut s = 1u64;
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            s.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        assert_eq!(x, expect);
    }
}
