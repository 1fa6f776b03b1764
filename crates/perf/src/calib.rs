//! Host-time normalisation.
//!
//! The sandbox is a two-core VM among noisy neighbours. Measured on it
//! (150 s traces of one launch repeated between calibration samples):
//! identical code runs in regimes lasting 0.3–1 s during which it is up
//! to 2.7× slower, on-CPU time equals wall time so the guest cannot see
//! the cause, and a 70 ms launch has a coefficient of variation of 20 %.
//! Two things make that repeatable, and both are needed:
//!
//! * **Scale every sample by the calibration samples on either side of
//!   it.** The calibration loop must react to the regimes the way the
//!   simulator does, which turned out to mean compute-bound: a loop of
//!   xorshift, integer add and f32 multiply-add tracked SGEMM, the L2
//!   pointer chase and the nn sweep, while loops reading a 256 KiB or an
//!   8 MiB table over-reacted and were worse than no scaling at all for
//!   two of the three.
//! * **Keep the fast tail, not the middle.** The noise only ever adds
//!   time, so the estimate of a repeated timing is the mean of its scaled
//!   samples between the 5th and the 25th percentile ([`quiet`]). Over
//!   windows of 30–50 samples that estimate had an interquartile spread
//!   of 2–6 % (3–10 % on a worse afternoon), against 15 % for the median
//!   of the same scaled samples and 10–12 % for the fastest unscaled
//!   ones.
//!
//! `norm_*` metrics are therefore in seconds as the reference machine
//! counts them: `raw × CALIB_REF_S / mean(adjacent calibration samples)`.
//! The loop calls nothing from the workspace, so no change to the program
//! under test can move the yardstick.

use std::hint::black_box;
use std::time::Instant;

/// Quiet-machine time of one calibration sample on the reference machine
/// (this sandbox). `norm_*` metrics are in that machine's seconds.
pub const CALIB_REF_S: f64 = 0.0088;

const ITERS: u32 = 4_000_000;

/// The quiet-machine estimate of a repeated timing: the mean of the
/// samples between its 5th and its 25th percentile (of the fastest one
/// when there are fewer than eight). The fastest twentieth is left out
/// because a scaled sample is a ratio, and a calibration sample that
/// caught a slow stretch its unit missed makes the ratio too small.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quiet(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "quiet estimate of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let lo = v.len() / 20;
    let hi = (v.len() / 4).max(lo + 1);
    v[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
}

/// Runs the calibration loop once and returns its wall time in seconds.
pub fn calibration_sample() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut acc = 0u32;
    let mut f = 1.0f32;
    for _ in 0..ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x as u32);
        f = f.mul_add(1.000_000_1, (acc & 0xFF) as f32 * 1e-9);
    }
    black_box((acc, f));
    t0.elapsed().as_secs_f64()
}

/// One timed unit.
#[derive(Clone, Copy, Debug)]
pub struct Timed {
    /// Raw wall seconds.
    pub raw_s: f64,
    /// Mean of the calibration samples before and after, in seconds.
    pub calib_s: f64,
}

impl Timed {
    /// Wall seconds scaled to the reference machine.
    pub fn norm_s(&self) -> f64 {
        self.scaled_s(1.0)
    }

    /// Wall seconds with only `cpu_share` of them scaled to the reference
    /// machine: time spent waiting on a timer or a socket does not get
    /// shorter on a faster machine.
    pub fn scaled_s(&self, cpu_share: f64) -> f64 {
        self.raw_s * (1.0 - cpu_share + cpu_share * CALIB_REF_S / self.calib_s)
    }
}

/// Quiet-machine normalised seconds of a repeated unit.
pub fn quiet_norm_s(samples: &[Timed]) -> f64 {
    quiet(&samples.iter().map(Timed::norm_s).collect::<Vec<_>>())
}

/// Interleaves calibration samples with timed units: the sample taken
/// after one unit is the sample before the next.
pub struct Normaliser {
    last: f64,
    /// Every calibration sample taken, in seconds.
    pub samples: Vec<f64>,
}

impl Default for Normaliser {
    fn default() -> Normaliser {
        Normaliser::new()
    }
}

impl Normaliser {
    /// Takes the first sample.
    pub fn new() -> Normaliser {
        let last = calibration_sample();
        Normaliser {
            last,
            samples: vec![last],
        }
    }

    /// Takes a fresh "before" sample — call after an untimed gap, so a
    /// stale sample is not paired with the next unit.
    pub fn resync(&mut self) {
        self.last = calibration_sample();
        self.samples.push(self.last);
    }

    /// Times `f` between two calibration samples.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Timed) {
        let before = self.last;
        let t0 = Instant::now();
        let out = f();
        let raw_s = t0.elapsed().as_secs_f64();
        self.resync();
        let calib_s = (before + self.last) / 2.0;
        (out, Timed { raw_s, calib_s })
    }
}

/// CPU seconds this process (all threads, finished ones included) has
/// used, from `/proc/self/stat`; `None` where that cannot be read. Ticks
/// are 10 ms (`USER_HZ` is 100 on every mainstream Linux build), so only
/// differences over a second or more mean anything.
pub fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name: state is the first,
    // utime and stime the 12th and 13th.
    let rest = stat.rsplit_once(") ")?.1;
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_is_the_mean_between_the_5th_and_25th_percentile() {
        // Forty samples: the two fastest are left out, the next eight kept.
        let forty: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(quiet(&forty), (3..=10).sum::<i32>() as f64 / 8.0);
        // Neither a too-fast ratio nor any number of slow samples moves it.
        let mut noisy = forty.clone();
        noisy[39] = 0.01;
        noisy[..20].iter_mut().for_each(|v| *v *= 100.0);
        assert_eq!(quiet(&noisy), quiet(&forty));
        // A handful of samples: the fastest.
        assert_eq!(quiet(&[9.0, 1.0, 5.0]), 1.0);
        assert_eq!(quiet(&[7.0]), 7.0);
    }

    #[test]
    fn units_are_scaled_by_the_samples_around_them() {
        let mut n = Normaliser::new();
        let before = n.samples[0];
        let (v, t) = n.time(|| 7);
        assert_eq!(v, 7);
        assert_eq!(n.samples.len(), 2);
        assert_eq!(t.calib_s, (before + n.samples[1]) / 2.0);
        assert!((t.norm_s() - t.raw_s * CALIB_REF_S / t.calib_s).abs() < 1e-15);
    }

    #[test]
    fn only_the_cpu_share_of_a_wait_is_scaled() {
        let t = Timed {
            raw_s: 2.0,
            calib_s: 2.0 * CALIB_REF_S, // a machine half as fast
        };
        assert_eq!(t.norm_s(), 1.0);
        assert_eq!(t.scaled_s(0.0), 2.0);
        assert_eq!(t.scaled_s(0.5), 1.5);
    }

    #[test]
    fn process_cpu_time_is_readable_and_monotonic() {
        let a = process_cpu_s().expect("/proc/self/stat");
        calibration_sample();
        assert!(process_cpu_s().unwrap() >= a);
    }
}
