//! Gaussian noise generation (Box–Muller) without extra dependencies.
//!
//! Measurement noise, rail jitter and SMC quantization dither all draw from
//! here so the whole simulation stays reproducible from one seed.

use rand::{Rng, RngCore};

/// One sample of `N(mean, sigma²)`.
///
/// `sigma == 0` returns `mean` exactly (useful for "noiseless" configs).
///
/// Generic over the generator so a concrete one (the simulators' ChaCha)
/// inlines into the draw; `&mut dyn RngCore` callers work unchanged.
///
/// # Panics
///
/// Panics if `sigma` is negative or non-finite.
#[must_use]
#[inline]
pub fn gaussian<R: RngCore + ?Sized>(rng: &mut R, mean: f64, sigma: f64) -> f64 {
    assert!(sigma.is_finite() && sigma >= 0.0, "invalid sigma {sigma}");
    if sigma == 0.0 {
        return mean;
    }
    // Box–Muller: two uniforms → one normal deviate. `u1` is kept away from
    // zero so `ln` stays finite.
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * u2).cos();
    mean + sigma * z
}

/// A random-walk drift process (used by the `PSTR` rail to create the
/// paper's Table 3/4 false-positive/CPA-failure behaviour).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomWalk {
    value: f64,
    step_sigma: f64,
    /// Mean-reversion factor per step (0 = pure random walk, →1 reverts hard).
    reversion: f64,
}

impl RandomWalk {
    /// A walk starting at zero with the given per-step σ and mean reversion.
    #[must_use]
    pub fn new(step_sigma: f64, reversion: f64) -> Self {
        Self { value: 0.0, step_sigma, reversion: reversion.clamp(0.0, 1.0) }
    }

    /// Current value.
    #[must_use]
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Advance one step and return the new value.
    pub fn step<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> f64 {
        self.value = self.value * (1.0 - self.reversion) + gaussian(rng, 0.0, self.step_sigma);
        self.value
    }

    /// Reset to zero.
    pub fn reset(&mut self) {
        self.value = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn zero_sigma_is_exact() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(gaussian(&mut rng, 3.25, 0.0), 3.25);
    }

    #[test]
    fn sample_moments_match() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng, 1.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        assert!((mean - 1.0).abs() < 0.02, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = ChaCha8Rng::seed_from_u64(9);
        let mut b = ChaCha8Rng::seed_from_u64(9);
        for _ in 0..32 {
            assert_eq!(gaussian(&mut a, 0.0, 1.0), gaussian(&mut b, 0.0, 1.0));
        }
    }

    #[test]
    #[should_panic(expected = "invalid sigma")]
    fn negative_sigma_panics() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let _ = gaussian(&mut rng, 0.0, -1.0);
    }

    #[test]
    fn random_walk_accumulates() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut walk = RandomWalk::new(1.0, 0.0);
        let mut max_abs: f64 = 0.0;
        for _ in 0..500 {
            max_abs = max_abs.max(walk.step(&mut rng).abs());
        }
        // A 500-step unit random walk drifts well beyond single-step sigma.
        assert!(max_abs > 5.0, "walk never drifted: {max_abs}");
    }

    #[test]
    fn mean_reversion_bounds_walk() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut walk = RandomWalk::new(1.0, 0.5);
        for _ in 0..2000 {
            walk.step(&mut rng);
            assert!(walk.value().abs() < 20.0);
        }
    }

    #[test]
    fn reset_zeroes() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut walk = RandomWalk::new(1.0, 0.0);
        walk.step(&mut rng);
        walk.reset();
        assert_eq!(walk.value(), 0.0);
    }
}
