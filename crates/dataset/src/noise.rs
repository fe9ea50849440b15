//! Pose corruption: the error model applied to "GPS" poses in experiments.

use bba_geometry::Iso2;
use bba_scene::GaussianSampler;
use rand::Rng;

/// Zero-mean Gaussian pose noise (`σ_t` metres on each translation axis,
/// `σ_θ` radians on heading) — the corruption model of the paper's Table I
/// (`σ_t = 2 m`, `σ_θ = 2°`).
///
/// # Example
///
/// ```
/// use bba_dataset::PoseNoise;
/// use bba_geometry::{Iso2, Vec2};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let noise = PoseNoise::table1();
/// let truth = Iso2::new(0.1, Vec2::new(30.0, 2.0));
/// let mut rng = StdRng::seed_from_u64(1);
/// let corrupted = noise.corrupt(&truth, &mut rng);
/// let (dt, _) = corrupted.error_to(&truth);
/// assert!(dt > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoseNoise {
    /// Standard deviation of translation noise per axis (m).
    pub sigma_t: f64,
    /// Standard deviation of rotation noise (radians).
    pub sigma_theta: f64,
}

impl PoseNoise {
    /// The paper's Table I setting: `σ_t = 2 m`, `σ_θ = 2°`.
    pub fn table1() -> Self {
        PoseNoise { sigma_t: 2.0, sigma_theta: 2f64.to_radians() }
    }

    /// No noise.
    pub fn none() -> Self {
        PoseNoise { sigma_t: 0.0, sigma_theta: 0.0 }
    }

    /// Applies the noise to a relative pose.
    pub fn corrupt<R: Rng + ?Sized>(&self, pose: &Iso2, rng: &mut R) -> Iso2 {
        let mut g = GaussianSampler::new();
        let t = pose.translation();
        Iso2::new(
            pose.yaw() + g.sample_scaled(rng, self.sigma_theta),
            bba_geometry::Vec2::new(
                t.x + g.sample_scaled(rng, self.sigma_t),
                t.y + g.sample_scaled(rng, self.sigma_t),
            ),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bba_geometry::Vec2;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn none_is_identity() {
        let truth = Iso2::new(0.5, Vec2::new(1.0, 2.0));
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(PoseNoise::none().corrupt(&truth, &mut rng), truth);
    }

    #[test]
    fn table1_noise_statistics() {
        let noise = PoseNoise::table1();
        let truth = Iso2::new(0.0, Vec2::ZERO);
        let mut rng = StdRng::seed_from_u64(7);
        let n = 4000;
        let mut t_sq = 0.0;
        let mut r_sq = 0.0;
        for _ in 0..n {
            let c = noise.corrupt(&truth, &mut rng);
            let (dt, dr) = c.error_to(&truth);
            t_sq += dt * dt;
            r_sq += dr * dr;
        }
        // E[dt²] = 2·σ_t² for two axes.
        let t_rms = (t_sq / n as f64).sqrt();
        assert!((t_rms - 2.0 * 2f64.sqrt()).abs() < 0.15, "t_rms {t_rms}");
        let r_rms = (r_sq / n as f64).sqrt();
        assert!((r_rms - 2f64.to_radians()).abs() < 0.005, "r_rms {r_rms}");
    }

    #[test]
    fn corruption_is_seed_deterministic() {
        let truth = Iso2::new(0.3, Vec2::new(10.0, -5.0));
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            PoseNoise::table1().corrupt(&truth, &mut rng)
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}
