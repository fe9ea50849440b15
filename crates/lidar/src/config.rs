//! Sensor models: channel layout, resolution, range, noise.

/// Parameters of a spinning LiDAR.
///
/// The presets model the heterogeneous sensor pairs of real V2V fleets (the
/// paper stresses that "vehicles may be equipped with different Lidar
/// systems", which defeats point-based registration but not BV image
/// matching).
#[derive(Debug, Clone, PartialEq)]
pub struct LidarConfig {
    /// Number of vertical channels (beams).
    pub channels: usize,
    /// Lowest beam elevation (radians, negative = downward).
    pub elevation_min: f64,
    /// Highest beam elevation (radians).
    pub elevation_max: f64,
    /// Azimuth step between firings (radians).
    pub azimuth_step: f64,
    /// Maximum measurable range (m).
    pub max_range: f64,
    /// Gaussian range noise σ (m).
    pub range_noise_sigma: f64,
    /// Probability that an otherwise valid return is dropped.
    pub dropout_prob: f64,
    /// Duration of one full 360° sweep (s); drives self-motion distortion.
    pub scan_duration: f64,
    /// Sensor height above the vehicle reference point (m).
    pub mount_height: f64,
}

impl LidarConfig {
    /// A 64-channel high-resolution sensor (HDL-64-like).
    pub fn high_res_64() -> Self {
        LidarConfig {
            channels: 64,
            elevation_min: (-24.8f64).to_radians(),
            elevation_max: 2.0f64.to_radians(),
            azimuth_step: 0.4f64.to_radians(),
            max_range: 100.0,
            range_noise_sigma: 0.02,
            dropout_prob: 0.05,
            scan_duration: 0.1,
            mount_height: 1.9,
        }
    }

    /// A 32-channel mid-range sensor (VLP-32C-like; the real sensor fires
    /// every 0.2–0.33° of azimuth at 10 Hz). Default for the experiments:
    /// dense enough that mid-range structure stays matchable, which sets
    /// the method's effective operating range.
    pub fn mid_res_32() -> Self {
        LidarConfig {
            channels: 32,
            elevation_min: (-25.0f64).to_radians(),
            elevation_max: 15.0f64.to_radians(),
            azimuth_step: 0.36f64.to_radians(),
            max_range: 100.0,
            range_noise_sigma: 0.03,
            dropout_prob: 0.07,
            scan_duration: 0.1,
            mount_height: 1.9,
        }
    }

    /// A 16-channel budget sensor (VLP-16-like) — the "different Lidar
    /// system" partner in heterogeneous-pair experiments.
    pub fn low_res_16() -> Self {
        LidarConfig {
            channels: 16,
            elevation_min: (-15.0f64).to_radians(),
            elevation_max: 15.0f64.to_radians(),
            azimuth_step: 0.9f64.to_radians(),
            max_range: 80.0,
            range_noise_sigma: 0.05,
            dropout_prob: 0.1,
            scan_duration: 0.1,
            mount_height: 1.8,
        }
    }

    /// A coarse, fast configuration for unit tests.
    pub fn test_coarse() -> Self {
        LidarConfig {
            channels: 12,
            elevation_min: (-20.0f64).to_radians(),
            elevation_max: 12.0f64.to_radians(),
            azimuth_step: 2.0f64.to_radians(),
            max_range: 70.0,
            range_noise_sigma: 0.0,
            dropout_prob: 0.0,
            scan_duration: 0.1,
            mount_height: 1.9,
        }
    }

    /// Number of azimuth firings per sweep.
    pub fn azimuth_count(&self) -> usize {
        (std::f64::consts::TAU / self.azimuth_step).round() as usize
    }

    /// Elevation (radians) of channel `c`, linearly spaced.
    ///
    /// # Panics
    ///
    /// Panics if `c >= channels`.
    pub fn elevation(&self, c: usize) -> f64 {
        assert!(c < self.channels, "channel {c} out of range");
        if self.channels == 1 {
            return 0.5 * (self.elevation_min + self.elevation_max);
        }
        let frac = c as f64 / (self.channels - 1) as f64;
        self.elevation_min + frac * (self.elevation_max - self.elevation_min)
    }

    /// Validates parameter sanity.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical values (zero channels, inverted FOV,
    /// non-positive range or step).
    pub fn validate(&self) {
        assert!(self.channels > 0, "at least one channel required");
        assert!(self.elevation_max > self.elevation_min, "inverted vertical FOV");
        assert!(self.azimuth_step > 0.0, "azimuth step must be positive");
        assert!(self.max_range > 0.0, "max range must be positive");
        assert!(self.range_noise_sigma >= 0.0, "noise sigma must be non-negative");
        assert!((0.0..=1.0).contains(&self.dropout_prob), "dropout must be a probability");
        assert!(self.scan_duration >= 0.0, "scan duration must be non-negative");
    }
}

impl Default for LidarConfig {
    fn default() -> Self {
        LidarConfig::mid_res_32()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        for cfg in [
            LidarConfig::high_res_64(),
            LidarConfig::mid_res_32(),
            LidarConfig::low_res_16(),
            LidarConfig::test_coarse(),
        ] {
            cfg.validate();
        }
    }

    #[test]
    fn azimuth_count_covers_circle() {
        let cfg = LidarConfig::mid_res_32();
        assert_eq!(cfg.azimuth_count(), 1000);
    }

    #[test]
    fn elevations_span_fov() {
        let cfg = LidarConfig::test_coarse();
        assert!((cfg.elevation(0) - cfg.elevation_min).abs() < 1e-12);
        assert!((cfg.elevation(cfg.channels - 1) - cfg.elevation_max).abs() < 1e-12);
        // Monotone increasing.
        for c in 1..cfg.channels {
            assert!(cfg.elevation(c) > cfg.elevation(c - 1));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn elevation_out_of_range_panics() {
        let _ = LidarConfig::test_coarse().elevation(100);
    }

    #[test]
    fn heterogeneous_presets_differ() {
        assert_ne!(LidarConfig::high_res_64(), LidarConfig::low_res_16());
        assert!(LidarConfig::high_res_64().channels > LidarConfig::low_res_16().channels);
    }
}
