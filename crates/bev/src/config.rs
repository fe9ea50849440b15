//! BEV rasterisation geometry: range, cell size, pixel↔world mapping.

use bba_geometry::Vec2;

/// Geometry of a BEV raster: cells of size `resolution` covering
/// `[-range, range]²` around the sensor.
///
/// The image side length is `H = 2·range / resolution` (the paper's
/// `H = 2R/c`); configurations are chosen so `H` is a power of two, which
/// the FFT-based Log-Gabor filtering requires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BevConfig {
    /// Half-extent `R` of the rasterised square (m).
    pub range: f64,
    /// Cell size `c` (m/pixel).
    pub resolution: f64,
}

impl BevConfig {
    /// Default evaluation configuration: 51.2 m range at 0.4 m/px → 256².
    pub fn standard() -> Self {
        BevConfig { range: 51.2, resolution: 0.4 }
    }

    /// High-resolution configuration: 51.2 m at 0.2 m/px → 512².
    pub fn fine() -> Self {
        BevConfig { range: 51.2, resolution: 0.2 }
    }

    /// Wide-coverage configuration: 102.4 m at 0.8 m/px → 256². The
    /// BB-Align default: with V2V separations of 30–90 m, only a raster
    /// covering the sensor's full reach gives the two cars enough *shared*
    /// content to register; at half the radius the corridor's repetitive
    /// facades alias onto translated look-alikes.
    pub fn wide() -> Self {
        BevConfig { range: 102.4, resolution: 0.8 }
    }

    /// Small, fast configuration for unit tests: 25.6 m at 0.4 m/px → 128².
    pub fn test_small() -> Self {
        BevConfig { range: 25.6, resolution: 0.4 }
    }

    /// Image side length in pixels (`H = 2R/c`, rounded).
    pub fn image_size(&self) -> usize {
        (2.0 * self.range / self.resolution).round() as usize
    }

    /// True when the image side is a power of two (required by the FFT
    /// pipeline).
    pub fn is_pow2(&self) -> bool {
        let h = self.image_size();
        h > 0 && h.is_power_of_two()
    }

    /// Maps a ground-plane point (sensor frame) to its pixel, or `None`
    /// outside the raster.
    pub fn world_to_pixel(&self, p: Vec2) -> Option<(usize, usize)> {
        let h = self.image_size() as f64;
        let u = (p.x + self.range) / self.resolution;
        let v = (p.y + self.range) / self.resolution;
        if u >= 0.0 && u < h && v >= 0.0 && v < h {
            Some((u as usize, v as usize))
        } else {
            None
        }
    }

    /// Continuous (sub-pixel) image coordinates of a ground-plane point.
    /// Unlike [`BevConfig::world_to_pixel`] this does not bound-check; use
    /// it for keypoint positions that RANSAC converts back to metres.
    pub fn world_to_pixel_f(&self, p: Vec2) -> Vec2 {
        Vec2::new((p.x + self.range) / self.resolution, (p.y + self.range) / self.resolution)
    }

    /// Ground-plane centre of pixel `(u, v)` in the sensor frame.
    pub fn pixel_center(&self, u: usize, v: usize) -> Vec2 {
        Vec2::new(
            (u as f64 + 0.5) * self.resolution - self.range,
            (v as f64 + 0.5) * self.resolution - self.range,
        )
    }

    /// Converts continuous pixel coordinates back to metres.
    pub fn pixel_to_world_f(&self, p: Vec2) -> Vec2 {
        Vec2::new(p.x * self.resolution - self.range, p.y * self.resolution - self.range)
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if range/resolution are non-positive or the image side is not
    /// a power of two.
    pub fn validate(&self) {
        assert!(self.range > 0.0, "range must be positive");
        assert!(self.resolution > 0.0, "resolution must be positive");
        assert!(
            self.is_pow2(),
            "image side {} must be a power of two for the FFT pipeline",
            self.image_size()
        );
    }
}

impl Default for BevConfig {
    fn default() -> Self {
        BevConfig::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_sizes_are_pow2() {
        assert_eq!(BevConfig::standard().image_size(), 256);
        assert_eq!(BevConfig::fine().image_size(), 512);
        assert_eq!(BevConfig::test_small().image_size(), 128);
        for cfg in [BevConfig::standard(), BevConfig::fine(), BevConfig::test_small()] {
            cfg.validate();
        }
    }

    #[test]
    fn world_pixel_roundtrip() {
        let cfg = BevConfig::test_small();
        let p = Vec2::new(3.7, -10.2);
        let (u, v) = cfg.world_to_pixel(p).unwrap();
        let back = cfg.pixel_center(u, v);
        assert!((back - p).norm() < cfg.resolution);
    }

    #[test]
    fn continuous_roundtrip_is_exact() {
        let cfg = BevConfig::standard();
        let p = Vec2::new(-17.3, 42.0);
        let back = cfg.pixel_to_world_f(cfg.world_to_pixel_f(p));
        assert!((back - p).norm() < 1e-9);
    }

    #[test]
    fn out_of_range_is_none() {
        let cfg = BevConfig::test_small();
        assert!(cfg.world_to_pixel(Vec2::new(30.0, 0.0)).is_none());
        assert!(cfg.world_to_pixel(Vec2::new(0.0, -30.0)).is_none());
        assert!(cfg.world_to_pixel(Vec2::new(0.0, 0.0)).is_some());
    }

    #[test]
    fn origin_maps_to_center() {
        let cfg = BevConfig::test_small();
        let (u, v) = cfg.world_to_pixel(Vec2::ZERO).unwrap();
        assert_eq!((u, v), (64, 64));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_panics() {
        BevConfig { range: 50.0, resolution: 0.4 }.validate();
    }
}
