//! BEV images: height-map (Eq. (4)) and density-map rasterisation.

use crate::config::BevConfig;
use bba_geometry::Vec3;
use bba_signal::Grid;

/// Rasterisation mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BevMode {
    /// Pixel = maximum point height in the cell (the paper's choice;
    /// Eq. (4)).
    #[default]
    Height,
    /// Pixel = log-scaled point count (the MV3D-style baseline the paper
    /// compares against in §IV-A).
    Density,
}

/// A rasterised BEV image plus its geometry.
///
/// # Example
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone, PartialEq)]
pub struct BevImage {
    grid: Grid<f64>,
    config: BevConfig,
    mode: BevMode,
}

impl BevImage {
    /// Rasterises a height map: `B_uv = max z` over the points in each cell.
    pub fn height_map(points: impl IntoIterator<Item = Vec3>, config: &BevConfig) -> BevImage {
        config.validate();
        let h = config.image_size();
        let mut grid = Grid::new(h, h, 0.0f64);
        for p in points {
            if let Some((u, v)) = config.world_to_pixel(p.xy()) {
                let cell = &mut grid[(u, v)];
                if p.z > *cell {
                    *cell = p.z;
                }
            }
        }
        BevImage { grid, config: *config, mode: BevMode::Height }
    }

    /// Rasterises a density map: `B_uv = ln(1 + count)`.
    pub fn density_map(points: impl IntoIterator<Item = Vec3>, config: &BevConfig) -> BevImage {
        config.validate();
        let h = config.image_size();
        let mut counts = Grid::new(h, h, 0u32);
        for p in points {
            if let Some((u, v)) = config.world_to_pixel(p.xy()) {
                counts[(u, v)] += 1;
            }
        }
        let grid = counts.map(|&c| (1.0 + c as f64).ln());
        BevImage { grid, config: *config, mode: BevMode::Density }
    }

    /// Reassembles an image from an existing pixel grid (e.g. decoded from
    /// a wire payload).
    ///
    /// # Panics
    ///
    /// Panics if the grid shape does not match `config.image_size()`.
    pub fn from_grid(grid: Grid<f64>, config: BevConfig, mode: BevMode) -> BevImage {
        config.validate();
        let h = config.image_size();
        assert_eq!(
            (grid.width(), grid.height()),
            (h, h),
            "grid shape must match the raster geometry"
        );
        BevImage { grid, config, mode }
    }

    /// Rasterises with the given mode.
    pub fn rasterize(
        points: impl IntoIterator<Item = Vec3>,
        config: &BevConfig,
        mode: BevMode,
    ) -> BevImage {
        match mode {
            BevMode::Height => BevImage::height_map(points, config),
            BevMode::Density => BevImage::density_map(points, config),
        }
    }

    /// The pixel grid.
    pub fn grid(&self) -> &Grid<f64> {
        &self.grid
    }

    /// The raster geometry.
    pub fn config(&self) -> &BevConfig {
        &self.config
    }

    /// The rasterisation mode this image was built with.
    pub fn mode(&self) -> BevMode {
        self.mode
    }

    /// Image side length in pixels.
    pub fn size(&self) -> usize {
        self.grid.width()
    }

    /// Fraction of non-empty pixels — BV images are extremely sparse
    /// (typically < 10 %), the property that defeats SIFT/ORB.
    pub fn occupancy(&self) -> f64 {
        self.grid.occupancy(1e-9)
    }

    /// Approximate wire size in bytes when transmitted sparsely
    /// (u16 cell index pair + u8 quantised intensity per occupied cell).
    ///
    /// This is the quantity behind the paper's bandwidth argument: a sparse
    /// BV image is orders of magnitude smaller than the raw cloud.
    pub fn wire_size_bytes(&self) -> usize {
        let occupied = self.grid.as_slice().iter().filter(|&&x| x > 1e-9).count();
        occupied * 5
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bba_geometry::Vec2;

    fn cfg() -> BevConfig {
        BevConfig::test_small()
    }

    #[test]
    fn height_map_takes_max() {
        let pts =
            vec![Vec3::new(1.0, 1.0, 2.0), Vec3::new(1.05, 1.0, 9.0), Vec3::new(1.1, 1.05, 4.0)];
        let img = BevImage::height_map(pts, &cfg());
        let (u, v) = cfg().world_to_pixel(Vec2::new(1.0, 1.0)).unwrap();
        assert_eq!(img.grid()[(u, v)], 9.0);
    }

    #[test]
    fn ground_points_rasterise_to_zero() {
        let pts = vec![Vec3::new(5.0, 5.0, 0.0), Vec3::new(-3.0, 2.0, 0.0)];
        let img = BevImage::height_map(pts, &cfg());
        assert!(img.grid().max_value() < 1e-12);
        assert_eq!(img.occupancy(), 0.0);
    }

    #[test]
    fn out_of_range_points_ignored() {
        let pts = vec![Vec3::new(100.0, 0.0, 5.0)];
        let img = BevImage::height_map(pts, &cfg());
        assert_eq!(img.grid().max_value(), 0.0);
    }

    #[test]
    fn density_map_counts_logarithmically() {
        let mut pts = vec![Vec3::new(1.0, 1.0, 0.0)];
        for _ in 0..9 {
            pts.push(Vec3::new(1.01, 1.01, 0.5));
        }
        let img = BevImage::density_map(pts.clone(), &cfg());
        let (u, v) = cfg().world_to_pixel(Vec2::new(1.0, 1.0)).unwrap();
        assert!((img.grid()[(u, v)] - (11.0f64).ln()).abs() < 1e-12);
        assert_eq!(img.mode(), BevMode::Density);
        // Unlike the height map, density sees ground points.
        assert!(img.occupancy() > 0.0);
    }

    #[test]
    fn rasterize_dispatches_on_mode() {
        let pts = vec![Vec3::new(0.0, 0.0, 3.0)];
        let h = BevImage::rasterize(pts.clone(), &cfg(), BevMode::Height);
        let d = BevImage::rasterize(pts, &cfg(), BevMode::Density);
        assert_eq!(h.mode(), BevMode::Height);
        assert_eq!(d.mode(), BevMode::Density);
        assert_ne!(h.grid(), d.grid());
    }

    #[test]
    fn wire_size_tracks_occupancy() {
        let pts =
            vec![Vec3::new(0.0, 0.0, 3.0), Vec3::new(5.0, 5.0, 2.0), Vec3::new(-5.0, 5.0, 1.0)];
        let img = BevImage::height_map(pts, &cfg());
        assert_eq!(img.wire_size_bytes(), 3 * 5);
    }

    #[test]
    fn empty_cloud_is_empty_image() {
        let img = BevImage::height_map(std::iter::empty(), &cfg());
        assert_eq!(img.size(), 128);
        assert_eq!(img.wire_size_bytes(), 0);
    }
}
