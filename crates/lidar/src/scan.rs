//! The output of one LiDAR sweep.

use crate::config::LidarConfig;
use bba_geometry::{Iso2, Iso3, Vec3};
use bba_scene::ObstacleId;

/// One LiDAR return.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanPoint {
    /// Position in the scan's nominal sensor frame (sensor at origin,
    /// x forward at scan start, z up; metres).
    pub position: Vec3,
    /// Identity of the obstacle that produced the return (`None` = ground).
    pub target: Option<ObstacleId>,
    /// When within the sweep this return was fired, as a fraction of
    /// [`LidarConfig::scan_duration`] in `[0, 1)`. Downstream consumers use
    /// it to reason about self-motion distortion.
    pub sweep_frac: f64,
}

/// A complete sweep: points in the sensor frame plus the sensor's
/// ground-truth pose at scan start.
///
/// Because of self-motion distortion, the points are *not* exactly
/// consistent with a single rigid pose — points fired late in the sweep are
/// expressed in the instantaneous frame at their firing time but merged
/// into this one cloud, exactly as a real (un-deskewed) LiDAR driver does.
#[derive(Debug, Clone, PartialEq)]
pub struct Scan {
    points: Vec<ScanPoint>,
    sensor_pose: Iso2,
    config: LidarConfig,
    timestamp: f64,
}

impl Scan {
    /// Assembles a scan from parts (used by [`crate::Scanner`]).
    pub fn new(
        points: Vec<ScanPoint>,
        sensor_pose: Iso2,
        config: LidarConfig,
        timestamp: f64,
    ) -> Self {
        Scan { points, sensor_pose, config, timestamp }
    }

    /// The returns, in the sensor frame.
    pub fn points(&self) -> &[ScanPoint] {
        &self.points
    }

    /// Ground-truth sensor pose (ground plane) at scan start — what a
    /// perfect GPS/IMU would report.
    pub fn sensor_pose(&self) -> Iso2 {
        self.sensor_pose
    }

    /// The sensor model that produced this scan.
    pub fn config(&self) -> &LidarConfig {
        &self.config
    }

    /// Scan-start time (s).
    pub fn timestamp(&self) -> f64 {
        self.timestamp
    }

    /// Number of returns.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the sweep produced no returns.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Number of returns attributed to a given obstacle.
    pub fn hits_on(&self, id: ObstacleId) -> usize {
        self.points.iter().filter(|p| p.target == Some(id)).count()
    }

    /// Mean sweep fraction of the returns on a given obstacle, or `None`
    /// when the obstacle was not hit. Approximates *when* during the sweep
    /// the object was observed (for distortion-aware consumers).
    pub fn mean_sweep_frac(&self, id: ObstacleId) -> Option<f64> {
        let fracs: Vec<f64> =
            self.points.iter().filter(|p| p.target == Some(id)).map(|p| p.sweep_frac).collect();
        if fracs.is_empty() {
            None
        } else {
            Some(fracs.iter().sum::<f64>() / fracs.len() as f64)
        }
    }

    /// Non-ground returns only.
    pub fn object_points(&self) -> impl Iterator<Item = &ScanPoint> {
        self.points.iter().filter(|p| p.target.is_some())
    }

    /// The points transformed into the world frame using the ground-truth
    /// sensor pose (sensor height is part of the stored z already).
    pub fn to_world_points(&self) -> Vec<Vec3> {
        let t = Iso3::from_iso2(&self.sensor_pose, 0.0);
        self.points.iter().map(|p| t.apply(p.position)).collect()
    }

    /// The points transformed by an arbitrary ground-plane transform —
    /// e.g. a (possibly corrupted or recovered) relative pose during fusion.
    pub fn transformed_points(&self, t: &Iso2) -> Vec<Vec3> {
        let t3 = Iso3::from_iso2(t, 0.0);
        self.points.iter().map(|p| t3.apply(p.position)).collect()
    }

    /// Approximate serialized size of the raw cloud in bytes
    /// (3 × f32 per point, the usual wire format) — used by the bandwidth
    /// experiment.
    pub fn wire_size_bytes(&self) -> usize {
        self.points.len() * 3 * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bba_geometry::Vec2;

    fn sample_scan() -> Scan {
        let points = vec![
            ScanPoint {
                position: Vec3::new(1.0, 0.0, 0.5),
                target: Some(ObstacleId(3)),
                sweep_frac: 0.0,
            },
            ScanPoint { position: Vec3::new(2.0, 1.0, 0.0), target: None, sweep_frac: 0.25 },
            ScanPoint {
                position: Vec3::new(-1.0, 2.0, 1.5),
                target: Some(ObstacleId(3)),
                sweep_frac: 0.5,
            },
            ScanPoint {
                position: Vec3::new(0.0, -2.0, 1.0),
                target: Some(ObstacleId(9)),
                sweep_frac: 0.75,
            },
        ];
        Scan::new(
            points,
            Iso2::from_pose(Vec2::new(100.0, 50.0), 0.0),
            LidarConfig::test_coarse(),
            1.5,
        )
    }

    #[test]
    fn accessors() {
        let s = sample_scan();
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        assert_eq!(s.timestamp(), 1.5);
        assert_eq!(s.hits_on(ObstacleId(3)), 2);
        assert_eq!(s.hits_on(ObstacleId(1)), 0);
        assert_eq!(s.object_points().count(), 3);
    }

    #[test]
    fn world_transform_offsets_by_pose() {
        let s = sample_scan();
        let world = s.to_world_points();
        assert!((world[0] - Vec3::new(101.0, 50.0, 0.5)).norm() < 1e-12);
    }

    #[test]
    fn wire_size_counts_f32_triplets() {
        let s = sample_scan();
        assert_eq!(s.wire_size_bytes(), 4 * 12);
    }

    #[test]
    fn transformed_points_rotate() {
        let s = sample_scan();
        let t = Iso2::new(std::f64::consts::FRAC_PI_2, Vec2::ZERO);
        let pts = s.transformed_points(&t);
        assert!((pts[0] - Vec3::new(0.0, 1.0, 0.5)).norm() < 1e-12);
    }
}
