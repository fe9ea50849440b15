//! Time-parameterised vehicle trajectories.
//!
//! Trajectories drive (a) the two cooperating cars, whose *relative* pose is
//! the quantity BB-Align recovers, and (b) traffic vehicles. They also feed
//! the self-motion-distortion model in `bba-lidar`: during one LiDAR sweep
//! the sensor pose is sampled from the trajectory at the per-ray timestamps.

use bba_geometry::{Iso2, Vec2};

/// A piecewise-linear trajectory through timed waypoints.
///
/// Heading is derived from the direction of travel; between waypoints the
/// position is linearly interpolated and the heading follows the segment
/// direction. Before the first / after the last waypoint the trajectory
/// extrapolates at the boundary segment's velocity.
///
/// # Example
///
/// ```
/// use bba_scene::Trajectory;
/// use bba_geometry::Vec2;
///
/// // 10 m/s straight along +x.
/// let t = Trajectory::straight(Vec2::ZERO, 0.0, 10.0);
/// let pose = t.pose_at(2.0);
/// assert!((pose.translation().x - 20.0).abs() < 1e-9);
/// assert!(pose.yaw().abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Trajectory {
    /// `(time, position)` waypoints, strictly increasing in time.
    waypoints: Vec<(f64, Vec2)>,
}

impl Trajectory {
    /// Builds a trajectory from timed waypoints.
    ///
    /// # Panics
    ///
    /// Panics when fewer than two waypoints are given or times are not
    /// strictly increasing.
    pub fn new(waypoints: Vec<(f64, Vec2)>) -> Self {
        assert!(waypoints.len() >= 2, "a trajectory needs at least two waypoints");
        for pair in waypoints.windows(2) {
            assert!(
                pair[1].0 > pair[0].0,
                "waypoint times must be strictly increasing ({} then {})",
                pair[0].0,
                pair[1].0
            );
        }
        Trajectory { waypoints }
    }

    /// A straight constant-speed trajectory from `start` with heading
    /// `yaw` (radians) and `speed` (m/s), spanning a long time window.
    pub fn straight(start: Vec2, yaw: f64, speed: f64) -> Self {
        let dir = Vec2::from_angle(yaw);
        // Two waypoints 1000 s apart; interpolation/extrapolation covers the
        // rest.
        Trajectory::new(vec![(0.0, start), (1000.0, start + dir * (speed * 1000.0))])
    }

    /// A stationary "trajectory" (parked vehicle): constant pose.
    ///
    /// Implemented as an epsilon-length segment in the heading direction so
    /// heading remains well defined.
    pub fn stationary(position: Vec2, yaw: f64) -> Self {
        let dir = Vec2::from_angle(yaw);
        Trajectory::new(vec![(0.0, position), (1e6, position + dir * 1e-6)])
    }

    /// The timed waypoints.
    pub fn waypoints(&self) -> &[(f64, Vec2)] {
        &self.waypoints
    }

    /// Pose (position + heading) at time `t`, with linear inter/extrapolation.
    pub fn pose_at(&self, t: f64) -> Iso2 {
        let wps = &self.waypoints;
        // Find the segment containing t (or the boundary segment).
        let seg = match wps.iter().position(|&(wt, _)| wt > t) {
            Some(0) => 0,
            Some(i) => i - 1,
            None => wps.len() - 2,
        };
        let (t0, p0) = wps[seg];
        let (t1, p1) = wps[seg + 1];
        let dir = p1 - p0;
        let heading = if dir.norm() > 1e-9 { dir.angle() } else { 0.0 };
        let frac = (t - t0) / (t1 - t0);
        Iso2::from_pose(p0.lerp(p1, frac), heading)
    }

    /// Instantaneous velocity vector at time `t` (m/s).
    pub fn velocity_at(&self, t: f64) -> Vec2 {
        let wps = &self.waypoints;
        let seg = match wps.iter().position(|&(wt, _)| wt > t) {
            Some(0) => 0,
            Some(i) => i - 1,
            None => wps.len() - 2,
        };
        let (t0, p0) = wps[seg];
        let (t1, p1) = wps[seg + 1];
        (p1 - p0) / (t1 - t0)
    }

    /// Speed (m/s) at time `t`.
    pub fn speed_at(&self, t: f64) -> f64 {
        self.velocity_at(t).norm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_line_motion() {
        let t = Trajectory::straight(Vec2::new(5.0, 0.0), 0.0, 12.0);
        let p = t.pose_at(3.0);
        assert!((p.translation() - Vec2::new(41.0, 0.0)).norm() < 1e-9);
        assert!((t.speed_at(3.0) - 12.0).abs() < 1e-9);
    }

    #[test]
    fn heading_follows_direction() {
        let t = Trajectory::straight(Vec2::ZERO, std::f64::consts::FRAC_PI_2, 5.0);
        let p = t.pose_at(1.0);
        assert!((p.yaw() - std::f64::consts::FRAC_PI_2).abs() < 1e-9);
        assert!((p.translation() - Vec2::new(0.0, 5.0)).norm() < 1e-9);
    }

    #[test]
    fn waypoint_interpolation() {
        let t = Trajectory::new(vec![
            (0.0, Vec2::ZERO),
            (10.0, Vec2::new(100.0, 0.0)),
            (20.0, Vec2::new(100.0, 50.0)),
        ]);
        // Mid first segment.
        let a = t.pose_at(5.0);
        assert!((a.translation() - Vec2::new(50.0, 0.0)).norm() < 1e-9);
        assert!(a.yaw().abs() < 1e-9);
        // Mid second segment: heading turns to +y.
        let b = t.pose_at(15.0);
        assert!((b.translation() - Vec2::new(100.0, 25.0)).norm() < 1e-9);
        assert!((b.yaw() - std::f64::consts::FRAC_PI_2).abs() < 1e-9);
    }

    #[test]
    fn extrapolates_beyond_ends() {
        let t = Trajectory::new(vec![(0.0, Vec2::ZERO), (1.0, Vec2::new(2.0, 0.0))]);
        assert!((t.pose_at(2.0).translation() - Vec2::new(4.0, 0.0)).norm() < 1e-9);
        assert!((t.pose_at(-1.0).translation() - Vec2::new(-2.0, 0.0)).norm() < 1e-9);
    }

    #[test]
    fn stationary_stays_put() {
        let t = Trajectory::stationary(Vec2::new(7.0, -2.0), 0.4);
        for k in 0..5 {
            let p = t.pose_at(k as f64 * 10.0);
            assert!((p.translation() - Vec2::new(7.0, -2.0)).norm() < 1e-3);
            assert!((p.yaw() - 0.4).abs() < 1e-6);
        }
        assert!(t.speed_at(0.0) < 1e-9);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_waypoints_panic() {
        let _ = Trajectory::new(vec![(1.0, Vec2::ZERO), (0.5, Vec2::new(1.0, 0.0))]);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_waypoint_panics() {
        let _ = Trajectory::new(vec![(0.0, Vec2::ZERO)]);
    }
}
