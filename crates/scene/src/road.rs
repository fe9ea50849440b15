//! Road-frame geometry: mapping (arc length, lateral offset) to world
//! coordinates for straight and constant-curvature roads.
//!
//! Curved roads matter for pose recovery: on a bend the two cars' headings
//! differ continuously, so the relative yaw is non-trivial and drifts over
//! time — exercising the rotation part of the estimators rather than the
//! pure-translation geometry of a straight corridor.

use crate::trajectory::Trajectory;
use bba_geometry::Vec2;

/// A road centreline with constant curvature starting at the origin
/// heading +x.
///
/// `(s, d)` road coordinates map to world space: `s` is arc length along
/// the centreline, `d` the lateral offset (positive = left of travel).
///
/// # Example
///
/// ```
/// use bba_scene::road::RoadFrame;
/// use bba_geometry::Vec2;
///
/// let straight = RoadFrame::new(0.0);
/// assert!((straight.to_world(10.0, 2.0) - Vec2::new(10.0, 2.0)).norm() < 1e-12);
///
/// // A 200 m-radius left bend: after 100 m of arc the heading is 0.5 rad.
/// let bend = RoadFrame::new(1.0 / 200.0);
/// assert!((bend.heading_at(100.0) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoadFrame {
    /// Signed curvature κ (1/m); positive bends left, 0 is straight.
    curvature: f64,
}

impl RoadFrame {
    /// Creates a road frame.
    ///
    /// # Panics
    ///
    /// Panics on non-finite curvature or a turn radius under 20 m
    /// (unrealistic for roads and numerically hostile).
    pub fn new(curvature: f64) -> Self {
        assert!(curvature.is_finite(), "curvature must be finite");
        assert!(
            curvature == 0.0 || curvature.abs() <= 1.0 / 20.0,
            "curvature {curvature} tighter than a 20 m radius"
        );
        RoadFrame { curvature }
    }

    /// The curvature κ (1/m).
    pub fn curvature(&self) -> f64 {
        self.curvature
    }

    /// Centreline heading at arc length `s`.
    pub fn heading_at(&self, s: f64) -> f64 {
        self.curvature * s
    }

    /// World position of road coordinates `(s, d)`.
    pub fn to_world(&self, s: f64, d: f64) -> Vec2 {
        let center = if self.curvature == 0.0 {
            Vec2::new(s, 0.0)
        } else {
            let k = self.curvature;
            Vec2::new((k * s).sin() / k, (1.0 - (k * s).cos()) / k)
        };
        // Left normal of the heading.
        let normal = Vec2::from_angle(self.heading_at(s) + std::f64::consts::FRAC_PI_2);
        center + normal * d
    }

    /// A constant-speed trajectory following the road at lateral offset
    /// `d`, starting from arc length `s0`. `forward` follows increasing
    /// `s`; `!forward` models oncoming traffic. Waypoints are sampled
    /// every ~4 m of arc so the piecewise-linear [`Trajectory`] tracks the
    /// curve closely.
    pub fn trajectory(&self, s0: f64, d: f64, speed: f64, forward: bool) -> Trajectory {
        if self.curvature == 0.0 {
            let heading = if forward { 0.0 } else { std::f64::consts::PI };
            return Trajectory::straight(self.to_world(s0, d), heading, speed);
        }
        let dir = if forward { 1.0 } else { -1.0 };
        let speed = speed.max(0.1);
        // Cover a generous horizon either way.
        let horizon = 600.0f64;
        let step = 4.0f64;
        let n = (horizon / step).ceil() as usize;
        let mut waypoints = Vec::with_capacity(n + 1);
        for k in 0..=n {
            let ds = k as f64 * step * dir;
            let t = (k as f64 * step) / speed;
            waypoints.push((t, self.to_world(s0 + ds, d)));
        }
        Trajectory::new(waypoints)
    }
}

impl Default for RoadFrame {
    fn default() -> Self {
        RoadFrame::new(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_road_is_identity() {
        let r = RoadFrame::new(0.0);
        assert_eq!(r.to_world(25.0, -3.0), Vec2::new(25.0, -3.0));
        assert_eq!(r.heading_at(100.0), 0.0);
    }

    #[test]
    fn arc_length_is_preserved_on_centerline() {
        let r = RoadFrame::new(1.0 / 100.0);
        // Walk the centreline in small steps; cumulative chord length ≈ s.
        let mut total = 0.0;
        let mut prev = r.to_world(0.0, 0.0);
        let steps = 200;
        for k in 1..=steps {
            let s = k as f64 * 0.5;
            let p = r.to_world(s, 0.0);
            total += (p - prev).norm();
            prev = p;
        }
        assert!((total - 100.0).abs() < 0.05, "arc length drifted: {total}");
    }

    #[test]
    fn lateral_offset_is_perpendicular() {
        let r = RoadFrame::new(1.0 / 150.0);
        for s in [0.0, 40.0, 120.0] {
            let c = r.to_world(s, 0.0);
            let left = r.to_world(s, 2.0);
            assert!(((left - c).norm() - 2.0).abs() < 1e-9);
            // Offset direction ⟂ heading.
            let heading = Vec2::from_angle(r.heading_at(s));
            assert!((left - c).dot(heading).abs() < 1e-9);
        }
    }

    #[test]
    fn left_curvature_bends_left() {
        let r = RoadFrame::new(1.0 / 80.0);
        let p = r.to_world(40.0, 0.0);
        assert!(p.y > 0.0, "positive curvature should bend toward +y, got {p:?}");
        let r2 = RoadFrame::new(-1.0 / 80.0);
        assert!(r2.to_world(40.0, 0.0).y < 0.0);
    }

    #[test]
    fn trajectory_follows_the_curve() {
        let r = RoadFrame::new(1.0 / 120.0);
        let traj = r.trajectory(50.0, -1.75, 10.0, true);
        // After 6 s at 10 m/s the car is ~60 m of arc further along.
        let pose = traj.pose_at(6.0);
        let expect = r.to_world(110.0, -1.75);
        assert!((pose.translation() - expect).norm() < 0.5, "{:?}", pose.translation());
        // Heading tracks the tangent.
        let expect_heading = r.heading_at(110.0);
        assert!((pose.yaw() - expect_heading).abs() < 0.06);
    }

    #[test]
    fn reverse_trajectory_heads_backwards() {
        let r = RoadFrame::new(1.0 / 100.0);
        let traj = r.trajectory(100.0, 1.75, 8.0, false);
        let p0 = traj.pose_at(0.0).translation();
        let p1 = traj.pose_at(2.0).translation();
        // Arc position decreased.
        let s_of = |p: Vec2| p.x.atan2(100.0 - p.y) * 100.0; // invert crude
        assert!(s_of(p1) < s_of(p0));
    }

    #[test]
    #[should_panic(expected = "tighter than")]
    fn absurd_curvature_panics() {
        let _ = RoadFrame::new(0.5);
    }
}
