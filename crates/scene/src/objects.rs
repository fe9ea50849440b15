//! World obstacles: what the LiDAR rays can hit.

use bba_geometry::{Box3, Vec2, Vec3};

/// Identifier of an obstacle within a [`crate::World`].
///
/// Ground-truth detection matching (who observed which car) is keyed on
/// these ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObstacleId(pub u32);

impl std::fmt::Display for ObstacleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "obstacle#{}", self.0)
    }
}

/// Semantic class of an obstacle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjectKind {
    /// A building — the dominant tall landmark for BV image matching.
    Building,
    /// Tree: trunk + canopy; tree tops are salient MIM blobs.
    Tree,
    /// A pole / sign / lamp post.
    Pole,
    /// A road barrier segment (highway scenes).
    Barrier,
    /// A parked (static) vehicle.
    ParkedVehicle,
    /// A moving traffic vehicle (has a trajectory in the world).
    TrafficVehicle,
    /// One of the two cooperating agent cars.
    AgentVehicle,
}

impl ObjectKind {
    /// True for classes that the object detectors report (vehicles).
    pub fn is_vehicle(self) -> bool {
        matches!(
            self,
            ObjectKind::ParkedVehicle | ObjectKind::TrafficVehicle | ObjectKind::AgentVehicle
        )
    }

    /// True for the tall static landmarks stage 1 relies on.
    pub fn is_landmark(self) -> bool {
        matches!(self, ObjectKind::Building | ObjectKind::Tree | ObjectKind::Pole)
    }
}

/// Geometric shape of an obstacle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// An oriented 3-D box (buildings, vehicles, barriers).
    Box(Box3),
    /// A vertical cylinder (tree trunks, poles) from `z0` to `z1`.
    Cylinder {
        /// Axis position on the ground plane.
        center: Vec2,
        /// Cylinder radius (m).
        radius: f64,
        /// Bottom height (m).
        z0: f64,
        /// Top height (m).
        z1: f64,
    },
    /// A sphere (tree canopies).
    Sphere {
        /// Centre of the sphere.
        center: Vec3,
        /// Sphere radius (m).
        radius: f64,
    },
}

impl Shape {
    /// Ground-plane centre of the shape.
    pub fn center_xy(&self) -> Vec2 {
        match *self {
            Shape::Box(b) => b.center.xy(),
            Shape::Cylinder { center, .. } => center,
            Shape::Sphere { center, .. } => center.xy(),
        }
    }

    /// Radius of a circle on the ground plane that encloses the shape.
    pub fn bounding_radius_xy(&self) -> f64 {
        match *self {
            Shape::Box(b) => b.to_bev().circumradius(),
            Shape::Cylinder { radius, .. } => radius,
            Shape::Sphere { radius, .. } => radius,
        }
    }

    /// Maximum height (top z) of the shape.
    pub fn top_z(&self) -> f64 {
        match *self {
            Shape::Box(b) => b.z_range().1,
            Shape::Cylinder { z1, .. } => z1,
            Shape::Sphere { center, radius } => center.z + radius,
        }
    }
}

/// An obstacle instance: id + class + shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Obstacle {
    /// Stable identifier within the world.
    pub id: ObstacleId,
    /// Semantic class.
    pub kind: ObjectKind,
    /// Geometry.
    pub shape: Shape,
}

impl Obstacle {
    /// Creates an obstacle.
    pub fn new(id: ObstacleId, kind: ObjectKind, shape: Shape) -> Self {
        Obstacle { id, kind, shape }
    }

    /// The vehicle box, if this obstacle is a vehicle with box geometry.
    pub fn vehicle_box(&self) -> Option<Box3> {
        if self.kind.is_vehicle() {
            match self.shape {
                Shape::Box(b) => Some(b),
                _ => None,
            }
        } else {
            None
        }
    }
}

/// Standard passenger-car dimensions used throughout the simulation
/// (length, width, height in metres).
pub const CAR_EXTENTS: Vec3 = Vec3 { x: 4.5, y: 1.9, z: 1.6 };

/// Builds a car-shaped box obstacle at a ground pose.
pub fn car_box(center_xy: Vec2, yaw: f64) -> Box3 {
    Box3::new(Vec3::from_xy(center_xy, CAR_EXTENTS.z / 2.0), CAR_EXTENTS, yaw)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_classify() {
        assert!(ObjectKind::Building.is_landmark());
        assert!(!ObjectKind::Building.is_vehicle());
        assert!(ObjectKind::ParkedVehicle.is_vehicle());
        assert!(ObjectKind::AgentVehicle.is_vehicle());
        assert!(!ObjectKind::TrafficVehicle.is_landmark());
    }

    #[test]
    fn shape_metrics() {
        let b = Shape::Box(Box3::new(Vec3::new(1.0, 2.0, 5.0), Vec3::new(10.0, 8.0, 10.0), 0.0));
        assert_eq!(b.center_xy(), Vec2::new(1.0, 2.0));
        assert_eq!(b.top_z(), 10.0);
        assert!((b.bounding_radius_xy() - (25.0f64 + 16.0).sqrt()).abs() < 1e-12);

        let c = Shape::Cylinder { center: Vec2::new(3.0, 4.0), radius: 0.3, z0: 0.0, z1: 6.0 };
        assert_eq!(c.top_z(), 6.0);
        assert_eq!(c.bounding_radius_xy(), 0.3);

        let s = Shape::Sphere { center: Vec3::new(0.0, 0.0, 5.0), radius: 2.0 };
        assert_eq!(s.top_z(), 7.0);
    }

    #[test]
    fn car_box_sits_on_ground() {
        let b = car_box(Vec2::new(10.0, -3.0), 0.5);
        let (z0, z1) = b.z_range();
        assert!((z0 - 0.0).abs() < 1e-12);
        assert!((z1 - CAR_EXTENTS.z).abs() < 1e-12);
    }

    #[test]
    fn vehicle_box_only_for_vehicles() {
        let car = Obstacle::new(
            ObstacleId(1),
            ObjectKind::ParkedVehicle,
            Shape::Box(car_box(Vec2::ZERO, 0.0)),
        );
        assert!(car.vehicle_box().is_some());
        let bld = Obstacle::new(
            ObstacleId(2),
            ObjectKind::Building,
            Shape::Box(Box3::new(Vec3::new(0.0, 0.0, 5.0), Vec3::new(10.0, 10.0, 10.0), 0.0)),
        );
        assert!(bld.vehicle_box().is_none());
    }

    #[test]
    fn obstacle_id_display() {
        assert_eq!(ObstacleId(7).to_string(), "obstacle#7");
    }
}
