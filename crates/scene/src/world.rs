//! The simulated world: static landmarks plus dynamic vehicles.

use crate::objects::{car_box, ObjectKind, Obstacle, ObstacleId, Shape};
use crate::trajectory::Trajectory;
use bba_geometry::Box3;

/// A vehicle that moves through the world along a trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicVehicle {
    /// Stable identifier (shared namespace with static obstacles).
    pub id: ObstacleId,
    /// [`ObjectKind::TrafficVehicle`] or [`ObjectKind::AgentVehicle`].
    pub kind: ObjectKind,
    /// Motion through the world.
    pub trajectory: Trajectory,
}

impl DynamicVehicle {
    /// The vehicle's 3-D box at time `t`.
    pub fn box_at(&self, t: f64) -> Box3 {
        let pose = self.trajectory.pose_at(t);
        car_box(pose.translation(), pose.yaw())
    }

    /// The vehicle as an [`Obstacle`] at time `t`.
    pub fn obstacle_at(&self, t: f64) -> Obstacle {
        Obstacle::new(self.id, self.kind, Shape::Box(self.box_at(t)))
    }
}

/// The full simulated world.
///
/// # Example
///
/// ```
/// use bba_scene::{Scenario, ScenarioConfig, ScenarioPreset};
/// let scenario = Scenario::generate(&ScenarioConfig::preset(ScenarioPreset::Urban), 1);
/// let world = scenario.world();
/// // A snapshot resolves moving vehicles to their boxes at that instant.
/// let snap = world.snapshot_at(3.0);
/// assert_eq!(snap.len(), world.static_obstacles().len() + world.dynamic_vehicles().len());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct World {
    statics: Vec<Obstacle>,
    dynamics: Vec<DynamicVehicle>,
}

impl World {
    /// Creates a world from parts.
    pub fn new(statics: Vec<Obstacle>, dynamics: Vec<DynamicVehicle>) -> Self {
        World { statics, dynamics }
    }

    /// Static obstacles (buildings, trees, poles, barriers, parked cars).
    pub fn static_obstacles(&self) -> &[Obstacle] {
        &self.statics
    }

    /// Moving vehicles (traffic and the two agent cars).
    pub fn dynamic_vehicles(&self) -> &[DynamicVehicle] {
        &self.dynamics
    }

    /// Adds a static obstacle.
    pub fn push_static(&mut self, o: Obstacle) {
        self.statics.push(o);
    }

    /// Adds a dynamic vehicle.
    pub fn push_dynamic(&mut self, v: DynamicVehicle) {
        self.dynamics.push(v);
    }

    /// All obstacles at time `t` (dynamic vehicles resolved to boxes).
    pub fn snapshot_at(&self, t: f64) -> Vec<Obstacle> {
        let mut out = self.statics.clone();
        out.extend(self.dynamics.iter().map(|d| d.obstacle_at(t)));
        out
    }

    /// All obstacles at time `t` except the one with `exclude` id — used to
    /// build the scan geometry for an agent car, which must not see itself.
    pub fn snapshot_at_excluding(&self, t: f64, exclude: ObstacleId) -> Vec<Obstacle> {
        let mut out: Vec<Obstacle> =
            self.statics.iter().filter(|o| o.id != exclude).cloned().collect();
        out.extend(self.dynamics.iter().filter(|d| d.id != exclude).map(|d| d.obstacle_at(t)));
        out
    }

    /// Ground-truth vehicle boxes at time `t` (id + box), the detector
    /// targets. `exclude` drops the observing car itself.
    pub fn vehicles_at(&self, t: f64, exclude: Option<ObstacleId>) -> Vec<(ObstacleId, Box3)> {
        let mut out = Vec::new();
        for o in &self.statics {
            if Some(o.id) == exclude {
                continue;
            }
            if let Some(b) = o.vehicle_box() {
                out.push((o.id, b));
            }
        }
        for d in &self.dynamics {
            if Some(d.id) == exclude {
                continue;
            }
            out.push((d.id, d.box_at(t)));
        }
        out
    }

    /// Next unused obstacle id.
    pub fn next_id(&self) -> ObstacleId {
        let max = self
            .statics
            .iter()
            .map(|o| o.id.0)
            .chain(self.dynamics.iter().map(|d| d.id.0))
            .max()
            .map_or(0, |m| m + 1);
        ObstacleId(max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bba_geometry::{Vec2, Vec3};

    fn building(id: u32) -> Obstacle {
        Obstacle::new(
            ObstacleId(id),
            ObjectKind::Building,
            Shape::Box(Box3::new(Vec3::new(20.0, 20.0, 5.0), Vec3::new(10.0, 10.0, 10.0), 0.0)),
        )
    }

    fn traffic(id: u32, speed: f64) -> DynamicVehicle {
        DynamicVehicle {
            id: ObstacleId(id),
            kind: ObjectKind::TrafficVehicle,
            trajectory: Trajectory::straight(Vec2::ZERO, 0.0, speed),
        }
    }

    #[test]
    fn snapshot_resolves_dynamics() {
        let mut w = World::default();
        w.push_static(building(0));
        w.push_dynamic(traffic(1, 10.0));
        let snap = w.snapshot_at(2.0);
        assert_eq!(snap.len(), 2);
        let car = snap.iter().find(|o| o.id == ObstacleId(1)).unwrap();
        match car.shape {
            Shape::Box(b) => assert!((b.center.x - 20.0).abs() < 1e-9),
            _ => panic!("vehicle should be a box"),
        }
    }

    #[test]
    fn snapshot_excluding_drops_self() {
        let mut w = World::default();
        w.push_static(building(0));
        w.push_dynamic(traffic(1, 10.0));
        w.push_dynamic(traffic(2, 5.0));
        let snap = w.snapshot_at_excluding(0.0, ObstacleId(1));
        assert_eq!(snap.len(), 2);
        assert!(snap.iter().all(|o| o.id != ObstacleId(1)));
    }

    #[test]
    fn vehicles_at_lists_all_vehicle_classes() {
        let mut w = World::default();
        w.push_static(building(0));
        w.push_static(Obstacle::new(
            ObstacleId(1),
            ObjectKind::ParkedVehicle,
            Shape::Box(car_box(Vec2::new(5.0, 5.0), 0.0)),
        ));
        w.push_dynamic(traffic(2, 8.0));
        let vehicles = w.vehicles_at(1.0, None);
        assert_eq!(vehicles.len(), 2);
        // Excluding the parked one:
        let rest = w.vehicles_at(1.0, Some(ObstacleId(1)));
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].0, ObstacleId(2));
    }

    #[test]
    fn next_id_is_fresh() {
        let mut w = World::default();
        assert_eq!(w.next_id(), ObstacleId(0));
        w.push_static(building(4));
        w.push_dynamic(traffic(9, 1.0));
        assert_eq!(w.next_id(), ObstacleId(10));
    }
}
