//! Fleet frame generation: synchronized N-car perception frames.
//!
//! The two-car [`crate::Dataset`] mirrors V2V4Real's pairwise
//! shape. Fleet-scale serving consumes the N-car generalisation: one
//! [`FleetFrame`] per timestamp holding an [`AgentFrame`] for every agent
//! vehicle in a [`FleetScenario`] platoon, from which a service forms the
//! pairwise sessions it multiplexes. Generation reuses the same scanner /
//! detector pipeline per car, so each car's frame has exactly the
//! statistics the two-car path produces.

use crate::frame::{AgentFrame, Dataset, DatasetConfig};
use bba_detect::Detector;
use bba_lidar::{Scan, Scanner};
use bba_scene::{FleetConfig, FleetScenario, ObstacleId};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Fleet dataset generation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetDatasetConfig {
    /// Fleet scenario (world + N agent vehicles).
    pub fleet: FleetConfig,
    /// Per-car sensor and detector parameters, plus frame timing. The
    /// `scenario` member of this config is ignored — the fleet's own
    /// scenario config governs generation.
    pub base: DatasetConfig,
}

impl FleetDatasetConfig {
    /// A small, fast N-car configuration for tests and CI benches: the
    /// two-car [`DatasetConfig::test_small`] sensors on an urban platoon.
    pub fn test_small(vehicles: usize) -> Self {
        let base = DatasetConfig::test_small();
        FleetDatasetConfig { fleet: FleetConfig::platoon(base.scenario.clone(), vehicles), base }
    }
}

/// One synchronized N-car frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetFrame {
    /// Timestamp (s since scenario start).
    pub time: f64,
    /// One frame per agent vehicle, indexed like the fleet's vehicles.
    pub agents: Vec<AgentFrame>,
}

/// A lazy N-car frame generator over one fleet scenario.
#[derive(Debug)]
pub struct FleetDataset {
    config: FleetDatasetConfig,
    fleet: FleetScenario,
    scanner: Scanner,
    detector: Detector,
    rng: StdRng,
    next_time: f64,
}

impl FleetDataset {
    /// Creates a generator for the given config and seed.
    pub fn new(config: FleetDatasetConfig, seed: u64) -> Self {
        let fleet = FleetScenario::generate(&config.fleet, seed);
        FleetDataset {
            scanner: Scanner::new(config.base.ego_lidar.clone()),
            detector: Detector::new(config.base.detector),
            fleet,
            rng: StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            next_time: config.base.start_time,
            config,
        }
    }

    /// The underlying fleet scenario.
    pub fn fleet(&self) -> &FleetScenario {
        &self.fleet
    }

    /// The generation config.
    pub fn config(&self) -> &FleetDatasetConfig {
        &self.config
    }

    /// Generates the next frame, advancing time by the configured
    /// interval.
    pub fn next_frame(&mut self) -> FleetFrame {
        let t = self.next_time;
        self.next_time += self.config.base.frame_interval;
        self.frame_at(t)
    }

    /// Generates the frame at an explicit time.
    pub fn frame_at(&mut self, t: f64) -> FleetFrame {
        let world = self.fleet.world();
        let mut agents = Vec::with_capacity(self.fleet.vehicle_count());
        for i in 0..self.fleet.vehicle_count() {
            let id = self.fleet.vehicle_id(i);
            let trajectory = self.fleet.trajectory(i);
            let scan = self.scanner.scan(world, trajectory, t, id, &mut self.rng);
            let detections = self.detector.detect(&scan, world, trajectory, id, &mut self.rng);
            let observed = observed_vehicles(&scan, world, t, id);
            agents.push(AgentFrame {
                scan,
                detections,
                pose: trajectory.pose_at(t),
                observed_vehicles: observed,
            });
        }
        FleetFrame { time: t, agents }
    }
}

/// Vehicle ids with at least [`Dataset::OBSERVED_MIN_HITS`] LiDAR hits in
/// `scan`, excluding the observing car itself.
fn observed_vehicles(
    scan: &Scan,
    world: &bba_scene::World,
    t: f64,
    exclude: ObstacleId,
) -> Vec<ObstacleId> {
    world
        .vehicles_at(t, Some(exclude))
        .into_iter()
        .filter(|(id, _)| scan.hits_on(*id) >= Dataset::OBSERVED_MIN_HITS)
        .map(|(id, _)| id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_frames_carry_one_agent_per_vehicle() {
        let mut ds = FleetDataset::new(FleetDatasetConfig::test_small(4), 1);
        let frame = ds.next_frame();
        assert_eq!(frame.agents.len(), 4);
        for agent in &frame.agents {
            assert!(agent.scan.len() > 200, "each car should return a real scan");
        }
    }

    #[test]
    fn poses_match_fleet_ground_truth() {
        let mut ds = FleetDataset::new(FleetDatasetConfig::test_small(3), 2);
        let t = 1.0;
        let frame = ds.frame_at(t);
        for i in 0..3 {
            let expect = ds.fleet().trajectory(i).pose_at(t);
            assert!(frame.agents[i].pose.approx_eq(&expect, 1e-12, 1e-12));
        }
        // Pairwise relative poses derive from the same trajectories.
        let rel = ds.fleet().relative_pose(0, 2, t);
        let from_frames = frame.agents[0].pose.relative_from(&frame.agents[2].pose);
        assert!(rel.approx_eq(&from_frames, 1e-9, 1e-9));
    }

    #[test]
    fn neighbours_observe_each_other_in_a_tight_platoon() {
        let mut cfg = FleetDatasetConfig::test_small(3);
        cfg.fleet.spacing = 15.0;
        cfg.fleet.scenario.agent_separation = 15.0;
        let mut ds = FleetDataset::new(cfg, 3);
        let frame = ds.next_frame();
        // Adjacent cars 15 m apart must collect ≥ OBSERVED_MIN_HITS off
        // each other.
        let id1 = ds.fleet().vehicle_id(1);
        assert!(
            frame.agents[0].observed_vehicles.contains(&id1),
            "ego should observe the car ahead"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let make = |seed| {
            let mut ds = FleetDataset::new(FleetDatasetConfig::test_small(3), seed);
            ds.next_frame()
        };
        assert_eq!(make(5), make(5));
    }
}
