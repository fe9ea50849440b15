//! Fleet scenarios: N>2 cooperating agent vehicles on one road.
//!
//! A [`Scenario`] models the paper's two-car V2V4Real segment. Fleet-scale
//! serving needs more: a platoon of N agent cars whose pairwise relative
//! poses form a *graph* with cycles, so that chained pairwise recoveries
//! can be checked for cycle consistency. [`FleetScenario`] wraps the
//! two-car generator — the world, traffic and the first two agents are
//! byte-identical to [`Scenario::generate`] with the same config and seed,
//! which keeps every existing two-car pin untouched — and appends N−2
//! further agent cars behind the ego car in the same lane, each with a
//! small deterministic speed jitter so the platoon breathes instead of
//! moving as a rigid body.
//!
//! Vehicle indexing: `0` is the scenario's ego car, `1` the scenario's
//! other car, `2..N` the appended platoon cars ordered back-to-front
//! behind the ego.
//!
//! [`FleetPlacement`] selects the layout of the appended cars: a single
//! coherent [`FleetPlacement::Platoon`] (every consecutive pair
//! overlaps), or well-separated [`FleetPlacement::Clusters`] whose
//! cross-cluster pairs are guaranteed disjoint — the ground truth a
//! place-recognition ROC sweep needs, exposed via
//! [`FleetScenario::bev_overlap_fraction`].

use crate::objects::{ObjectKind, ObstacleId};
use crate::scenario::{Scenario, ScenarioConfig, EGO_ARC_FRACTION, LANE_HALF_OFFSET};
use crate::trajectory::Trajectory;
use crate::world::{DynamicVehicle, World};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How the appended (index ≥ 2) agent cars are placed along the road.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FleetPlacement {
    /// One coherent column behind the ego at uniform spacing — every
    /// consecutive pair overlaps heavily. The original fleet layout.
    #[default]
    Platoon,
    /// Well-separated groups: cars within a cluster sit `spacing` apart
    /// (mutually overlapping BEVs), while cluster anchors sit
    /// `cluster_gap` apart — far beyond sensing range, so cross-cluster
    /// pairs share no BEV. Gives place-recognition benches ground truth
    /// with both overlapping *and* non-overlapping pairs.
    Clusters,
}

/// Parameters of a fleet (platoon) scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Base two-car scenario (world, traffic, agents 0 and 1).
    pub scenario: ScenarioConfig,
    /// Total number of agent vehicles (≥ 2). With exactly 2 the fleet
    /// degenerates to the base scenario.
    pub vehicles: usize,
    /// Along-road gap (m) between consecutive platoon cars appended
    /// behind the ego (within one cluster, for [`FleetPlacement::Clusters`]).
    pub spacing: f64,
    /// Half-width (m/s) of the uniform per-car speed perturbation around
    /// the base scenario's ego speed. Keep small relative to `spacing` so
    /// the platoon stays coherent over a simulated run.
    pub speed_jitter: f64,
    /// Layout of the appended cars.
    pub placement: FleetPlacement,
    /// Cars per cluster ([`FleetPlacement::Clusters`] only).
    pub cluster_size: usize,
    /// Arc distance (m) between consecutive cluster anchors
    /// ([`FleetPlacement::Clusters`] only). Choose beyond twice the BEV
    /// range so cross-cluster pairs are guaranteed non-overlapping.
    pub cluster_gap: f64,
}

impl FleetConfig {
    /// A platoon of `vehicles` cars on the given base scenario, with the
    /// base agent separation reused as the platoon spacing so consecutive
    /// gaps are uniform front to back.
    pub fn platoon(scenario: ScenarioConfig, vehicles: usize) -> Self {
        let spacing = scenario.agent_separation;
        FleetConfig {
            scenario,
            vehicles,
            spacing,
            speed_jitter: 0.5,
            placement: FleetPlacement::Platoon,
            cluster_size: 4,
            cluster_gap: 300.0,
        }
    }

    /// A clustered fleet: groups of `cluster_size` mutually overlapping
    /// cars, consecutive clusters `cluster_gap` metres apart.
    pub fn clusters(
        scenario: ScenarioConfig,
        vehicles: usize,
        cluster_size: usize,
        cluster_gap: f64,
    ) -> Self {
        let spacing = scenario.agent_separation;
        FleetConfig {
            scenario,
            vehicles,
            spacing,
            speed_jitter: 0.5,
            placement: FleetPlacement::Clusters,
            cluster_size,
            cluster_gap,
        }
    }

    /// Validates the parameters.
    ///
    /// # Panics
    ///
    /// Panics on fewer than two vehicles, a non-positive spacing, or (for
    /// [`FleetPlacement::Clusters`]) an empty cluster or non-positive gap.
    pub fn validate(&self) {
        assert!(self.vehicles >= 2, "a fleet needs at least two vehicles");
        assert!(self.spacing > 0.0, "platoon spacing must be positive");
        assert!(self.speed_jitter >= 0.0, "speed jitter cannot be negative");
        if self.placement == FleetPlacement::Clusters {
            assert!(self.cluster_size >= 1, "clusters need at least one car");
            assert!(self.cluster_gap > 0.0, "cluster gap must be positive");
        }
    }
}

/// A generated fleet: the base scenario's world plus N agent vehicles.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetScenario {
    config: FleetConfig,
    world: World,
    ids: Vec<ObstacleId>,
    trajectories: Vec<Trajectory>,
}

impl FleetScenario {
    /// Generates a fleet deterministically from `seed`.
    ///
    /// The base world and the first two agents come from
    /// [`Scenario::generate`] with the same config and seed; platoon cars
    /// are appended from an independent RNG stream, so adding vehicles
    /// never reshuffles the world.
    pub fn generate(config: &FleetConfig, seed: u64) -> FleetScenario {
        config.validate();
        let base = Scenario::generate(&config.scenario, seed);
        let mut world = base.world().clone();
        let mut ids = vec![base.ego_id(), base.other_id()];
        let mut trajectories = vec![base.ego_trajectory().clone(), base.other_trajectory().clone()];

        // Independent stream: mixing a distinct constant keeps platoon
        // jitter decoupled from the scenario's own generation RNG.
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF1EE_7A11_0000_0001);
        let road = crate::road::RoadFrame::new(config.scenario.road_curvature);
        let ego_s = config.scenario.road_length * EGO_ARC_FRACTION;
        for k in 2..config.vehicles {
            // Platoon: car k sits (k-1)·spacing behind the ego, same lane,
            // driving forward near the ego speed. Clusters: car k joins
            // cluster (k-2)/cluster_size, whose anchor trails the ego by a
            // multiple of cluster_gap, at spacing-sized slots within it.
            let s0 = match config.placement {
                FleetPlacement::Platoon => ego_s - (k as f64 - 1.0) * config.spacing,
                FleetPlacement::Clusters => {
                    let cluster = (k - 2) / config.cluster_size.max(1);
                    let slot = (k - 2) % config.cluster_size.max(1);
                    ego_s
                        - (cluster as f64 + 1.0) * config.cluster_gap
                        - (slot as f64 + 1.0) * config.spacing
                }
            };
            let jitter = if config.speed_jitter > 0.0 {
                rng.random_range(-config.speed_jitter..config.speed_jitter)
            } else {
                0.0
            };
            let speed = (config.scenario.ego_speed + jitter).max(0.5);
            let trajectory = road.trajectory(s0, -LANE_HALF_OFFSET, speed, true);
            let id = world.next_id();
            world.push_dynamic(DynamicVehicle {
                id,
                kind: ObjectKind::AgentVehicle,
                trajectory: trajectory.clone(),
            });
            ids.push(id);
            trajectories.push(trajectory);
        }

        FleetScenario { config: config.clone(), world, ids, trajectories }
    }

    /// The generation parameters.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The world (base scenario plus platoon cars).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Number of agent vehicles.
    pub fn vehicle_count(&self) -> usize {
        self.ids.len()
    }

    /// Obstacle id of agent vehicle `i`.
    pub fn vehicle_id(&self, i: usize) -> ObstacleId {
        self.ids[i]
    }

    /// Trajectory of agent vehicle `i`.
    pub fn trajectory(&self, i: usize) -> &Trajectory {
        &self.trajectories[i]
    }

    /// Ground-truth transform mapping vehicle `j`'s frame into vehicle
    /// `i`'s frame at time `t` — the recovery target for the pair `(i, j)`.
    pub fn relative_pose(&self, i: usize, j: usize, t: f64) -> bba_geometry::Iso2 {
        self.trajectories[i].pose_at(t).relative_from(&self.trajectories[j].pose_at(t))
    }

    /// Distance (m) between vehicles `i` and `j` at time `t`.
    pub fn distance(&self, i: usize, j: usize, t: f64) -> f64 {
        let a = self.trajectories[i].pose_at(t).translation();
        let b = self.trajectories[j].pose_at(t).translation();
        a.distance(b)
    }

    /// Ground-truth BEV overlap between vehicles `i` and `j` at time `t`:
    /// the intersection area of their two sensing discs of radius
    /// `range`, as a fraction of one disc's area (`1.0` when co-located,
    /// `0.0` once they are more than `2·range` apart).
    ///
    /// Rotation-invariant by construction — exactly the "do these two
    /// cars see the same scene" label place-recognition ROC sweeps need.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive `range`.
    pub fn bev_overlap_fraction(&self, i: usize, j: usize, t: f64, range: f64) -> f64 {
        assert!(range > 0.0, "sensing range must be positive");
        let d = self.distance(i, j, t);
        let r = range;
        if d >= 2.0 * r {
            return 0.0;
        }
        if d <= 0.0 {
            return 1.0;
        }
        // Lens area of two equal circles radius r at centre distance d.
        let lens =
            2.0 * r * r * (d / (2.0 * r)).acos() - 0.5 * d * (4.0 * r * r - d * d).max(0.0).sqrt();
        (lens / (std::f64::consts::PI * r * r)).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioPreset;

    fn cfg(vehicles: usize) -> FleetConfig {
        FleetConfig::platoon(ScenarioConfig::preset(ScenarioPreset::Urban), vehicles)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = FleetScenario::generate(&cfg(5), 7);
        let b = FleetScenario::generate(&cfg(5), 7);
        assert_eq!(a, b);
        assert_ne!(a, FleetScenario::generate(&cfg(5), 8));
    }

    #[test]
    fn two_vehicle_fleet_matches_base_scenario() {
        let fleet_cfg = cfg(2);
        let fleet = FleetScenario::generate(&fleet_cfg, 3);
        let base = Scenario::generate(&fleet_cfg.scenario, 3);
        assert_eq!(fleet.world(), base.world());
        assert_eq!(fleet.vehicle_id(0), base.ego_id());
        assert_eq!(fleet.vehicle_id(1), base.other_id());
    }

    #[test]
    fn extra_vehicles_extend_without_reshuffling_the_base_world() {
        let fleet_cfg = cfg(6);
        let fleet = FleetScenario::generate(&fleet_cfg, 3);
        let base = Scenario::generate(&fleet_cfg.scenario, 3);
        assert_eq!(fleet.vehicle_count(), 6);
        // The base world is a strict prefix: statics identical, dynamics
        // extended by exactly the platoon cars.
        assert_eq!(fleet.world().static_obstacles(), base.world().static_obstacles());
        let base_dyn = base.world().dynamic_vehicles();
        let fleet_dyn = fleet.world().dynamic_vehicles();
        assert_eq!(&fleet_dyn[..base_dyn.len()], base_dyn);
        assert_eq!(fleet_dyn.len(), base_dyn.len() + 4);
    }

    #[test]
    fn platoon_cars_follow_behind_the_ego_at_spacing() {
        let fleet = FleetScenario::generate(&cfg(5), 11);
        let spacing = fleet.config().spacing;
        for k in 2..5 {
            let d = fleet.distance(0, k, 0.0);
            let expect = (k as f64 - 1.0) * spacing;
            assert!((d - expect).abs() < 1.0, "car {k}: distance {d} vs expected {expect}");
            // Behind the ego: the relative position in the ego frame
            // points backwards (negative x for a forward-driving ego).
            let rel = fleet.relative_pose(0, k, 0.0);
            assert!(rel.apply(bba_geometry::Vec2::ZERO).x < 0.0, "car {k} should trail the ego");
        }
    }

    #[test]
    fn relative_poses_compose_around_cycles() {
        let fleet = FleetScenario::generate(&cfg(5), 4);
        let t = 1.5;
        for (i, j, k) in [(0usize, 1usize, 2usize), (1, 2, 3), (2, 3, 4)] {
            let ij = fleet.relative_pose(i, j, t);
            let jk = fleet.relative_pose(j, k, t);
            let ik = fleet.relative_pose(i, k, t);
            // T_ij ∘ T_jk = T_ik exactly (same ground-truth trajectories).
            let composed = ij.compose(&jk);
            assert!(composed.approx_eq(&ik, 1e-9, 1e-9), "cycle {i}-{j}-{k} inconsistent");
        }
    }

    #[test]
    fn vehicle_ids_are_unique_in_the_world() {
        let fleet = FleetScenario::generate(&cfg(7), 9);
        let mut ids: Vec<u32> = fleet
            .world()
            .static_obstacles()
            .iter()
            .map(|o| o.id.0)
            .chain(fleet.world().dynamic_vehicles().iter().map(|d| d.id.0))
            .collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate obstacle ids in fleet world");
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_vehicle_fleet_panics() {
        FleetScenario::generate(&cfg(1), 0);
    }

    #[test]
    fn overlap_fraction_is_bounded_symmetric_and_distance_monotone() {
        let fleet = FleetScenario::generate(&cfg(6), 13);
        let range = 102.4;
        for i in 0..6 {
            for j in 0..6 {
                let f = fleet.bev_overlap_fraction(i, j, 0.0, range);
                assert!((0.0..=1.0).contains(&f), "fraction {f} out of range");
                let g = fleet.bev_overlap_fraction(j, i, 0.0, range);
                assert!((f - g).abs() < 1e-12, "overlap must be symmetric");
            }
            assert!((fleet.bev_overlap_fraction(i, i, 0.0, range) - 1.0).abs() < 1e-12);
        }
        // Platoon cars trail the ego at increasing distance, so the
        // overlap with the ego must be non-increasing back down the line.
        for k in 2..5 {
            let near = fleet.bev_overlap_fraction(0, k, 0.0, range);
            let far = fleet.bev_overlap_fraction(0, k + 1, 0.0, range);
            assert!(near >= far, "overlap should shrink with distance ({near} < {far})");
        }
    }

    #[test]
    fn clusters_separate_overlapping_and_disjoint_pairs() {
        // Two clusters of three, anchors 300 m apart: within a cluster
        // every pair overlaps heavily; across clusters nothing overlaps
        // at a 102.4 m sensing radius.
        let config =
            FleetConfig::clusters(ScenarioConfig::preset(ScenarioPreset::Suburban), 8, 3, 300.0);
        let fleet = FleetScenario::generate(&config, 21);
        let range = 102.4;
        // Cluster 0 = vehicles 2..5, cluster 1 = vehicles 5..8.
        for a in 2..5 {
            for b in 2..5 {
                if a == b {
                    continue;
                }
                let f = fleet.bev_overlap_fraction(a, b, 0.0, range);
                assert!(f > 0.5, "same-cluster pair ({a},{b}) overlap {f} too low");
            }
        }
        for a in 2..5 {
            for b in 5..8 {
                let f = fleet.bev_overlap_fraction(a, b, 0.0, range);
                assert_eq!(f, 0.0, "cross-cluster pair ({a},{b}) overlap {f} should be zero");
            }
        }
    }

    #[test]
    fn cluster_placement_keeps_the_base_scenario_byte_identical() {
        let scen = ScenarioConfig::preset(ScenarioPreset::Urban);
        let platoon = FleetScenario::generate(&FleetConfig::platoon(scen.clone(), 6), 5);
        let clusters = FleetScenario::generate(&FleetConfig::clusters(scen, 6, 2, 250.0), 5);
        // Placement only moves the appended cars; the base world prefix
        // and the first two agents are unchanged.
        assert_eq!(platoon.vehicle_id(0), clusters.vehicle_id(0));
        assert_eq!(platoon.vehicle_id(1), clusters.vehicle_id(1));
        assert_eq!(platoon.trajectory(0), clusters.trajectory(0));
        assert_eq!(platoon.trajectory(1), clusters.trajectory(1));
        assert_eq!(platoon.world().static_obstacles(), clusters.world().static_obstacles());
    }
}
