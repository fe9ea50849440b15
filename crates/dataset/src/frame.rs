//! Frame-pair generation: the dataset loader equivalent.

use bba_detect::{Detection, Detector, DetectorModel};
use bba_geometry::{Box3, Iso2};
use bba_lidar::{LidarConfig, Scan, Scanner};
use bba_scene::{ObstacleId, Scenario, ScenarioConfig, ScenarioPreset};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One car's view at one timestamp.
#[derive(Debug, Clone, PartialEq)]
pub struct AgentFrame {
    /// The LiDAR sweep (sensor frame).
    pub scan: Scan,
    /// Single-car object detections (sensor frame).
    pub detections: Vec<Detection>,
    /// Ground-truth pose of the car (world frame).
    pub pose: Iso2,
    /// Vehicle ids with at least [`Dataset::OBSERVED_MIN_HITS`] LiDAR hits.
    pub observed_vehicles: Vec<ObstacleId>,
}

/// One synchronized two-car frame: the dataset unit of every experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct FramePair {
    /// Timestamp (s since scenario start).
    pub time: f64,
    /// The receiving car.
    pub ego: AgentFrame,
    /// The transmitting car.
    pub other: AgentFrame,
    /// Ground-truth relative transform other→ego (the recovery target).
    pub true_relative: Iso2,
    /// Ground-truth inter-vehicle distance (m).
    pub distance: f64,
    /// Vehicles observed by *both* cars — the paper's
    /// "commonly observed cars" covariate (Figs. 8 and 12).
    pub common_vehicles: Vec<ObstacleId>,
    /// Ground-truth vehicle boxes in the **ego frame** (every vehicle
    /// except the ego car itself) — the evaluation targets for
    /// cooperative-detection AP (Table I).
    pub gt_vehicles_ego: Vec<(ObstacleId, Box3)>,
}

impl FramePair {
    /// The paper's selection predicate (§V "Dataset"): keep pairs where at
    /// least two common cars are observed.
    pub fn is_selected(&self) -> bool {
        self.common_vehicles.len() >= 2
    }
}

/// Dataset generation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetConfig {
    /// Scenario parameters (world + agents).
    pub scenario: ScenarioConfig,
    /// Ego car sensor.
    pub ego_lidar: LidarConfig,
    /// Other car sensor (may differ — heterogeneous pairs).
    pub other_lidar: LidarConfig,
    /// Detection model used by both cars.
    pub detector: DetectorModel,
    /// Time between frame pairs (s).
    pub frame_interval: f64,
    /// Scenario start offset of the first frame (s).
    pub start_time: f64,
}

impl DatasetConfig {
    /// The default evaluation configuration: suburban scenario,
    /// heterogeneous 64/32-channel sensors, coBEVT-profile detector.
    pub fn standard() -> Self {
        DatasetConfig {
            scenario: ScenarioConfig::preset(ScenarioPreset::Suburban),
            ego_lidar: LidarConfig::mid_res_32(),
            other_lidar: LidarConfig::mid_res_32(),
            detector: DetectorModel::CoBevt,
            frame_interval: 0.5,
            start_time: 0.0,
        }
    }

    /// A small, fast configuration for tests: sensors coarse enough to be
    /// quick but dense enough that mid-range cars still collect the
    /// [`Dataset::OBSERVED_MIN_HITS`] returns the selection predicate needs.
    pub fn test_small() -> Self {
        let test_lidar = LidarConfig {
            channels: 24,
            azimuth_step: 1.0f64.to_radians(),
            ..LidarConfig::test_coarse()
        };
        DatasetConfig {
            scenario: ScenarioConfig::preset(ScenarioPreset::Urban),
            ego_lidar: test_lidar.clone(),
            other_lidar: test_lidar,
            detector: DetectorModel::CoBevt,
            frame_interval: 0.5,
            start_time: 0.0,
        }
    }

    /// Sets the time between frame pairs (builder style) — e.g.
    /// `at_frame_interval(0.1)` for a 10 Hz stream.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive or non-finite interval.
    pub fn at_frame_interval(mut self, dt: f64) -> Self {
        assert!(dt.is_finite() && dt > 0.0, "frame interval must be positive, got {dt}");
        self.frame_interval = dt;
        self
    }
}

impl Default for DatasetConfig {
    fn default() -> Self {
        DatasetConfig::standard()
    }
}

/// A lazy frame-pair generator over one scenario.
///
/// Frames are produced on demand ([`Dataset::next_pair`]) because a scan
/// pair is megabytes; experiments stream pairs and keep only error
/// statistics.
#[derive(Debug)]
pub struct Dataset {
    config: DatasetConfig,
    scenario: Scenario,
    ego_scanner: Scanner,
    other_scanner: Scanner,
    detector: Detector,
    rng: StdRng,
    next_time: f64,
    produced: usize,
}

impl Dataset {
    /// A vehicle counts as "observed" with at least this many LiDAR hits.
    pub const OBSERVED_MIN_HITS: usize = 5;

    /// Creates a generator for the given config and seed.
    pub fn new(config: DatasetConfig, seed: u64) -> Self {
        let scenario = Scenario::generate(&config.scenario, seed);
        Dataset {
            ego_scanner: Scanner::new(config.ego_lidar.clone()),
            other_scanner: Scanner::new(config.other_lidar.clone()),
            detector: Detector::new(config.detector),
            scenario,
            rng: StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            next_time: config.start_time,
            produced: 0,
            config,
        }
    }

    /// The underlying scenario.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The generation config.
    pub fn config(&self) -> &DatasetConfig {
        &self.config
    }

    /// Number of pairs produced so far.
    pub fn produced(&self) -> usize {
        self.produced
    }

    /// Generates the next frame pair.
    ///
    /// Always returns `Some` — scenarios extrapolate trajectories — but the
    /// `Option` keeps the signature iterator-like and allows future bounded
    /// scenarios.
    pub fn next_pair(&mut self) -> Option<FramePair> {
        let t = self.next_time;
        self.next_time += self.config.frame_interval;
        self.produced += 1;
        Some(self.pair_at(t))
    }

    /// Generates the frame pair at an explicit time.
    pub fn pair_at(&mut self, t: f64) -> FramePair {
        let s = &self.scenario;
        let world = s.world();

        let ego_scan =
            self.ego_scanner.scan(world, s.ego_trajectory(), t, s.ego_id(), &mut self.rng);
        let other_scan =
            self.other_scanner.scan(world, s.other_trajectory(), t, s.other_id(), &mut self.rng);

        let ego_dets =
            self.detector.detect(&ego_scan, world, s.ego_trajectory(), s.ego_id(), &mut self.rng);
        let other_dets = self.detector.detect(
            &other_scan,
            world,
            s.other_trajectory(),
            s.other_id(),
            &mut self.rng,
        );

        let observed = |scan: &Scan, exclude: ObstacleId| -> Vec<ObstacleId> {
            world
                .vehicles_at(t, Some(exclude))
                .into_iter()
                .filter(|(id, _)| scan.hits_on(*id) >= Self::OBSERVED_MIN_HITS)
                .map(|(id, _)| id)
                .collect()
        };
        let ego_obs = observed(&ego_scan, s.ego_id());
        let other_obs = observed(&other_scan, s.other_id());
        // Common vehicles: seen by both, excluding the two agents
        // themselves (the paper counts *surrounding* cars).
        let common: Vec<ObstacleId> = ego_obs
            .iter()
            .copied()
            .filter(|id| other_obs.contains(id) && *id != s.ego_id() && *id != s.other_id())
            .collect();

        let ego_pose_inv = s.ego_trajectory().pose_at(t).inverse();
        let gt_vehicles_ego: Vec<(ObstacleId, Box3)> = world
            .vehicles_at(t, Some(s.ego_id()))
            .into_iter()
            .map(|(id, b)| (id, b.transformed(&ego_pose_inv)))
            .collect();

        FramePair {
            time: t,
            true_relative: s.true_relative_pose(t),
            distance: s.agent_distance(t),
            gt_vehicles_ego,
            ego: AgentFrame {
                scan: ego_scan,
                detections: ego_dets,
                pose: s.ego_trajectory().pose_at(t),
                observed_vehicles: ego_obs,
            },
            other: AgentFrame {
                scan: other_scan,
                detections: other_dets,
                pose: s.other_trajectory().pose_at(t),
                observed_vehicles: other_obs,
            },
            common_vehicles: common,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bba_scene::ScenarioPreset;

    #[test]
    fn pairs_are_consistent_with_ground_truth() {
        let mut ds = Dataset::new(DatasetConfig::test_small(), 1);
        let pair = ds.next_pair().unwrap();
        // Relative pose equals the pose algebra of the two agent frames.
        let expect = pair.ego.pose.relative_from(&pair.other.pose);
        assert!(pair.true_relative.approx_eq(&expect, 1e-9, 1e-9));
        // Distance matches translation magnitude of the relative pose
        // (same-lane following ⇒ nearly pure x offset).
        assert!((pair.distance - pair.true_relative.translation().norm()).abs() < 1e-9);
    }

    #[test]
    fn urban_frames_are_usually_selected() {
        let mut ds = Dataset::new(DatasetConfig::test_small(), 2);
        let selected = (0..6).filter(|_| ds.next_pair().unwrap().is_selected()).count();
        assert!(selected >= 4, "urban scenes should mostly pass selection, got {selected}/6");
    }

    #[test]
    fn rural_frames_have_fewer_common_vehicles() {
        let mut cfg = DatasetConfig::test_small();
        cfg.scenario = bba_scene::ScenarioConfig::preset(ScenarioPreset::OpenRural);
        let mut rural = Dataset::new(cfg, 3);
        let mut urban = Dataset::new(DatasetConfig::test_small(), 3);
        let rural_common: usize =
            (0..4).map(|_| rural.next_pair().unwrap().common_vehicles.len()).sum();
        let urban_common: usize =
            (0..4).map(|_| urban.next_pair().unwrap().common_vehicles.len()).sum();
        assert!(
            urban_common > rural_common,
            "urban {urban_common} should exceed rural {rural_common}"
        );
    }

    #[test]
    fn common_vehicles_excludes_agents() {
        let mut ds = Dataset::new(DatasetConfig::test_small(), 4);
        let pair = ds.next_pair().unwrap();
        let s = ds.scenario();
        assert!(!pair.common_vehicles.contains(&s.ego_id()));
        assert!(!pair.common_vehicles.contains(&s.other_id()));
    }

    #[test]
    fn frames_advance_in_time() {
        let mut ds = Dataset::new(DatasetConfig::test_small(), 5);
        let t0 = ds.next_pair().unwrap().time;
        let t1 = ds.next_pair().unwrap().time;
        assert!((t1 - t0 - 0.5).abs() < 1e-12);
        assert_eq!(ds.produced(), 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let gen = |seed| {
            let mut ds = Dataset::new(DatasetConfig::test_small(), seed);
            ds.next_pair().unwrap()
        };
        assert_eq!(gen(9), gen(9));
    }
}
