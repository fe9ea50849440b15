//! Seed-determined workload inputs, generated from the in-tree simulator
//! with the clock stopped. The program under test only ever sees what
//! these functions return: raw LiDAR points and detector boxes per car,
//! plus the simulator's ground-truth relative pose for scoring.

use bba_dataset::{AgentFrame, Dataset, DatasetConfig, FleetDataset, FleetDatasetConfig};
use bba_geometry::{Box3, Iso2, Vec3};

/// One car's sensor output for one frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Agent {
    pub points: Vec<Vec3>,
    pub boxes: Vec<(Box3, f64)>,
}

impl Agent {
    fn from_frame(frame: &AgentFrame) -> Agent {
        Agent {
            points: frame.scan.points().iter().map(|p| p.position).collect(),
            boxes: frame.detections.iter().map(|d| (d.box3, d.confidence)).collect(),
        }
    }
}

/// A two-car frame pair with the other→ego ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct PairInput {
    pub ego: Agent,
    pub other: Agent,
    pub truth: Iso2,
}

/// One synchronized platoon tick.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatoonTick {
    pub time: f64,
    pub agents: Vec<Agent>,
    /// `truth[i][j]`: ground truth mapping vehicle `j`'s frame into `i`'s.
    pub truth: Vec<Vec<Iso2>>,
}

/// Which part of a run an input stream feeds. Warm-up inputs come from
/// their own stream, so set-up never touches a timed input, and they are
/// the same for every seed, so set-up does the same work on every run.
#[derive(Debug, Clone, Copy)]
pub enum Stream {
    Timed,
    WarmUp,
}

/// The run seed for timed inputs; a fixed one for warm-up inputs.
pub fn stream_seed(seed: u64, stream: Stream) -> u64 {
    match stream {
        Stream::Timed => seed,
        Stream::WarmUp => 0,
    }
}

/// splitmix64 finalizer over the seed, a stream tag and an index: adjacent
/// indices land in unrelated simulator seeds.
pub fn mix(seed: u64, stream: Stream, index: u64) -> u64 {
    let tag = match stream {
        Stream::Timed => 0x7431_u64,
        Stream::WarmUp => 0x5741_u64,
    };
    let seed = stream_seed(seed, stream);
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `cold_pairs`: pair `index` is the first frame pair of its own suburban
/// scenario, so no two pairs share a scene.
pub fn cold_pair(seed: u64, stream: Stream, index: u64) -> PairInput {
    let mut ds = Dataset::new(DatasetConfig::standard(), mix(seed, stream, index));
    let pair = ds.next_pair().expect("dataset streams indefinitely");
    PairInput {
        ego: Agent::from_frame(&pair.ego),
        other: Agent::from_frame(&pair.other),
        truth: pair.true_relative,
    }
}

/// Platoon size of `platoon_fanout`.
pub const PLATOON_VEHICLES: usize = 6;
/// Tick interval (s) of the 10 Hz platoon and the layer sweep.
pub const TICK_S: f64 = 0.1;

/// `platoon_fanout`: urban platoon number `index`, vehicles 20 m apart,
/// yielding 10 Hz ticks.
pub fn platoon(seed: u64, stream: Stream, index: u64) -> FleetDataset {
    let mut cfg = FleetDatasetConfig::test_small(PLATOON_VEHICLES);
    cfg.fleet.spacing = 20.0;
    cfg.fleet.scenario.agent_separation = 20.0;
    cfg.base = cfg.base.at_frame_interval(TICK_S);
    FleetDataset::new(cfg, mix(seed, stream, index))
}

/// The platoon's next tick.
pub fn platoon_tick(ds: &mut FleetDataset) -> PlatoonTick {
    let frame = ds.next_frame();
    let n = frame.agents.len();
    let truth = (0..n)
        .map(|i| (0..n).map(|j| ds.fleet().relative_pose(i, j, frame.time)).collect())
        .collect();
    PlatoonTick {
        time: frame.time,
        agents: frame.agents.iter().map(Agent::from_frame).collect(),
        truth,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_pairs_are_seed_deterministic() {
        let a = cold_pair(11, Stream::Timed, 3);
        assert_eq!(a, cold_pair(11, Stream::Timed, 3));
        assert_ne!(a, cold_pair(12, Stream::Timed, 3));
        assert_ne!(a, cold_pair(11, Stream::Timed, 4));
        assert_ne!(a, cold_pair(11, Stream::WarmUp, 3));
        assert_eq!(cold_pair(11, Stream::WarmUp, 3), cold_pair(12, Stream::WarmUp, 3));
    }

    fn ticks(seed: u64, index: u64) -> Vec<PlatoonTick> {
        let mut ds = platoon(seed, Stream::Timed, index);
        (0..2).map(|_| platoon_tick(&mut ds)).collect()
    }

    #[test]
    fn platoon_ticks_are_seed_deterministic() {
        let a = ticks(5, 0);
        assert_eq!(a, ticks(5, 0));
        assert_ne!(a, ticks(6, 0));
        assert_ne!(a, ticks(5, 1));
        assert_eq!(a[0].agents.len(), PLATOON_VEHICLES);
        assert!((a[1].time - a[0].time - TICK_S).abs() < 1e-12);
    }
}
