//! The frame-pair pool driver shared by all experiment binaries.
//!
//! A *pool* is a set of frame pairs drawn from many seeded scenarios (so
//! results are not hostage to one world). For every pair the harness runs
//! the full BB-Align pipeline and the VIPS graph-matching baseline, and
//! records errors, inlier counts and covariates (distance, common cars) —
//! the raw material each figure slices differently.

use bb_align::{BbAlign, BbAlignConfig, PerceptionFrame, Recovery};
use bba_baselines::vips::{vips_match, VipsConfig};
use bba_dataset::{Dataset, DatasetConfig, FramePair};
use bba_geometry::Vec2;
use bba_obs::json::Value;
use bba_scene::{ScenarioConfig, ScenarioPreset};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// What a pool evaluates per frame pair.
#[derive(Debug, Clone, PartialEq)]
pub struct PairRecord {
    /// Pool index of the pair.
    pub index: usize,
    /// Ground-truth inter-vehicle distance (m).
    pub distance: f64,
    /// Commonly observed surrounding cars.
    pub common_cars: usize,
    /// BB-Align outcome (`None` = stage-1 failure).
    pub bb: Option<RecoveryStats>,
    /// VIPS baseline errors `(translation m, rotation rad)`
    /// (`None` = matching failed).
    pub vips: Option<(f64, f64)>,
}

/// BB-Align per-pair statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryStats {
    /// Final translation error (m).
    pub dt: f64,
    /// Final rotation error (rad).
    pub dr: f64,
    /// Stage-1-only translation error (m).
    pub stage1_dt: f64,
    /// Stage-1-only rotation error (rad).
    pub stage1_dr: f64,
    /// `Inliers_bv`.
    pub inliers_bv: usize,
    /// `Inliers_box` (0 when stage 2 did not engage).
    pub inliers_box: usize,
    /// Overlapping box pairs in stage 2.
    pub box_pairs: usize,
    /// Paper success criterion met.
    pub success: bool,
    /// Wall-clock recovery time (ms), excluding simulation.
    pub elapsed_ms: f64,
}

impl PairRecord {
    /// The record as a JSON object with one member per field, in
    /// declaration order: `bb` is `null` when stage 1 failed and `vips` is
    /// `null` or a `[translation, rotation]` array.
    pub fn to_json(&self) -> Value {
        Value::Map(vec![
            ("index".into(), Value::UInt(self.index as u64)),
            ("distance".into(), Value::Float(self.distance)),
            ("common_cars".into(), Value::UInt(self.common_cars as u64)),
            ("bb".into(), self.bb.as_ref().map_or(Value::Null, RecoveryStats::to_json)),
            (
                "vips".into(),
                self.vips.map_or(Value::Null, |(dt, dr)| {
                    Value::Seq(vec![Value::Float(dt), Value::Float(dr)])
                }),
            ),
        ])
    }
}

impl RecoveryStats {
    /// The stats as a JSON object with one member per field, in
    /// declaration order.
    pub fn to_json(&self) -> Value {
        let count = |n: usize| Value::UInt(n as u64);
        Value::Map(vec![
            ("dt".into(), Value::Float(self.dt)),
            ("dr".into(), Value::Float(self.dr)),
            ("stage1_dt".into(), Value::Float(self.stage1_dt)),
            ("stage1_dr".into(), Value::Float(self.stage1_dr)),
            ("inliers_bv".into(), count(self.inliers_bv)),
            ("inliers_box".into(), count(self.inliers_box)),
            ("box_pairs".into(), count(self.box_pairs)),
            ("success".into(), Value::Bool(self.success)),
            ("elapsed_ms".into(), Value::Float(self.elapsed_ms)),
        ])
    }
}

/// Pool configuration.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Total frame pairs to evaluate.
    pub frames: usize,
    /// Master seed.
    pub seed: u64,
    /// Scenario presets, cycled across scenarios.
    pub presets: Vec<ScenarioPreset>,
    /// Agent separations (m), cycled across scenarios; empty = preset
    /// defaults.
    pub separations: Vec<f64>,
    /// Traffic vehicle counts, cycled across scenarios; empty = preset
    /// defaults (the Figs. 8/12 common-car sweep).
    pub traffic_counts: Vec<usize>,
    /// Frame pairs drawn per generated scenario (time-consecutive).
    pub frames_per_scenario: usize,
    /// Dataset template (sensors, detector, intervals).
    pub dataset: DatasetConfig,
    /// BB-Align engine configuration.
    pub engine: BbAlignConfig,
    /// Also run the VIPS baseline.
    pub run_vips: bool,
    /// Print progress to stderr.
    pub progress: bool,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            frames: 60,
            seed: 2024,
            presets: vec![ScenarioPreset::Urban, ScenarioPreset::Suburban, ScenarioPreset::Highway],
            separations: Vec::new(),
            traffic_counts: Vec::new(),
            frames_per_scenario: 4,
            dataset: DatasetConfig::standard(),
            engine: BbAlignConfig::default(),
            run_vips: true,
            progress: true,
        }
    }
}

/// Builds the transmissible perception frames of a pair.
pub fn frames_of(aligner: &BbAlign, pair: &FramePair) -> (PerceptionFrame, PerceptionFrame) {
    let ego = aligner.frame_from_parts(
        pair.ego.scan.points().iter().map(|p| p.position),
        pair.ego.detections.iter().map(|d| (d.box3, d.confidence)),
    );
    let other = aligner.frame_from_parts(
        pair.other.scan.points().iter().map(|p| p.position),
        pair.other.detections.iter().map(|d| (d.box3, d.confidence)),
    );
    (ego, other)
}

/// Runs BB-Align on one pair, returning stats against ground truth.
pub fn evaluate_bb_align(
    aligner: &BbAlign,
    pair: &FramePair,
    rng: &mut StdRng,
) -> Option<(Recovery, RecoveryStats)> {
    let start = Instant::now();
    let (ego, other) = frames_of(aligner, pair);
    let recovery = aligner.recover(&ego, &other, rng).ok()?;
    let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
    let (dt, dr) = recovery.transform.error_to(&pair.true_relative);
    let (s1t, s1r) = recovery.bv.transform.error_to(&pair.true_relative);
    let stats = RecoveryStats {
        dt,
        dr,
        stage1_dt: s1t,
        stage1_dr: s1r,
        inliers_bv: recovery.inliers_bv(),
        inliers_box: recovery.inliers_box(),
        box_pairs: recovery.box_alignment.as_ref().map_or(0, |b| b.box_pairs),
        success: recovery.is_success(),
        elapsed_ms,
    };
    Some((recovery, stats))
}

/// Runs the VIPS baseline on one pair (detected box centres as graph
/// nodes), returning `(translation, rotation)` errors.
pub fn evaluate_vips(pair: &FramePair) -> Option<(f64, f64)> {
    let centers = |dets: &[bba_detect::Detection]| -> Vec<Vec2> {
        dets.iter().filter(|d| d.confidence >= 0.3).map(|d| d.box3.center.xy()).collect()
    };
    let src = centers(&pair.other.detections);
    let dst = centers(&pair.ego.detections);
    let result = vips_match(&src, &dst, &VipsConfig::default()).ok()?;
    let (dt, dr) = result.transform.error_to(&pair.true_relative);
    Some((dt, dr))
}

/// Runs a pool and returns one record per frame pair.
///
/// Scenarios are evaluated in parallel (frame-level parallelism): every
/// scenario seeds its own dataset and rng from the master seed alone, so
/// collecting the per-scenario record slices in scenario order reproduces
/// the serial record stream bit for bit at any thread count.
pub fn run_pool(cfg: &PoolConfig) -> Vec<PairRecord> {
    let aligner = BbAlign::new(cfg.engine.clone());
    let per = cfg.frames_per_scenario.max(1);
    let n_scenarios = cfg.frames.div_ceil(per);

    let per_scenario: Vec<Vec<PairRecord>> = bba_par::par_map_indices(n_scenarios, |s| {
        let preset = cfg.presets[s % cfg.presets.len().max(1)];
        let mut scenario_cfg = ScenarioConfig::preset(preset);
        if !cfg.separations.is_empty() {
            scenario_cfg = scenario_cfg.with_separation(cfg.separations[s % cfg.separations.len()]);
        }
        if !cfg.traffic_counts.is_empty() {
            scenario_cfg =
                scenario_cfg.with_traffic(cfg.traffic_counts[s % cfg.traffic_counts.len()]);
        }
        let mut dataset_cfg = cfg.dataset.clone();
        dataset_cfg.scenario = scenario_cfg;
        let mut dataset = Dataset::new(dataset_cfg, cfg.seed.wrapping_add(s as u64 * 7919));
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ (s as u64).wrapping_mul(0xD129_53FB));

        let count = per.min(cfg.frames - s * per);
        let mut out = Vec::with_capacity(count);
        for k in 0..count {
            let index = s * per + k;
            let pair = dataset.next_pair().expect("dataset streams indefinitely");
            let bb = evaluate_bb_align(&aligner, &pair, &mut rng).map(|(_, stats)| stats);
            let vips = if cfg.run_vips { evaluate_vips(&pair) } else { None };
            out.push(PairRecord {
                index,
                distance: pair.distance,
                common_cars: pair.common_vehicles.len(),
                bb,
                vips,
            });
        }
        if cfg.progress {
            eprintln!("  [scenario {}/{n_scenarios} done]", s + 1);
        }
        out
    });
    per_scenario.into_iter().flatten().collect()
}

/// Writes the raw per-pair records as pretty JSON when the user passed
/// `--json PATH` — the escape hatch for custom plotting/analysis on top of
/// the printed tables.
pub fn maybe_dump_json(records: &[PairRecord], opts: &crate::cli::Options) {
    let Some(path) = &opts.json else { return };
    let json = bba_obs::json::to_string_pretty(&Value::Seq(
        records.iter().map(PairRecord::to_json).collect(),
    ));
    match std::fs::write(path, json) {
        Ok(()) => eprintln!("wrote {} records to {}", records.len(), path.display()),
        Err(e) => eprintln!("failed to write {}: {e}", path.display()),
    }
}

/// Compares several engine configurations on the *same* pool of frame
/// pairs and prints one summary row per variant (shared helper for the
/// ablation binaries).
pub fn compare_engines(variants: &[(&str, BbAlignConfig)], frames: usize, seed: u64) {
    use crate::report::{opt, pct, print_table};
    use crate::stats::{fraction_below, percentile};

    let mut rows = vec![vec![
        "variant".to_string(),
        "solved".to_string(),
        "median dt (m)".to_string(),
        "<1 m".to_string(),
        "median dr (°)".to_string(),
        "median ms".to_string(),
    ]];
    for (label, engine) in variants {
        let mut cfg = PoolConfig { frames, seed, run_vips: false, ..PoolConfig::default() };
        cfg.engine = engine.clone();
        let records = run_pool(&cfg);
        let dts: Vec<f64> = bb_translation_errors(&records);
        let drs: Vec<f64> = bb_rotation_errors_deg(&records);
        let ms: Vec<f64> =
            records.iter().filter_map(|r| r.bb.as_ref().map(|b| b.elapsed_ms)).collect();
        rows.push(vec![
            label.to_string(),
            format!("{}/{}", dts.len(), records.len()),
            opt(percentile(&dts, 50.0), 2),
            pct(fraction_below(&dts, 1.0)),
            opt(percentile(&drs, 50.0), 2),
            opt(percentile(&ms, 50.0), 0),
        ]);
    }
    print_table(&rows);
}

/// Translation errors of successful BB-Align recoveries in a record set.
pub fn bb_translation_errors(records: &[PairRecord]) -> Vec<f64> {
    records.iter().filter_map(|r| r.bb.as_ref().map(|b| b.dt)).collect()
}

/// Rotation errors (degrees) of successful BB-Align recoveries.
pub fn bb_rotation_errors_deg(records: &[PairRecord]) -> Vec<f64> {
    records.iter().filter_map(|r| r.bb.as_ref().map(|b| b.dr.to_degrees())).collect()
}

/// Translation errors of successful VIPS matches.
pub fn vips_translation_errors(records: &[PairRecord]) -> Vec<f64> {
    records.iter().filter_map(|r| r.vips.map(|(dt, _)| dt)).collect()
}

/// Rotation errors (degrees) of successful VIPS matches.
pub fn vips_rotation_errors_deg(records: &[PairRecord]) -> Vec<f64> {
    records.iter().filter_map(|r| r.vips.map(|(_, dr)| dr.to_degrees())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bba_bev::BevConfig;

    /// A fast pool config for tests: coarse sensors, small BEV raster.
    pub fn test_pool(frames: usize, seed: u64) -> PoolConfig {
        let mut engine = BbAlignConfig {
            bev: BevConfig { range: 102.4, resolution: 1.6 }, // 128²
            min_inliers_bv: 10,
            ..BbAlignConfig::default()
        };
        engine.descriptor.patch_size = 24;
        engine.descriptor.grid_size = 4;
        PoolConfig {
            frames,
            seed,
            presets: vec![ScenarioPreset::Urban],
            separations: vec![30.0],
            traffic_counts: Vec::new(),
            frames_per_scenario: 2,
            dataset: DatasetConfig::test_small(),
            engine,
            run_vips: true,
            progress: false,
        }
    }

    #[test]
    fn pool_produces_requested_records() {
        let records = run_pool(&test_pool(4, 5));
        assert_eq!(records.len(), 4);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.index, i);
            assert!(r.distance > 0.0);
        }
    }

    #[test]
    fn pool_is_deterministic() {
        // Wall-clock timing is the only nondeterministic field.
        let strip = |mut rs: Vec<PairRecord>| {
            for r in &mut rs {
                if let Some(b) = &mut r.bb {
                    b.elapsed_ms = 0.0;
                }
            }
            rs
        };
        let a = strip(run_pool(&test_pool(3, 9)));
        let b = strip(run_pool(&test_pool(3, 9)));
        assert_eq!(a, b);
    }

    #[test]
    fn error_extractors_filter_failures() {
        let records = vec![
            PairRecord { index: 0, distance: 30.0, common_cars: 3, bb: None, vips: None },
            PairRecord {
                index: 1,
                distance: 30.0,
                common_cars: 3,
                bb: Some(RecoveryStats {
                    dt: 0.5,
                    dr: 0.01,
                    stage1_dt: 0.7,
                    stage1_dr: 0.01,
                    inliers_bv: 30,
                    inliers_box: 8,
                    box_pairs: 2,
                    success: true,
                    elapsed_ms: 10.0,
                }),
                vips: Some((1.5, 0.02)),
            },
        ];
        assert_eq!(bb_translation_errors(&records), vec![0.5]);
        assert_eq!(vips_translation_errors(&records), vec![1.5]);
        assert_eq!(bb_rotation_errors_deg(&records).len(), 1);
        assert_eq!(vips_rotation_errors_deg(&records).len(), 1);
    }

    #[test]
    fn most_urban_recoveries_succeed() {
        let records = run_pool(&test_pool(4, 33));
        let ok = records.iter().filter(|r| r.bb.is_some()).count();
        assert!(ok >= 2, "expected mostly successful recoveries, got {ok}/4");
    }
}
