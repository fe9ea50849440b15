//! **Extension experiment** — global place recognition quality and cost.
//!
//! BB-Align's fleet story needs a cheap answer to "which pairs are even
//! worth recovering?" before any pairwise work is queued. This experiment
//! measures the `bba-place` descriptor end to end on clustered suburbia
//! fleets where ground-truth BEV overlap is known by construction
//! ([`bba_scene::FleetScenario::bev_overlap_fraction`]): cars within a
//! cluster see
//! the same scene, cars across clusters are guaranteed disjoint at the
//! sensing radius.
//!
//! Per scenario seed we score every vehicle pair by descriptor cosine
//! similarity, label it by true disc overlap, and report the ROC
//! (pooled curve + per-seed AUC). The fleet [`PlaceIndex`] is then
//! exercised under repeated top-k queries for p50/p99 latency via the
//! `place.query` span histogram, and a gated [`PoseService`] pass shows
//! the descriptors doing their production job: refusing disjoint pairs
//! (`serve.shed_gated`) while conserving every submission.
//!
//! Artifacts: `results/place_recognition.json` (ROC, AUC per seed,
//! query quantiles, gating ledger) and
//! `results/metrics_place_recognition.json` (`place.*` / `serve.*`
//! counters and histograms).

use bb_align::{BbAlign, BbAlignConfig, PerceptionFrame};
use bba_bench::cli;
use bba_bench::report::{banner, opt, print_table, write_metrics_json, write_results_json};
use bba_dataset::{FleetDataset, FleetDatasetConfig};
use bba_obs::Recorder;
use bba_place::{PlaceConfig, PlaceDescriptor, PlaceIndex};
use bba_scene::{FleetConfig, ScenarioConfig, ScenarioPreset};
use bba_serve::{AdmitOutcome, FrameSubmission, GateConfig, PairId, PoseService, ServiceConfig};
use std::sync::Arc;

/// Scenario seeds swept (base seed, base+1, ...).
const SEEDS: usize = 5;
/// Agent vehicles per fleet: the base pair plus two clusters of three.
const VEHICLES: usize = 8;
/// Cars per cluster.
const CLUSTER_SIZE: usize = 3;
/// Arc distance (m) between cluster anchors. With the 51.2 m sensing
/// radius below, clusters sit far beyond 2R of each other and of the
/// base pair, so cross-cluster overlap is exactly zero.
const CLUSTER_GAP: f64 = 160.0;
/// In-cluster slot spacing (m): well inside 2R, heavy mutual overlap.
/// Ten metres matches the usual place-recognition notion of "the same
/// place" (revisits within a few car lengths).
const IN_CLUSTER_SPACING: f64 = 10.0;
/// BEV sensing radius (m) — both the engine's raster range and the
/// radius the ground-truth disc overlap is evaluated at.
const SENSING_RANGE: f64 = 51.2;
/// Repeated query rounds against the populated index for the latency
/// histogram.
const QUERY_ROUNDS: usize = 25;

/// Suburbia, stretched so every cluster lies inside the generated world
/// (cars placed past the road end would scan empty space and emit
/// hollow descriptors).
fn fleet_config() -> FleetDatasetConfig {
    let base = bba_dataset::DatasetConfig::test_small();
    let mut scenario = ScenarioConfig::preset(ScenarioPreset::Suburban);
    scenario.road_length = 1200.0;
    let mut fleet = FleetConfig::clusters(scenario, VEHICLES, CLUSTER_SIZE, CLUSTER_GAP);
    fleet.spacing = IN_CLUSTER_SPACING;
    FleetDatasetConfig { fleet, base }
}

fn engine_config(bev_override: Option<usize>) -> BbAlignConfig {
    let mut cfg = BbAlignConfig::default();
    let size = bev_override.unwrap_or(128);
    cfg.bev.range = SENSING_RANGE;
    cfg.bev.resolution = 2.0 * cfg.bev.range / size as f64;
    cfg.min_inliers_bv = 10;
    cfg.descriptor.patch_size = 24.min(size / 4);
    cfg.descriptor.grid_size = 4;
    cfg
}

/// One scored pair: descriptor similarity vs ground-truth overlap.
struct Sample {
    similarity: f64,
    overlapping: bool,
}

/// Area under the ROC curve via the rank statistic (probability a random
/// positive outscores a random negative, ties at half credit).
fn auc(samples: &[Sample]) -> Option<f64> {
    let pos: Vec<f64> = samples.iter().filter(|s| s.overlapping).map(|s| s.similarity).collect();
    let neg: Vec<f64> = samples.iter().filter(|s| !s.overlapping).map(|s| s.similarity).collect();
    if pos.is_empty() || neg.is_empty() {
        return None;
    }
    let mut wins = 0.0;
    for &p in &pos {
        for &n in &neg {
            if p > n {
                wins += 1.0;
            } else if p == n {
                wins += 0.5;
            }
        }
    }
    Some(wins / (pos.len() * neg.len()) as f64)
}

/// (true-positive rate, false-positive rate) at a similarity threshold.
fn roc_point(samples: &[Sample], threshold: f64) -> (f64, f64) {
    let (mut tp, mut fp, mut pos, mut neg) = (0usize, 0usize, 0usize, 0usize);
    for s in samples {
        if s.overlapping {
            pos += 1;
            tp += usize::from(s.similarity >= threshold);
        } else {
            neg += 1;
            fp += usize::from(s.similarity >= threshold);
        }
    }
    (tp as f64 / pos.max(1) as f64, fp as f64 / neg.max(1) as f64)
}

fn main() {
    let opts =
        cli::parse(2, "place_recognition — descriptor ROC + index latency on clustered fleets");
    if opts.json.is_some() {
        eprintln!("note: this experiment reports aggregates; --json is ignored");
    }
    let threads = opts.threads();

    banner(
        "Extension: global place recognition",
        &format!(
            "{SEEDS} suburbia seeds from {}, {VEHICLES} vehicles (2 clusters of {CLUSTER_SIZE} + base pair), {} frames/seed, sensing radius {SENSING_RANGE} m, {threads} threads",
            opts.seed, opts.frames
        ),
    );

    let engine = Arc::new(BbAlign::new(engine_config(opts.bev)));
    let place_cfg = PlaceConfig::default();
    let recorder = Recorder::enabled();

    let mut index = PlaceIndex::new();
    index.set_recorder(recorder.clone());

    let mut pooled: Vec<Sample> = Vec::new();
    let mut per_seed: Vec<(u64, Option<f64>, usize, usize)> = Vec::new();
    // Last seed's descriptors + frame, reused by the gating pass below.
    let mut last_frame: Option<(Vec<Arc<PerceptionFrame>>, Vec<PlaceDescriptor>, f64)> = None;

    let mut rows = vec![vec![
        "seed".to_string(),
        "pairs".to_string(),
        "overlapping".to_string(),
        "disjoint".to_string(),
        "AUC".to_string(),
    ]];

    for s in 0..SEEDS {
        let seed = opts.seed + s as u64;
        let mut ds = FleetDataset::new(fleet_config(), seed);
        let mut seed_samples: Vec<Sample> = Vec::new();
        for _ in 0..opts.frames {
            let frame = ds.next_frame();
            let frames: Vec<Arc<PerceptionFrame>> = frame
                .agents
                .iter()
                .map(|a| {
                    Arc::new(engine.frame_from_parts(
                        a.scan.points().iter().map(|p| p.position),
                        a.detections.iter().map(|d| (d.box3, d.confidence)),
                    ))
                })
                .collect();
            let descriptors: Vec<PlaceDescriptor> = bba_par::with_threads(threads, || {
                frames.iter().map(|f| engine.place_descriptor(f, &place_cfg)).collect()
            });
            for i in 0..VEHICLES {
                index.update((s * VEHICLES + i) as u32, descriptors[i].clone());
                for j in (i + 1)..VEHICLES {
                    let overlap = ds.fleet().bev_overlap_fraction(i, j, frame.time, SENSING_RANGE);
                    seed_samples.push(Sample {
                        similarity: descriptors[i].similarity(&descriptors[j]),
                        overlapping: overlap > 0.0,
                    });
                }
            }
            last_frame = Some((frames, descriptors, frame.time));
        }
        let seed_auc = auc(&seed_samples);
        let positives = seed_samples.iter().filter(|x| x.overlapping).count();
        let negatives = seed_samples.len() - positives;
        rows.push(vec![
            seed.to_string(),
            seed_samples.len().to_string(),
            positives.to_string(),
            negatives.to_string(),
            opt(seed_auc, 3),
        ]);
        per_seed.push((seed, seed_auc, positives, negatives));
        pooled.extend(seed_samples);
    }
    print_table(&rows);

    let pooled_auc = auc(&pooled);
    let min_auc = per_seed.iter().filter_map(|(_, a, _, _)| *a).fold(f64::INFINITY, f64::min);
    let min_auc = (min_auc.is_finite()).then_some(min_auc);

    // Pooled ROC curve on a fixed threshold grid, plus the operating
    // point maximising Youden's J — the gate threshold the serving pass
    // below uses.
    let thresholds: Vec<f64> = (0..=40).map(|i| i as f64 / 40.0).collect();
    let roc: Vec<(f64, f64, f64)> =
        thresholds.iter().map(|&t| (t, roc_point(&pooled, t).0, roc_point(&pooled, t).1)).collect();
    let best = roc
        .iter()
        .max_by(|a, b| (a.1 - a.2).total_cmp(&(b.1 - b.2)))
        .copied()
        .unwrap_or((0.5, 0.0, 0.0));
    println!();
    println!(
        "pooled AUC {} over {} pairs; best gate threshold {:.3} (tpr {:.3}, fpr {:.3})",
        opt(pooled_auc, 3),
        pooled.len(),
        best.0,
        best.1,
        best.2
    );

    // --- Index query latency ---------------------------------------------
    // Index holds every (seed, vehicle) descriptor; the span histogram
    // answers "what does a fleet-wide candidate lookup cost?".
    bba_par::with_threads(threads, || {
        for _ in 0..QUERY_ROUNDS {
            for id in 0..(SEEDS * VEHICLES) as u32 {
                if let Some(q) = index.get(id) {
                    let q = q.clone();
                    index.top_k(&q, 5, Some(id));
                }
            }
        }
    });
    let snapshot_queries = recorder.snapshot();
    let query_hist = snapshot_queries.span("place.query");
    let (query_p50, query_p99) = match query_hist {
        Some(h) => (h.p50(), h.p99()),
        None => (None, None),
    };
    println!(
        "index: {} vehicles, {} queries, top-k latency p50 {} ms / p99 {} ms",
        index.len(),
        query_hist.map_or(0, |h| h.count),
        opt(query_p50, 4),
        opt(query_p99, 4),
    );

    // --- Gated serving pass ----------------------------------------------
    // The descriptors doing their production job: a PoseService with the
    // ROC-chosen gate refuses disjoint pairs before any recovery work is
    // queued, and the conservation ledger still balances.
    let (frames, descriptors, t) = last_frame.expect("at least one frame per seed");
    let service = PoseService::new(
        Arc::clone(&engine),
        ServiceConfig {
            seed: opts.seed,
            gate: Some(GateConfig { min_similarity: best.0 }),
            ..ServiceConfig::default()
        },
    )
    .with_recorder(recorder.clone());
    for (v, d) in descriptors.iter().enumerate() {
        service.update_descriptor(v as u32, d.clone());
    }
    let (mut admitted, mut gated) = (0u64, 0u64);
    for i in 0..VEHICLES as u32 {
        for j in 0..VEHICLES as u32 {
            if i == j {
                continue;
            }
            let outcome = service.submit(
                PairId::new(i, j),
                FrameSubmission {
                    seq: 0,
                    timestamp: t,
                    ego: Arc::clone(&frames[i as usize]),
                    other: Arc::clone(&frames[j as usize]),
                },
                t,
            );
            match outcome {
                AdmitOutcome::ShedGated => gated += 1,
                AdmitOutcome::Admitted => admitted += 1,
                other => panic!("unexpected admission outcome {other:?}"),
            }
        }
    }
    let processed = bba_par::with_threads(threads, || service.process_batch(t)).len() as u64;
    let stats = service.stats();
    assert!(stats.is_conserved(), "gated serving ledger violated: {stats:?}");
    assert_eq!(stats.shed_gated, gated, "gate metric must match observed outcomes");
    println!(
        "gated service: {admitted} admitted, {gated} gated, {processed} processed — ledger conserved",
    );

    use bba_obs::json::Value;
    let float = |v: Option<f64>| v.map_or(Value::Null, Value::Float);
    let snapshot = recorder.snapshot();
    let metrics = write_metrics_json("place_recognition", &snapshot);
    write_results_json(
        "place_recognition",
        &Value::Map(vec![
            ("bench".into(), Value::Str("place_recognition".into())),
            ("base_seed".into(), Value::UInt(opts.seed)),
            ("seeds".into(), Value::UInt(SEEDS as u64)),
            ("frames_per_seed".into(), Value::UInt(opts.frames as u64)),
            ("vehicles".into(), Value::UInt(VEHICLES as u64)),
            ("cluster_size".into(), Value::UInt(CLUSTER_SIZE as u64)),
            ("cluster_gap_m".into(), Value::Float(CLUSTER_GAP)),
            ("sensing_range_m".into(), Value::Float(SENSING_RANGE)),
            ("threads".into(), Value::UInt(threads as u64)),
            (
                "per_seed".into(),
                Value::Seq(
                    per_seed
                        .iter()
                        .map(|(seed, a, pos, neg)| {
                            Value::Map(vec![
                                ("seed".into(), Value::UInt(*seed)),
                                ("auc".into(), float(*a)),
                                ("overlapping_pairs".into(), Value::UInt(*pos as u64)),
                                ("disjoint_pairs".into(), Value::UInt(*neg as u64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("pooled_auc".into(), float(pooled_auc)),
            ("min_auc".into(), float(min_auc)),
            (
                "roc".into(),
                Value::Seq(
                    roc.iter()
                        .map(|(t, tpr, fpr)| {
                            Value::Map(vec![
                                ("threshold".into(), Value::Float(*t)),
                                ("tpr".into(), Value::Float(*tpr)),
                                ("fpr".into(), Value::Float(*fpr)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("gate_threshold".into(), Value::Float(best.0)),
            ("query_p50_ms".into(), float(query_p50)),
            ("query_p99_ms".into(), float(query_p99)),
            (
                "gating".into(),
                Value::Map(vec![
                    ("submitted".into(), Value::UInt(admitted + gated)),
                    ("admitted".into(), Value::UInt(admitted)),
                    ("gated".into(), Value::UInt(gated)),
                    ("processed".into(), Value::UInt(processed)),
                ]),
            ),
            ("metrics".into(), metrics),
        ]),
    );
}
