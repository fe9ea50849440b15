//! Layer replay: the kernels inside `BbAlign::recover`, called one by one
//! through their public APIs on the program's own frames, each inside its
//! own span. The replay mirrors stage 1 step for step, so on the same RNG
//! seed it must land on the same winning transform and inlier count as
//! `BbAlign::match_bv` — which it asserts, proving the per-kernel times
//! are for the program's own work.
//!
//! The layer sweep then drives the layers a workload does not call itself
//! (place, wire, link, serve) on the same frames, so every per-layer
//! metric is measured on every workload.

use crate::trace::{Request, Tracer};
use crate::workloads::{batch, PhaseLog};
use bb_align::{AlignmentScorer, BbAlign, KeypointSource, PerceptionFrame};
use bba_features::{
    detect_keypoints, match_sets, ransac_rigid_hinted, DescriptorSet, Keypoint, PatchSamples,
    RansacResult, RotationSweep,
};
use bba_geometry::{Iso2, Vec2};
use bba_link::{ChannelConfig, LinkEndpoint, ReceivedMessage, SimChannel};
use bba_serve::{FrameSubmission, PairId, PoseService, ServiceConfig};
use bba_signal::{FftWorkspace, LogGaborBank, MaxIndexMap};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// A pair of the workload's own frames, kept for the replay.
#[derive(Debug, Clone)]
pub struct ReplayPair {
    pub ego: Arc<PerceptionFrame>,
    pub other: Arc<PerceptionFrame>,
    pub rng_seed: u64,
}

/// Replay spans whose self times add up to one stage-1 + stage-2 pass.
pub const KERNEL_SPANS: [&str; 8] = [
    "signal.mim",
    "features.detect",
    "features.sample",
    "features.rebin",
    "features.match",
    "features.ransac",
    "core.verify",
    "core.stage2",
];

/// The engine's lazily built tables, rebuilt here from its configuration,
/// and scratch reused across pairs as the engine's pools reuse theirs.
pub struct Kernels {
    bank: LogGaborBank,
    sweep: RotationSweep,
    ws: FftWorkspace,
    samples: (PatchSamples, PatchSamples),
    sets: (DescriptorSet, DescriptorSet),
}

impl Kernels {
    pub fn new(engine: &BbAlign) -> Kernels {
        let cfg = engine.config();
        let h = cfg.bev.image_size();
        let hypotheses = cfg.rotation_hypotheses.max(1);
        let angles: Vec<f64> =
            (0..hypotheses).map(|k| k as f64 * std::f64::consts::TAU / hypotheses as f64).collect();
        Kernels {
            bank: LogGaborBank::new(h, h, cfg.log_gabor.clone()),
            sweep: RotationSweep::new(&cfg.descriptor, cfg.log_gabor.num_orientations, &angles),
            ws: FftWorkspace::new(),
            samples: Default::default(),
            sets: Default::default(),
        }
    }
}

/// Stage 1 replayed kernel by kernel. Returns the winning pixel transform
/// and its inlier count (`None` where `match_bv` returns an error), and the
/// number of rotation hypotheses swept.
fn replay_stage1(
    engine: &BbAlign,
    k: &mut Kernels,
    ego: &PerceptionFrame,
    other: &PerceptionFrame,
    rng: &mut StdRng,
    t: &Tracer,
    req: Request,
) -> (Option<RansacResult>, usize) {
    let cfg = engine.config();
    let Kernels {
        bank,
        sweep,
        ws,
        samples: (ego_samples, other_samples),
        sets: (ego_set, other_set),
    } = k;
    let mim_ego = t.span("signal.mim", req, || {
        MaxIndexMap::compute_with_workspace(ego.bev().grid(), bank, ws)
    });
    let mim_other = t.span("signal.mim", req, || {
        MaxIndexMap::compute_with_workspace(other.bev().grid(), bank, ws)
    });
    let detect = |frame: &PerceptionFrame, mim: &MaxIndexMap| -> Vec<Keypoint> {
        t.span("features.detect", req, || match cfg.keypoint_source {
            KeypointSource::BvImage => detect_keypoints(frame.bev().grid(), &cfg.keypoints),
            KeypointSource::MimAmplitude => {
                let max = mim.amplitude.max_value();
                if max <= 0.0 {
                    return Vec::new();
                }
                detect_keypoints(&mim.amplitude.map(|&a| a / max), &cfg.keypoints)
            }
        })
    };
    let kp_ego = detect(ego, &mim_ego);
    if kp_ego.is_empty() {
        return (None, 0);
    }
    let kp_other = detect(other, &mim_other);
    if kp_other.is_empty() {
        return (None, 0);
    }
    t.span("features.sample", req, || ego_samples.sample(&mim_ego, &kp_ego, &cfg.descriptor));
    t.span("features.sample", req, || other_samples.sample(&mim_other, &kp_other, &cfg.descriptor));
    t.span("features.rebin", req, || ego_samples.rebin_into(sweep, 0, ego_set));
    if ego_set.is_empty() {
        return (None, 0);
    }
    let pix = |kp: &Keypoint| Vec2::new(kp.u as f64 + 0.5, kp.v as f64 + 0.5);
    let mut candidates: Vec<RansacResult> = Vec::new();
    let mut swept = 0;
    'sweep: for h in 0..sweep.hypotheses() {
        swept = h + 1;
        t.span("features.rebin", req, || other_samples.rebin_into(sweep, h, other_set));
        if other_set.is_empty() {
            continue;
        }
        let matches =
            t.span("features.match", req, || match_sets(other_set, ego_set, &cfg.matcher));
        if matches.len() < 2 {
            continue;
        }
        let mut src: Vec<Vec2> = matches.iter().map(|m| pix(other_set.keypoint(m.src))).collect();
        let mut dst: Vec<Vec2> = matches.iter().map(|m| pix(ego_set.keypoint(m.dst))).collect();
        let mut qual: Vec<f64> = matches.iter().map(|m| m.distance).collect();
        for _ in 0..cfg.stage1_candidates.max(1) {
            let fit = t.span("features.ransac", req, || {
                ransac_rigid_hinted(&src, &dst, Some(&qual), None, &cfg.ransac_bv, rng)
            });
            let Ok(result) = fit else { break };
            let strong =
                result.num_inliers > cfg.min_inliers_bv && 2 * result.num_inliers >= matches.len();
            let inlier_set: std::collections::HashSet<usize> =
                result.inliers.iter().copied().collect();
            let keep: Vec<usize> = (0..src.len()).filter(|i| !inlier_set.contains(i)).collect();
            candidates.push(result);
            if strong {
                break 'sweep;
            }
            if keep.len() < cfg.ransac_bv.min_inliers.max(2) {
                break;
            }
            src = keep.iter().map(|&i| src[i]).collect();
            dst = keep.iter().map(|&i| dst[i]).collect();
            qual = keep.iter().map(|&i| qual[i]).collect();
        }
    }
    let winner = t.span("core.verify", req, || {
        if cfg.alignment_verification && candidates.len() > 1 {
            let scorer = AlignmentScorer::new(ego.bev());
            let cells = scorer.collect_occupied(other.bev());
            candidates
                .into_iter()
                .map(|r| (scorer.score_cells(&cells, &pixel_to_world(engine, &r.transform)), r))
                .max_by(|a, b| a.0.total_cmp(&b.0).then(a.1.num_inliers.cmp(&b.1.num_inliers)))
                .map(|(_, r)| r)
        } else {
            candidates.into_iter().max_by_key(|r| r.num_inliers)
        }
    });
    (winner, swept)
}

/// A pixel-space rigid transform in metres (the raster is a uniform
/// similarity, so only the translation moves).
fn pixel_to_world(engine: &BbAlign, t_pix: &Iso2) -> Iso2 {
    let bev = &engine.config().bev;
    let origin_pix = bev.world_to_pixel_f(Vec2::ZERO);
    Iso2::new(t_pix.yaw(), bev.pixel_to_world_f(t_pix.apply(origin_pix)))
}

/// Replays every pair, records per-pair layer totals, and checks the replay
/// against `match_bv`. Returns one message per mismatch.
pub fn replay_kernels(engine: &BbAlign, pairs: &[ReplayPair], t: &Tracer) -> Vec<String> {
    let mut kernels = Kernels::new(engine);
    let mut mismatches = Vec::new();
    for (i, p) in pairs.iter().enumerate() {
        let req = Request { pair: i as u64, seq: 0 };
        let before = span_totals(t);
        let mut rng = StdRng::seed_from_u64(p.rng_seed);
        let (winner, swept) =
            replay_stage1(engine, &mut kernels, &p.ego, &p.other, &mut rng, t, req);
        if let Some(w) = &winner {
            if engine.config().box_alignment {
                let coarse = pixel_to_world(engine, &w.transform);
                t.span("core.stage2", req, || {
                    engine.align_boxes(&p.ego, &p.other, &coarse, &mut rng)
                });
            }
        }
        let layers_ms: f64 = span_totals(t).iter().zip(&before).map(|(a, b)| a - b).sum();
        t.sample("features.hypotheses_per_pair", swept as f64);

        let program = engine.match_bv(&p.ego, &p.other, &mut StdRng::seed_from_u64(p.rng_seed));
        let replayed = winner.as_ref().map(|w| (w.transform, w.num_inliers));
        let expected = program.as_ref().ok().map(|bv| (bv.transform_pixels, bv.inliers));
        if replayed != expected {
            mismatches
                .push(format!("replay pair {i}: replay {replayed:?} != match_bv {expected:?}"));
        }

        let start = Instant::now();
        t.span("core.recover", req, || {
            engine.recover(&p.ego, &p.other, &mut StdRng::seed_from_u64(p.rng_seed))
        })
        .ok();
        let recover_ms = start.elapsed().as_secs_f64() * 1e3;
        t.sample("core.stage1_residue_ms", recover_ms - layers_ms);
    }
    mismatches
}

/// Total milliseconds recorded so far under each of [`KERNEL_SPANS`].
fn span_totals(t: &Tracer) -> Vec<f64> {
    let d = t.durations_ms();
    KERNEL_SPANS.iter().map(|n| d.get(n).map_or(0.0, |v| v.iter().sum())).collect()
}

/// Drives place, wire, link and serve on the replay pairs: descriptors
/// published and queried, every other frame encoded, sent over an urban
/// link and decoded, and each pair submitted three times (seq 0 cold, then
/// warm-start candidates) to a fresh warm-start service. Returns the
/// service's ledger problems.
pub fn layer_sweep(
    engine: &Arc<BbAlign>,
    pairs: &[ReplayPair],
    seed: u64,
    t: &Tracer,
) -> Vec<String> {
    let service = PoseService::new(
        Arc::clone(engine),
        ServiceConfig { warm_start: true, ..crate::workloads::serving_config(seed) },
    );
    let place_cfg = bba_place::PlaceConfig::default();
    for (i, p) in pairs.iter().enumerate() {
        let req = Request { pair: i as u64, seq: 0 };
        let (ego_id, other_id) = (2 * i as u32, 2 * i as u32 + 1);
        let d_ego = t.span("place.extract", req, || engine.place_descriptor(&p.ego, &place_cfg));
        let d_other =
            t.span("place.extract", req, || engine.place_descriptor(&p.other, &place_cfg));
        t.span("place.update", req, || service.update_descriptor(ego_id, d_ego));
        t.span("place.update", req, || service.update_descriptor(other_id, d_other));
        t.span("place.query", req, || service.candidate_pairs(ego_id, 3));

        let bytes = t.span("wire.encode", req, || bb_align::encode_frame(&p.other));
        t.sample("wire.frame_bytes", bytes.len() as f64);
        let mut link =
            Link::new(!crate::inputs::mix(seed, crate::inputs::Stream::WarmUp, i as u64));
        let delivered = link.send_tick(0.0, &bytes, t, req);
        t.sample("link.datagrams_per_frame", link.datagrams_per_message());
        t.sample("link.delivered_share", delivered.len().min(1) as f64);
        // A frame the link lost is decoded from the sender's own bytes.
        let payload = delivered.first().map_or(&bytes, |m| &m.payload);
        t.span("wire.decode", req, || bb_align::decode_frame(payload))
            .expect("checksummed frames decode");
    }
    let mut log = PhaseLog::default();
    for seq in 0..3u64 {
        let now = seq as f64 * crate::inputs::TICK_S;
        let mut submitted = Vec::new();
        for (i, p) in pairs.iter().enumerate() {
            let req = Request { pair: i as u64, seq };
            let frame = FrameSubmission {
                seq,
                timestamp: now,
                ego: Arc::clone(&p.ego),
                other: Arc::clone(&p.other),
            };
            let pair = PairId::new(2 * i as u32, 2 * i as u32 + 1);
            t.span("serve.submit", req, || service.submit(pair, frame, now));
            submitted.push(Instant::now());
        }
        batch(&service, now, &submitted, 0, &mut log, t, |_, _| Iso2::IDENTITY);
    }
    log.close_service(t, &service);
    log.problems
}

/// Link pump sub-steps per 10 Hz tick.
const LINK_SUBSTEPS: usize = 5;

/// A two-car urban V2V link: data one way, acks the other.
struct Link {
    fwd: SimChannel,
    rev: SimChannel,
    tx: LinkEndpoint,
    rx: LinkEndpoint,
}

impl Link {
    fn new(seed: u64) -> Link {
        Link {
            fwd: SimChannel::new(ChannelConfig::urban(), seed),
            rev: SimChannel::new(ChannelConfig::urban(), !seed),
            tx: LinkEndpoint::new(Default::default()),
            rx: LinkEndpoint::new(Default::default()),
        }
    }

    /// Sends one frame at `now` and pumps both ends through the tick.
    fn send_tick(
        &mut self,
        now: f64,
        bytes: &[u8],
        t: &Tracer,
        req: Request,
    ) -> Vec<ReceivedMessage> {
        t.span("link.send", req, || self.tx.send_message(now, bytes, &mut self.fwd))
            .expect("a perception frame fits the wire");
        let mut delivered = Vec::new();
        for s in 1..=LINK_SUBSTEPS {
            let at = now + crate::inputs::TICK_S * s as f64 / (LINK_SUBSTEPS + 1) as f64;
            delivered.extend(
                t.span("link.pump", req, || self.rx.pump(at, &mut self.fwd, &mut self.rev)),
            );
            t.span("link.pump", req, || self.tx.pump(at, &mut self.rev, &mut self.fwd));
        }
        delivered
    }

    /// Datagrams the sender put on the channel per message sent.
    fn datagrams_per_message(&self) -> f64 {
        self.fwd.stats().sent as f64 / self.tx.stats().messages_sent.max(1) as f64
    }
}
