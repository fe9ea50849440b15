//! The workloads. A round starts fresh services and trackers; each of its
//! steps (a pair or a tick) is generated with the clock stopped and then
//! run with it running. A phase is a fixed number of rounds set by
//! `--seconds` alone (see [`rounds`]), so every run of a workload and
//! `--seconds` does the same work on the same inputs, however fast the host.
//!
//! - `cold_pairs`: first contact between two cars, no shared frame, warm
//!   start, link or service — all time goes to rasterisation, stage 1 and
//!   stage 2 at the paper's 256² configuration.
//! - `platoon_fanout`: six vehicles, each frame feeding several recoveries
//!   and one place descriptor, so per-frame work is repeated per pair.

use crate::host::process_cpu;
use crate::inputs::{self, Agent, PairInput, PlatoonTick, Stream};
use crate::replay::ReplayPair;
use crate::trace::{Request, Tracer};
use bb_align::{BbAlign, BbAlignConfig, PerceptionFrame, Recovery, RecoveryPath};
use bba_dataset::FleetDataset;
use bba_geometry::Iso2;
use bba_serve::{
    AdmitOutcome, FrameSubmission, GateConfig, PairId, PoseService, RecoveryOutcome, ServiceConfig,
    SessionConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Frame pairs kept from the first traced round for the layer replay.
pub const REPLAY_PAIRS: usize = 6;

/// The 128² serving engine `fleet_scale` and `steady_state` run.
pub fn serving_engine() -> BbAlignConfig {
    let mut cfg = BbAlignConfig::default();
    cfg.bev.range = 102.4;
    cfg.bev.resolution = 2.0 * cfg.bev.range / 128.0;
    cfg.min_inliers_bv = 10;
    cfg.descriptor.patch_size = 24;
    cfg.descriptor.grid_size = 4;
    cfg
}

/// Service settings shared by the batched workloads and the layer sweep.
pub fn serving_config(seed: u64) -> ServiceConfig {
    ServiceConfig {
        session: SessionConfig { queue_capacity: 2, staleness: 0.5 },
        shards: 16,
        max_batch_per_session: 1,
        seed,
        warm_start: false,
        gate: None,
        ..Default::default()
    }
}

fn rasterize(engine: &BbAlign, agent: &Agent, t: &Tracer, req: Request) -> Arc<PerceptionFrame> {
    t.span("bev.rasterize", req, || {
        Arc::new(engine.frame_from_parts(agent.points.iter().copied(), agent.boxes.iter().copied()))
    })
}

/// One returned (or failed) pose, in digest order.
#[derive(Debug, Clone)]
pub struct Pose {
    pub key: (u64, u64, u64),
    pub result: Result<(Iso2, usize, usize, bool), String>,
    pub error: Option<(f64, f64)>,
}

/// Everything one timed phase observed.
#[derive(Debug, Default)]
pub struct PhaseLog {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub rounds: usize,
    /// Per pair (`cold_pairs`) or per tick (batched workloads).
    pub latencies_ms: Vec<f64>,
    pub offered: u64,
    pub returned: u64,
    pub failed: u64,
    pub gated: u64,
    pub poses: Vec<Pose>,
    pub problems: Vec<String>,
    pub replay: Vec<ReplayPair>,
    /// Outcomes by recovery path: warm start, cold fallback, cold.
    pub paths: [u64; 3],
    /// The current round's share of `paths`, checked against its service.
    round_paths: [u64; 3],
}

impl PhaseLog {
    /// Records one frame offered to the program: a pose, or why none came.
    fn record(&mut self, key: (u64, u64, u64), result: Result<&Recovery, String>, truth: &Iso2) {
        self.offered += 1;
        match result {
            Ok(_) => self.returned += 1,
            Err(_) => self.failed += 1,
        }
        self.poses.push(Pose {
            key,
            error: result.as_ref().ok().map(|r| r.transform.error_to(truth)),
            result: result.map(|r| (r.transform, r.inliers_bv(), r.inliers_box(), r.is_success())),
        });
    }

    /// Folds a round's service accounting in and checks its ledgers.
    pub fn close_service(&mut self, t: &Tracer, service: &PoseService) {
        let outcomes_by_path = std::mem::take(&mut self.round_paths);
        let stats = service.stats();
        if !stats.is_conserved() {
            self.problems.push(format!("service ledger not conserved: {stats:?}"));
        }
        if outcomes_by_path.iter().sum::<u64>() != stats.processed {
            self.problems.push(format!(
                "warm {} + fallback {} + cold {} != processed {}",
                outcomes_by_path[0], outcomes_by_path[1], outcomes_by_path[2], stats.processed
            ));
        }
        let sheds = stats.shed_total() - stats.shed_gated;
        // Non-gate sheds are frames offered that got no pose.
        self.offered += sheds;
        self.failed += sheds;
        self.gated += stats.shed_gated;
        if stats.submitted > 0 {
            t.sample("serve.shed_share", sheds as f64 / stats.submitted as f64);
            t.sample("place.gated_share", stats.shed_gated as f64 / stats.submitted as f64);
        }
    }

    /// Records the outcomes of a batch of round `round`.
    fn batch(
        &mut self,
        t: &Tracer,
        round: usize,
        outcomes: &[RecoveryOutcome],
        truth: impl Fn(PairId, u64) -> Iso2,
    ) {
        for o in outcomes {
            let slot = match o.path {
                RecoveryPath::WarmStart => 0,
                RecoveryPath::ColdFallback => 1,
                RecoveryPath::Cold => 2,
            };
            self.paths[slot] += 1;
            self.round_paths[slot] += 1;
            t.sample("core.warm_hit", (slot == 0) as u8 as f64);
            let key = (round as u64, pair_key(o.pair), o.seq);
            self.record(
                key,
                o.result.as_ref().map_err(|e| format!("{e:?}")),
                &truth(o.pair, o.seq),
            );
        }
    }
}

fn pair_key(pair: PairId) -> u64 {
    (pair.receiver as u64) << 32 | pair.sender as u64
}

/// Per-batch serve samples: size, worker busy share, item latency by path.
fn record_batch(t: &Tracer, outcomes: &[RecoveryOutcome], batch_ms: f64, threads: usize) {
    t.sample("serve.batch_size", outcomes.len() as f64);
    let busy: f64 = outcomes.iter().map(|o| o.latency_ms).sum();
    if batch_ms > 0.0 && !outcomes.is_empty() {
        t.sample("serve.worker_busy_share", busy / (batch_ms * threads as f64));
    }
    for o in outcomes {
        let name = if o.path == RecoveryPath::WarmStart {
            "serve.warm_item_ms"
        } else {
            "serve.cold_item_ms"
        };
        t.sample(name, o.latency_ms);
    }
}

/// One `process_batch` on the frames submitted at `submitted`: queue-wait,
/// batch and outcome samples, every outcome recorded. A panic counts every
/// queued frame as failed.
pub fn batch(
    service: &PoseService,
    now: f64,
    submitted: &[Instant],
    round: usize,
    log: &mut PhaseLog,
    t: &Tracer,
    truth: impl Fn(PairId, u64) -> Iso2,
) {
    let queued = service.stats().queued;
    let start = Instant::now();
    for s in submitted {
        t.sample("serve.queue_wait_ms", (start - *s).as_secs_f64() * 1e3);
    }
    let req = Request { pair: u64::MAX, seq: 0 };
    match t
        .span("serve.batch", req, || catch_unwind(AssertUnwindSafe(|| service.process_batch(now))))
    {
        Ok(outcomes) => {
            record_batch(
                t,
                &outcomes,
                start.elapsed().as_secs_f64() * 1e3,
                bba_par::current_threads(),
            );
            log.batch(t, round, &outcomes, truth);
        }
        Err(_) => {
            log.offered += queued;
            log.failed += queued;
        }
    }
}

/// A workload: seed-determined rounds of steps driven through the program's
/// public APIs.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// Thread budget (capped by the host's core count).
    const THREADS: usize;
    /// Nominal wall seconds of one round on the development host (2-vCPU
    /// AVX2 Xeon VM); [`rounds`] turns `--seconds` into a round count.
    const ROUND_S: f64;
    /// Steps (pairs or ticks) per round.
    const STEPS: usize;
    /// Output floors: the least share of returned poses that pass the paper
    /// criterion, and the largest median translation error (m) of those
    /// poses. Past either, the outputs are wrong rather than slow.
    const MIN_SUCCESS_RATE: f64;
    const MAX_ERR_T_M: f64 = 1.0;
    /// Per-round state: input generators and services.
    type Round;
    /// One step's generated inputs.
    type Step;
    /// Construction: with [`warm_up`], what `setup_s` times.
    fn new(seed: u64) -> Self;
    fn engine(&self) -> &Arc<BbAlign>;
    fn begin_round(&self, stream: Stream, round: usize) -> Self::Round;
    fn generate(&self, state: &mut Self::Round, round: usize, step: usize) -> Self::Step;
    fn run_step(
        &self,
        state: &mut Self::Round,
        round: usize,
        step: usize,
        input: &Self::Step,
        log: &mut PhaseLog,
        t: &Tracer,
    );
    fn end_round(&self, _state: Self::Round, _log: &mut PhaseLog, _t: &Tracer) {}
}

/// Rounds a phase of `seconds` runs: a count that depends on nothing but
/// `seconds`, so the sample count, the tail percentile and the input mix
/// are the same on every host and commit.
pub fn rounds<W: Workload>(seconds: f64) -> usize {
    ((seconds / W::ROUND_S).ceil() as usize).max(1)
}

/// One round of held-out warm-up inputs.
pub fn warm_inputs<W: Workload>(w: &W) -> (W::Round, Vec<W::Step>) {
    let mut state = w.begin_round(Stream::WarmUp, 0);
    let steps = (0..W::STEPS).map(|step| w.generate(&mut state, 0, step)).collect();
    (state, steps)
}

/// Runs the warm-up round, finishing lazy set-up (filter bank, rotation
/// sweep, FFT plans, scratch pools). Its outcomes are discarded.
pub fn warm_up<W: Workload>(w: &W, (mut state, steps): (W::Round, Vec<W::Step>)) {
    let (mut log, off) = (PhaseLog::default(), Tracer::new(false));
    for (step, input) in steps.iter().enumerate() {
        w.run_step(&mut state, 0, step, input, &mut log, &off);
    }
    w.end_round(state, &mut log, &off);
}

/// Runs `rounds` rounds. Generation and teardown stay off the clock.
pub fn timed_phase<W: Workload>(w: &W, rounds: usize, t: &Tracer) -> PhaseLog {
    let mut log = PhaseLog::default();
    for round in 0..rounds {
        let mut state = w.begin_round(Stream::Timed, round);
        for step in 0..W::STEPS {
            let input = w.generate(&mut state, round, step);
            let (cpu0, wall0) = (process_cpu(), Instant::now());
            w.run_step(&mut state, round, step, &input, &mut log, t);
            log.wall_s += wall0.elapsed().as_secs_f64();
            log.cpu_s += (process_cpu() - cpu0).as_secs_f64();
        }
        w.end_round(state, &mut log, t);
    }
    log.rounds = rounds;
    log
}

pub struct ColdPairs {
    engine: Arc<BbAlign>,
    seed: u64,
}

impl ColdPairs {
    fn index(round: usize, step: usize) -> u64 {
        (round * Self::STEPS + step) as u64
    }

    fn rng_seed(&self, stream: Stream, index: u64) -> u64 {
        !inputs::mix(self.seed, stream, index)
    }
}

impl Workload for ColdPairs {
    const NAME: &'static str = "cold_pairs";
    const THREADS: usize = 1;
    const ROUND_S: f64 = 0.85;
    const STEPS: usize = 4;
    const MIN_SUCCESS_RATE: f64 = 0.4;
    type Round = Stream;
    type Step = PairInput;

    fn new(seed: u64) -> ColdPairs {
        ColdPairs { engine: Arc::new(BbAlign::new(BbAlignConfig::default())), seed }
    }

    fn engine(&self) -> &Arc<BbAlign> {
        &self.engine
    }

    fn begin_round(&self, stream: Stream, _round: usize) -> Stream {
        stream
    }

    fn generate(&self, stream: &mut Stream, round: usize, step: usize) -> PairInput {
        inputs::cold_pair(self.seed, *stream, Self::index(round, step))
    }

    fn run_step(
        &self,
        stream: &mut Stream,
        round: usize,
        step: usize,
        p: &PairInput,
        log: &mut PhaseLog,
        t: &Tracer,
    ) {
        let index = Self::index(round, step);
        let req = Request { pair: index, seq: 0 };
        let start = Instant::now();
        let (ego, other, result) = t.span("pair", req, || {
            let ego = rasterize(&self.engine, &p.ego, t, req);
            let other = rasterize(&self.engine, &p.other, t, req);
            let mut rng = StdRng::seed_from_u64(self.rng_seed(*stream, index));
            let result = t.span("core.recover", req, || {
                catch_unwind(AssertUnwindSafe(|| self.engine.recover(&ego, &other, &mut rng)))
            });
            (ego, other, result)
        });
        log.latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let result = match &result {
            Ok(Ok(r)) => Ok(r),
            Ok(Err(e)) => Err(format!("{e:?}")),
            Err(_) => Err("panic".to_string()),
        };
        t.sample("core.warm_hit", 0.0);
        log.paths[2] += 1;
        log.record((round as u64, index, 0), result, &p.truth);
        if t.is_on() && log.replay.len() < REPLAY_PAIRS {
            log.replay.push(ReplayPair { ego, other, rng_seed: self.rng_seed(*stream, index) });
        }
    }
}

pub struct PlatoonFanout {
    engine: Arc<BbAlign>,
    seed: u64,
    place: bba_place::PlaceConfig,
}

/// Candidate partners each vehicle takes per tick.
const PLATOON_FANOUT: usize = 3;
/// The Youden-J similarity gate `place_recognition` picked.
const PLATOON_GATE: f64 = 0.35;

impl Workload for PlatoonFanout {
    const NAME: &'static str = "platoon_fanout";
    const THREADS: usize = 2;
    const ROUND_S: f64 = 1.25;
    const STEPS: usize = 2;
    const MIN_SUCCESS_RATE: f64 = 0.35;
    type Round = (FleetDataset, PoseService);
    type Step = PlatoonTick;

    fn new(seed: u64) -> PlatoonFanout {
        PlatoonFanout {
            engine: Arc::new(BbAlign::new(serving_engine())),
            seed,
            place: bba_place::PlaceConfig::default(),
        }
    }

    fn engine(&self) -> &Arc<BbAlign> {
        &self.engine
    }

    fn begin_round(&self, stream: Stream, round: usize) -> Self::Round {
        let service = PoseService::new(
            Arc::clone(&self.engine),
            ServiceConfig {
                gate: Some(GateConfig { min_similarity: PLATOON_GATE }),
                ..serving_config(inputs::stream_seed(self.seed, stream))
            },
        );
        (inputs::platoon(self.seed, stream, round as u64), service)
    }

    fn generate(&self, (ds, _): &mut Self::Round, _round: usize, _step: usize) -> PlatoonTick {
        inputs::platoon_tick(ds)
    }

    fn run_step(
        &self,
        (_, service): &mut Self::Round,
        round: usize,
        k: usize,
        tick: &PlatoonTick,
        log: &mut PhaseLog,
        t: &Tracer,
    ) {
        let now = tick.time;
        let seq = k as u64;
        let start = Instant::now();
        t.span("tick", Request { pair: u64::MAX, seq }, || {
            let frames: Vec<Arc<PerceptionFrame>> = tick
                .agents
                .iter()
                .enumerate()
                .map(|(i, a)| rasterize(&self.engine, a, t, Request { pair: i as u64, seq }))
                .collect();
            for (i, f) in frames.iter().enumerate() {
                let req = Request { pair: i as u64, seq };
                let d =
                    t.span("place.extract", req, || self.engine.place_descriptor(f, &self.place));
                t.span("place.update", req, || service.update_descriptor(i as u32, d));
            }
            let mut submitted = Vec::new();
            for (i, ego) in frames.iter().enumerate() {
                let req = Request { pair: i as u64, seq };
                let partners = t
                    .span("place.query", req, || service.candidate_pairs(i as u32, PLATOON_FANOUT));
                for m in partners {
                    let pair = PairId::new(i as u32, m.vehicle);
                    let other = &frames[m.vehicle as usize];
                    let frame = FrameSubmission {
                        seq,
                        timestamp: now,
                        ego: Arc::clone(ego),
                        other: Arc::clone(other),
                    };
                    let req = Request { pair: pair_key(pair), seq };
                    if t.span("serve.submit", req, || service.submit(pair, frame, now))
                        != AdmitOutcome::Admitted
                    {
                        continue;
                    }
                    submitted.push(Instant::now());
                    if t.is_on() && log.replay.len() < REPLAY_PAIRS {
                        log.replay.push(ReplayPair {
                            ego: Arc::clone(ego),
                            other: Arc::clone(other),
                            rng_seed: !inputs::mix(self.seed, Stream::Timed, pair_key(pair)),
                        });
                    }
                }
            }
            batch(service, now, &submitted, round, log, t, |p, _| {
                tick.truth[p.receiver as usize][p.sender as usize]
            });
        });
        log.latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }

    fn end_round(&self, (_, service): Self::Round, log: &mut PhaseLog, t: &Tracer) {
        log.close_service(t, &service);
    }
}
