//! RANSAC estimation of a rigid 2-D transform from point correspondences.
//!
//! Both stages of BB-Align end in this primitive (Algorithm 1, lines 11 and
//! 14). The returned inlier count is the paper's confidence signal: §V-A
//! declares a recovery successful when `Inliers_bv > 25` and
//! `Inliers_box > 6`.
//!
//! Two implementations share one contract:
//!
//! * [`ransac_rigid_naive`] — the reference scan: fit every pre-drawn
//!   minimal sample, score it against all `n` correspondences, keep the
//!   strict running best, stop at the adaptive early-exit fraction.
//! * [`ransac_rigid`] / [`ransac_rigid_guided`] — the layered fast path:
//!   SoA transform-and-count kernel with a hoisted `sin_cos`, max-consensus
//!   bail (a hypothesis is abandoned the moment the unscored remainder
//!   cannot lift it above a provably safe bound — the SPRT-flavoured
//!   sequential test), a trig-free screen that bails most hypotheses
//!   before their exact `atan2`/`sin_cos` fit, PROSAC-style
//!   quality-ordered preview scores that raise that bound before the scan
//!   starts, and duplicate-sample memoisation. The fast path returns the
//!   **bit-identical** `RansacResult` (same inlier set, same pose bits,
//!   same iteration count) and the same errors as the naive scan for every
//!   input, seed and `bba-par` thread width; `DESIGN.md` → *RANSAC fast
//!   path* carries the determinism argument and the tests in this crate
//!   pin it.

use bba_geometry::{fit_rigid_2d, Iso2, TwoPointMoments, Vec2};
use rand::Rng;
use std::error::Error;
use std::fmt;

/// RANSAC parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct RansacConfig {
    /// Maximum sampling iterations.
    pub max_iterations: usize,
    /// A correspondence is an inlier when the transformed source point lies
    /// within this distance of its destination (same unit as the points —
    /// pixels for stage 1, metres for stage 2).
    pub inlier_threshold: f64,
    /// Reject results with fewer inliers than this.
    pub min_inliers: usize,
    /// Stop early once this inlier *fraction* is reached (adaptive exit).
    pub early_exit_fraction: f64,
}

impl Default for RansacConfig {
    fn default() -> Self {
        RansacConfig {
            max_iterations: 400,
            inlier_threshold: 2.0,
            min_inliers: 4,
            early_exit_fraction: 0.8,
        }
    }
}

/// RANSAC output: the refit transform plus its consensus set.
#[derive(Debug, Clone, PartialEq)]
pub struct RansacResult {
    /// The rigid transform refit on all inliers.
    pub transform: Iso2,
    /// Indices of the inlier correspondences.
    pub inliers: Vec<usize>,
    /// `inliers.len()` — the paper's `Inliers_bv` / `Inliers_box`.
    pub num_inliers: usize,
    /// Number of iterations actually executed.
    pub iterations: usize,
}

/// Failure modes of RANSAC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RansacError {
    /// Fewer than two correspondences supplied.
    TooFewCorrespondences {
        /// How many were supplied.
        got: usize,
    },
    /// Source/destination lengths differ.
    LengthMismatch {
        /// Source length.
        src: usize,
        /// Destination length.
        dst: usize,
    },
    /// No model reached [`RansacConfig::min_inliers`].
    NoConsensus {
        /// Best inlier count observed.
        best: usize,
        /// The configured minimum.
        required: usize,
    },
}

impl fmt::Display for RansacError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RansacError::TooFewCorrespondences { got } => {
                write!(f, "RANSAC needs at least 2 correspondences, got {got}")
            }
            RansacError::LengthMismatch { src, dst } => {
                write!(f, "source has {src} points, destination {dst}")
            }
            RansacError::NoConsensus { best, required } => {
                write!(f, "no consensus: best model had {best} inliers, {required} required")
            }
        }
    }
}

impl Error for RansacError {}

/// Draws the minimal samples (two distinct correspondences each) up front
/// on the calling thread, so the rng stream is consumed identically at
/// every thread count; fitting and scoring each hypothesis is then a pure
/// function of its sample and parallelises freely. Both the naive and the
/// fast scan consume exactly this sequence.
fn draw_samples<R: Rng + ?Sized>(n: usize, iterations: usize, rng: &mut R) -> Vec<(usize, usize)> {
    (0..iterations)
        .map(|_| {
            let i = rng.random_range(0..n);
            let mut j = rng.random_range(0..n);
            while j == i {
                j = rng.random_range(0..n);
            }
            (i, j)
        })
        .collect()
}

/// Shared tail of both scans: consensus check, refit on the winning set,
/// then one expand/re-fit pass (a single guided re-estimation markedly
/// stabilises the estimate).
fn refit_and_expand(
    src: &[Vec2],
    dst: &[Vec2],
    mut best_inliers: Vec<usize>,
    iterations: usize,
    config: &RansacConfig,
    thresh_sq: f64,
) -> Result<RansacResult, RansacError> {
    let n = src.len();
    if best_inliers.len() < config.min_inliers.max(2) {
        return Err(RansacError::NoConsensus {
            best: best_inliers.len(),
            required: config.min_inliers.max(2),
        });
    }
    let refit = |idx: &[usize]| {
        let s: Vec<Vec2> = idx.iter().map(|&k| src[k]).collect();
        let d: Vec<Vec2> = idx.iter().map(|&k| dst[k]).collect();
        fit_rigid_2d(&s, &d)
    };
    let mut transform = refit(&best_inliers).map_err(|_| RansacError::NoConsensus {
        best: best_inliers.len(),
        required: config.min_inliers.max(2),
    })?;
    let expanded: Vec<usize> =
        (0..n).filter(|&k| (transform.apply(src[k]) - dst[k]).norm_sq() <= thresh_sq).collect();
    if expanded.len() >= best_inliers.len() {
        if let Ok(t2) = refit(&expanded) {
            transform = t2;
            best_inliers = expanded;
        }
    }

    Ok(RansacResult {
        transform,
        num_inliers: best_inliers.len(),
        inliers: best_inliers,
        iterations,
    })
}

/// The reference scorer: fits and fully scores every drawn sample in order.
///
/// This is the bit-exactness oracle for [`ransac_rigid`]; it stays in-tree
/// so the equivalence proptests (and the `ransac` Criterion bench) always
/// have the naive semantics to compare against.
///
/// # Errors
///
/// Returns [`RansacError`] on malformed input or when no model reaches
/// `min_inliers`.
pub fn ransac_rigid_naive<R: Rng + ?Sized>(
    src: &[Vec2],
    dst: &[Vec2],
    config: &RansacConfig,
    rng: &mut R,
) -> Result<RansacResult, RansacError> {
    if src.len() != dst.len() {
        return Err(RansacError::LengthMismatch { src: src.len(), dst: dst.len() });
    }
    let n = src.len();
    if n < 2 {
        return Err(RansacError::TooFewCorrespondences { got: n });
    }

    let thresh_sq = config.inlier_threshold * config.inlier_threshold;
    let samples = draw_samples(n, config.max_iterations, rng);
    let score = |&(i, j): &(usize, usize)| -> Option<Vec<usize>> {
        // Degenerate (coincident) samples cannot define a rotation.
        if (src[i] - src[j]).norm_sq() < 1e-12 {
            return None;
        }
        let model = fit_rigid_2d(&[src[i], src[j]], &[dst[i], dst[j]]).ok()?;
        Some((0..n).filter(|&k| (model.apply(src[k]) - dst[k]).norm_sq() <= thresh_sq).collect())
    };

    // Hypotheses are scored in parallel a chunk at a time, but the
    // best-so-far scan walks them strictly in draw order with the serial
    // loop's early-exit rule, so the winning consensus set — and the
    // reported iteration count — are independent of the thread count.
    // Under a budget of 1 the chunk size is 1: evaluation stays as lazy as
    // the classic loop and stops at the same iteration.
    let threads = bba_par::current_threads();
    let chunk = if threads <= 1 { 1 } else { threads * 8 };
    let mut best_inliers: Vec<usize> = Vec::new();
    let mut iterations = 0usize;
    'eval: for start in (0..samples.len()).step_by(chunk) {
        let end = (start + chunk).min(samples.len());
        let scored = bba_par::par_map(&samples[start..end], |s| score(s));
        for (offset, inliers) in scored.into_iter().enumerate() {
            iterations = start + offset + 1;
            let Some(inliers) = inliers else { continue };
            if inliers.len() > best_inliers.len() {
                best_inliers = inliers;
                if best_inliers.len() as f64 >= config.early_exit_fraction * n as f64 {
                    break 'eval;
                }
            }
        }
    }

    refit_and_expand(src, dst, best_inliers, iterations, config, thresh_sq)
}

/// Estimates the rigid transform mapping `src[i]` near `dst[i]` in the
/// presence of outliers.
///
/// Runs the layered fast path (see the module docs); the result is
/// bit-identical to [`ransac_rigid_naive`] on the same inputs and seed.
///
/// # Errors
///
/// Returns [`RansacError`] on malformed input or when no model reaches
/// `min_inliers`.
pub fn ransac_rigid<R: Rng + ?Sized>(
    src: &[Vec2],
    dst: &[Vec2],
    config: &RansacConfig,
    rng: &mut R,
) -> Result<RansacResult, RansacError> {
    ransac_rigid_guided(src, dst, None, config, rng)
}

/// [`ransac_rigid_guided`] with an optional externally-predicted transform
/// evaluated as *hypothesis zero* before any sampling — the entry point of
/// the temporal warm start's guided fallback.
///
/// The hint is scored with the exact consensus predicate **without
/// consuming the RNG**. When its inlier count clears both `min_inliers`
/// and the `early_exit_fraction` bar — i.e. when the reference serial scan
/// would have stopped on it immediately had it been drawn first — the
/// hint's consensus set is refit and returned with `iterations == 0`,
/// skipping sampling entirely. Otherwise the hint is discarded and the
/// call behaves **bit for bit** like [`ransac_rigid_guided`]: same RNG
/// consumption, same result, same errors. Passing `hint: None` is exactly
/// [`ransac_rigid_guided`].
///
/// # Errors
///
/// Returns [`RansacError`] on malformed input or when no model reaches
/// `min_inliers`.
pub fn ransac_rigid_hinted<R: Rng + ?Sized>(
    src: &[Vec2],
    dst: &[Vec2],
    quality: Option<&[f64]>,
    hint: Option<&Iso2>,
    config: &RansacConfig,
    rng: &mut R,
) -> Result<RansacResult, RansacError> {
    if src.len() != dst.len() {
        return Err(RansacError::LengthMismatch { src: src.len(), dst: dst.len() });
    }
    let n = src.len();
    if n < 2 {
        return Err(RansacError::TooFewCorrespondences { got: n });
    }
    if let Some(h) = hint {
        let thresh_sq = config.inlier_threshold * config.inlier_threshold;
        let inliers: Vec<usize> =
            (0..n).filter(|&k| (h.apply(src[k]) - dst[k]).norm_sq() <= thresh_sq).collect();
        let exits = inliers.len() as f64 >= config.early_exit_fraction * n as f64;
        if exits && inliers.len() >= config.min_inliers.max(2) {
            return refit_and_expand(src, dst, inliers, 0, config, thresh_sq);
        }
    }
    ransac_rigid_guided(src, dst, quality, config, rng)
}

/// How many of the best-quality distinct samples are fully pre-scored to
/// seed the bail bound before the scan starts (the PROSAC-style layer).
const PREVIEW_SAMPLES: usize = 16;

/// Outcome of evaluating one hypothesis. `Scored` carries the exact inlier
/// count; `Bailed` certifies only that the count cannot affect the scan
/// (it is at or below the bail bound the evaluation ran under).
enum HypothesisOutcome {
    /// Coincident sample points or a failed fit — no model.
    Degenerate,
    /// Abandoned early; provably irrelevant to best/exit/winner.
    Bailed,
    /// Fully counted.
    Scored(u32),
    /// Same unordered pair as the earlier sample at this index; the twin's
    /// resolution transfers because the two-point fit is bit-commutative
    /// in its pair order.
    Duplicate(u32),
}

/// [`ransac_rigid`] with optional per-correspondence quality weights
/// (lower is better — matcher descriptor distances plug in directly).
///
/// Quality only *schedules* work: the `PREVIEW_SAMPLES` distinct samples
/// with the smallest summed quality are scored first so the bail bound
/// starts high. The returned result is bit-identical to
/// [`ransac_rigid_naive`] with or without `quality`, at every `bba-par`
/// thread width. A `quality` slice whose length differs from the
/// correspondence count is ignored.
///
/// # Errors
///
/// Returns [`RansacError`] on malformed input or when no model reaches
/// `min_inliers`.
pub fn ransac_rigid_guided<R: Rng + ?Sized>(
    src: &[Vec2],
    dst: &[Vec2],
    quality: Option<&[f64]>,
    config: &RansacConfig,
    rng: &mut R,
) -> Result<RansacResult, RansacError> {
    if src.len() != dst.len() {
        return Err(RansacError::LengthMismatch { src: src.len(), dst: dst.len() });
    }
    let n = src.len();
    if n < 2 {
        return Err(RansacError::TooFewCorrespondences { got: n });
    }

    let thresh_sq = config.inlier_threshold * config.inlier_threshold;
    let samples = draw_samples(n, config.max_iterations, rng);
    let n_samples = samples.len();

    // SoA lanes of the correspondences keep the counting kernel's loads
    // unit-stride.
    let sx: Vec<f64> = src.iter().map(|p| p.x).collect();
    let sy: Vec<f64> = src.iter().map(|p| p.y).collect();
    let dx: Vec<f64> = dst.iter().map(|p| p.x).collect();
    let dy: Vec<f64> = dst.iter().map(|p| p.y).collect();
    // Counts under a model given as `(cos, sin, tx, ty)`.
    let count_under = |(cos, sin, tx, ty): (f64, f64, f64, f64), thresh: f64, bound: usize| {
        count_inliers_bailing(&sx, &sy, &dx, &dy, cos, sin, tx, ty, thresh, bound)
    };
    // An exact model's lanes, its `sin_cos` hoisted out of the count.
    let lanes_of = |model: &Iso2| {
        let (sin, cos) = model.yaw().sin_cos();
        let t = model.translation();
        (cos, sin, t.x, t.y)
    };
    let screen_sq = screen_threshold_sq(src, dst, thresh_sq);

    // Degenerate (coincident) samples cannot define a rotation.
    let moments = |(i, j): (usize, usize)| -> Option<TwoPointMoments> {
        if (src[i] - src[j]).norm_sq() < 1e-12 {
            return None;
        }
        Some(TwoPointMoments::new(src[i], src[j], dst[i], dst[j])).filter(|m| !m.is_degenerate())
    };
    let sample_model = |sample| moments(sample)?.fit().ok();

    // The naive scan exits once `count as f64 >= early_exit_fraction * n`.
    // `exit_cap` is the largest count that can NOT trigger that exit: every
    // bail bound is clamped to it, otherwise a bailed hypothesis could have
    // been the naive loop's exit trigger and the iteration count (and
    // winner) would diverge.
    let exit_f = config.early_exit_fraction * n as f64;
    let exits = |count: usize| count as f64 >= exit_f;
    let exit_cap: usize = if !exit_f.is_finite() || exit_f > n as f64 {
        usize::MAX
    } else {
        let mut t = if exit_f <= 0.0 { 0 } else { exit_f.ceil() as usize };
        if (t as f64) < exit_f {
            t += 1;
        }
        t.saturating_sub(1)
    };

    // Duplicate samples: (i, j) and (j, i) produce bit-identical models
    // (two-term IEEE sums commute), so a repeated unordered pair reuses its
    // first occurrence's resolution instead of rescoring. With
    // `max_iterations` far above the number of distinct pairs — stage 1
    // draws 3000 samples from often < 1000 pairs — this alone removes most
    // of the work.
    let dup_of = first_occurrences(&samples);

    // PROSAC-style preview: fully score the distinct samples whose two
    // correspondences have the smallest summed quality (matcher distance).
    // Their exact counts are cached for the scan AND feed a suffix-max
    // table: while a previewed count `G` still lies ahead of the scan
    // cursor, any hypothesis that cannot reach `G` can be bailed (clamped
    // to `exit_cap`), because the eventual winner is guaranteed to reach at
    // least `G` — the strict `- 1` keeps first-achiever tie-breaking
    // intact.
    let mut pre: Vec<Option<u32>> = vec![None; n_samples];
    let mut preview_idx: Vec<u32> = Vec::new();
    let mut preview_suffix: Vec<u32> = Vec::new();
    if let Some(q) = quality.filter(|q| q.len() == n) {
        let mut keyed: Vec<(f64, u32)> = Vec::with_capacity(n_samples);
        keyed.extend(
            samples
                .iter()
                .zip(&dup_of)
                .enumerate()
                .filter(|&(_, (_, &twin))| twin == u32::MAX)
                .map(|(k, (&(i, j), _))| (q[i] + q[j], k as u32)),
        );
        let take = PREVIEW_SAMPLES.min(keyed.len());
        if take > 0 {
            keyed.select_nth_unstable_by(take - 1, |a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let mut chosen: Vec<u32> = keyed[..take].iter().map(|&(_, k)| k).collect();
            chosen.sort_unstable();
            for &k in &chosen {
                if let Some(model) = sample_model(samples[k as usize]) {
                    // Bound 0 cannot bail mid-scan; a `None` here means the
                    // full count was exactly zero.
                    let full = count_under(lanes_of(&model), thresh_sq, 0).unwrap_or(0);
                    pre[k as usize] = Some(full as u32);
                }
            }
            let entries: Vec<(u32, u32)> =
                chosen.iter().filter_map(|&k| pre[k as usize].map(|c| (k, c))).collect();
            preview_idx = entries.iter().map(|&(k, _)| k).collect();
            preview_suffix = vec![0; entries.len()];
            let mut run = 0u32;
            for (slot, &(_, c)) in entries.iter().enumerate().rev() {
                run = run.max(c);
                preview_suffix[slot] = run;
            }
        }
    }
    // Largest safe bail contribution from preview counts strictly ahead of
    // index `k`.
    let suffix_bound = |k: usize| -> usize {
        let pos = preview_idx.partition_point(|&p| (p as usize) <= k);
        if pos >= preview_idx.len() {
            return 0;
        }
        (preview_suffix[pos] as usize).saturating_sub(1).min(exit_cap)
    };

    // Hypothesis `k` under bail bound `bound`. The trig-free screen runs
    // before the exact fit: its count is an upper bound on the exact one
    // (see `screen_threshold_sq`), so when even it cannot beat `bound`,
    // the exact count could not either and the hypothesis bails without an
    // `atan2` or `sin_cos`.
    let eval = |k: usize, bound: usize| -> HypothesisOutcome {
        let twin = dup_of[k];
        if twin != u32::MAX {
            return HypothesisOutcome::Duplicate(twin);
        }
        if let Some(count) = pre[k] {
            return HypothesisOutcome::Scored(count);
        }
        let Some(m) = moments(samples[k]) else {
            return HypothesisOutcome::Degenerate;
        };
        if let Some(wide_sq) = screen_sq {
            let r_sq = m.dot * m.dot + m.cross * m.cross;
            if r_sq.is_finite() && r_sq >= f64::MIN_POSITIVE {
                let r = r_sq.sqrt();
                let (c, s) = (m.dot / r, m.cross / r);
                let tx = m.d_mean.x - (c * m.s_mean.x - s * m.s_mean.y);
                let ty = m.d_mean.y - (s * m.s_mean.x + c * m.s_mean.y);
                if count_under((c, s, tx, ty), wide_sq, bound).is_none() {
                    return HypothesisOutcome::Bailed;
                }
            }
        }
        let Ok(model) = m.fit() else {
            return HypothesisOutcome::Degenerate;
        };
        match count_under(lanes_of(&model), thresh_sq, bound) {
            Some(count) => HypothesisOutcome::Scored(count as u32),
            None => HypothesisOutcome::Bailed,
        }
    };

    // The scan, strictly in draw order with the naive loop's best/exit
    // rule. Each hypothesis costs ~100 ns once screened, far too little to
    // hand to worker threads.
    // resolved[k]: -2 unvisited, -1 bailed/degenerate (irrelevant), else
    // the exact count — what a later duplicate of sample `k` inherits.
    let mut resolved: Vec<i64> = vec![-2; n_samples];
    let mut best_count = 0usize;
    let mut best_idx: Option<usize> = None;
    let mut iterations = 0usize;
    for k in 0..n_samples {
        iterations = k + 1;
        let count = match eval(k, best_count.max(suffix_bound(k))) {
            HypothesisOutcome::Degenerate | HypothesisOutcome::Bailed => {
                resolved[k] = -1;
                continue;
            }
            HypothesisOutcome::Duplicate(twin) => {
                let r = resolved[twin as usize];
                resolved[k] = r;
                if r < 0 {
                    continue;
                }
                r as usize
            }
            HypothesisOutcome::Scored(count) => {
                resolved[k] = i64::from(count);
                count as usize
            }
        };
        if count > best_count {
            best_count = count;
            best_idx = Some(k);
            if exits(count) {
                break;
            }
        }
    }

    let required = config.min_inliers.max(2);
    let Some(winner) = best_idx.filter(|_| best_count >= required) else {
        return Err(RansacError::NoConsensus { best: best_count, required });
    };
    // Materialise the winning consensus set once, with the exact predicate
    // the naive scorer uses.
    let model = sample_model(samples[winner])
        .expect("the winning sample was scored, so its model fit succeeded");
    let best_inliers: Vec<usize> =
        (0..n).filter(|&k| (model.apply(src[k]) - dst[k]).norm_sq() <= thresh_sq).collect();
    debug_assert_eq!(best_inliers.len(), best_count);
    refit_and_expand(src, dst, best_inliers, iterations, config, thresh_sq)
}

/// For each sample, the index of the first earlier sample drawing the same
/// unordered pair, or `u32::MAX` for a first occurrence. One flat
/// open-addressed table of first-occurrence indices (linear probing,
/// multiplicative hash, load factor ≤ ½); a probe compares the pairs
/// themselves.
fn first_occurrences(samples: &[(usize, usize)]) -> Vec<u32> {
    const EMPTY: u32 = u32::MAX;
    let unordered = |(i, j): (usize, usize)| (i.min(j), i.max(j));
    let slots_len = (2 * samples.len()).next_power_of_two().max(2);
    let shift = 64 - slots_len.trailing_zeros();
    let mut slots = vec![EMPTY; slots_len];
    let mut dup_of = vec![u32::MAX; samples.len()];
    for (k, &sample) in samples.iter().enumerate() {
        let pair = unordered(sample);
        let key = ((pair.0 as u64) << 32) ^ (pair.1 as u64);
        let mut slot = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize;
        loop {
            let first = slots[slot];
            if first == EMPTY {
                slots[slot] = k as u32;
                break;
            }
            if unordered(samples[first as usize]) == pair {
                dup_of[k] = first;
                break;
            }
            slot = (slot + 1) & (slots_len - 1);
        }
    }
    dup_of
}

/// Relative margin of the trig-free screen: the screen widens the inlier
/// radius by `SCREEN_MARGIN · M`, `M` the call's largest |coordinate|.
/// DESIGN.md ("RANSAC fast path", layer 6) bounds the true discrepancy
/// between the screen's residual and the exact one by `M · 2⁻³⁶`; this
/// margin is 16× that.
const SCREEN_MARGIN: f64 = 1.0 / (1u64 << 32) as f64;

/// Largest |coordinate| the screen accepts: residual components stay below
/// `6·M`, so their squares cannot overflow.
const SCREEN_MAX_COORD: f64 = 1e150;

/// The squared radius the trig-free screen counts against, or `None` when
/// the screen must be skipped (a non-finite coordinate, or one beyond
/// [`SCREEN_MAX_COORD`]).
///
/// The exact hypothesis rotates by `sin_cos(atan2(cross, dot))` (after
/// `Iso2::new` wraps the angle); the screen uses `(dot, cross) / r` with
/// `r = √(dot² + cross²)` instead. Both approximate the same unit vector
/// to within libm and rounding error, so a correspondence's two residuals
/// differ by less than `M · 2⁻³⁶` (DESIGN.md). Every correspondence the
/// exact predicate `residual² ≤ thresh_sq` accepts therefore lies within
/// `√thresh_sq + SCREEN_MARGIN · M` of its destination under the screen's
/// model; the final `(1 + SCREEN_MARGIN)` factor absorbs the rounding of
/// both squared residuals and of this computation. NaN `thresh_sq` stays
/// NaN — neither predicate then accepts anything.
fn screen_threshold_sq(src: &[Vec2], dst: &[Vec2], thresh_sq: f64) -> Option<f64> {
    let mut m = 0.0f64;
    for a in src.iter().chain(dst).flat_map(|p| [p.x.abs(), p.y.abs()]) {
        if a.is_nan() || a > SCREEN_MAX_COORD {
            return None;
        }
        m = m.max(a);
    }
    let widened = thresh_sq.sqrt() + SCREEN_MARGIN * m;
    Some(widened * widened * (1.0 + SCREEN_MARGIN))
}

/// Counts correspondences the model maps within `sqrt(thresh_sq)` of their
/// destination, abandoning the hypothesis as soon as the unscored remainder
/// cannot lift the count strictly above `bound` (returns `None`; the exact
/// count is then provably `<= bound`).
///
/// The per-point arithmetic ([`bba_simd::rigid_inlier_count`]) reproduces
/// `(model.apply(src[k]) - dst[k]).norm_sq() <= thresh_sq` operation for
/// operation, with the model's `sin_cos` hoisted out of the loop — the
/// hoist is bit-safe because `Vec2::rotated` computes the same `sin_cos`
/// of the same yaw on every call.
#[inline]
#[allow(clippy::too_many_arguments)] // flat scalar lanes keep the kernel SIMD-friendly
fn count_inliers_bailing(
    sx: &[f64],
    sy: &[f64],
    dx: &[f64],
    dy: &[f64],
    cos: f64,
    sin: f64,
    tx: f64,
    ty: f64,
    thresh_sq: f64,
    bound: usize,
) -> Option<usize> {
    bba_simd::rigid_inlier_count(sx, sy, dx, dy, cos, sin, tx, ty, thresh_sq, bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::cmp::Ordering;

    fn truth() -> Iso2 {
        Iso2::new(0.6, Vec2::new(5.0, -3.0))
    }

    fn clean_pairs(n: usize) -> (Vec<Vec2>, Vec<Vec2>) {
        let t = truth();
        let src: Vec<Vec2> =
            (0..n).map(|i| Vec2::new((i * 13 % 29) as f64, (i * 7 % 31) as f64)).collect();
        let dst = src.iter().map(|&p| t.apply(p)).collect();
        (src, dst)
    }

    /// Asserts the fast path and the naive reference agree exactly —
    /// including errors — for the given inputs and seed.
    fn assert_fast_matches_naive(
        src: &[Vec2],
        dst: &[Vec2],
        quality: Option<&[f64]>,
        cfg: &RansacConfig,
        seed: u64,
    ) {
        let naive = ransac_rigid_naive(src, dst, cfg, &mut StdRng::seed_from_u64(seed));
        let fast = ransac_rigid_guided(src, dst, quality, cfg, &mut StdRng::seed_from_u64(seed));
        assert_eq!(naive, fast);
    }

    #[test]
    fn recovers_exact_transform_without_outliers() {
        let (src, dst) = clean_pairs(25);
        let mut rng = StdRng::seed_from_u64(1);
        let r = ransac_rigid(&src, &dst, &RansacConfig::default(), &mut rng).unwrap();
        assert!(r.transform.approx_eq(&truth(), 1e-9, 1e-9));
        assert_eq!(r.num_inliers, 25);
    }

    #[test]
    fn hinted_without_hint_is_guided_bitwise_including_rng_stream() {
        let (src, mut dst) = clean_pairs(40);
        for k in 0..12 {
            dst[3 * k] = Vec2::new(900.0 + k as f64 * 11.0, -700.0);
        }
        let qual: Vec<f64> = (0..40).map(|i| (i % 7) as f64).collect();
        let cfg = RansacConfig::default();
        for seed in [0u64, 7, 91] {
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            let a = ransac_rigid_hinted(&src, &dst, Some(&qual), None, &cfg, &mut rng_a);
            let b = ransac_rigid_guided(&src, &dst, Some(&qual), &cfg, &mut rng_b);
            assert_eq!(a, b);
            assert_eq!(rng_a.random_range(0..u32::MAX), rng_b.random_range(0..u32::MAX));
        }
    }

    #[test]
    fn losing_hint_falls_back_bit_identically() {
        let (src, mut dst) = clean_pairs(40);
        for k in 0..12 {
            dst[3 * k] = Vec2::new(900.0 + k as f64 * 11.0, -700.0);
        }
        // A hint nowhere near the data: zero inliers, must be discarded.
        let bad = Iso2::new(2.0, Vec2::new(400.0, 400.0));
        let cfg = RansacConfig::default();
        for seed in [1u64, 42] {
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            let a = ransac_rigid_hinted(&src, &dst, None, Some(&bad), &cfg, &mut rng_a);
            let b = ransac_rigid_guided(&src, &dst, None, &cfg, &mut rng_b);
            assert_eq!(a, b);
            assert_eq!(rng_a.random_range(0..u32::MAX), rng_b.random_range(0..u32::MAX));
        }
    }

    #[test]
    fn winning_hint_skips_sampling_and_consumes_no_rng() {
        let (src, dst) = clean_pairs(30);
        let mut rng = StdRng::seed_from_u64(5);
        let mut untouched = rng.clone();
        let r = ransac_rigid_hinted(
            &src,
            &dst,
            None,
            Some(&truth()),
            &RansacConfig::default(),
            &mut rng,
        )
        .unwrap();
        assert_eq!(r.iterations, 0, "a winning hint reports zero sampling iterations");
        assert_eq!(r.num_inliers, 30);
        assert!(r.transform.approx_eq(&truth(), 1e-9, 1e-9));
        // The caller's RNG stream was never touched.
        assert_eq!(
            rng.random_range(0..u32::MAX),
            untouched.random_range(0..u32::MAX),
            "winning hint must not consume the RNG"
        );
    }

    #[test]
    fn hint_that_misses_the_exit_bar_is_discarded() {
        // The hint covers 20/40 points exactly, but early_exit_fraction
        // demands 70%: the serial scan would not have stopped on it, so the
        // fallback must run (and, with half the data clean, still win).
        let (src, mut dst) = clean_pairs(40);
        for k in 0..20 {
            dst[2 * k] = Vec2::new(1000.0 + k as f64 * 17.0, -500.0 - k as f64 * 3.0);
        }
        let cfg = RansacConfig::default();
        assert!(cfg.early_exit_fraction > 0.5);
        let mut rng_a = StdRng::seed_from_u64(9);
        let mut rng_b = StdRng::seed_from_u64(9);
        let a = ransac_rigid_hinted(&src, &dst, None, Some(&truth()), &cfg, &mut rng_a);
        let b = ransac_rigid_guided(&src, &dst, None, &cfg, &mut rng_b);
        assert_eq!(a, b);
        assert_eq!(rng_a.random_range(0..u32::MAX), rng_b.random_range(0..u32::MAX));
    }

    #[test]
    fn hinted_validation_errors_precede_hint_use() {
        let mut rng = StdRng::seed_from_u64(0);
        let cfg = RansacConfig::default();
        let e = ransac_rigid_hinted(&[Vec2::ZERO], &[], None, Some(&truth()), &cfg, &mut rng)
            .unwrap_err();
        assert_eq!(e, RansacError::LengthMismatch { src: 1, dst: 0 });
        let e =
            ransac_rigid_hinted(&[Vec2::ZERO], &[Vec2::ZERO], None, Some(&truth()), &cfg, &mut rng)
                .unwrap_err();
        assert_eq!(e, RansacError::TooFewCorrespondences { got: 1 });
    }

    #[test]
    fn survives_half_outliers() {
        let (src, mut dst) = clean_pairs(40);
        for k in 0..20 {
            dst[2 * k] = Vec2::new(1000.0 + k as f64 * 17.0, -500.0 - k as f64 * 3.0);
        }
        let mut rng = StdRng::seed_from_u64(2);
        let r = ransac_rigid(&src, &dst, &RansacConfig::default(), &mut rng).unwrap();
        assert!(r.transform.approx_eq(&truth(), 1e-6, 1e-6));
        assert_eq!(r.num_inliers, 20);
        // Inlier list contains exactly the odd indices.
        assert!(r.inliers.iter().all(|&i| i % 2 == 1));
    }

    #[test]
    fn noisy_inliers_average_out() {
        let (src, dst) = clean_pairs(60);
        // ±0.3 deterministic perturbation.
        let dst: Vec<Vec2> = dst
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                p + Vec2::new(0.3 * ((i % 3) as f64 - 1.0), 0.3 * ((i % 5) as f64 - 2.0) / 2.0)
            })
            .collect();
        let cfg = RansacConfig { inlier_threshold: 1.0, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(3);
        let r = ransac_rigid(&src, &dst, &cfg, &mut rng).unwrap();
        let (dt, dr) = r.transform.error_to(&truth());
        assert!(dt < 0.2, "translation error {dt}");
        assert!(dr < 0.02, "rotation error {dr}");
    }

    #[test]
    fn too_few_points_error() {
        let mut rng = StdRng::seed_from_u64(0);
        let e = ransac_rigid(&[Vec2::ZERO], &[Vec2::ZERO], &RansacConfig::default(), &mut rng)
            .unwrap_err();
        assert_eq!(e, RansacError::TooFewCorrespondences { got: 1 });
    }

    #[test]
    fn length_mismatch_error() {
        let mut rng = StdRng::seed_from_u64(0);
        let e = ransac_rigid(&[Vec2::ZERO], &[], &RansacConfig::default(), &mut rng).unwrap_err();
        assert_eq!(e, RansacError::LengthMismatch { src: 1, dst: 0 });
    }

    #[test]
    fn pure_noise_yields_no_consensus() {
        let src: Vec<Vec2> =
            (0..30).map(|i| Vec2::new(i as f64 * 3.1, (i * i) as f64 % 17.0)).collect();
        let dst: Vec<Vec2> =
            (0..30).map(|i| Vec2::new((i * i * 7) as f64 % 97.0, -(i as f64) * 5.3)).collect();
        let cfg = RansacConfig { inlier_threshold: 0.05, min_inliers: 10, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(4);
        match ransac_rigid(&src, &dst, &cfg, &mut rng) {
            Err(RansacError::NoConsensus { best, required }) => {
                assert!(best < required);
            }
            other => panic!("expected NoConsensus, got {other:?}"),
        }
    }

    #[test]
    fn early_exit_stops_iterating() {
        let (src, dst) = clean_pairs(50);
        let cfg =
            RansacConfig { max_iterations: 1000, early_exit_fraction: 0.5, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(5);
        let r = ransac_rigid(&src, &dst, &cfg, &mut rng).unwrap();
        assert!(r.iterations < 1000, "clean data should exit early, took {}", r.iterations);
    }

    #[test]
    fn errors_are_displayable() {
        for e in [
            RansacError::TooFewCorrespondences { got: 0 },
            RansacError::LengthMismatch { src: 1, dst: 2 },
            RansacError::NoConsensus { best: 1, required: 4 },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn fast_matches_naive_on_the_standard_scenarios() {
        // Clean data (early exit fires), half outliers, pure noise
        // (NoConsensus), duplicates-heavy tiny input.
        let (src, dst) = clean_pairs(50);
        for seed in 0..20 {
            assert_fast_matches_naive(&src, &dst, None, &RansacConfig::default(), seed);
        }

        let (src, mut dst) = clean_pairs(40);
        for k in 0..20 {
            dst[2 * k] = Vec2::new(1000.0 + k as f64 * 17.0, -500.0 - k as f64 * 3.0);
        }
        let cfg = RansacConfig { max_iterations: 700, ..Default::default() };
        for seed in 0..20 {
            assert_fast_matches_naive(&src, &dst, None, &cfg, seed);
        }

        let noise_src: Vec<Vec2> =
            (0..30).map(|i| Vec2::new(i as f64 * 3.1, (i * i) as f64 % 17.0)).collect();
        let noise_dst: Vec<Vec2> =
            (0..30).map(|i| Vec2::new((i * i * 7) as f64 % 97.0, -(i as f64) * 5.3)).collect();
        let cfg = RansacConfig { inlier_threshold: 0.05, min_inliers: 10, ..Default::default() };
        for seed in 0..20 {
            assert_fast_matches_naive(&noise_src, &noise_dst, None, &cfg, seed);
        }
    }

    #[test]
    fn fast_matches_naive_with_quality_schedule() {
        let (src, mut dst) = clean_pairs(40);
        for k in 0..13 {
            dst[3 * k] = Vec2::new(-800.0 + k as f64 * 11.0, 900.0 + k as f64 * 5.0);
        }
        // Quality that actually ranks inliers first, plus adversarial
        // (inverted and constant) schedules: none may change the result.
        let good: Vec<f64> = (0..40).map(|i| if i % 3 == 0 { 9.0 } else { 0.1 }).collect();
        let inverted: Vec<f64> = good.iter().map(|q| -q).collect();
        let constant = vec![1.0; 40];
        let wrong_len = vec![1.0; 7];
        let cfg = RansacConfig { max_iterations: 500, ..Default::default() };
        for seed in 0..12 {
            for q in [&good, &inverted, &constant, &wrong_len] {
                assert_fast_matches_naive(&src, &dst, Some(q), &cfg, seed);
            }
        }
    }

    #[test]
    fn fast_matches_naive_when_exit_fraction_is_unreachable() {
        // early_exit_fraction > 1 makes the exit unreachable: the scan must
        // walk the full iteration budget in both implementations.
        let (src, mut dst) = clean_pairs(30);
        for k in 0..10 {
            dst[3 * k] = Vec2::new(500.0 + k as f64, 500.0 - k as f64);
        }
        let cfg =
            RansacConfig { max_iterations: 300, early_exit_fraction: 2.0, ..Default::default() };
        for seed in 0..12 {
            assert_fast_matches_naive(&src, &dst, None, &cfg, seed);
        }
        let r = ransac_rigid(&src, &dst, &cfg, &mut StdRng::seed_from_u64(3)).unwrap();
        assert_eq!(r.iterations, 300);
    }

    #[test]
    fn fast_matches_naive_on_duplicate_points() {
        // Many coincident correspondences: most samples are degenerate.
        let mut src = vec![Vec2::new(1.0, 1.0); 8];
        let mut dst = vec![Vec2::new(2.0, 2.0); 8];
        src.extend([Vec2::new(5.0, 0.0), Vec2::new(0.0, 5.0), Vec2::new(-4.0, 2.0)]);
        dst.extend([Vec2::new(6.0, 1.0), Vec2::new(1.0, 6.0), Vec2::new(-3.0, 3.0)]);
        let cfg = RansacConfig { min_inliers: 2, ..Default::default() };
        for seed in 0..20 {
            assert_fast_matches_naive(&src, &dst, None, &cfg, seed);
        }
    }

    #[test]
    fn fast_matches_naive_at_every_thread_width() {
        let (src, mut dst) = clean_pairs(60);
        for k in 0..25 {
            dst[2 * k] = Vec2::new(300.0 + k as f64 * 7.0, -200.0 + k as f64 * 13.0);
        }
        let quality: Vec<f64> = (0..60).map(|i| ((i * 37) % 61) as f64).collect();
        let cfg = RansacConfig { max_iterations: 600, ..Default::default() };
        let reference = bba_par::with_threads(1, || {
            ransac_rigid_naive(&src, &dst, &cfg, &mut StdRng::seed_from_u64(11))
        });
        for threads in 1..=8 {
            let fast = bba_par::with_threads(threads, || {
                ransac_rigid_guided(
                    &src,
                    &dst,
                    Some(&quality),
                    &cfg,
                    &mut StdRng::seed_from_u64(11),
                )
            });
            assert_eq!(reference, fast, "threads={threads}");
        }
    }

    /// Asserts guided ≡ naive field for field, comparing floats by bits.
    fn assert_guided_matches_naive_bitwise(
        src: &[Vec2],
        dst: &[Vec2],
        quality: Option<&[f64]>,
        cfg: &RansacConfig,
        seed: u64,
    ) {
        let naive = ransac_rigid_naive(src, dst, cfg, &mut StdRng::seed_from_u64(seed));
        let fast = ransac_rigid_guided(src, dst, quality, cfg, &mut StdRng::seed_from_u64(seed));
        match (&naive, &fast) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.inliers, b.inliers, "inliers, seed {seed}");
                assert_eq!(a.num_inliers, b.num_inliers, "num_inliers, seed {seed}");
                assert_eq!(a.iterations, b.iterations, "iterations, seed {seed}");
                let bits = |t: &Iso2| {
                    [t.yaw().to_bits(), t.translation().x.to_bits(), t.translation().y.to_bits()]
                };
                assert_eq!(bits(&a.transform), bits(&b.transform), "transform, seed {seed}");
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "error, seed {seed}"),
            _ => panic!("seed {seed}: naive {naive:?} vs guided {fast:?}"),
        }
    }

    /// A scene whose outcome hangs on correspondences at the inlier
    /// boundary. `m` copies each of `A→A'` and `B→B'` define model `AB`;
    /// `on` more correspondences sit at exact residual² `τ² = 4` under the
    /// `AB` model RANSAC fits, `inside` one ulp below and `outside` one ulp
    /// above it. A second cluster (`m` copies each of `C→C'`, `D→D'`, plus
    /// exact fits) has one inlier fewer than `AB`, so a screen that lost a
    /// single boundary inlier of `AB` would bail the naive winner whenever
    /// a `CD` sample is drawn first. `scale` multiplies every coordinate.
    fn boundary_scene(
        yaw: f64,
        scale: f64,
        on: usize,
        inside: usize,
        outside: usize,
    ) -> (Vec<Vec2>, Vec<Vec2>) {
        let m = 6;
        let p = |x: f64, y: f64| Vec2::new(x * scale, y * scale);
        let t1 = Iso2::new(yaw, p(300.0, 400.0));
        let (a, b) = (p(10.0, 20.0), p(60.0, 35.0));
        let (a2, b2) = (t1.apply(a), t1.apply(b));
        // Exactly the model RANSAC fits from any `(A, B)` sample.
        let ab = fit_rigid_2d(&[a, b], &[a2, b2]).unwrap();
        let t2 = Iso2::new(yaw + 1.3, p(-700.0, -900.0));
        let (c, d) = (p(-200.0, -150.0), p(-120.0, -60.0));
        let (c2, d2) = (t2.apply(c), t2.apply(d));
        let cd = fit_rigid_2d(&[c, d], &[c2, d2]).unwrap();

        let mut src = Vec::new();
        let mut dst = Vec::new();
        for _ in 0..m {
            src.extend([a, b, c, d]);
            dst.extend([a2, b2, c2, d2]);
        }
        // `fl(v − 2)` is exact for `v ≥ 2`, so the residual is exactly
        // (0, 2) or (2, 0); stepping that coordinate by one ulp moves it
        // either side. Alternating the direction keeps the boundary points
        // from forming a shifted cluster of their own.
        let total = on + inside + outside;
        for k in 0..total {
            let s = p(20.0 + 7.0 * k as f64, 50.0 + 3.0 * k as f64);
            let at = ab.apply(s);
            assert!(at.x >= 2.0 && at.y >= 2.0, "boundary construction needs p ≥ 2");
            let along = if k % 2 == 0 { at.y } else { at.x };
            let edge = along - 2.0;
            let (moved, side) = if k < on {
                (edge, Ordering::Equal)
            } else if k < on + inside {
                (f64::from_bits(edge.to_bits() + 1), Ordering::Less)
            } else {
                (f64::from_bits(edge.to_bits() - 1), Ordering::Greater)
            };
            let q = if k % 2 == 0 { Vec2::new(at.x, moved) } else { Vec2::new(moved, at.y) };
            assert_eq!((ab.apply(s) - q).norm_sq().partial_cmp(&4.0), Some(side));
            src.push(s);
            dst.push(q);
        }
        for k in 0..(on + inside).saturating_sub(1) {
            let s = p(-300.0 - 11.0 * k as f64, -20.0 + 5.0 * k as f64);
            src.push(s);
            dst.push(cd.apply(s));
        }
        (src, dst)
    }

    /// Runs [`boundary_scene`] over a spread of rotations and boundary
    /// mixes at coordinate `scale`, with and without a quality schedule.
    fn check_boundary_scenes(scale: f64, yaws: usize, seeds: u64) {
        let cfg = RansacConfig::default();
        assert_eq!(cfg.inlier_threshold, 2.0, "boundary_scene places residuals for τ = 2");
        for step in 0..yaws {
            let yaw = -3.1 + 6.2 * step as f64 / yaws as f64;
            for (on, inside, outside) in [(6, 0, 0), (4, 3, 3), (1, 0, 6), (0, 5, 5)] {
                let (src, dst) = boundary_scene(yaw, scale, on, inside, outside);
                let quality: Vec<f64> = (0..src.len()).map(|i| ((i * 7) % 5) as f64).collect();
                for seed in 0..seeds {
                    assert_guided_matches_naive_bitwise(&src, &dst, None, &cfg, seed);
                    assert_guided_matches_naive_bitwise(&src, &dst, Some(&quality), &cfg, seed);
                }
            }
        }
    }

    #[test]
    fn screen_keeps_correspondences_exactly_at_the_threshold() {
        check_boundary_scenes(1.0, 24, 6);
    }

    #[test]
    fn screen_is_sound_at_large_coordinates() {
        // Coordinates up to ~1e6: the screen's margin must grow with them.
        for scale in [37.5, 900.0] {
            let (src, dst) = boundary_scene(0.3, scale, 4, 3, 3);
            let max = src.iter().chain(&dst).map(|p| p.x.abs().max(p.y.abs())).fold(0.0, f64::max);
            assert!(max < 1.2e6 && (scale < 900.0 || max > 5e5), "max {max}");
            check_boundary_scenes(scale, 12, 6);
        }
    }

    #[test]
    fn screen_is_sound_on_near_coincident_samples() {
        // Source pairs a hair either side of the 1e-6 coincidence cut, plus
        // pairs at 1e-5: tiny `dot`/`cross`, rotation fixed by rounding.
        let t = truth();
        let mut src = Vec::new();
        let mut dst = Vec::new();
        for k in 0..10 {
            let base = Vec2::new(3.0 * k as f64, 40.0 - 2.0 * k as f64);
            let gap = [0.999_999e-6, 1.000_001e-6, 1e-5][k % 3];
            for q in [base, base + Vec2::new(gap, 0.0), base + Vec2::new(0.0, gap)] {
                src.push(q);
                dst.push(t.apply(q) + Vec2::new(0.0, 1e-7 * k as f64));
            }
        }
        for k in 0..12 {
            src.push(Vec2::new(7.0 * k as f64, -3.0));
            dst.push(Vec2::new(-90.0 + k as f64, 80.0));
        }
        let cfg = RansacConfig { max_iterations: 1500, ..Default::default() };
        for seed in 0..16 {
            assert_guided_matches_naive_bitwise(&src, &dst, None, &cfg, seed);
        }
    }

    #[test]
    fn non_finite_entries_agree_with_the_oracle() {
        // Untrusted input: NaN and ±∞ in either point set must neither
        // panic nor move the result away from the naive scan.
        let (src, dst) = clean_pairs(40);
        let cfg = RansacConfig::default();
        let poisons = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for (v, &bad) in poisons.iter().enumerate() {
            for stride in [3usize, 7, 40] {
                let (mut s, mut d) = (src.clone(), dst.clone());
                for k in (v..40).step_by(stride) {
                    match k % 4 {
                        0 => s[k].x = bad,
                        1 => s[k].y = bad,
                        2 => d[k].x = bad,
                        _ => d[k].y = bad,
                    }
                }
                for seed in 0..8 {
                    assert_guided_matches_naive_bitwise(&s, &d, None, &cfg, seed);
                }
            }
            let all_bad = vec![Vec2::new(bad, bad); 12];
            assert_guided_matches_naive_bitwise(&all_bad, &all_bad, None, &cfg, 1);
        }
    }

    #[test]
    fn count_kernel_bails_only_below_bound() {
        let (src, dst) = clean_pairs(32);
        let sx: Vec<f64> = src.iter().map(|p| p.x).collect();
        let sy: Vec<f64> = src.iter().map(|p| p.y).collect();
        let dx: Vec<f64> = dst.iter().map(|p| p.x).collect();
        let dy: Vec<f64> = dst.iter().map(|p| p.y).collect();
        let t = truth();
        let (sin, cos) = t.yaw().sin_cos();
        let tr = t.translation();
        // Perfect transform: all 32 are inliers at any sane threshold.
        let full = count_inliers_bailing(&sx, &sy, &dx, &dy, cos, sin, tr.x, tr.y, 4.0, 0);
        assert_eq!(full, Some(32));
        // A bound at or above the true count forces a bail...
        assert_eq!(count_inliers_bailing(&sx, &sy, &dx, &dy, cos, sin, tr.x, tr.y, 4.0, 32), None);
        // ...while any bound below it must still return the exact count.
        assert_eq!(
            count_inliers_bailing(&sx, &sy, &dx, &dy, cos, sin, tr.x, tr.y, 4.0, 31),
            Some(32)
        );
        // Identity transform on rotated data: zero inliers, bound 0 bails.
        assert_eq!(count_inliers_bailing(&sx, &sy, &dx, &dy, 1.0, 0.0, 0.0, 0.0, 1e-6, 0), None);
    }
}
