//! Temporal pose tracking across frames — the deployment layer above
//! per-frame recovery.
//!
//! The paper recovers the relative pose independently per frame and lists
//! time efficiency as future work. In a deployed V2V stack, consecutive
//! frames are strongly correlated: the relative pose evolves smoothly with
//! the two cars' motion. [`PoseTracker`] exploits that with a
//! constant-velocity α–β filter on `(x, y, yaw)`:
//!
//! * per-frame recoveries are blended in with a gain that grows with their
//!   inlier confidence;
//! * measurements wildly inconsistent with the prediction are *gated out*
//!   (a single aliased stage-1 match cannot hijack the track), but
//!   repeated consistent outliers force a reset (the track, not the
//!   measurement, was wrong — e.g. after a lane change of either car);
//! * between measurements the tracker extrapolates, so fusion can run at
//!   sensor rate while recovery runs at a lower duty cycle — directly
//!   addressing the paper's future-work point;
//! * alongside the pose it carries a scalar positional uncertainty `σ`
//!   that shrinks when confident measurements fuse and grows with
//!   extrapolation age, so callers can ask for a *warm* prediction
//!   ([`PoseTracker::warm_prediction`]) that is only returned while the
//!   track is still trustworthy — the gate behind
//!   `BbAlign::recover_warm`'s skip-stage-1 fast path.

use crate::recover::Recovery;
use bba_geometry::{angle_diff, normalize_angle, Iso2, Vec2};

/// Tracker parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackerConfig {
    /// Base blend gain for a barely-confident measurement (0..1).
    pub min_gain: f64,
    /// Blend gain at/above `saturate_inliers` (0..1).
    pub max_gain: f64,
    /// Inlier count (stage 1 + stage 2) at which gain saturates.
    pub saturate_inliers: usize,
    /// Gate: measurements farther than this from the prediction (m) are
    /// rejected as outliers.
    pub gate_translation: f64,
    /// Gate on rotation disagreement (radians).
    pub gate_rotation: f64,
    /// After this many consecutive gated measurements the tracker resets
    /// onto the latest measurement.
    pub reset_after: usize,
    /// Velocity smoothing factor (0 = frozen velocity, 1 = instantaneous).
    pub velocity_gain: f64,
    /// Positional 1-σ uncertainty (m) right after initialisation or a
    /// reset, before any further measurement has confirmed the state.
    pub init_sigma: f64,
    /// Positional 1-σ (m) of a fully-confident measurement (at/above
    /// `saturate_inliers`); weaker measurements count proportionally less.
    pub measurement_sigma: f64,
    /// Uncertainty growth rate while extrapolating (m of σ per second):
    /// prediction quality decays with extrapolation age.
    pub process_noise: f64,
    /// Warm-start gate: [`PoseTracker::warm_prediction`] returns `None`
    /// once the predicted σ exceeds this (m) — a stale track must fall
    /// back to cold recovery instead of proposing its pose.
    pub max_prediction_sigma: f64,
}

impl Default for TrackerConfig {
    fn default() -> Self {
        TrackerConfig {
            min_gain: 0.25,
            max_gain: 0.85,
            saturate_inliers: 50,
            gate_translation: 4.0,
            gate_rotation: 8f64.to_radians(),
            reset_after: 3,
            velocity_gain: 0.3,
            init_sigma: 1.0,
            measurement_sigma: 0.5,
            process_noise: 0.8,
            max_prediction_sigma: 2.5,
        }
    }
}

/// Why a [`TrackerConfig`] was rejected by [`TrackerConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrackerConfigError {
    /// A gain parameter lies outside `[0, 1]` (or is NaN).
    GainOutOfRange {
        /// Field name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// `min_gain` exceeds `max_gain`.
    GainOrderInverted {
        /// Configured `min_gain`.
        min: f64,
        /// Configured `max_gain`.
        max: f64,
    },
    /// A parameter that must be strictly positive and finite is zero,
    /// negative, NaN, or infinite.
    NotPositive {
        /// Field name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
}

impl std::fmt::Display for TrackerConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrackerConfigError::GainOutOfRange { name, value } => {
                write!(f, "tracker config: {name} = {value} must lie in [0, 1]")
            }
            TrackerConfigError::GainOrderInverted { min, max } => {
                write!(f, "tracker config: min_gain = {min} exceeds max_gain = {max}")
            }
            TrackerConfigError::NotPositive { name, value } => {
                write!(f, "tracker config: {name} = {value} must be positive and finite")
            }
        }
    }
}

impl std::error::Error for TrackerConfigError {}

impl TrackerConfig {
    /// Checks every parameter, returning the first violation. Gains must
    /// lie in `[0, 1]` with `min_gain <= max_gain`; gates, counts, and
    /// sigmas must be strictly positive (and finite) — values outside
    /// these ranges used to be accepted silently and poison the track.
    pub fn validate(&self) -> Result<(), TrackerConfigError> {
        let gains = [
            ("min_gain", self.min_gain),
            ("max_gain", self.max_gain),
            ("velocity_gain", self.velocity_gain),
        ];
        for (name, value) in gains {
            if !(0.0..=1.0).contains(&value) {
                return Err(TrackerConfigError::GainOutOfRange { name, value });
            }
        }
        if self.min_gain > self.max_gain {
            return Err(TrackerConfigError::GainOrderInverted {
                min: self.min_gain,
                max: self.max_gain,
            });
        }
        let positives = [
            ("saturate_inliers", self.saturate_inliers as f64),
            ("gate_translation", self.gate_translation),
            ("gate_rotation", self.gate_rotation),
            ("reset_after", self.reset_after as f64),
            ("init_sigma", self.init_sigma),
            ("measurement_sigma", self.measurement_sigma),
            ("process_noise", self.process_noise),
            ("max_prediction_sigma", self.max_prediction_sigma),
        ];
        for (name, value) in positives {
            if !(value > 0.0 && value.is_finite()) {
                return Err(TrackerConfigError::NotPositive { name, value });
            }
        }
        Ok(())
    }
}

/// Outcome of feeding one measurement to the tracker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrackUpdate {
    /// First measurement: the track was initialised.
    Initialized,
    /// Measurement blended into the track.
    Fused,
    /// Measurement rejected by the innovation gate.
    Gated,
    /// Too many consecutive rejections: track reset onto the measurement.
    Reset,
    /// Measurement timestamp not after the newest state: rejected outright
    /// (a backwards `dt` cannot update a forward-time motion model).
    OutOfOrder,
}

/// A constant-velocity α–β tracker over the relative pose.
///
/// # Example
///
/// ```
/// use bb_align::tracking::{PoseTracker, TrackerConfig};
/// use bba_geometry::{Iso2, Vec2};
///
/// let mut tracker = PoseTracker::new(TrackerConfig::default());
/// // The other car pulls ahead at 2 m/s.
/// for k in 0..8 {
///     let t = k as f64 * 0.5;
///     tracker.update_pose(t, &Iso2::new(0.0, Vec2::new(40.0 + 2.0 * t, 0.0)), 30);
/// }
/// // Predict half a second past the last measurement.
/// let p = tracker.predict(4.0).unwrap();
/// assert!((p.translation().x - 48.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PoseTracker {
    config: TrackerConfig,
    state: Option<TrackState>,
    gated_streak: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct TrackState {
    time: f64,
    translation: Vec2,
    yaw: f64,
    velocity: Vec2,
    yaw_rate: f64,
    /// Positional 1-σ uncertainty (m) of the state at `time`.
    sigma: f64,
}

/// A track state extrapolated to a query time, with its quality estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackPrediction {
    /// The extrapolated relative pose.
    pub pose: Iso2,
    /// Seconds elapsed since the last accepted state (negative when the
    /// query time precedes it).
    pub age: f64,
    /// Predicted positional 1-σ uncertainty (m): the state's σ plus
    /// `process_noise · age` of extrapolation growth.
    pub sigma: f64,
}

impl TrackPrediction {
    /// Quality in `(0, 1]`: `1 / (1 + σ)` — decays smoothly with both
    /// measurement scarcity and extrapolation age.
    pub fn confidence(&self) -> f64 {
        1.0 / (1.0 + self.sigma)
    }
}

impl PoseTracker {
    /// Creates an empty tracker.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid; use
    /// [`PoseTracker::try_new`] to handle the error instead.
    pub fn new(config: TrackerConfig) -> Self {
        Self::try_new(config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Creates an empty tracker, rejecting invalid configurations.
    pub fn try_new(config: TrackerConfig) -> Result<Self, TrackerConfigError> {
        config.validate()?;
        Ok(PoseTracker { config, state: None, gated_streak: 0 })
    }

    /// True once at least one measurement has been accepted.
    pub fn is_initialized(&self) -> bool {
        self.state.is_some()
    }

    /// Feeds a full per-frame [`Recovery`] (gain derives from its inlier
    /// counts).
    pub fn update(&mut self, time: f64, recovery: &Recovery) -> TrackUpdate {
        let confidence = recovery.inliers_bv() + 2 * recovery.inliers_box();
        self.update_pose(time, &recovery.transform, confidence)
    }

    /// Feeds a raw pose measurement with an explicit confidence (total
    /// inlier count).
    pub fn update_pose(&mut self, time: f64, measured: &Iso2, confidence: usize) -> TrackUpdate {
        let cfg = &self.config;
        let Some(prev) = self.state else {
            self.state = Some(TrackState {
                time,
                translation: measured.translation(),
                yaw: measured.yaw(),
                velocity: Vec2::ZERO,
                yaw_rate: 0.0,
                sigma: cfg.init_sigma,
            });
            self.gated_streak = 0;
            return TrackUpdate::Initialized;
        };

        // Non-monotonic timestamps are rejected, not clamped: dividing the
        // displacement by a floor like 1e-6 s would turn centimetres into
        // ~10⁴ m/s in `vel_meas` below and poison the velocity EMA. The
        // state (including the gated streak — an out-of-order stamp says
        // nothing about the world) is left untouched.
        if time <= prev.time {
            return TrackUpdate::OutOfOrder;
        }
        let dt = time - prev.time;
        let predicted_t = prev.translation + prev.velocity * dt;
        let predicted_yaw = prev.yaw + prev.yaw_rate * dt;
        // Uncertainty grows with the time advanced, whatever happens next.
        let sigma_pred = prev.sigma + cfg.process_noise * dt;

        // Innovation gate.
        let innov_t = measured.translation() - predicted_t;
        let innov_r = angle_diff(measured.yaw(), predicted_yaw);
        if innov_t.norm() > cfg.gate_translation || innov_r.abs() > cfg.gate_rotation {
            self.gated_streak += 1;
            if self.gated_streak >= cfg.reset_after {
                self.state = Some(TrackState {
                    time,
                    translation: measured.translation(),
                    yaw: measured.yaw(),
                    velocity: Vec2::ZERO,
                    yaw_rate: 0.0,
                    sigma: cfg.init_sigma,
                });
                self.gated_streak = 0;
                return TrackUpdate::Reset;
            }
            // Keep coasting on the prediction; the gated measurement adds
            // no information, so only σ advances.
            self.state = Some(TrackState {
                time,
                translation: predicted_t,
                yaw: normalize_angle(predicted_yaw),
                sigma: sigma_pred,
                ..prev
            });
            return TrackUpdate::Gated;
        }
        self.gated_streak = 0;

        // Confidence-weighted blend.
        let frac = (confidence as f64 / cfg.saturate_inliers as f64).min(1.0);
        let gain = cfg.min_gain + (cfg.max_gain - cfg.min_gain) * frac;
        let new_t = predicted_t + innov_t * gain;
        let new_yaw = normalize_angle(predicted_yaw + innov_r * gain);

        // Velocity update from the *filtered* displacement.
        let vel_meas = (new_t - prev.translation) / dt;
        let yawrate_meas = angle_diff(new_yaw, prev.yaw) / dt;
        let velocity = prev.velocity.lerp(vel_meas, cfg.velocity_gain);
        let yaw_rate = prev.yaw_rate + (yawrate_meas - prev.yaw_rate) * cfg.velocity_gain;

        // Information-style fusion of the predicted σ with the measurement
        // σ (confident measurements count as tighter): the posterior
        // variance is the harmonic combination, so it always shrinks.
        let meas_sigma = cfg.measurement_sigma * (2.0 - frac);
        let (vp, vm) = (sigma_pred * sigma_pred, meas_sigma * meas_sigma);
        let sigma = (vp * vm / (vp + vm)).sqrt();

        self.state =
            Some(TrackState { time, translation: new_t, yaw: new_yaw, velocity, yaw_rate, sigma });
        TrackUpdate::Fused
    }

    /// The filtered relative pose extrapolated to `time`, or `None` before
    /// initialisation.
    pub fn predict(&self, time: f64) -> Option<Iso2> {
        self.prediction(time).map(|p| p.pose)
    }

    /// The extrapolated pose plus its quality estimate, or `None` before
    /// initialisation. Unlike [`PoseTracker::warm_prediction`] this never
    /// gates — callers that can tolerate stale state (e.g. display-layer
    /// extrapolation) read the σ themselves.
    pub fn prediction(&self, time: f64) -> Option<TrackPrediction> {
        let s = self.state?;
        let dt = time - s.time;
        Some(TrackPrediction {
            pose: Iso2::new(s.yaw + s.yaw_rate * dt, s.translation + s.velocity * dt),
            age: dt,
            sigma: s.sigma + self.config.process_noise * dt.max(0.0),
        })
    }

    /// The extrapolated pose *when the track is still trustworthy enough
    /// to warm-start recovery*: `None` before initialisation, for
    /// backwards query times, and once the predicted σ exceeds
    /// `max_prediction_sigma` (a blown or long-extrapolated track must
    /// never propose a stale pose).
    pub fn warm_prediction(&self, time: f64) -> Option<Iso2> {
        let p = self.prediction(time)?;
        (p.age >= 0.0 && p.sigma <= self.config.max_prediction_sigma).then_some(p.pose)
    }

    /// The estimated relative velocity (m/s) of the other car in the ego
    /// frame, or `None` before initialisation.
    pub fn relative_velocity(&self) -> Option<Vec2> {
        self.state.map(|s| s.velocity)
    }

    /// The positional 1-σ uncertainty (m) of the current state, or `None`
    /// before initialisation.
    pub fn position_sigma(&self) -> Option<f64> {
        self.state.map(|s| s.sigma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed_linear(
        tracker: &mut PoseTracker,
        n: usize,
        dt: f64,
        start: Vec2,
        velocity: Vec2,
        noise: impl Fn(usize) -> Vec2,
    ) {
        for k in 0..n {
            let t = k as f64 * dt;
            let truth = start + velocity * t;
            let measured = Iso2::new(0.0, truth + noise(k));
            tracker.update_pose(t, &measured, 40);
        }
    }

    #[test]
    fn smooths_noisy_measurements() {
        let mut tracker = PoseTracker::new(TrackerConfig::default());
        // Alternating ±0.5 m noise around a constant-velocity truth.
        feed_linear(&mut tracker, 20, 0.5, Vec2::new(40.0, 0.0), Vec2::new(2.0, 0.0), |k| {
            Vec2::new(0.5 * if k % 2 == 0 { 1.0 } else { -1.0 }, 0.0)
        });
        let t_end = 19.0 * 0.5;
        let truth = Vec2::new(40.0, 0.0) + Vec2::new(2.0, 0.0) * t_end;
        let filtered = tracker.predict(t_end).unwrap();
        let err = (filtered.translation() - truth).norm();
        assert!(err < 0.45, "filtered error {err} should beat the 0.5 m noise");
        // Velocity learned.
        let v = tracker.relative_velocity().unwrap();
        assert!((v.x - 2.0).abs() < 0.7, "velocity {v:?}");
    }

    #[test]
    fn extrapolates_between_measurements() {
        let mut tracker = PoseTracker::new(TrackerConfig::default());
        feed_linear(&mut tracker, 12, 0.5, Vec2::ZERO, Vec2::new(3.0, 1.0), |_| Vec2::ZERO);
        // Predict 1 s past the last measurement.
        let p = tracker.predict(5.5 + 1.0).unwrap();
        let truth = Vec2::new(3.0, 1.0) * 6.5;
        assert!((p.translation() - truth).norm() < 0.8, "{p}");
    }

    #[test]
    fn gates_single_outlier() {
        let mut tracker = PoseTracker::new(TrackerConfig::default());
        feed_linear(&mut tracker, 8, 0.5, Vec2::new(30.0, 0.0), Vec2::ZERO, |_| Vec2::ZERO);
        // One aliased recovery 40 m off.
        let verdict = tracker.update_pose(4.0, &Iso2::new(0.0, Vec2::new(70.0, 0.0)), 40);
        assert_eq!(verdict, TrackUpdate::Gated);
        let p = tracker.predict(4.0).unwrap();
        assert!((p.translation() - Vec2::new(30.0, 0.0)).norm() < 1.0, "track hijacked: {p}");
    }

    #[test]
    fn repeated_consistent_outliers_force_reset() {
        let mut tracker = PoseTracker::new(TrackerConfig::default());
        feed_linear(&mut tracker, 5, 0.5, Vec2::new(30.0, 0.0), Vec2::ZERO, |_| Vec2::ZERO);
        // The world changed: measurements now consistently at 50 m.
        let mut last = TrackUpdate::Fused;
        for k in 0..3 {
            last = tracker.update_pose(
                2.5 + k as f64 * 0.5,
                &Iso2::new(0.0, Vec2::new(50.0, 0.0)),
                40,
            );
        }
        assert_eq!(last, TrackUpdate::Reset);
        let p = tracker.predict(4.0).unwrap();
        assert!((p.translation() - Vec2::new(50.0, 0.0)).norm() < 1.0);
    }

    #[test]
    fn confidence_controls_gain() {
        let run = |confidence: usize| {
            let mut tracker = PoseTracker::new(TrackerConfig::default());
            tracker.update_pose(0.0, &Iso2::new(0.0, Vec2::new(10.0, 0.0)), 40);
            tracker.update_pose(0.5, &Iso2::new(0.0, Vec2::new(12.0, 0.0)), confidence);
            tracker.predict(0.5).unwrap().translation().x
        };
        let weak = run(1);
        let strong = run(100);
        // A strong measurement pulls the state closer to 12.
        assert!(strong > weak, "strong {strong} vs weak {weak}");
        assert!(strong > 11.5 && weak < 11.5);
    }

    #[test]
    fn yaw_wraps_correctly_at_pi() {
        let mut tracker = PoseTracker::new(TrackerConfig::default());
        let near_pi = std::f64::consts::PI - 0.01;
        tracker.update_pose(0.0, &Iso2::new(near_pi, Vec2::new(20.0, 0.0)), 40);
        tracker.update_pose(0.5, &Iso2::new(-near_pi, Vec2::new(20.0, 0.0)), 40);
        let p = tracker.predict(0.5).unwrap();
        // Filtered yaw stays near ±π, not near 0.
        assert!(p.yaw().abs() > 3.0, "yaw blended across the seam: {}", p.yaw());
    }

    /// Regression: a backwards timestamp used to be clamped to `dt = 1e-6`,
    /// turning a 5 cm displacement into a ~5·10⁴ m/s velocity measurement
    /// that the EMA then blended into the track.
    #[test]
    fn backwards_timestamp_is_rejected_not_clamped() {
        let mut tracker = PoseTracker::new(TrackerConfig::default());
        tracker.update_pose(0.0, &Iso2::new(0.0, Vec2::new(10.0, 0.0)), 40);
        tracker.update_pose(1.0, &Iso2::new(0.0, Vec2::new(10.5, 0.0)), 40);
        let v_before = tracker.relative_velocity().unwrap();
        let p_before = tracker.predict(2.0).unwrap();

        // 5 cm of displacement, half a second *backwards*.
        let verdict = tracker.update_pose(0.5, &Iso2::new(0.0, Vec2::new(10.55, 0.0)), 40);
        assert_eq!(verdict, TrackUpdate::OutOfOrder);
        // The track is untouched: same velocity, same prediction.
        assert_eq!(tracker.relative_velocity().unwrap(), v_before);
        assert_eq!(tracker.predict(2.0).unwrap(), p_before);
        assert!(v_before.norm() < 1.0, "sanity: the track itself is slow");
    }

    #[test]
    fn repeated_timestamp_is_rejected() {
        let mut tracker = PoseTracker::new(TrackerConfig::default());
        tracker.update_pose(0.0, &Iso2::new(0.0, Vec2::new(10.0, 0.0)), 40);
        tracker.update_pose(1.0, &Iso2::new(0.0, Vec2::new(12.0, 0.0)), 40);
        let verdict = tracker.update_pose(1.0, &Iso2::new(0.0, Vec2::new(12.1, 0.0)), 40);
        assert_eq!(verdict, TrackUpdate::OutOfOrder);
        let v = tracker.relative_velocity().unwrap();
        assert!(v.norm() < 3.0, "zero-dt update must not fabricate velocity: {v:?}");
    }

    #[test]
    fn out_of_order_does_not_advance_the_gated_streak() {
        let cfg = TrackerConfig::default();
        let mut tracker = PoseTracker::new(cfg);
        feed_linear(&mut tracker, 5, 0.5, Vec2::new(30.0, 0.0), Vec2::ZERO, |_| Vec2::ZERO);
        // reset_after - 1 gated outliers, separated by out-of-order noise:
        // the stale stamps must not tip the streak into a reset.
        for k in 0..cfg.reset_after - 1 {
            let t = 2.5 + k as f64 * 0.5;
            assert_eq!(
                tracker.update_pose(t, &Iso2::new(0.0, Vec2::new(60.0, 0.0)), 40),
                TrackUpdate::Gated
            );
            assert_eq!(
                tracker.update_pose(t - 10.0, &Iso2::new(0.0, Vec2::new(60.0, 0.0)), 40),
                TrackUpdate::OutOfOrder
            );
        }
        let p = tracker.predict(4.0).unwrap();
        assert!((p.translation() - Vec2::new(30.0, 0.0)).norm() < 1.0, "track hijacked: {p}");
    }

    #[test]
    fn uninitialized_tracker_has_no_prediction() {
        let tracker = PoseTracker::new(TrackerConfig::default());
        assert!(!tracker.is_initialized());
        assert!(tracker.predict(0.0).is_none());
        assert!(tracker.warm_prediction(0.0).is_none());
        assert!(tracker.relative_velocity().is_none());
        assert!(tracker.position_sigma().is_none());
    }

    #[test]
    fn default_config_is_valid() {
        assert_eq!(TrackerConfig::default().validate(), Ok(()));
        assert!(PoseTracker::try_new(TrackerConfig::default()).is_ok());
    }

    #[test]
    fn gains_outside_unit_interval_are_rejected() {
        for (patch, name) in [
            (
                Box::new(|c: &mut TrackerConfig| c.min_gain = -0.1) as Box<dyn Fn(&mut _)>,
                "min_gain",
            ),
            (Box::new(|c: &mut TrackerConfig| c.max_gain = 1.5), "max_gain"),
            (Box::new(|c: &mut TrackerConfig| c.velocity_gain = f64::NAN), "velocity_gain"),
        ] {
            let mut cfg = TrackerConfig::default();
            patch(&mut cfg);
            match cfg.validate() {
                Err(TrackerConfigError::GainOutOfRange { name: n, .. }) => assert_eq!(n, name),
                other => panic!("{name}: expected GainOutOfRange, got {other:?}"),
            }
            assert!(PoseTracker::try_new(cfg).is_err());
        }
    }

    #[test]
    fn inverted_gain_order_is_rejected() {
        let cfg = TrackerConfig { min_gain: 0.9, max_gain: 0.2, ..TrackerConfig::default() };
        assert_eq!(
            cfg.validate(),
            Err(TrackerConfigError::GainOrderInverted { min: 0.9, max: 0.2 })
        );
    }

    #[test]
    fn non_positive_gates_counts_and_sigmas_are_rejected() {
        type Patch = Box<dyn Fn(&mut TrackerConfig)>;
        let cases: Vec<(Patch, &str)> = vec![
            (Box::new(|c| c.saturate_inliers = 0), "saturate_inliers"),
            (Box::new(|c| c.gate_translation = 0.0), "gate_translation"),
            (Box::new(|c| c.gate_rotation = -1.0), "gate_rotation"),
            (Box::new(|c| c.reset_after = 0), "reset_after"),
            (Box::new(|c| c.init_sigma = 0.0), "init_sigma"),
            (Box::new(|c| c.measurement_sigma = -0.5), "measurement_sigma"),
            (Box::new(|c| c.process_noise = f64::INFINITY), "process_noise"),
            (Box::new(|c| c.max_prediction_sigma = 0.0), "max_prediction_sigma"),
        ];
        for (patch, name) in cases {
            let mut cfg = TrackerConfig::default();
            patch(&mut cfg);
            match cfg.validate() {
                Err(TrackerConfigError::NotPositive { name: n, .. }) => assert_eq!(n, name),
                other => panic!("{name}: expected NotPositive, got {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "gate_translation")]
    fn new_panics_on_invalid_config() {
        let cfg = TrackerConfig { gate_translation: -1.0, ..TrackerConfig::default() };
        let _ = PoseTracker::new(cfg);
    }

    #[test]
    fn config_errors_are_displayable() {
        let err =
            TrackerConfig { min_gain: 2.0, ..TrackerConfig::default() }.validate().unwrap_err();
        assert!(err.to_string().contains("min_gain"));
        let err =
            TrackerConfig { reset_after: 0, ..TrackerConfig::default() }.validate().unwrap_err();
        assert!(err.to_string().contains("reset_after"));
    }

    #[test]
    fn sigma_shrinks_with_fused_measurements_and_grows_while_coasting() {
        let cfg = TrackerConfig::default();
        let mut tracker = PoseTracker::new(cfg);
        tracker.update_pose(0.0, &Iso2::new(0.0, Vec2::new(30.0, 0.0)), 50);
        assert_eq!(tracker.position_sigma().unwrap(), cfg.init_sigma);
        for k in 1..6 {
            tracker.update_pose(k as f64 * 0.1, &Iso2::new(0.0, Vec2::new(30.0, 0.0)), 50);
        }
        let settled = tracker.position_sigma().unwrap();
        assert!(settled < cfg.measurement_sigma * 1.05, "σ should settle near meas σ: {settled}");
        // A gated outlier coasts: σ grows by process_noise · dt.
        let before = tracker.position_sigma().unwrap();
        tracker.update_pose(1.0, &Iso2::new(0.0, Vec2::new(80.0, 0.0)), 50);
        let after = tracker.position_sigma().unwrap();
        assert!((after - (before + cfg.process_noise * 0.5)).abs() < 1e-12, "{before} -> {after}");
    }

    #[test]
    fn warm_prediction_gates_out_stale_tracks() {
        let cfg = TrackerConfig::default();
        let mut tracker = PoseTracker::new(cfg);
        for k in 0..6 {
            tracker.update_pose(k as f64 * 0.1, &Iso2::new(0.0, Vec2::new(30.0, 0.0)), 50);
        }
        // Fresh track: warm prediction available just after the last fuse.
        assert!(tracker.warm_prediction(0.6).is_some());
        // Backwards query times never warm-start.
        assert!(tracker.warm_prediction(0.3).is_none());
        // A dropout gap ages the track past the σ gate while the raw
        // prediction stays available for display-layer extrapolation.
        let sigma_now = tracker.position_sigma().unwrap();
        let gap = (cfg.max_prediction_sigma - sigma_now) / cfg.process_noise + 0.1;
        let stale_t = 0.5 + gap;
        assert!(tracker.warm_prediction(stale_t).is_none(), "stale track must not warm-start");
        assert!(tracker.predict(stale_t).is_some());
        let p = tracker.prediction(stale_t).unwrap();
        assert!(p.sigma > cfg.max_prediction_sigma);
        assert!(p.confidence() < 1.0 / (1.0 + cfg.max_prediction_sigma) + 1e-12);
    }

    #[test]
    fn reset_restores_init_sigma() {
        let cfg = TrackerConfig::default();
        let mut tracker = PoseTracker::new(cfg);
        feed_linear(&mut tracker, 5, 0.5, Vec2::new(30.0, 0.0), Vec2::ZERO, |_| Vec2::ZERO);
        assert!(tracker.position_sigma().unwrap() < cfg.init_sigma);
        for k in 0..cfg.reset_after {
            tracker.update_pose(2.5 + k as f64 * 0.5, &Iso2::new(0.0, Vec2::new(60.0, 0.0)), 40);
        }
        assert_eq!(tracker.position_sigma().unwrap(), cfg.init_sigma);
    }
}
