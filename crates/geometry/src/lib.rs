//! Rigid-body geometry primitives for the BB-Align reproduction.
//!
//! This crate is the foundation of the workspace. It provides:
//!
//! * [`Vec2`] / [`Vec3`] — plain Cartesian vectors.
//! * [`Iso2`] — a rigid transform on the ground plane (yaw + translation),
//!   the `(α, t_x, t_y)` triple that BB-Align estimates.
//! * [`Iso3`] — the 3-D homogeneous transform of the paper's Eq. (1)–(3),
//!   lifted from an [`Iso2`] with fixed roll/pitch/`t_z`.
//! * [`BevBox`] — an oriented bounding rectangle in bird's-eye view with the
//!   *consistent corner ordering* that stage 2 of BB-Align relies on.
//! * [`Box3`] — a 3-D object box that projects onto a [`BevBox`].
//! * Convex-polygon clipping and rotated-rectangle IoU ([`polygon`]).
//! * The closed-form least-squares rigid fit used by RANSAC ([`fit`]).
//!
//! # Example
//!
//! ```
//! use bba_geometry::{Iso2, Vec2};
//!
//! // The "other" car is 10 m ahead of the ego car and rotated 90°.
//! let other_to_ego = Iso2::new(std::f64::consts::FRAC_PI_2, Vec2::new(10.0, 0.0));
//! let p_other = Vec2::new(1.0, 0.0); // a point seen by the other car
//! let p_ego = other_to_ego.apply(p_other);
//! assert!((p_ego - Vec2::new(10.0, 1.0)).norm() < 1e-12);
//! ```

#![warn(missing_docs)]

pub mod angle;
pub mod boxes;
pub mod fit;
pub mod iso;
pub mod polygon;
pub mod vec;

pub use angle::{angle_diff, normalize_angle, Degrees, Radians};
pub use boxes::{BevBox, Box3};
pub use fit::{fit_rigid_2d, fit_rigid_2pt, weighted_fit_rigid_2d, RigidFitError, TwoPointMoments};
pub use iso::{Iso2, Iso3};
pub use polygon::{convex_area, intersect_convex, obb_intersection_area, obb_iou};
pub use vec::{Vec2, Vec3};
