//! Geometry substrate for the COLR-Tree reproduction.
//!
//! The paper indexes sensors by latitude/longitude and issues rectangular
//! viewport queries plus polygonal regions of interest (`WITHIN Polygon(...)`).
//! This crate provides the minimal planar geometry the index needs:
//!
//! * [`Point`] — a 2-D location (we use planar coordinates; the workload crate
//!   maps them onto a continental lat/long extent),
//! * [`Rect`] — axis-aligned bounding rectangles with the containment /
//!   intersection / union algebra an R-Tree requires,
//! * [`Polygon`] — simple polygons with point-in-polygon tests and
//!   Sutherland–Hodgman clipping so we can compute *exact* overlap fractions
//!   against rectangles (the `Overlap(BB(i), A)` term of Algorithm 1),
//! * [`Region`] — the query-region sum type (rectangle or polygon).
//!
//! Everything is `f64`-based and allocation-light; the index stores only
//! [`Rect`]s and [`Point`]s per node.

#![forbid(unsafe_code)]

mod circle;
mod point;
mod polygon;
mod rect;
mod region;

pub use circle::Circle;
pub use point::Point;
pub use polygon::Polygon;
pub use rect::Rect;
pub use region::Region;

/// Numeric tolerance used by geometric predicates in this crate.
pub const EPSILON: f64 = 1e-9;
