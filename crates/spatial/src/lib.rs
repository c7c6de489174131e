//! Bounding boxes for local inference (§5.1).
//!
//! OLGAPRO selects, per input tuple, the GP training points whose distance
//! to the *sample bounding box* is below a radius derived from Γ, and
//! brackets the excluded points' kernel weight by the box's near and far
//! corners. This crate provides:
//!
//! * [`BoundingBox`] — axis-aligned boxes with the `near`/`far` corner
//!   distances used by the local-inference error bound γ (Fig. 3 of the
//!   paper);
//! * [`RTree`] — a scan-backed stand-in kept only for the benchmark's
//!   layer ladder (ROADMAP item 11 deletes it).

mod bbox;
mod rtree;

pub use bbox::BoundingBox;
pub use rtree::RTree;
