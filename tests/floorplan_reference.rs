//! The floorplan oracle of `hlts-cost`, included so that the root
//! package's `cargo test` runs its default slice: the shipped placement
//! and area estimate against the original ring scan on every state
//! Algorithm 1 prices on ex, dct and diffeq at 4 bits (each iteration's
//! state and every shortlisted trial it priced), and on synthetic shapes
//! that reach the search's corner cases. Its release matrix stays
//! ignored here, as in the crate:
//!
//! ```text
//! cargo test --release -p hlts-cost --test floorplan_reference -- --ignored
//! ```

#[path = "../crates/cost/tests/floorplan_reference.rs"]
mod floorplan_reference;
