//! Design-space exploration on the Dct benchmark: how the paper's user
//! parameters k (testability-emphasis shortlist size) and α/β (time vs
//! area weighting) shape the synthesized design.
//!
//! Built on the `hlts-dse` engine: the 20-point grid runs on a worker
//! pool with shared critical-path and (E, H) caches, and the Pareto
//! front over (E, H, avg C, avg O, C→O depth) falls out of the sweep.
//!
//! Run with `cargo run --release --example dct_design_space`.

use hlts::dse::{explore, ExploreConfig, SweepSpec};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut spec = SweepSpec::new(vec![("dct".to_owned(), hlts::benchmarks::dct())]);
    spec.ks = vec![1, 2, 3, 5, 8];
    spec.weights = vec![(2.0, 1.0), (10.0, 1.0), (1.0, 10.0), (0.1, 10.0)];

    let cfg = ExploreConfig {
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
        ..ExploreConfig::default()
    };
    let outcome = explore(&spec, &cfg)?;
    print!("{}", outcome.render());

    println!(
        "\nNote the plateau around the paper's settings — its observation that\n\
         \"the chosen parameters do not influence so much the final results\":\n\
         many grid points collapse onto the same few Pareto-front designs."
    );
    Ok(())
}
