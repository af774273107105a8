//! The benchmark's inputs: behaviors as textual DFG, built in set-up
//! from the bundled paper benchmarks and the seeded generator, so every
//! workload hands the program text to parse, as a user would.
//!
//! The graphs themselves are fixed (fixed generator seeds): grading
//! cost varies tenfold between generated graphs, so graphs drawn from
//! the run seed would make a run's cost a property of the draw rather
//! than of the code. The run seed orders the work instead — job order,
//! sweep bench order, the daemon's request sequence — which is where
//! caches, queues and worker pools see a difference.

use hlts_dfg::Dfg;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// One behavior as the program receives it.
#[derive(Debug, Clone)]
pub struct Source {
    pub name: String,
    pub text: String,
}

/// A bundled paper benchmark, emitted as DFG text.
pub fn paper(name: &str) -> Result<Source, String> {
    let dfg = hlts_benchmarks::by_name(name).ok_or(format!("unknown benchmark `{name}`"))?;
    Ok(Source {
        name: name.to_owned(),
        text: hlts_dfg::emit(&dfg).map_err(|e| format!("{name}: {e}"))?,
    })
}

/// A generated graph: `preset` at generator seed `seed`, with the
/// preset's operation count unless `ops` overrides it.
pub fn generated(preset: &str, seed: u64, ops: Option<usize>) -> Result<Source, String> {
    let mut cfg = hlts_gen::preset(preset).ok_or(format!("unknown preset `{preset}`"))?;
    if let Some(ops) = ops {
        cfg.ops = ops;
    }
    let dfg = hlts_gen::generate(seed, &cfg).map_err(|e| format!("{preset}: {e}"))?;
    Ok(Source {
        name: dfg.name().to_owned(),
        text: hlts_dfg::emit(&dfg).map_err(|e| format!("{preset}: {e}"))?,
    })
}

/// Parse a source the way the CLI loads a `.dfg` file.
pub fn parse(src: &Source) -> Result<Dfg, String> {
    hlts_dfg::parse(&src.text).map_err(|e| format!("{}: {e}", src.name))
}

/// The run's random stream (orders, traffic), derived from `--seed`.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream)
}

/// `items` in a seeded order.
pub fn shuffled<T: Clone>(items: &[T], rng: &mut StdRng) -> Vec<T> {
    let mut v = items.to_vec();
    v.shuffle(rng);
    v
}
