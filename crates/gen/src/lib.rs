//! Seeded random DFG workload generator and differential conformance
//! harness.
//!
//! [`generate`] grows a random — but fully reproducible — data-flow
//! graph from a `(seed, GenConfig)` pair: the RNG is the deterministic
//! xoshiro generator every other crate uses, so the same pair yields
//! the bit-identical graph on every platform and every run. The knobs
//! cover size (operation count), op mix (multiplier / adder / logic /
//! comparison / shift weights), shape (depth-vs-width bias, fan-out
//! skew), and structure (loop-carried pair count, constant-to-input
//! ratio). Every generated graph validates, schedules under ASAP and
//! lowers to ETPN by construction — [`generate`] ends in
//! `DfgBuilder::finish`, which enforces the full invariant set.
//!
//! The [`diff`] module turns a generated graph into a differential
//! test vector: it runs the full engine matrix (worklist vs. dense
//! testability, transactional merge loop vs. the clone-based oracle,
//! parallel vs. serial DSE sweeps, and the structural auditor) and reports the first
//! divergence with a one-command repro line.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::fmt;

use hlts_dfg::{Dfg, DfgBuilder, DfgError, OpKind, ValueId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom as _;
use rand::{Rng as _, SeedableRng as _};

pub mod diff;

/// Errors raised by the generator.
#[derive(Debug)]
pub enum GenError {
    /// The configuration is malformed (zero ops, all-zero op weights,
    /// an out-of-range probability, an invalid base name, ...).
    Config(String),
    /// The built graph failed `DfgBuilder` validation — a generator
    /// bug by definition, since [`generate`] must only emit valid
    /// graphs.
    Dfg(DfgError),
}

impl fmt::Display for GenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenError::Config(msg) => write!(f, "invalid generator config: {msg}"),
            GenError::Dfg(e) => write!(f, "generated graph failed validation: {e}"),
        }
    }
}

impl std::error::Error for GenError {}

impl From<DfgError> for GenError {
    fn from(e: DfgError) -> Self {
        GenError::Dfg(e)
    }
}

/// Knobs of the random DFG generator. Together with a `u64` seed this
/// fully determines the generated graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GenConfig {
    /// Base name of the graph; the emitted graph is named
    /// `{name}_s{seed}` so every artifact names its own seed.
    pub name: String,
    /// Number of operations to generate (≥ 1).
    pub ops: usize,
    /// Number of primary inputs (≥ 1).
    pub inputs: usize,
    /// Constants per input: `round(inputs * const_ratio)` constant
    /// declarations are added (in `[0, 8]`).
    pub const_ratio: f64,
    /// Op-mix weight of the multiplier bucket (`*`).
    pub mul: u32,
    /// Op-mix weight of the adder bucket (`+`, `-`).
    pub addsub: u32,
    /// Op-mix weight of the logic bucket (`&`, `|`, `^`, `~`).
    pub logic: u32,
    /// Op-mix weight of the comparison bucket (`<`, `>`, `==`).
    pub cmp: u32,
    /// Op-mix weight of the shift/move bucket (`shl`, `shr`, `mov`).
    pub shift: u32,
    /// Probability (in `[0, 1]`) that an operand is drawn from the
    /// most recently defined values — high values grow deep chains,
    /// low values grow wide, shallow graphs.
    pub depth_bias: f64,
    /// Probability (in `[0, 1]`) that an operand pick prefers the
    /// already-popular value of two uniform candidates, skewing the
    /// fan-out distribution toward a few high-fan-out values.
    pub fanout_skew: f64,
    /// Number of loop-carried `(produced, consumed)` pairs to close
    /// (capped by the number of inputs and of data-producing ops).
    pub loop_pairs: usize,
}

impl Default for GenConfig {
    fn default() -> Self {
        // The "balanced" preset: a mid-size graph exercising every
        // statement form.
        GenConfig {
            name: "balanced".to_owned(),
            ops: 16,
            inputs: 5,
            const_ratio: 0.4,
            mul: 3,
            addsub: 4,
            logic: 2,
            cmp: 1,
            shift: 1,
            depth_bias: 0.5,
            fanout_skew: 0.3,
            loop_pairs: 1,
        }
    }
}

/// Names of the built-in configuration presets, in the order the
/// conformance sweep visits them.
pub const PRESET_NAMES: [&str; 4] = ["balanced", "deep-arith", "wide-logic", "loopy-mul"];

/// Look up a built-in preset by name (see [`PRESET_NAMES`]).
#[must_use]
pub fn preset(name: &str) -> Option<GenConfig> {
    let base = GenConfig::default();
    match name {
        "balanced" => Some(base),
        // Long multiply/accumulate chains: stresses the scheduler's
        // critical path and the multiplier-class allocator.
        "deep-arith" => Some(GenConfig {
            name: "deep_arith".to_owned(),
            ops: 24,
            inputs: 3,
            const_ratio: 0.34,
            mul: 4,
            addsub: 5,
            logic: 0,
            cmp: 0,
            shift: 0,
            depth_bias: 0.9,
            fanout_skew: 0.2,
            loop_pairs: 0,
        }),
        // Shallow, bushy logic with heavy fan-out: stresses the
        // testability propagation and the mux accounting.
        "wide-logic" => Some(GenConfig {
            name: "wide_logic".to_owned(),
            ops: 20,
            inputs: 8,
            const_ratio: 0.25,
            mul: 1,
            addsub: 2,
            logic: 5,
            cmp: 1,
            shift: 2,
            depth_bias: 0.1,
            fanout_skew: 0.6,
            loop_pairs: 0,
        }),
        // Multiplier-rich with several loop-carried pairs: the
        // diffeq-like shape where merge legality is most delicate.
        "loopy-mul" => Some(GenConfig {
            name: "loopy_mul".to_owned(),
            ops: 18,
            inputs: 4,
            const_ratio: 0.5,
            mul: 5,
            addsub: 3,
            logic: 1,
            cmp: 1,
            shift: 1,
            depth_bias: 0.6,
            fanout_skew: 0.3,
            loop_pairs: 2,
        }),
        _ => None,
    }
}

impl GenConfig {
    /// Validate the knob ranges.
    ///
    /// # Errors
    ///
    /// Returns [`GenError::Config`] naming the offending knob.
    pub fn validate(&self) -> Result<(), GenError> {
        let ident_ok = !self.name.is_empty()
            && self
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_');
        if !ident_ok {
            return Err(GenError::Config(format!(
                "name `{}` must be a non-empty [A-Za-z0-9_] identifier",
                self.name
            )));
        }
        if self.ops == 0 {
            return Err(GenError::Config("ops must be >= 1".to_owned()));
        }
        if self.inputs == 0 {
            return Err(GenError::Config("inputs must be >= 1".to_owned()));
        }
        if self.mul + self.addsub + self.logic + self.cmp + self.shift == 0 {
            return Err(GenError::Config(
                "op-mix weights must not all be zero".to_owned(),
            ));
        }
        for (knob, v) in [
            ("depth_bias", self.depth_bias),
            ("fanout_skew", self.fanout_skew),
        ] {
            if !(0.0..=1.0).contains(&v) || v.is_nan() {
                return Err(GenError::Config(format!(
                    "{knob} must be in [0, 1], got {v}"
                )));
            }
        }
        if !(0.0..=8.0).contains(&self.const_ratio) || self.const_ratio.is_nan() {
            return Err(GenError::Config(format!(
                "const_ratio must be in [0, 8], got {}",
                self.const_ratio
            )));
        }
        Ok(())
    }
}

/// Draw an operation kind from the weighted bucket mix.
fn pick_kind(rng: &mut StdRng, cfg: &GenConfig) -> OpKind {
    let total = cfg.mul + cfg.addsub + cfg.logic + cfg.cmp + cfg.shift;
    let mut r = rng.gen_range(0..total as usize) as u32;
    for (weight, bucket) in [
        (cfg.mul, &[OpKind::Mul][..]),
        (cfg.addsub, &[OpKind::Add, OpKind::Sub][..]),
        (
            cfg.logic,
            &[OpKind::And, OpKind::Or, OpKind::Xor, OpKind::Not][..],
        ),
        (cfg.cmp, &[OpKind::Lt, OpKind::Gt, OpKind::Eq][..]),
        (cfg.shift, &[OpKind::Shl, OpKind::Shr, OpKind::Mov][..]),
    ] {
        if r < weight {
            return bucket[rng.gen_range(0..bucket.len())];
        }
        r -= weight;
    }
    // Unreachable: r < total and the weights sum to total.
    OpKind::Add
}

/// Pick an operand index into the eligible-value pool, applying the
/// depth bias (prefer recent definitions) and fan-out skew (prefer the
/// more popular of two uniform candidates).
fn pick_operand(rng: &mut StdRng, fanout: &[u32], cfg: &GenConfig) -> usize {
    let n = fanout.len();
    if n == 1 {
        return 0;
    }
    if rng.gen_bool(cfg.depth_bias) {
        let recent = n.min(3);
        return n - recent + rng.gen_range(0..recent);
    }
    if rng.gen_bool(cfg.fanout_skew) {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        return if fanout[a] >= fanout[b] { a } else { b };
    }
    rng.gen_range(0..n)
}

/// Generate a random DFG from `(seed, cfg)`.
///
/// The construction is a single forward pass — every operand is drawn
/// from already-defined values — so the data portion of the graph is
/// acyclic by construction; cycles enter only through the explicit
/// loop-carried pairs, exactly as in the paper benchmarks. Condition
/// outputs (`<`, `>`, `==`) are excluded from the operand pool so the
/// graph never feeds a 1-bit flag into a data operation. Every
/// data-producing operation whose result is otherwise unused is marked
/// a primary output, which also guarantees at least one output (the
/// final operation is forced to be non-condition).
///
/// # Errors
///
/// * [`GenError::Config`] when `cfg` fails [`GenConfig::validate`];
/// * [`GenError::Dfg`] if the built graph fails validation (a
///   generator bug — covered by the validity tests).
pub fn generate(seed: u64, cfg: &GenConfig) -> Result<Dfg, GenError> {
    cfg.validate()?;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = DfgBuilder::new(format!("{}_s{seed}", cfg.name));

    // Pool of operand-eligible values, with parallel fan-out counts.
    let mut pool: Vec<ValueId> = Vec::new();
    let mut fanout: Vec<u32> = Vec::new();
    let mut input_ids: Vec<ValueId> = Vec::new();

    for i in 0..cfg.inputs {
        let v = b.input(&format!("a{i}"));
        input_ids.push(v);
        pool.push(v);
        fanout.push(0);
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let consts = (cfg.inputs as f64 * cfg.const_ratio).round() as usize;
    for i in 0..consts {
        // Small signed constants, like the paper benchmarks use.
        let value = rng.gen_range(0..31) as i64 - 15;
        pool.push(b.constant(&format!("c{i}"), value));
        fanout.push(0);
    }

    // Data-producing (non-condition) op outputs: loop-pair candidates
    // and default primary outputs when left unused.
    let mut data_outputs: Vec<ValueId> = Vec::new();
    let mut used = vec![false; pool.len()];
    for j in 0..cfg.ops {
        let mut kind = pick_kind(&mut rng, cfg);
        if j + 1 == cfg.ops && kind.is_condition() {
            // The last output can never be consumed, and a dangling
            // condition flag would leave the graph without a data
            // output; force an adder instead.
            kind = OpKind::Add;
        }
        let mut operands = Vec::with_capacity(kind.arity());
        for _ in 0..kind.arity() {
            let idx = pick_operand(&mut rng, &fanout, cfg);
            fanout[idx] += 1;
            used[idx] = true;
            operands.push(pool[idx]);
        }
        let out = b.op(&format!("N{j}"), kind, &operands, &format!("t{j}"))?;
        if !kind.is_condition() {
            // Condition flags stay out of the operand pool: data ops
            // must not consume 1-bit results.
            pool.push(out);
            fanout.push(0);
            used.push(false);
            data_outputs.push(out);
        }
    }

    // Every unconsumed data result becomes a primary output.
    for (idx, &v) in pool.iter().enumerate() {
        if !used[idx] && data_outputs.contains(&v) {
            b.mark_output(v);
        }
    }

    // Close loop-carried pairs: a random distinct data result feeds
    // back into each of the first `loop_pairs` inputs across
    // iterations (produced values must be primary outputs, mirroring
    // the diffeq benchmark's x/y/u recurrences).
    let pairs = cfg.loop_pairs.min(cfg.inputs).min(data_outputs.len());
    let mut candidates = data_outputs.clone();
    candidates.shuffle(&mut rng);
    for p in 0..pairs {
        let produced = candidates[p];
        b.mark_output(produced);
        b.loop_carried(produced, input_ids[p]);
    }

    b.finish().map_err(GenError::Dfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hlts_dfg::AsapAlap;

    /// `(seed, config)` fully determines the graph.
    #[test]
    fn same_seed_and_config_reproduce_the_graph() {
        for name in PRESET_NAMES {
            let cfg = preset(name).expect("preset exists");
            let a = generate(7, &cfg).expect("generate");
            let b = generate(7, &cfg).expect("generate");
            assert_eq!(a, b, "preset {name} not deterministic");
        }
    }

    /// Different seeds almost surely differ (pinned seeds here).
    #[test]
    fn different_seeds_differ() {
        let cfg = GenConfig::default();
        let a = generate(1, &cfg).expect("generate");
        let b = generate(2, &cfg).expect("generate");
        assert_ne!(a, b);
    }

    /// Every preset × many seeds: validates, ASAP-schedules, and the
    /// graph name embeds the seed for repro.
    #[test]
    fn generated_graphs_validate_and_schedule() {
        for name in PRESET_NAMES {
            let cfg = preset(name).expect("preset exists");
            for seed in 0..24u64 {
                let dfg = generate(seed, &cfg)
                    .unwrap_or_else(|e| panic!("preset {name} seed {seed}: {e}"));
                dfg.validate()
                    .unwrap_or_else(|e| panic!("preset {name} seed {seed}: {e}"));
                assert!(dfg.num_ops() == cfg.ops);
                assert!(dfg.outputs().count() >= 1, "preset {name} seed {seed}");
                AsapAlap::compute(&dfg, None)
                    .unwrap_or_else(|e| panic!("preset {name} seed {seed}: {e}"));
                assert!(dfg.name().ends_with(&format!("_s{seed}")));
            }
        }
    }

    /// Generated graphs survive the emit → parse round-trip exactly.
    #[test]
    fn generated_graphs_roundtrip_through_text() {
        for name in PRESET_NAMES {
            let cfg = preset(name).expect("preset exists");
            for seed in [0u64, 3, 11] {
                let dfg = generate(seed, &cfg).expect("generate");
                let text = hlts_dfg::emit(&dfg).expect("emit");
                let back = hlts_dfg::parse(&text)
                    .unwrap_or_else(|e| panic!("preset {name} seed {seed}: {e}\n{text}"));
                assert_eq!(dfg, back, "preset {name} seed {seed} round-trip");
            }
        }
    }

    /// Loop pairs land where asked: `loopy-mul` closes two recurrences.
    #[test]
    fn loop_pairs_are_closed() {
        let cfg = preset("loopy-mul").expect("preset exists");
        for seed in 0..8u64 {
            let dfg = generate(seed, &cfg).expect("generate");
            assert_eq!(dfg.loop_carried().len(), 2, "seed {seed}");
            for &(produced, consumed) in dfg.loop_carried() {
                assert!(dfg.outputs().any(|o| o == produced));
                assert!(dfg.inputs().any(|i| i == consumed));
            }
        }
    }

    /// Op-mix weights steer the mix: a mul-only config generates only
    /// multipliers (except the forced final adder rule never fires
    /// since Mul is non-condition).
    #[test]
    fn op_mix_weights_are_respected() {
        let cfg = GenConfig {
            mul: 1,
            addsub: 0,
            logic: 0,
            cmp: 0,
            shift: 0,
            loop_pairs: 0,
            ..GenConfig::default()
        };
        let dfg = generate(5, &cfg).expect("generate");
        assert!(dfg.ops().iter().all(|o| o.kind() == OpKind::Mul));
    }

    /// Depth bias works: a fully deep config yields a longer critical
    /// path than a fully wide one (pinned seed).
    #[test]
    fn depth_bias_shapes_the_graph() {
        let deep = GenConfig {
            depth_bias: 1.0,
            fanout_skew: 0.0,
            loop_pairs: 0,
            ..GenConfig::default()
        };
        let wide = GenConfig {
            depth_bias: 0.0,
            fanout_skew: 0.0,
            loop_pairs: 0,
            ..GenConfig::default()
        };
        let d = generate(9, &deep).expect("generate");
        let w = generate(9, &wide).expect("generate");
        let dp = d.critical_path_len().expect("acyclic");
        let wp = w.critical_path_len().expect("acyclic");
        assert!(dp > wp, "deep path {dp} should exceed wide path {wp}");
    }

    /// Config validation pins its error messages.
    #[test]
    fn bad_configs_are_rejected() {
        let cases: [(GenConfig, &str); 4] = [
            (
                GenConfig {
                    ops: 0,
                    ..GenConfig::default()
                },
                "ops must be >= 1",
            ),
            (
                GenConfig {
                    inputs: 0,
                    ..GenConfig::default()
                },
                "inputs must be >= 1",
            ),
            (
                GenConfig {
                    mul: 0,
                    addsub: 0,
                    logic: 0,
                    cmp: 0,
                    shift: 0,
                    ..GenConfig::default()
                },
                "weights must not all be zero",
            ),
            (
                GenConfig {
                    depth_bias: 1.5,
                    ..GenConfig::default()
                },
                "depth_bias must be in [0, 1]",
            ),
        ];
        for (cfg, needle) in cases {
            let err = generate(0, &cfg).expect_err("must reject");
            assert!(err.to_string().contains(needle), "{err}");
        }
        let err = generate(
            0,
            &GenConfig {
                name: "no spaces".into(),
                ..GenConfig::default()
            },
        )
        .expect_err("must reject");
        assert!(err.to_string().contains("identifier"), "{err}");
    }

    /// All preset names resolve; unknown names do not.
    #[test]
    fn preset_lookup() {
        for name in PRESET_NAMES {
            let cfg = preset(name).expect("preset exists");
            cfg.validate().expect("preset validates");
        }
        assert!(preset("nonsense").is_none());
    }
}
