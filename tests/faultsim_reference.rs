//! Property test: the event-driven, cone-limited
//! `FaultSimulator::detects` against the reference fault simulator
//! (`tests/common/fsim_reference.rs`), which re-simulates the whole
//! faulty machine from reset with no activation skip and no recorded
//! trace.
//!
//! Two populations:
//!
//! * 320 random sequential netlists with constants, flip-flop →
//!   flip-flop chains, nets read on several pins of one gate, and OR
//!   gates wider than 8 inputs; every stuck-at fault of each (outputs
//!   of inputs, constants, flip-flops and gates, every gate pin, every
//!   flip-flop D pin), under sequences whose sparse words activate
//!   sites late and re-activate them after the machines re-converge;
//! * every collapsed fault of ex, dct and diffeq at 4 bits under their
//!   random-phase sequences, graded as the random phase grades them
//!   (a fault leaves the pending list once detected).
//!
//! One scratch serves every call of a netlist, so stale overlay marks,
//! queue bits or flip-flop states would show up as a divergence.

mod common;

use common::elaborated;
use common::fsim_reference::ReferenceFsim;
use hlts::atpg::{Fault, FaultSimulator, FaultSite, FaultUniverse, PiAssign};
use hlts::netlist::{GateId, GateKind, Netlist, WordBuilder};
use hlts::tcov::{fsim, TcovConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random sequential netlist: 1–4 inputs, 0–4 flip-flops (some fed
/// straight by another flip-flop), maybe a constant of each value,
/// 2–20 gates of every kind reading earlier nets (one net may feed
/// several pins of a gate), maybe a 9–12-input OR, flip-flops fed by
/// any net, 1–3 outputs.
fn netlist(rng: &mut StdRng) -> Netlist {
    let mut nl = Netlist::new();
    let mut nets: Vec<GateId> = (0..1 + rng.gen_range(0..4))
        .map(|i| nl.input(format!("i{i}")))
        .collect();
    let dffs: Vec<GateId> = (0..rng.gen_range(0..5))
        .map(|i| nl.dff(format!("q{i}")))
        .collect();
    nets.extend(&dffs);
    for value in [false, true] {
        if rng.gen_bool(0.3) {
            nets.push(nl.constant(value));
        }
    }
    let kinds = [
        GateKind::Buf,
        GateKind::Not,
        GateKind::And,
        GateKind::Or,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Mux,
    ];
    for _ in 0..2 + rng.gen_range(0..19) {
        let kind = kinds[rng.gen_range(0..kinds.len())];
        let arity = match kind {
            GateKind::Buf | GateKind::Not => 1,
            GateKind::Xor | GateKind::Xnor => 2,
            GateKind::Mux => 3,
            _ => 2 + rng.gen_range(0..3),
        };
        // draw from the last few nets so pins repeat and logic deepens
        let window = nets.len().min(5);
        let ins: Vec<GateId> = (0..arity)
            .map(|_| nets[nets.len() - 1 - rng.gen_range(0..window)])
            .collect();
        nets.push(nl.gate(kind, &ins));
    }
    if rng.gen_bool(0.4) {
        let wide: Vec<GateId> = (0..9 + rng.gen_range(0..4))
            .map(|_| nets[rng.gen_range(0..nets.len())])
            .collect();
        let or = WordBuilder::new(&mut nl).or_many(&wide);
        nets.push(or);
    }
    for (k, &q) in dffs.iter().enumerate() {
        // a flip-flop → flip-flop chain link, or any net
        let d = if k > 0 && rng.gen_bool(0.4) {
            dffs[k - 1]
        } else {
            nets[rng.gen_range(0..nets.len())]
        };
        nl.connect_dff(q, d);
    }
    for o in 0..1 + rng.gen_range(0..3) {
        let k = nets.len() - 1 - rng.gen_range(0..nets.len().min(6));
        nl.output(format!("o{o}"), nets[k]);
    }
    nl
}

/// Every single stuck-at fault: both values on every net's output and
/// on every pin of every gate and flip-flop.
fn every_fault(nl: &Netlist) -> Vec<Fault> {
    let mut sites = Vec::new();
    for (i, gate) in nl.gates().iter().enumerate() {
        let g = GateId::from_index(i);
        sites.push(FaultSite::Output(g));
        for pin in 0..gate.inputs().len() {
            sites.push(FaultSite::Input(g, u8::try_from(pin).expect("small arity")));
        }
    }
    sites
        .into_iter()
        .flat_map(|site| [false, true].map(|stuck| Fault { site, stuck }))
        .collect()
}

/// A random sequence of 1–10 cycles. Words are dense, all-0, all-1, or
/// sparse (a few patterns set), so a site may first activate late and
/// re-activate after the machines have re-converged.
fn sequence(nl: &Netlist, rng: &mut StdRng) -> Vec<PiAssign> {
    (0..1 + rng.gen_range(0..10))
        .map(|_| {
            (0..nl.inputs().len())
                .map(|_| match rng.gen_range(0..4) {
                    0 => rng.gen::<u64>(),
                    1 => 0,
                    2 => !0,
                    _ => rng.gen::<u64>() & rng.gen::<u64>() & rng.gen::<u64>(),
                })
                .collect()
        })
        .collect()
}

#[test]
fn detects_matches_full_resimulation_on_random_netlists() {
    let mut rng = StdRng::seed_from_u64(0x0fa0_17ed);
    let (mut compared, mut detected, mut faults_total) = (0usize, 0usize, 0usize);
    let mut flip_flop_netlists = 0;
    for case in 0..320 {
        let nl = netlist(&mut rng);
        flip_flop_netlists += usize::from(!nl.dffs().is_empty());
        let faults = every_fault(&nl);
        faults_total += faults.len();
        let fs = FaultSimulator::new(nl.clone());
        let reference = ReferenceFsim::new(nl.clone());
        let mut scratch = fs.scratch();
        let mut trace = fs.good_trace(&[]);
        for _ in 0..3 {
            let seq = sequence(&nl, &mut rng);
            fs.record(&seq, &mut trace);
            let good = reference.outputs(&seq, None);
            for &f in &faults {
                let want = reference.detects(&seq, &good, f);
                let got = fs.detects(&mut scratch, &trace, f);
                assert_eq!(
                    got,
                    want,
                    "netlist {case}: {} over {} cycles",
                    f.describe(),
                    seq.len()
                );
                compared += 1;
                detected += usize::from(want);
            }
        }
    }
    println!("{compared} comparisons over {faults_total} faults, {detected} detections");
    // the population exercises both verdicts and sequential logic
    assert!(detected > compared / 10 && detected < compared * 9 / 10);
    assert!(flip_flop_netlists > 200);
}

/// The paper benchmarks' collapsed faults under their random-phase
/// sequences, pending faults only, as the random phase grades them.
fn check_benchmark(name: &str) -> usize {
    let dfg = hlts::benchmarks::by_name(name).expect("known benchmark");
    let (nl, steps) = elaborated(&dfg, 4);
    let atpg = TcovConfig::for_schedule(steps, None, 1).atpg;
    let seqs = fsim::random_sequences(&nl, &atpg, &fsim::control_inputs(&nl));
    let universe = FaultUniverse::collapsed(&nl);
    let faults = universe.faults();
    let fs = FaultSimulator::new(nl.clone());
    let reference = ReferenceFsim::new(nl);
    let mut scratch = fs.scratch();
    let mut trace = fs.good_trace(&[]);
    let mut pending = vec![true; faults.len()];
    let mut compared = 0;
    for (s, seq) in seqs.iter().enumerate() {
        fs.record(seq, &mut trace);
        let good = reference.outputs(seq, None);
        for (i, &f) in faults.iter().enumerate() {
            if !pending[i] {
                continue;
            }
            let want = reference.detects(seq, &good, f);
            let got = fs.detects(&mut scratch, &trace, f);
            assert_eq!(got, want, "{name} sequence {s}: {}", f.describe());
            pending[i] = !want;
            compared += 1;
        }
    }
    println!(
        "{name}: {} faults, {compared} comparisons, {} never detected",
        faults.len(),
        pending.iter().filter(|&&p| p).count()
    );
    compared
}

#[test]
fn detects_matches_full_resimulation_on_ex() {
    assert!(check_benchmark("ex") > 0, "ex: no faults");
}

#[test]
fn detects_matches_full_resimulation_on_dct() {
    assert!(check_benchmark("dct") > 0, "dct: no faults");
}

#[test]
fn detects_matches_full_resimulation_on_diffeq() {
    assert!(check_benchmark("diffeq") > 0, "diffeq: no faults");
}
