//! Criterion bench: fault-simulation and PODEM throughput on the
//! elaborated Ex design (the dominant cost of the tables' ATPG column),
//! and the random phase's per-sequence grading on ewf at 8 bits, whose
//! schedule-length sequences (54 cycles) are where re-simulating every
//! gate of every cycle cost the most. Simulators are built outside the
//! timed loops: only grading is timed.

use criterion::{criterion_group, criterion_main, Criterion};
use hlts_atpg::{FaultSimulator, FaultUniverse, Podem};
use hlts_bench::Flow;
use hlts_etpn::Etpn;
use hlts_netlist::{elaborate, Netlist};
use hlts_tcov::{fsim, TcovConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Synthesize `dfg` with the paper's flow and elaborate it at 8 bits;
/// also return its schedule length.
fn elaborated(dfg: &hlts_dfg::Dfg) -> (Netlist, usize) {
    let r = Flow::Ours.run(dfg, 8).expect("synthesis succeeds");
    let etpn = Etpn::from_parts(&r.dfg, &r.schedule, &r.allocation).expect("lowerable");
    let nl = elaborate(&r.dfg, &r.schedule, &r.allocation, &etpn, 8).expect("elaborates");
    (nl, r.schedule.num_steps())
}

fn atpg(c: &mut Criterion) {
    let (nl, _) = elaborated(&hlts_benchmarks::ex());
    let universe = FaultUniverse::collapsed(&nl).sampled(200, 1);
    let faults = universe.faults().to_vec();
    let mut rng = StdRng::seed_from_u64(2);
    let seq: Vec<Vec<u64>> = (0..10)
        .map(|_| (0..nl.inputs().len()).map(|_| rng.gen()).collect())
        .collect();

    let fs = FaultSimulator::new(nl.clone());
    c.bench_function("fault_sim_ex_200_faults_10_cycles", |b| {
        b.iter(|| {
            let mut det = vec![false; faults.len()];
            fs.run(&seq, &faults, &mut det)
        })
    });

    c.bench_function("podem_ex_10_targets", |b| {
        b.iter(|| {
            let mut podem = Podem::new(nl.clone(), 7, 50);
            for &f in faults.iter().take(10) {
                let _ = podem.generate(f);
            }
            podem.backtracks_used()
        })
    });

    // ewf@8: every collapsed fault graded against the random phase's
    // first sequence, as its first `detect_partition` sees them.
    let (nl, steps) = elaborated(&hlts_benchmarks::ewf());
    let atpg = TcovConfig::for_schedule(steps, None, 1).atpg;
    let seqs = fsim::random_sequences(&nl, &atpg, &fsim::control_inputs(&nl));
    let seq = &seqs[0];
    assert_eq!(seq.len(), 54, "ewf@8 schedule-length sequences");
    let universe = FaultUniverse::collapsed(&nl);
    let fs = FaultSimulator::new(nl);
    let mut scratch = fs.scratch();
    let mut trace = fs.good_trace(seq);
    c.bench_function("good_trace_ewf8_54_cycles", |b| {
        b.iter(|| fs.record(seq, &mut trace))
    });
    c.bench_function("fault_sim_ewf8_all_faults_54_cycles", |b| {
        b.iter(|| {
            universe
                .faults()
                .iter()
                .filter(|&&f| fs.detects(&mut scratch, &trace, f))
                .count()
        })
    });
}

criterion_group!(benches, atpg);
criterion_main!(benches);
