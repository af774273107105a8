//! Property test for PODEM's event-driven implication and maintained
//! D-frontier.
//!
//! Random decide / flip / pop sequences, as the search makes them, run
//! on small generated sequential netlists — with all inputs free and
//! with a random preset, for output-site and input-pin faults, several
//! calls per generator (a new call starts from the buffers the last one
//! left, so a stale value would show). After every implication the
//! generator's buffers must equal a full re-simulation of both machines
//! from frame 0, its detection flag the full re-simulation's, and its
//! objective what a full scan of every frame and every gate in
//! topological order returns (the scan below is the objective as it
//! stood before the frontier was maintained).

use hlts_atpg::{Fault, FaultSite, Podem};
use hlts_netlist::{GateId, GateKind, Netlist};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

type V = Option<bool>;

/// A random sequential netlist: 1–4 inputs, 0–3 flip-flops, a constant
/// or none, 3–24 gates of every kind reading earlier nets (a net may
/// feed several pins of one gate), flip-flops fed by any net, 1–3
/// outputs.
fn netlist(rng: &mut StdRng) -> Netlist {
    let mut nl = Netlist::new();
    let mut nets: Vec<GateId> = (0..1 + rng.gen_range(0..4))
        .map(|i| nl.input(format!("i{i}")))
        .collect();
    let dffs: Vec<GateId> = (0..rng.gen_range(0..4))
        .map(|i| nl.dff(format!("q{i}")))
        .collect();
    nets.extend(&dffs);
    if rng.gen_bool(0.5) {
        nets.push(nl.constant(rng.gen_bool(0.5)));
    }
    for _ in 0..3 + rng.gen_range(0..22) {
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
        let kind = kinds[rng.gen_range(0..kinds.len())];
        let arity = match kind {
            GateKind::Buf | GateKind::Not => 1,
            GateKind::Xor | GateKind::Xnor => 2,
            GateKind::Mux => 3,
            _ => 2 + rng.gen_range(0..3),
        };
        let ins: Vec<GateId> = (0..arity)
            .map(|_| nets[rng.gen_range(0..nets.len())])
            .collect();
        nets.push(nl.gate(kind, &ins));
    }
    for &q in &dffs {
        nl.connect_dff(q, nets[rng.gen_range(0..nets.len())]);
    }
    for o in 0..1 + rng.gen_range(0..3) {
        // bias towards late nets, which sit deep in the logic
        let k = nets.len() - 1 - rng.gen_range(0..nets.len().min(6));
        nl.output(format!("o{o}"), nets[k]);
    }
    nl
}

/// A random fault: a stuck output on any net, or a stuck pin of any
/// gate or flip-flop.
fn fault(nl: &Netlist, rng: &mut StdRng) -> Fault {
    let stuck = rng.gen_bool(0.5);
    let g = rng.gen_range(0..nl.num_gates());
    let arity = nl.gates()[g].inputs().len();
    let site = if arity > 0 && rng.gen_bool(0.5) {
        FaultSite::Input(
            GateId::from_index(g),
            u8::try_from(rng.gen_range(0..arity)).expect("small arity"),
        )
    } else {
        FaultSite::Output(GateId::from_index(g))
    };
    Fault { site, stuck }
}

/// Both machines of every frame, simulated from frame 0, and whether
/// some frame detects the fault.
fn resimulate(
    nl: &Netlist,
    order: &[GateId],
    frames: usize,
    assign: &[V],
    fault: Fault,
) -> (Vec<V>, Vec<V>, bool) {
    let n = nl.num_gates();
    let pis = nl.inputs().len();
    let mut good = vec![None; frames * n];
    let mut faulty = vec![None; frames * n];
    let mut detected = false;
    let stuck = Some(fault.stuck);
    for t in 0..frames {
        let base = t * n;
        for (i, g) in nl.gates().iter().enumerate() {
            let v = match g.kind() {
                GateKind::Const0 => Some(false),
                GateKind::Const1 => Some(true),
                _ => continue,
            };
            good[base + i] = v;
            faulty[base + i] = v;
        }
        for (pi, &g) in nl.inputs().iter().enumerate() {
            good[base + g.index()] = assign[t * pis + pi];
            faulty[base + g.index()] = assign[t * pis + pi];
        }
        for &q in nl.dffs() {
            let (gv, mut fv) = if t == 0 {
                (Some(false), Some(false))
            } else {
                let d = base - n + nl.gates()[q.index()].inputs()[0].index();
                (good[d], faulty[d])
            };
            if t > 0 && fault.site == FaultSite::Input(q, 0) {
                fv = stuck;
            }
            good[base + q.index()] = gv;
            faulty[base + q.index()] = fv;
        }
        if let FaultSite::Output(g) = fault.site {
            if matches!(
                nl.gates()[g.index()].kind(),
                GateKind::Input | GateKind::Dff | GateKind::Const0 | GateKind::Const1
            ) {
                faulty[base + g.index()] = stuck;
            }
        }
        for &g in order {
            let gate = &nl.gates()[g.index()];
            let gv: Vec<V> = gate
                .inputs()
                .iter()
                .map(|&i| good[base + i.index()])
                .collect();
            let mut fv: Vec<V> = gate
                .inputs()
                .iter()
                .map(|&i| faulty[base + i.index()])
                .collect();
            if let FaultSite::Input(fg, pin) = fault.site {
                if fg == g {
                    fv[usize::from(pin)] = stuck;
                }
            }
            good[base + g.index()] = eval3(gate.kind(), &gv);
            faulty[base + g.index()] = if fault.site == FaultSite::Output(g) {
                stuck
            } else {
                eval3(gate.kind(), &fv)
            };
        }
        detected |= nl.outputs().iter().any(|(_, g)| {
            let i = base + g.index();
            matches!((good[i], faulty[i]), (Some(a), Some(b)) if a != b)
        });
    }
    (good, faulty, detected)
}

/// The objective by a full scan: activation in the first frame whose
/// fault site is X, else the first gate in topological order of the
/// first frame that is on the D-frontier and has an X input.
fn scan_objective(
    nl: &Netlist,
    order: &[GateId],
    frames: usize,
    good: &[V],
    faulty: &[V],
    fault: Fault,
) -> Option<(usize, GateId, bool)> {
    let n = nl.num_gates();
    let site = match fault.site {
        FaultSite::Output(g) => g,
        FaultSite::Input(g, pin) => nl.gates()[g.index()].inputs()[usize::from(pin)],
    };
    let mut activated = false;
    for t in 0..frames {
        match good[t * n + site.index()] {
            None => return Some((t, site, !fault.stuck)),
            Some(x) if x != fault.stuck => activated = true,
            _ => {}
        }
    }
    if !activated {
        return None;
    }
    for t in 0..frames {
        let base = t * n;
        for &g in order {
            if good[base + g.index()].is_some() && faulty[base + g.index()].is_some() {
                continue;
            }
            let gate = &nl.gates()[g.index()];
            let has_d = gate.inputs().iter().enumerate().any(|(pin, &i)| {
                let gv = good[base + i.index()];
                let mut fv = faulty[base + i.index()];
                if let FaultSite::Input(fg, fp) = fault.site {
                    if fg == g && usize::from(fp) == pin {
                        fv = Some(fault.stuck);
                    }
                }
                matches!((gv, fv), (Some(a), Some(b)) if a != b)
            });
            if !has_d {
                continue;
            }
            for &i in gate.inputs() {
                if good[base + i.index()].is_none() {
                    // the non-controlling value; 0 for kinds without one
                    let v = matches!(gate.kind(), GateKind::And | GateKind::Nand);
                    return Some((t, i, v));
                }
            }
        }
    }
    None
}

fn eval3(kind: GateKind, ins: &[V]) -> V {
    let all = |want: bool| ins.iter().all(|&v| v == Some(want));
    let any = |want: bool| ins.contains(&Some(want));
    let and = if any(false) {
        Some(false)
    } else if all(true) {
        Some(true)
    } else {
        None
    };
    let or = if any(true) {
        Some(true)
    } else if all(false) {
        Some(false)
    } else {
        None
    };
    match kind {
        GateKind::Buf => ins[0],
        GateKind::Not => ins[0].map(|v| !v),
        GateKind::And => and,
        GateKind::Nand => and.map(|v| !v),
        GateKind::Or => or,
        GateKind::Nor => or.map(|v| !v),
        GateKind::Xor => ins[0].zip(ins[1]).map(|(a, b)| a ^ b),
        GateKind::Xnor => ins[0].zip(ins[1]).map(|(a, b)| a == b),
        GateKind::Mux => match ins[0] {
            Some(false) => ins[1],
            Some(true) => ins[2],
            None if ins[1] == ins[2] => ins[1],
            None => None,
        },
        GateKind::Const0 => Some(false),
        GateKind::Const1 => Some(true),
        _ => None,
    }
}

/// Drive one generator through random calls and check it after every
/// implication.
fn check_random_searches(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut nl = netlist(&mut rng);
    let order = nl.topo_levels();
    let frames = 1 + rng.gen_range(0..4);
    let pis = nl.inputs().len();
    let mut podem = Podem::new(nl.clone(), frames, 100);
    let mut target = fault(&nl, &mut rng);
    for call in 0..6 {
        // mostly a new target, now and then the same one again
        if rng.gen_bool(0.7) {
            target = fault(&nl, &mut rng);
        }
        let fault = target;
        let preset: Option<Vec<Vec<V>>> = rng.gen_bool(0.5).then(|| {
            (0..frames)
                .map(|_| {
                    (0..pis)
                        .map(|_| rng.gen_bool(0.4).then(|| rng.gen_bool(0.5)))
                        .collect()
                })
                .collect()
        });
        let mut assign: Vec<V> = vec![None; frames * pis];
        if let Some(p) = &preset {
            for (t, row) in p.iter().enumerate() {
                assign[t * pis..(t + 1) * pis].copy_from_slice(row);
            }
        }
        podem.probe_start(preset.as_deref());
        // decision stack: (frame, pi, value, tried_both)
        let mut stack: Vec<(usize, usize, bool, bool)> = Vec::new();
        for step in 0..40 {
            let what = format!(
                "seed {seed} call {call} step {step}: {} (preset: {})",
                fault.describe(),
                preset.is_some()
            );
            let detected = podem.probe_imply(fault);
            let (good, faulty, want_detected) = resimulate(&nl, &order, frames, &assign, fault);
            let (got_good, got_faulty) = podem.probe_values();
            assert_eq!(got_good, &good[..], "{what}: good machine");
            assert_eq!(got_faulty, &faulty[..], "{what}: faulty machine");
            assert_eq!(detected, want_detected, "{what}: detection");
            assert_eq!(
                podem.probe_objective(fault),
                scan_objective(&nl, &order, frames, &good, &faulty, fault),
                "{what}: objective"
            );
            // One to three moves before the next implication, as a
            // decision (one) or a backtrack (pops, then a flip) makes.
            for _ in 0..1 + rng.gen_range(0..3) {
                let free: Vec<usize> = (0..assign.len()).filter(|&s| assign[s].is_none()).collect();
                let top_untried = matches!(stack.last(), Some(&(_, _, _, false)));
                match rng.gen_range(0..3) {
                    0 if !free.is_empty() => {
                        let s = free[rng.gen_range(0..free.len())];
                        let v = rng.gen_bool(0.5);
                        assign[s] = Some(v);
                        podem.probe_set(s / pis, s % pis, Some(v));
                        stack.push((s / pis, s % pis, v, false));
                    }
                    1 if top_untried => {
                        let (f, pi, v, _) = stack.pop().expect("nonempty");
                        assign[f * pis + pi] = Some(!v);
                        podem.probe_set(f, pi, Some(!v));
                        stack.push((f, pi, !v, true));
                    }
                    _ => {
                        if let Some((f, pi, _, _)) = stack.pop() {
                            assign[f * pis + pi] = None;
                            podem.probe_set(f, pi, None);
                        }
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// After every implication of a random search, the event-driven
    /// buffers equal a full re-simulation and the maintained
    /// D-frontier's objective equals the full scan's.
    #[test]
    fn event_driven_implication_matches_full_resimulation(seed in any::<u64>()) {
        check_random_searches(seed);
    }
}
