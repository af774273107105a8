//! The host's speed, measured with a fixed reference kernel run between
//! the workload's operations.
//!
//! On a shared host the machine's speed moves with other tenants' load,
//! for seconds and in steps that last minutes, by up to a half: over a
//! quarter of an hour the same graded job took 105 ms at the 10th
//! percentile and 175 ms at the 90th.
//! So every CPU-bound time the benchmark reports is divided by the
//! host's slowdown measured around it: the reference kernel's median
//! time over the samples nearest the operation, over [`REFERENCE_MS`].
//! The times then read as times on a host that runs the kernel in
//! exactly [`REFERENCE_MS`]. The kernel is the benchmark's own code and
//! calls nothing of the program: a change to the program moves the
//! reported times, while a change in the host's load moves the kernel
//! with the operations and largely cancels out.
//!
//! The kernel is what the program's hot paths are made of: hashing into
//! a map of small vectors (an allocation each) and sorting, three
//! quarters of its time, and unpredictable branches over random bytes,
//! one quarter. It was chosen by interleaving candidate kernels with the
//! workloads' own operations — graded jobs, synthesis jobs, one-behavior
//! sweeps with and without grading — over a 15- and a 20-minute stretch
//! on a shared 2-vCPU VM, and picking the mix whose ratio to every
//! operation held steadiest across both. Over 25-s windows the
//! operations' own times spread by 16–35% (quartiles over their
//! median), their ratios to this mix by 4–12%. Mixes that did best in
//! one stretch did worse in the other: a pointer chase through a 16-MiB
//! ring with allocations and branches held the first stretch's ratios
//! to 2–3% and the second's to 11–14%; gate-level simulation alone gave
//! 10–14%, a pointer chase alone 13–67%.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::{percentile, process_cpu_ms};

/// The kernel's reference time: about its median wall time in the
/// quietest stretches seen on a shared 2-vCPU Xeon VM at 2.0 GHz
/// (3.7–3.9 ms; 5–6 ms is usual there).
pub const REFERENCE_MS: f64 = 4.0;

/// The kernel's result, the same on every host: the check that it did
/// all of its work.
const CHECKSUM: u64 = 15_047_437_521_748_867_022;

/// Rounds of hashing and sorting per run; keys and values per round.
const HASH_ROUNDS: usize = 4;
const KEYS: usize = 4096;
const VALUES: usize = 2 * KEYS;
/// Random bytes branched on, and passes over them per run.
const BYTES: usize = 1 << 16;
const BRANCH_PASSES: usize = 2;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The kernel's random bytes, drawn once.
struct Kernel {
    bytes: Vec<u8>,
}

impl Kernel {
    fn new() -> Kernel {
        let mut rng = 0x2545_F491_4F6C_DD1D_u64;
        Kernel {
            bytes: (0..BYTES).map(|_| xorshift(&mut rng) as u8).collect(),
        }
    }

    /// One run; returns its checksum.
    fn run(&self) -> u64 {
        let mut sum = 0u64;
        let mut rng = 0x9E37_79B9_7F4A_7C15_u64;
        for _ in 0..HASH_ROUNDS {
            let mut map: HashMap<u64, Vec<u32>> = HashMap::new();
            let mut sorted = Vec::new();
            for _ in 0..VALUES {
                let k = xorshift(&mut rng) % KEYS as u64;
                let v = xorshift(&mut rng);
                map.entry(k).or_default().push(v as u32);
                sorted.push(v);
            }
            sorted.sort_unstable();
            // Order-independent, so the same under any hasher seed.
            let longest = map.values().map(Vec::len).max().unwrap_or(0);
            sum = sum.wrapping_add(map.len() as u64 + longest as u64 + sorted[KEYS]);
        }
        for _ in 0..BRANCH_PASSES {
            for &b in black_box(&self.bytes) {
                if b & 1 == 1 {
                    sum = sum.wrapping_add(u64::from(b) * 3);
                } else if b & 2 == 2 {
                    sum ^= u64::from(b);
                } else {
                    sum = sum.rotate_left(1);
                }
            }
        }
        sum
    }
}

/// The host's slowdown against the reference: wall time (which also
/// counts time the host ran other tenants instead) and CPU time.
#[derive(Debug, Clone, Copy)]
pub struct Slowdown {
    pub wall: f64,
    pub cpu: f64,
}

/// The kernel's runs through one workload run.
pub struct Speed {
    kernel: Kernel,
    /// Copies of the kernel each sample runs at once, one per thread the
    /// workload keeps busy: a workload on two threads runs at the mean
    /// speed of both CPUs, and the host can slow or take away (steal)
    /// either one while the other runs on.
    threads: usize,
    /// Wall milliseconds of each sample (the copies' mean, each timed on
    /// its own thread, so that waking a thread is not counted) and its
    /// process CPU milliseconds per copy.
    wall_ms: Vec<f64>,
    cpu_ms: Vec<f64>,
}

impl Speed {
    pub fn new(threads: usize) -> Speed {
        Speed {
            kernel: Kernel::new(),
            threads: threads.max(1),
            wall_ms: Vec::new(),
            cpu_ms: Vec::new(),
        }
    }

    /// Take `runs` samples; returns the index of the first, which an
    /// operation timed just before them records as its place.
    pub fn sample(&mut self, runs: usize) -> usize {
        let at = self.wall_ms.len();
        let timed = |kernel: &Kernel| {
            let t = Instant::now();
            let sum = black_box(kernel.run());
            assert_eq!(
                sum, CHECKSUM,
                "the reference kernel computed a wrong checksum"
            );
            t.elapsed().as_secs_f64() * 1000.0
        };
        for _ in 0..runs {
            let cpu = process_cpu_ms();
            let kernel = &self.kernel;
            let total_ms: f64 = std::thread::scope(|s| {
                let others: Vec<_> = (1..self.threads)
                    .map(|_| s.spawn(|| timed(kernel)))
                    .collect();
                let own = timed(kernel);
                own + others
                    .into_iter()
                    .map(|h| h.join().expect("a reference-kernel thread panicked"))
                    .sum::<f64>()
            });
            let copies = self.threads as f64;
            self.wall_ms.push(total_ms / copies);
            self.cpu_ms.push((process_cpu_ms() - cpu) / copies);
        }
        at
    }

    /// The slowdown around place `at`: the median over the `reach` runs
    /// before it and the `reach` runs from it on (fewer at either end of
    /// the run).
    pub fn at(&self, at: usize, reach: usize) -> Slowdown {
        let n = self.wall_ms.len();
        assert!(n > 0, "the kernel ran before any slowdown is read");
        let from = at.saturating_sub(reach).min(n - 1);
        let to = (at + reach).clamp(from + 1, n);
        Slowdown {
            wall: percentile(&self.wall_ms[from..to], 50.0) / REFERENCE_MS,
            cpu: percentile(&self.cpu_ms[from..to], 50.0) / REFERENCE_MS,
        }
    }

    /// The report line on the host's speed through the run.
    pub fn summary(&self) -> String {
        let whole = self.at(0, self.wall_ms.len());
        format!(
            "host speed: {} reference-kernel samples on {} thread(s), median {:.3} ms wall and \
             {:.3} ms CPU against {REFERENCE_MS} ms; CPU-bound times are scaled to reference speed",
            self.wall_ms.len(),
            self.threads,
            whole.wall * REFERENCE_MS,
            whole.cpu * REFERENCE_MS,
        )
    }
}
