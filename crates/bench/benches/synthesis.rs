//! Bench: runtime of the synthesis flows on the six benchmarks.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hlts_bench::Flow;

fn flows(c: &mut Criterion) {
    let mut group = c.benchmark_group("synthesis");
    group.sample_size(10);
    for (name, dfg) in hlts_benchmarks::all() {
        for flow in Flow::all() {
            group.bench_with_input(
                BenchmarkId::new(flow.label().replace(' ', "_"), name),
                &dfg,
                |b, dfg| b.iter(|| flow.run(dfg, 8).expect("synthesis succeeds")),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, flows);
criterion_main!(benches);
