#!/usr/bin/env bash
# Offline CI gate for the hlts workspace. No network access is assumed
# (or possible): every dependency is an in-tree path crate, so the
# whole gate runs with --offline.
set -euo pipefail
cd "$(dirname "$0")"

export CARGO_NET_OFFLINE=true

# The merge_loop, warm-start, serve and tcov benches write this host's
# figures to BENCH_*.json at the repository root, over the committed
# copies. When the script exits, passing or failing, move what they
# wrote to target/ci/ and put the committed copies back, so a run on a
# clean checkout leaves the working tree clean.
BENCH_FILES=(BENCH_arena.json BENCH_warmstart.json BENCH_serve.json BENCH_tcov.json)
BENCH_SAVED=$(mktemp -d)
for f in "${BENCH_FILES[@]}"; do
  if [ -e "$f" ]; then cp -p "$f" "$BENCH_SAVED/"; fi
done
restore_bench_files() {
  mkdir -p target/ci
  for f in "${BENCH_FILES[@]}"; do
    if [ -e "$f" ] && ! cmp -s "$f" "$BENCH_SAVED/$f"; then
      mv "$f" "target/ci/$f"
    fi
    if [ -e "$BENCH_SAVED/$f" ]; then cp -p "$BENCH_SAVED/$f" "$f"; fi
  done
  rm -rf "$BENCH_SAVED"
}
trap restore_bench_files EXIT

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo build --release"
cargo build --release --workspace --offline

echo "==> cargo test -q"
cargo test -q --workspace --offline

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo doc -D warnings (no broken or private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> fault-injection suites (test-faults feature)"
cargo test -q -p hlts-core --features test-faults --offline
cargo test -q -p hlts-dse --features test-faults --offline
cargo test -q -p hlts-jobs --features test-faults --offline

echo "==> conformance harness meta-test (broken engine must be caught)"
cargo test -q -p hlts-gen --features test-faults --offline

echo "==> conformance smoke: 32 generated graphs x 4 engine pairs (release)"
cargo test -q --release --offline --test conformance -- --ignored conformance_ci_smoke

echo "==> conformance full sweep: 128 generated graphs (release)"
cargo test -q --release --offline --test conformance -- --ignored conformance_full_sweep

echo "==> tcov conformance matrix: 4 paper benchmarks + 32 generated graphs (release)"
cargo test -q --release --offline --test tcov_conformance -- --ignored

echo "==> PODEM reference matrix: 4 paper benchmarks + 32 generated graphs at 2-4 bits + the graded-run corpus, free and every control preset (release)"
cargo test -q --release --offline --test podem_reference -- --ignored

echo "==> floorplan reference matrix: 6 paper benchmarks + 32 generated graphs, every priced state and trial (release)"
cargo test -q --release --offline -p hlts-cost --test floorplan_reference -- --ignored

echo "==> structural data path matrix: equals the full lowering on every committed state and pair trial (release)"
cargo test -q --release --offline --test structural_path -- --ignored

echo "==> SR2 equivalence matrix: the merge loop agrees with the full-merit oracle (release)"
cargo test -q --release --offline -p hlts-core --test sr2_equivalence -- --ignored

echo "==> table coverage pins: full-size paper-table rows (release)"
cargo test -q --release --offline --test table_coverage -- --ignored

echo "==> perf benchmark smoke: builds against the library APIs, every workload at smoke scale"
# perf/ is a package of its own (outside the workspace), so the
# workspace build above never compiles it.
cargo test -q --offline --manifest-path perf/Cargo.toml

echo "==> bench smoke: testability solvers (dense == worklist, bit for bit)"
cargo bench -q --bench testability --offline

echo "==> bench smoke: merge-loop txn-vs-clone + arena speedup gates"
cargo bench -q --bench merge_loop --offline

echo "==> zero-allocation gate: steady-state trial merges (count-allocs)"
cargo test -q --release --offline --features count-allocs --test zero_alloc

echo "==> bench smoke: dse parallel-explore gate"
cargo bench -q --bench dse --offline

echo "==> bench smoke: warm-start replay gate (bit-identity + nonzero replay + speedup)"
cargo bench -q --bench warmstart --offline

echo "==> serve smoke: 3 jobs (one cancelled) over stdin, bad bytes, clean shutdown"
# One worker: job 1 (a multi-second ewf sweep: 144 points, ~5 s on a
# 2-vCPU VM, sized to outlast the one-second pause below by a wide
# margin) is claimed first, so
# jobs 2 and 3 are deterministically still queued when the cancel for
# job 2 arrives (-> dequeued). A line that is not UTF-8 and a line
# over the daemon's 8 MiB line cap each get an error answer and count
# as malformed, and the daemon keeps serving. After a one-second
# pause — enough for the worker to be mid-sweep, far from done —
# shutdown lets the running sweep finish and cancels the still-queued
# job 3: the graceful-drain contract, asserted line by line below.
SERVE_OUT=$(
  {
    printf '%s\n' \
      '{"op":"submit","id":"s1","job":{"kind":"explore","sources":["bench:ewf"],"ks":[1,2,3,4,5,6],"weights":[[2,1],[10,1],[1,10],[1,1],[5,1],[1,5]],"bits":[4,8,16,32]}}' \
      '{"op":"submit","id":"s2","job":{"kind":"run","source":"bench:ex"}}' \
      '{"op":"submit","id":"s3","job":{"kind":"gen","seed":7}}' \
      '{"op":"cancel","job":2}'
    printf '\xff\xfe\n'
    head -c $((8 * 1024 * 1024 + 1)) /dev/zero | tr '\0' x
    printf '\n%s\n' '{"op":"status","id":"health"}'
    sleep 1
    printf '%s\n' '{"op":"shutdown","id":"bye"}'
  } | ./target/release/hlts serve --workers 1 --queue 8
)
for want in \
  '"id": "s1", "job": 1' \
  '"id": "s2", "job": 2' \
  '"id": "s3", "job": 3' \
  '"cancel": "dequeued"' \
  '"id": "health"' \
  '"event": "done", "job": 1' \
  '"event": "cancelled", "job": 2' \
  '"event": "cancelled", "job": 3' \
  '"malformed_requests": 2' \
  '"shutdown": true'
do
  if ! grep -qF "$want" <<<"$SERVE_OUT"; then
    echo "serve smoke: missing '$want' in daemon output:" >&2
    echo "$SERVE_OUT" >&2
    exit 1
  fi
done
if [ "$(grep -cF '"ok": false' <<<"$SERVE_OUT")" != 2 ]; then
  echo "serve smoke: expected exactly 2 error answers (bad bytes, over-cap line):" >&2
  echo "$SERVE_OUT" >&2
  exit 1
fi

echo "==> bench smoke: serve warm-vs-cold request gate"
cargo bench -q --bench serve --offline

echo "==> bench smoke: tcov grade phases on ewf@8 (pinned report signature)"
cargo bench -q --bench tcov --offline

echo "==> explore --atpg smoke: graded front, journaled coverage, resume identity"
TCOV_JOURNAL=$(mktemp)
GRADED_1=$(./target/release/hlts explore bench:ex --k 1,2 --bits 4 --atpg \
  --fault-sample 300 --journal "$TCOV_JOURNAL" --quiet)
if ! grep -qF ' cov=' "$TCOV_JOURNAL"; then
  echo "explore --atpg smoke: journal has no coverage pair:" >&2
  cat "$TCOV_JOURNAL" >&2
  exit 1
fi
GRADED_2=$(./target/release/hlts explore bench:ex --k 1,2 --bits 4 --atpg \
  --fault-sample 300 --resume "$TCOV_JOURNAL" --quiet)
if ! grep -qF ' (0 computed' <<<"$GRADED_2"; then
  echo "explore --atpg smoke: resume recomputed journaled points: $GRADED_2" >&2
  exit 1
fi
if [ "${GRADED_1##*front: }" != "${GRADED_2##*front: }" ]; then
  echo "explore --atpg smoke: resumed front diverged:" >&2
  echo "  fresh:   $GRADED_1" >&2
  echo "  resumed: $GRADED_2" >&2
  exit 1
fi
GRADED_JSON=$(./target/release/hlts explore bench:ex --k 1,2 --bits 4 --atpg \
  --fault-sample 300 --resume "$TCOV_JOURNAL" --json)
if ! grep -qF '"coverage":' <<<"$GRADED_JSON"; then
  echo "explore --atpg smoke: JSON front has no coverage objective" >&2
  exit 1
fi
rm -f "$TCOV_JOURNAL"

echo "==> warm-start identity sweep: 4 paper benchmarks + 32 generated graphs, --jobs 1 and 4"
# The acceptance criterion verbatim: --warm-start on reports the same
# front signature as off, at any worker count and on every source —
# paper benchmarks and generated workloads alike.
WARM_DIR=$(mktemp -d)
warm_identity() {
  local source=$1 label=$2
  local cold warm1 warm4
  cold=$(./target/release/hlts explore "$source" --k 2 \
    --weights 2:1,2:1.05,1:10 --quiet --warm-start off)
  warm1=$(./target/release/hlts explore "$source" --k 2 \
    --weights 2:1,2:1.05,1:10 --quiet --warm-start on --jobs 1)
  warm4=$(./target/release/hlts explore "$source" --k 2 \
    --weights 2:1,2:1.05,1:10 --quiet --warm-start on --jobs 4)
  if [ "${cold##*front: }" != "${warm1##*front: }" ] \
    || [ "${cold##*front: }" != "${warm4##*front: }" ]; then
    echo "warm-start identity: $label diverged:" >&2
    echo "  cold:         $cold" >&2
    echo "  warm --jobs 1: $warm1" >&2
    echo "  warm --jobs 4: $warm4" >&2
    exit 1
  fi
}
for b in ex dct diffeq tseng; do
  warm_identity "bench:$b" "bench:$b"
done
for seed in $(seq 0 31); do
  ./target/release/hlts gen --seed "$seed" --out "$WARM_DIR/g$seed.dfg"
  warm_identity "$WARM_DIR/g$seed.dfg" "generated seed $seed"
done
rm -rf "$WARM_DIR"

echo "==> OK: build + tests + clippy + bench smoke all green"
