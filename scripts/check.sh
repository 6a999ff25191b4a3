#!/usr/bin/env bash
# Tier-1 verify loop, cargo only. The workspace has no registry
# dependencies, so every step runs with --offline:
#
#   rustfmt on every workspace member, build, clippy on all targets,
#   workspace tests (doctests included), the serve tests on one CPU
#   (where the engine starts no helper thread), rustdoc with warnings
#   denied, the benchmark package's API tripwire, the harness-bin smokes
#   (serve_load, serve_adapt, numa_scale, sellc, census at a small
#   scale), spmv-tune on a calibration cut short after its CSR line, and
#   the runtime examples (quickstart asserts its BCSR, BCSR-DEC, BCSD and
#   1D-VBL products against CSR in a release build).
#
# See docs/TESTING.md for what each tier covers.
#
# Usage: scripts/check.sh

set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "== $*" >&2
    "$@"
}

# smoke <results-file> <cargo run args...>: runs a harness bin with
# `--out <results-file>` appended and requires a non-empty results file.
smoke() {
    local out=$1
    shift
    run cargo run --offline --release --quiet "$@" --out "$out" > /dev/null
    test -s "$out" || { echo "check.sh: $out is empty" >&2; exit 1; }
}

run cargo fmt --all --check
run cargo build --offline --release --workspace
run cargo clippy --offline --workspace --all-targets -- -D warnings
run cargo test --offline --workspace --quiet
# One CPU in the affinity mask: `available_parallelism()` is 1, so the
# engine starts no helper and the dispatcher drains every round alone.
run taskset -c 0 cargo test --offline -p spmv-serve --quiet
run env RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace --quiet
# The benchmark is its own package; checking it here makes a facade
# change that would break its command fail tier-1 first.
run cargo check --offline --quiet --manifest-path benchmark/Cargo.toml \
    --target-dir target/benchmark-check

smoke target/serving-smoke.txt --bin serve_load -- --requests 200 --seed 7
smoke target/adaptive-smoke.txt --bin serve_adapt -- --nodes 1200
smoke target/numa-smoke.txt --bin numa_scale -- \
    --flat --threads 2 --n 4000 --reps 5 --trials 2
smoke target/sellc-smoke.txt --bin sellc -- --n 20000 --reps 2 --trials 1
smoke target/census-smoke.txt --bin census -- --scale 0.02 --trials 1 --min-time 0.0002 \
    --profile benchmark/profile.txt

# spmv-tune profiles the kernels a calibration lacks before it selects.
head -n 3 benchmark/profile.txt > target/profile-head.txt
run cargo run --offline --release --quiet --bin spmv-tune -- --suite 5 --scale 0.05 \
    --profile target/profile-head.txt --verify > /dev/null

run cargo run --offline --release --quiet --example quickstart > /dev/null
run cargo run --offline --release --quiet --example parallel_scaling > /dev/null
run cargo run --offline --release --quiet --example batched -- 0.1 > /dev/null

echo "check.sh: OK"
