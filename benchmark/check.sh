#!/usr/bin/env bash
# Lints, tests and smoke-runs the benchmark crate. The root CI and the
# root .gitignore do not reach this nested workspace, so this script is
# its gate: run it from anywhere before committing a change under
# benchmark/.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline -q
# Every workload end to end and traced, one second each: checks the
# plumbing and the output checks, not the numbers.
cargo run --release --offline --quiet -- run --seconds 1 --traced --out out/smoke.json
cargo run --release --offline --quiet -- compare out/smoke.json out/smoke.json
