#!/usr/bin/env bash
# Build the wall-clock benchmark from this checkout, then run it:
#
#   bash wallbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. The build goes to $CARGO_TARGET_DIR
# (default .bench_build); see wallbench/README.md for the workloads and metrics.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2
exec "$target/release/wallbench" "$@"
