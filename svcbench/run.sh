#!/usr/bin/env bash
# Build wsflowd and the benchmark from source, then run the benchmark.
#
#   bash svcbench/run.sh --workload <name|all> --seed N --seconds S --trace <0|1>
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default: target); the daemon's logs, spans.ndjson files and the
# steadiness-guard records go to $CARGO_TARGET_DIR/svcbench.
set -euo pipefail

target="${CARGO_TARGET_DIR:-target}"
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path Cargo.toml --bin wsflowd >&2
cargo build --release --offline --quiet --manifest-path svcbench/Cargo.toml >&2

exec "$target/release/svcbench" "$@" --daemon "$target/release/wsflowd" --out "$target/svcbench"
