#!/usr/bin/env bash
# Build the released `td` binary and tdbench, then run tdbench with the
# arguments given. Run from the root of a checkout:
#
#   bash crates/bench/src/bin/tdbench/run.sh --workload serve_hot --seed 1 --seconds 10 --trace 0
#
# Both builds share one target directory, because tdbench looks for `td`
# beside its own executable.
set -euo pipefail
here=crates/bench/src/bin/tdbench
target=${CARGO_TARGET_DIR:-target}
cargo build --release --offline --quiet --target-dir "$target" -p td-cli
cargo build --release --offline --quiet --target-dir "$target" --manifest-path "$here/Cargo.toml"
exec "$target/release/tdbench" "$@"
