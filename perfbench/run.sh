#!/usr/bin/env bash
# Runs the casyn benchmark from the repository root, building it first
# when the binary is missing or older than any source it is built from:
#
#   bash perfbench/run.sh --workload spla-edge --seed 23322 --seconds 30 --trace 0
#
# `cargo run` is not used because the serve crate's build script watches
# `.git/HEAD`; in a tree without `.git` that makes cargo rebuild the crate
# on every invocation.
set -euo pipefail
target="${CARGO_TARGET_DIR:-perfbench/target}"
bin="$target/release/casyn-perfbench"
sources=(Cargo.toml Cargo.lock crates vendor perfbench/Cargo.toml perfbench/Cargo.lock perfbench/src)
if [[ ! -x "$bin" ]] || [[ -n "$(find "${sources[@]}" -newer "$bin" -print -quit)" ]]; then
    cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
fi
exec "$bin" "$@"
