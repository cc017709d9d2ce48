#!/usr/bin/env bash
# Builds the benchmark package offline (release) and runs it with the given
# arguments. Works from any directory; build output goes to stderr so the
# result object stays the last line of stdout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/benchmark" "$@"
