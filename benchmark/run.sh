#!/usr/bin/env bash
# The benchmark's one command (see ../BENCHMARK.json):
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <n> --trace <0|1>
#
# `--trace 0` (and --selfcheck, --smoke) builds and runs the end-to-end
# binary, which touches the engine through UQL only; `--trace 1` builds and
# runs the layer ladder, which names engine internals. Two binaries, so a
# renamed internal can break the traced run without breaking end-to-end
# measurement.
set -euo pipefail
dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
bin=udf-bench-e2e
prev=
for arg in "$@"; do
    if [ "$prev" = "--trace" ] && [ "$arg" != "0" ]; then
        bin=udf-bench-ladder
    fi
    prev="$arg"
done
exec cargo run --release --offline --quiet \
    --manifest-path "$dir/Cargo.toml" --bin "$bin" -- "$@"
