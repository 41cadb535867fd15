#!/usr/bin/env bash
# The one command: release build, four untraced runs, four traced runs, and
# a merged results file with the hardware, thread count, commit and seed in
# its header.
#
#   run.sh [--quick] [seed] [results.json]
#
# Run it from the directory that should receive `.grbench/` (result files,
# traces) — normally the repository root. Compare two result files of one
# seed with `grbench --check a.json b.json`.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
quick=()
if [[ "${1:-}" == "--quick" ]]; then
    quick=(--quick)
    shift
fi
seed="${1:-1}"
out="${2:-results.json}"
seconds=20 # BENCHMARK.json's run_seconds

cargo build --release --offline --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/grbench"

workloads=(rmat-dense grid-sparse rmat-zeta serve)
for trace in 0 1; do
    for w in "${workloads[@]}"; do
        echo "== $w --trace $trace" >&2
        "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" "${quick[@]}"
    done
done

cores="$(nproc)"
threads=$((cores <= 1 ? 1 : (cores > 4 ? 4 : cores - 1))) # main.rs: one core left spare
cpu="$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -n 1)"
commit="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"
{
    printf '{"schema": "grbench-v1", "commit": "%s", "seed": %s, "nproc": %s, "cpu": "%s", "threads": %s,\n "runs": [\n' \
        "$commit" "$seed" "$cores" "$cpu" "$threads"
    sep=""
    for trace in 0 1; do
        for w in "${workloads[@]}"; do
            printf '%s' "$sep"
            tr -d '\n' <".grbench/$w.trace$trace.json"
            sep=$',\n'
        done
    done
    printf '\n]}\n'
} >"$out"
echo "wrote $out" >&2
