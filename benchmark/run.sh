#!/usr/bin/env bash
# Measure one result set: every workload, untraced, REPS times with
# seeds SEED, SEED+1, ... and then one traced pass with SEED.
#
#   benchmark/run.sh <label> [reps=10] [seed=1] [seconds=10]
#
# Result files land in benchmark/out/<label>/, trace files in
# benchmark/out/. Compare two sets (say, the parent commit's and this
# one's, each measured with its own checkout's run.sh) with
#
#   cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
#       compare benchmark/out/<label-a> benchmark/out/<label-b>
#
# Alternate which side runs first when measuring a pair of commits.
set -euo pipefail
label=${1:?usage: benchmark/run.sh <label> [reps] [seed] [seconds]}
reps=${2:-10}
seed=${3:-1}
seconds=${4:-10}
here=$(cd "$(dirname "$0")" && pwd)
out="$here/out/$label"

cargo build --release --offline --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/dg-benchmark"
for ((i = 0; i < reps; i++)); do
    "$bin" run --workload all --seed $((seed + i)) --seconds "$seconds" --trace 0 --out "$out"
done
"$bin" run --workload all --seed "$seed" --seconds "$seconds" --trace 1 --out "$out"
echo "result set: $out"
