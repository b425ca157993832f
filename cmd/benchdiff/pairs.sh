#!/usr/bin/env bash
# Usage: bash cmd/benchdiff/pairs.sh <base tree> <head tree> <workload>
# Adds 5 pairs of bench/run.sh runs (seed = pair index, the first side
# alternating) to bench-pairs/<workload>/ and gates them all with benchdiff.
set -euo pipefail
pairs=5
declare -A trees=([base]=$(cd "$1" && pwd) [head]=$(cd "$2" && pwd))
out=$PWD/bench-pairs/$3 && mkdir -p "$out"
have=$(find "$out" -name 'base-*.json' | wc -l)
for ((seed = have + 1; seed <= have + pairs; seed++)); do
  order=(base head) && ((seed % 2)) || order=(head base)
  for side in "${order[@]}"; do
    line=$(cd "${trees[$side]}" && bash bench/run.sh --workload "$3" --seed "$seed" | tail -n 1)
    first=false && [[ $side == "${order[0]}" ]] && first=true
    printf '{"side":"%s","workload":"%s","seed":%d,"ran_first":%s,"result":%s}\n' "$side" "$3" "$seed" "$first" "$line" >"$out/$side-$(printf %03d "$seed").json"
  done
done
cd "$(dirname "$0")/../.." && go run ./cmd/benchdiff -json "$out.json" "$out"/*.json
