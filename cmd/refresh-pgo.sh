#!/usr/bin/env bash
# Usage: bash cmd/refresh-pgo.sh [out dir]
#
# Regenerates the CPU profiles that `go build` compiles the two binaries
# with: Go's default -pgo=auto reads a main package's default.pgo, so
# cmd/streamsched/default.pgo guides every build of the CLI and
# cmd/streamschedd/default.pgo every build of the daemon. Both are drawn
# from the seven bundled workloads only:
#
#   - the CLI's profile merges one -cpuprofile per measuring verb and
#     workload: misscurve over an LRU+FIFO organisation grid, hier and
#     shared -P 4 over set-associative and fully-associative L1/L2 grids,
#     and simulate;
#   - the daemon's is its own /debug/pprof/profile, taken while
#     `streamschedd loadtest` drives it with profile and plan requests,
#     cold (each distinct body's first request computes; the small cache
#     evicts them between rounds) and warm (the loadtest's measured phase
#     hits).
#
# The binaries profiled are built with -pgo=off, so a refresh depends on
# the source alone, not on the profiles it replaces. With an out dir the
# two profiles are written there (streamsched.pgo, streamschedd.pgo) and
# the committed ones are left alone. Needs curl; takes ~25 s on 2 vCPUs.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cli_out=$root/cmd/streamsched/default.pgo
daemon_out=$root/cmd/streamschedd/default.pgo
if (($# > 0)); then
  mkdir -p "$1"
  cli_out=$(cd "$1" && pwd)/streamsched.pgo
  daemon_out=$(cd "$1" && pwd)/streamschedd.pgo
fi
workloads=(fmradio filterbank beamformer fft bitonic des mp3)
# How long the daemon is profiled; loadtest rounds run until it ends.
daemon_seconds=12

work=$(mktemp -d)
daemon=
cleanup() {
  if [[ -n $daemon ]]; then kill "$daemon" 2>/dev/null || true; fi
  rm -rf "$work"
}
trap cleanup EXIT
cd "$root"
go build -pgo=off -o "$work/" ./cmd/streamsched ./cmd/streamschedd

n=0
profile() { # <verb> <args...>: one CLI run under -cpuprofile
  local verb=$1
  shift
  n=$((n + 1))
  "$work/streamsched" "$verb" -cpuprofile "$work/cli-$n.pprof" "$@" >/dev/null
}
for w in "${workloads[@]}"; do
  g=$work/$w.json
  "$work/streamsched" export -workload "$w" -o "$g"
  profile misscurve -M 512 -B 16 -sched all -caps 256,512,1k,2k,4k -ways 1,2,4,8,full -policy both "$g"
  profile hier -M 512 -B 16 -sched all -l1caps 256,512,1k -l1ways 1,2,full -l2caps 2k,4k,8k,16k -l2ways 4,8,full "$g"
  # shared refuses filterbank: it is neither homogeneous nor a pipeline.
  [[ $w == filterbank ]] || profile shared -M 512 -B 16 -P 4 -l1caps 256,512,1k -l1ways 2,full -l2caps 2k,4k,8k,16k -l2ways 8,full "$g"
  profile simulate -M 512 -B 16 -cache 1024 -sched partitioned "$g"
done
go tool pprof -proto "$work"/cli-*.pprof >"$cli_out" 2>/dev/null
echo "refresh-pgo: $cli_out from $n CLI runs"

"$work/streamschedd" -listen 127.0.0.1:0 -cachebytes 256k 2>"$work/daemon.log" &
daemon=$!
addr=
for _ in $(seq 100); do
  addr=$(sed -n 's|.*listening on \(http://[^ ]*\).*|\1|p' "$work/daemon.log")
  [[ -n $addr ]] && break
  sleep 0.1
done
[[ -n $addr ]] || { cat "$work/daemon.log" >&2; exit 1; }
curl -fsS -o "$work/daemon.pprof" "$addr/debug/pprof/profile?seconds=$daemon_seconds" &
pprof=$!
rounds=0
while kill -0 "$pprof" 2>/dev/null; do
  for w in "${workloads[@]}"; do
    "$work/streamschedd" loadtest -addr "$addr" -kind profile -workload "$w" -distinct 24 -c 2 -n 2000 -warm 512 -measure 2560 >/dev/null
    "$work/streamschedd" loadtest -addr "$addr" -kind plan -workload "$w" -distinct 8 -c 2 -n 2000 >/dev/null
  done
  rounds=$((rounds + 1))
done
wait "$pprof"
kill -TERM "$daemon"
wait "$daemon"
daemon=
go tool pprof -proto "$work/daemon.pprof" >"$daemon_out" 2>/dev/null
echo "refresh-pgo: $daemon_out from $rounds loadtest rounds"
