#!/usr/bin/env bash
# Builds shapesold and the benchmark from this checkout, then runs it.
#
#   bash perfbench/run.sh --workload construct|count|serve|cluster|all \
#       --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build/ at the
# root of the checkout (Go build cache included).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# With telemetry on, the go command forks a detached child that outlives this
# script; turning it off for this config dir keeps every process ours.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off' > "$XDG_CONFIG_HOME/go/telemetry/mode"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/shapesold" ]]; then
  echo "perfbench: no shapesol module at $root" >&2
  exit 1
fi
(cd "$root" && go build -o "$out/shapesold" ./cmd/shapesold) >&2
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" -out "$out" -daemon "$out/shapesold" "$@"
