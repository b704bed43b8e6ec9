#!/usr/bin/env bash
# Builds coordperf from source and runs it. Run from the repository root:
#
#   bash coordperf/run.sh --workload hot-read --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory (Go build cache, Go's own config and telemetry, the
# binary, scratch daemon directories, span dumps).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal/service" ]]; then
	echo "coordperf: run from the repository root (no go.mod or internal/service here)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gomodcache" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/coordperf" && go build -o "$out/coordperf" .)
exec "$out/coordperf" --root "$root" --scratch "$out/runs" "$@"
