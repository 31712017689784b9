#!/usr/bin/env bash
# Builds the daemon and the benchmark from the checkout and runs one
# benchmark pass. Run it from the repository root:
#
#   bash perfbench/run.sh --workload ingest_1q --seed 1 --seconds 10 --trace 0
#
# Everything it writes (Go build cache, binaries, data directories, spans)
# stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/rpaiserver" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the repository root (cmd/rpaiserver not found)" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/rpaiserver" ./cmd/rpaiserver >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2

commit=unknown
if [[ -d "$root/.git" ]]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$out/perfbench" -server "$out/rpaiserver" -work "$out" -commit "$commit" "$@"
