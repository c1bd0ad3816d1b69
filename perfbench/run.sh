#!/usr/bin/env bash
# Builds cmd/shiftd and the benchmark from the checkout in the current
# directory, then runs one benchmark workload. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload serve-small --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache, temporary files and traces all go to
# .bench_build/ in the checkout, so the benchmark writes nothing outside it.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off GOENV=off
# With telemetry in its default "local" mode, the first go command under a
# fresh config directory starts a detached (setsid) telemetry sidecar that
# outlives this script. Turning telemetry off before any go command runs
# keeps the benchmark from leaving a process behind.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off\n' > "$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$out/shiftd" ./cmd/shiftd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -shiftd "$out/shiftd" -out "$out" "$@"
