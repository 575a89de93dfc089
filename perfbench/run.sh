#!/usr/bin/env bash
# Builds the benchmark from the sources in the current directory (the
# repository root) and runs it, passing every argument through:
#
#   bash perfbench/run.sh --workload fig5_dpt --seed 1 --seconds 35 --trace 0
#
# The Go build cache, the binary and the traced run's spans and profiles
# all stay under .bench_build in the current directory.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
  XDG_CONFIG_HOME="$out/config" GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=
# Telemetry off: go would otherwise start a child process that can
# outlive the build.
go telemetry off
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
