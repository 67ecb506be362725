#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, keeping
# every build and run artifact under the build directory:
#
#   bash perfbench/run.sh --workload gups32 --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The build directory is $CARGO_TARGET_DIR
# when set (relative to the root), else .bench_build.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp TMPDIR=$out/tmp \
	HOME=$out/home XDG_CONFIG_HOME=$out/home GOPATH=$out/home/go \
	GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -workdir "$out/tmp" "$@"
