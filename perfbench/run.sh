#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload allreduce-small --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, Go telemetry)
# stays under $CARGO_TARGET_DIR, default .bench_build, at the checkout root.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOMODCACHE="$out/go-path/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
