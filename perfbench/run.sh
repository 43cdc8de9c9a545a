#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
#
#   bash perfbench/run.sh --workload contended --seed 42 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# repository root: the Go build cache, temporary files, the binary, run
# records and spans. The build fails, and nothing is run, unless the
# repository's own Go module is present next to perfbench/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out=".bench_build/perfbench"
mkdir -p "$out/tmp" ".bench_build/gotmp"

export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export GOMODCACHE="$root/.bench_build/gomodcache"
# The go command's own config and telemetry live under the user config dir.
export XDG_CONFIG_HOME="$root/.bench_build/config"
export GOTMPDIR="$root/.bench_build/gotmp"
export TMPDIR="$root/.bench_build/gotmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd perfbench && go build -o "$root/$out/perfbench" .)

if [ -d .git ] && commit="$(git rev-parse HEAD 2>/dev/null)"; then
	git diff --quiet HEAD -- 2>/dev/null || commit="$commit-dirty"
	export PERFBENCH_COMMIT="$commit"
fi

exec "$out/perfbench" --out "$out" "$@"
