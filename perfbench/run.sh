#!/usr/bin/env bash
# Builds the hosted-path benchmark from the checkout's sources and runs it.
# Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload scan-local --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --compare A.json B.json
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal/compman ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the root of a gupt checkout (go.mod, internal/ and perfbench/ are required)" >&2
	exit 2
fi

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
# The go command keeps its caches, module path and telemetry counters under
# these; pointing them into the checkout keeps every write inside it.
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

# Rebuild only when a Go source is newer than the binary: rewriting it on
# every run would leave megabytes of dirty pages to be flushed during a
# later run's measurement. After a build, flush them before measuring.
bin="$build/perfbench"
if [ ! -x "$bin" ] || [ -n "$(find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod -o -name go.sum \) -newer "$bin" -print -quit)" ]; then
	(cd perfbench && go build -o "$bin" .)
	sync -f "$build"
fi
exec "$bin" --root "$root" "$@"
