#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs it; every argument is passed on (see main.go). Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload smp_parallel --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and traced-run spans all stay under
# .bench_build/ in the current directory.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local \
	GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
