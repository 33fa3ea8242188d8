#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it is run from (the
# repository root) and runs it with the given arguments, for example:
#
#   bash perfbench/run.sh --workload replay-db2 --seed 7 --seconds 15 --trace 0
#
# The build cache, the binary and the generated trace files all go under
# .bench_build/ in that directory; nothing is fetched.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
