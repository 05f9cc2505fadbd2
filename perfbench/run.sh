#!/usr/bin/env bash
# Builds the ccsched benchmark from the checkout's source and runs it.
# Run from the root of a ccsched checkout:
#
#   bash perfbench/run.sh --workload ptas-deck --seed 1 --seconds 20 --trace 0
#
# Everything the build leaves behind (Go build cache, temp files, the
# binary) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/ccsched.go" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a ccsched checkout (go.mod, ccsched.go and perfbench/ required)" >&2
	exit 2
fi

build=${CARGO_TARGET_DIR:-.bench_build}
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -trimpath -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
