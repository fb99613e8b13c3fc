#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every build and
# run artifact under .bench_build/ at the repository root:
#
#   bash perfbench/run.sh --workload small-cells --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. Without the repository's sources next
# to perfbench/ the build fails and the script exits non-zero without
# printing a result.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

# The Go toolchain's caches, temp files and user config (telemetry
# included) all stay inside the checkout; nothing is fetched.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOFLAGS=

go -C "$root/perfbench" build -o "$build/perfbench" .
cd "$root"
exec "$build/perfbench" "$@"
