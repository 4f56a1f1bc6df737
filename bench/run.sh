#!/usr/bin/env bash
# Builds meadbench from source into .bench_build/ at the root of the checkout
# and runs it there. Everything the go toolchain writes (build cache, module
# cache, telemetry, temp files) is pointed inside .bench_build/, so a run
# reads and writes only inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/bench" && go build -o "$build/meadbench" .)
cd "$root"
exec "$build/meadbench" "$@"
