#!/usr/bin/env bash
# Builds osrbench from source into .bench_build/ at the checkout root and
# runs it with the given arguments. Everything the go tool writes (build
# cache, module path, telemetry counters) is kept under .bench_build/ so a
# run reads and writes only inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/home"
HOME="$build/home" GOPATH="$build/gopath" GOCACHE="$build/gocache" \
GOFLAGS= GOTOOLCHAIN=local \
	go -C "$here" build -o "$build/osrbench" .
cd "$root"
exec "$build/osrbench" "$@"
