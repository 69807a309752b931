#!/usr/bin/env bash
# Builds ftrmark from source and runs it with the given arguments.
# Everything the go tool writes (build cache, module cache, work
# directories, its own config) stays under .bench_build/ at the root of
# the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/home" "$build/tmp"
(
	cd "$here"
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
		GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
		GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off \
		go build -o "$build/ftrmark" .
)
exec "$build/ftrmark" "$@"
