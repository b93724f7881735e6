#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark and the two
# server binaries from the checkout's own source, then runs one benchmark
# run. Everything it writes stays under .bench_build/ (build cache, temp
# files, binaries) and bench/out/ (span files) inside the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/home"

# Keep the Go toolchain's side effects (build cache, module cache,
# telemetry counters, temp work dirs) inside the checkout.
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOFLAGS="-buildvcs=false"
export GOTOOLCHAIN=local
export GOPROXY=off
export TMPDIR="$build/tmp"
# Without this the go command starts a telemetry child that outlives it.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"

# Rebuild when a source file is newer than the last build (a fresh checkout
# has no stamp, so its first run builds).
stamp="$build/bin/.stamp"
if [ ! -e "$stamp" ] || [ -n "$(find "$root/go.mod" "$root/cmd" "$root/internal" "$root/bench" \
	\( -name '*.go' -o -name go.mod \) -newer "$stamp" -print -quit)" ]; then
	(cd "$root" && go build -o "$build/bin/" ./cmd/polygamyd ./cmd/polygamyr)
	(cd "$root/bench" && go build -o "$build/bin/polygamy-bench" .)
	touch "$stamp"
fi

cd "$root"
exec "$build/bin/polygamy-bench" -bin "$build/bin" "$@"
