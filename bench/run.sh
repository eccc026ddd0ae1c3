#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Everything the build and the run write — Go's build cache
# and temp files, the binary, the WAL directories of the run — stays under
# .bench_build/ at the root of the checkout.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/squirrel-bench" .)
cd "$root"
TMPDIR="$build/tmp" exec "$build/squirrel-bench" "$@"
