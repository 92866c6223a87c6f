#!/usr/bin/env bash
# Builds smoothbench from this checkout's sources and runs it from the
# checkout root; every argument is passed through (see README.md).
# Build outputs, the Go build cache, journals and span dumps all stay
# in .bench_build at the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$out/smoothbench" .)
cd "$root"
exec "$out/smoothbench" --workdir "$out" "$@"
