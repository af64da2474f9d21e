#!/usr/bin/env bash
# Builds pinum-serve and the benchmark from the enclosing checkout, then
# runs one workload (or all) and prints the result line last:
#
#   bash e2ebench/run.sh --workload whatif-hot --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write — Go build cache, binaries,
# the servers' snapshot stores — stays under .bench_build/ in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp" "$out/home" "$out/work"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	HOME="$out/home" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

cd "$root/e2ebench"
go build -o "$out/bin/pinum-serve" github.com/pinumdb/pinum/cmd/pinum-serve >&2
go build -o "$out/bin/e2ebench" . >&2
cd "$root"
exec "$out/bin/e2ebench" --server "$out/bin/pinum-serve" --workdir "$out/work" "$@"
