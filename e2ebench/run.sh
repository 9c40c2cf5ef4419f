#!/usr/bin/env bash
# Builds mfpd from the tree under test and the e2ebench program, then runs
# the benchmark with the given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload tenants-100 --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory, the Go build cache and the go command's own config
# directory included, so the first run in a fresh checkout compiles the
# standard library.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/mfpd || ! -d e2ebench ]]; then
	echo "e2ebench: run from the repository root (go.mod, cmd/mfpd and e2ebench/ must be here)" >&2
	exit 2
fi
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/mfpd" ./cmd/mfpd
(cd e2ebench && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -mfpd "$out/mfpd" -work-dir "$out" "$@"
