#!/usr/bin/env bash
# Builds the end-to-end benchmark and the genserve binary from the source
# tree under the current directory, then runs the benchmark with the given
# arguments. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload paper-validate --seed 1 --trace 0
#   bash e2ebench/run.sh steady --workload all --runs 10
#   bash e2ebench/run.sh summary --trace-file .bench_build/trace/gen-ingest-seed1.json
#   bash e2ebench/run.sh selftest
#
# A run measures for run_seconds of BENCHMARK.json unless --seconds is given.
# Everything the build and the runs leave behind goes to .bench_build/:
# the Go build cache, the two binaries, scratch output and trace files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off GOENV=off

# The benchmark module replaces kronvalid with the tree one level up, so a
# directory without the program fails here and exits nonzero.
(
	cd "$root/e2ebench"
	go build -o "$out/bin/e2ebench" .
	go build -o "$out/bin/genserve" kronvalid/cmd/genserve
) >&2

exec "$out/bin/e2ebench" "$@"
