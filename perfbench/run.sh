#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload attack --seed 1 --seconds 10 --trace 0
#
# The binary and Go's build cache live in .bench_build, so a run reads and
# writes nothing outside the checkout. The build fails, and the script
# exits non-zero without a result, when the repository's sources are
# missing.
set -euo pipefail

root=$(pwd)
out=$root/.bench_build
mkdir -p "$out"
export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
