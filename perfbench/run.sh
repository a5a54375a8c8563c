#!/usr/bin/env bash
# Builds the benchmark and the mobiserve server from the checkout it is
# run in, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload ingest-live --seed 1 --seconds 15 --trace 0
#
# Run it from the root of the repository. Every build artifact, Go
# cache and scratch file stays under .bench_build/ in that root.
set -euo pipefail
root=$(pwd)
src=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$src" && go build -o "$out/bin/perfbench" . && go build -o "$out/bin/mobiserve" mobipriv/cmd/mobiserve)
exec "$out/bin/perfbench" -mobiserve "$out/bin/mobiserve" -workdir "$out/work" "$@"
