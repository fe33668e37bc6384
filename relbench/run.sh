#!/usr/bin/env bash
# Builds relbench, relserver and relsnap from the working tree into
# .bench_build/bin, then runs relbench with the given arguments:
#
#   bash relbench/run.sh --workload hit-hot --seed 1 --seconds 12 --trace 0
#   bash relbench/run.sh steady --workload miss-six --runs 10 --seconds 12
#
# Run it from the repository root. Everything the build and the runs write
# stays under .bench_build: the Go build cache, binaries, scratch files,
# spans and cached references.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/relbench" && go build -o "$out/bin/" . relcomp/cmd/relserver relcomp/cmd/relsnap) >&2
exec "$out/bin/relbench" "$@" --bin "$out/bin" --work "$out"
