#!/usr/bin/env bash
# Builds perfbench from the sources of this checkout and runs it with the
# given arguments, from the checkout root:
#
#   bash perfbench/run.sh --workload bt_batch --seed 1 --seconds 20 --trace 0
#
# It also builds the race-detector binary that bt_batch's race probe runs.
# The Go build cache, the binaries, temp files and traces all stay under
# .bench_build in the checkout. Outside a full checkout (no ../go.mod for
# the replace directive) the build fails and the script exits non-zero
# without printing a result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" . && go build -race -o "$out/perfbench-race" .)
exec "$out/perfbench" "$@"
