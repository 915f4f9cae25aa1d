#!/usr/bin/env bash
# Builds the scfbench harness from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash scfbench/run.sh --workload scf-w4-steal --seed 1 --seconds 30 --trace 0
#
# Every file the Go toolchain and the harness write (build cache, binary,
# scratch spools, per-run result and trace files) stays under
# .bench_build/ in the checkout. The build fails, and so does this script,
# when the checkout lacks the program's own sources.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home" "$out/bin"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOENV=off

(cd "$root/scfbench" && go build -o "$out/bin/scfbench" .)
exec "$out/bin/scfbench" "$@"
