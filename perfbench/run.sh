#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it, passing every argument through. Run from the repository root:
#
#   bash perfbench/run.sh --workload train-lenet-coarse --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache, the compiler's temporary files and the
# go command's own state (HOME and XDG_CONFIG_HOME point into it for the
# build) stay in .bench_build at the root; nothing is fetched.
set -euo pipefail
root=$PWD
out=$root/.bench_build
mkdir -p "$out/cache" "$out/tmp" "$out/mod" "$out/home/.config"
(
	cd "$root/perfbench"
	export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
		GOCACHE="$out/cache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/mod" \
		GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
	go build -o "$out/perfbench" .
) >&2
exec "$out/perfbench" "$@"
