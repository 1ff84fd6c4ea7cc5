#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout and runs it:
#
#   bash e2ebench/run.sh --workload meta_mix --seed 1 --seconds 10 --trace 0
#
# Every build and run artefact (Go build cache, the binary, the server's
# vaults and catalog, span files) stays under .bench_build at the root
# of the checkout. The last line of standard output is the JSON result.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTELEMETRY=off \
	GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" -root "$out" "$@"
