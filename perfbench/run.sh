#!/usr/bin/env bash
# Builds the MaxEmbed server and the benchmark program from the checkout
# this script sits in, then runs one benchmark:
#
#   bash perfbench/run.sh --workload http-criteo --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write goes under .bench_build/perfbench
# at the checkout root. The last line of standard output is the result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/maxembed-server" ]; then
	echo "perfbench: no MaxEmbed source tree at $root" >&2
	exit 2
fi
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" # the go command's env file and telemetry
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$root" && go build -o "$out/maxembed-server" ./cmd/maxembed-server) >&2
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
