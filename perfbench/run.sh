#!/usr/bin/env bash
# Builds rdfsumd, rdfsum and the perfbench program from the sources of
# the checkout this script sits in, into <checkout>/.bench_build, then
# runs perfbench with the given flags, e.g.
#
#   bash perfbench/run.sh --workload bsbm-read --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays under .bench_build.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/rdfsumd" ]; then
	echo "perfbench: no rdfsum sources next to $root/perfbench" >&2
	exit 2
fi
out="$root/.bench_build"
# Keep the Go toolchain's caches, its config (telemetry) and every
# temporary file inside the checkout too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
mkdir -p "$out/bin" "$out/tmp"
(cd "$root" && go build -o "$out/bin/" ./cmd/rdfsumd ./cmd/rdfsum) >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
