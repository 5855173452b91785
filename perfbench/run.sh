#!/usr/bin/env bash
# Builds roxserve and the perfbench load client from this checkout and runs
# perfbench with the given arguments, e.g.
#
#	bash perfbench/run.sh --workload hot-serve --seed 1 --seconds 30 --trace 0
#	bash perfbench/run.sh --steady 10 --workload cold-joins --seed 1 --seconds 30
#
# Everything built or written (Go build cache, binaries, corpora, spans,
# result files) stays under .bench_build/ at the checkout root.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/tmp"
# The go command's cache, temporary files, module path and its telemetry
# settings (kept under the user config directory) all go to $out.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# Telemetry off: otherwise each go command may fork a detached sidecar
# process that outlives this script.
mkdir -p "$out/config/go/telemetry"
echo off >"$out/config/go/telemetry/mode"
if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: no go.mod at $root: the program to benchmark is missing" >&2
	exit 1
fi
(cd "$root" && go build -o "$out/roxserve" ./cmd/roxserve) >&2
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --root "$root" --serve-bin "$out/roxserve" --work "$out" "$@"
