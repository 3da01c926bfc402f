#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. --trace 0 runs stencil-bench (the
# end-to-end metrics), --trace 1 runs stencil-bench-layers (the per-layer
# metrics). The build cache, the Go configuration and the binaries stay in
# .bench_build/ under the root; nothing is downloaded.
set -euo pipefail

root=$(pwd)
if ! grep -qs '^module nustencil$' "$root/go.mod" || [ ! -f "$root/bench/go.mod" ]; then
	echo "bench/run.sh: run from the root of a nustencil checkout" >&2
	exit 2
fi

trace=0
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
	case "${args[i]}" in
	--trace | -trace) trace="${args[i + 1]:-}" ;;
	--trace=* | -trace=*) trace="${args[i]#*=}" ;;
	esac
done
case "$trace" in
0) cmd=stencil-bench ;;
1) cmd=stencil-bench-layers ;;
*)
	echo "bench/run.sh: --trace must be 0 or 1, got '$trace'" >&2
	exit 2
	;;
esac

out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/bench" && go build -o "$out/$cmd" "./cmd/$cmd")
exec "$out/$cmd" "$@"
