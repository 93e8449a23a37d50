#!/usr/bin/env bash
# Builds the hqperf benchmark from this checkout and runs it; every argument
# passes through. Build outputs and reports stay in .bench_build/ at the
# repository root.
#
#   bash hqperf/run.sh --workload local-stream --seed 1 --seconds 10 --trace 0
#
# The benchmark runs pinned to one CPU (the last one this process may use),
# so the Go runtime sizes itself to that CPU. Unpinned, work that crosses
# cores ran at one of two speeds, a factor of two apart, depending on where
# the host placed the two vCPUs at the time; see README.md.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/hqperf" "$out/tmp"
# Keep every file the go command writes (cache, temporary work directories,
# its telemetry counters under the config directory) inside .bench_build.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd hqperf && go build -o "$out/hqperf/hqperf" .)
cpus="$(awk '/^Cpus_allowed_list:/ {print $2}' /proc/self/status 2>/dev/null || true)"
if [ -n "$cpus" ] && command -v taskset >/dev/null; then
	last="${cpus##*[,-]}"
	exec taskset -c "$last" "$out/hqperf/hqperf" "$@"
fi
echo "hqperf: cannot pin to one CPU; running unpinned" >&2
exec "$out/hqperf/hqperf" "$@"
