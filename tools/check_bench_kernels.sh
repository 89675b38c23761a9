#!/usr/bin/env bash
# Kernel bench smoke run: runs bench_kernels once and fails unless its
# report parses as JSON, lists at least one kernel, and every kernel
# reports a positive median. Catches a kernel that stopped doing work or
# a report the history tooling (tools/run_bench.sh) could not read.
#
# Usage: tools/check_bench_kernels.sh [build_dir]   (default: build)
#   The build needs -DTBC_BENCH=ON.

set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD="${1:-$ROOT/build}"
BIN="$BUILD/bench/bench_kernels"

if [[ ! -x "$BIN" ]]; then
  echo "check_bench_kernels: $BIN not found (build with -DTBC_BENCH=ON)" >&2
  exit 1
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

"$BIN" "$TMP/kernels.json" 2> /dev/null
python3 - "$TMP/kernels.json" <<'PY'
import json, sys

with open(sys.argv[1]) as f:
    kernels = json.load(f)["benchmarks"]
bad = [k.get("name") for k in kernels
       if not isinstance(k.get("median_ms"), (int, float)) or k["median_ms"] <= 0]
if not kernels or bad:
    sys.exit(f"check_bench_kernels: no kernels or non-positive medians: {bad}")
for k in kernels:
    print(f"  {k['name']:28s} {k['median_ms']:10.3f} ms")
print(f"check_bench_kernels: {len(kernels)} kernels ok")
PY
