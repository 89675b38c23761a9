#!/usr/bin/env bash
# Before/after kernel benchmark driver.
#
# Builds the pre-PR baseline from a `git archive` export and the current
# tree side by side (both Release, -DTBC_BENCH=ON), runs the kernel
# micro-benchmarks (bench/bench_kernels.cc, compiled from the SAME source
# against both library versions; each kernel in its own process, baseline
# and current alternating, PAIRS × 5 runs) plus the three paper-figure
# benches the kernel layer targets, median-of-5 each, and writes the combined
# before/after report to BENCH_kernels.json at the repo root. Each run
# also appends one JSON line to BENCH_history.jsonl: the refs, a machine
# fingerprint (CPU model, nproc, compiler version), and each kernel's
# median and MAD (median absolute deviation) over its runs, for both
# trees, so runs accumulate into a history instead of overwriting it.
#
# Usage: tools/run_bench.sh [baseline-ref]
#   baseline-ref defaults to HEAD when the working tree has uncommitted
#   kernel changes, HEAD~1 otherwise (the pre-PR parent).

set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$ROOT"

if [[ $# -ge 1 ]]; then
  BASE_REF="$1"
elif [[ -n "$(git status --porcelain -- src bench CMakeLists.txt)" ]]; then
  BASE_REF="HEAD"
else
  BASE_REF="HEAD~1"
fi
BASE_SHA="$(git rev-parse --short "$BASE_REF")"
CUR_SHA="$(git rev-parse --short HEAD)$(git diff --quiet HEAD -- src bench 2>/dev/null || echo '+dirty')"

RUNS=5
PAIRS=3
FIG_BENCHES=(bench_fig8_model_counting bench_fig14_psdd_eval bench_fig22_map_scaling)

BASE_SRC="$ROOT/build-bench-baseline-src"
BASE_BUILD="$ROOT/build-bench-baseline"
CUR_BUILD="$ROOT/build-release-bench"

# A plain export of the baseline's committed files, not a worktree: nothing
# is registered in the repository's git metadata.
cleanup() { rm -rf "$BASE_SRC"; }
trap cleanup EXIT
cleanup
mkdir -p "$BASE_SRC"
git archive "$BASE_REF" | tar -x -C "$BASE_SRC"

# The kernel micro-bench is written against APIs present in both trees:
# inject the current source (and its CMake registration) into the baseline
# so both binaries time identical workloads against different libraries.
cp "$ROOT/bench/bench_kernels.cc" "$BASE_SRC/bench/bench_kernels.cc"
if ! grep -q bench_kernels "$BASE_SRC/bench/CMakeLists.txt"; then
  printf '\nif(TBC_BENCH)\n  tbc_bench(bench_kernels)\nendif()\n' \
    >> "$BASE_SRC/bench/CMakeLists.txt"
fi
# The serve_codec kernel links the serving library.
if ! grep -q 'bench_kernels PRIVATE tbc_serve' "$BASE_SRC/bench/CMakeLists.txt"; then
  printf '\nif(TBC_BENCH)\n  target_link_libraries(bench_kernels PRIVATE tbc_serve)\nendif()\n' \
    >> "$BASE_SRC/bench/CMakeLists.txt"
fi

build_tree() { # src build [extra cmake args]
  # -DTBC_BENCH=ON is a plain cache variable: it gates the baseline's
  # appended if(TBC_BENCH) block even though the baseline CMakeLists has
  # no option() declaring it.
  cmake -S "$1" -B "$2" -DCMAKE_BUILD_TYPE=Release -DTBC_BENCH=ON \
    "${@:3}" > /dev/null
  cmake --build "$2" -j"$(nproc)" \
    --target bench_kernels "${FIG_BENCHES[@]}" > /dev/null
}

# The current tree builds Release under the default -Werror. A baseline
# ref may predate the -Wrestrict clean-up (GCC 12 false positives on
# std::string concatenation at -O3), so only it builds with TBC_WERROR=OFF;
# the flag changes no generated code.
echo "[run_bench] building baseline ($BASE_SHA) ..." >&2
build_tree "$BASE_SRC" "$BASE_BUILD" -DTBC_WERROR=OFF
echo "[run_bench] building current ($CUR_SHA) ..." >&2
build_tree "$ROOT" "$CUR_BUILD"
# The vtree-shape bench uses the structure-analysis API (new in this tree),
# so it has no pre-PR baseline build: right-linear/balanced columns inside
# its own report are the baseline.
cmake --build "$CUR_BUILD" -j"$(nproc)" --target bench_vtree_shapes > /dev/null

# Median-of-RUNS wall-clock for one binary, after one warm-up run.
# Emits "median|run1,run2,..." in milliseconds.
time_bin() {
  local bin="$1" out runs=()
  "$bin" > /dev/null 2>&1
  for _ in $(seq "$RUNS"); do
    local s e
    s=$(date +%s%N)
    "$bin" > /dev/null 2>&1
    e=$(date +%s%N)
    runs+=("$(awk -v d=$((e - s)) 'BEGIN{printf "%.3f", d / 1e6}')")
  done
  printf '%s\n' "${runs[@]}" | sort -g | awk -v n="$RUNS" '
    NR == int(n / 2) + 1 { m = $1 }
    { r = r (NR > 1 ? "," : "") $1 }
    END { print m "|" r }'
}

declare -A BEFORE AFTER BEFORE_RUNS AFTER_RUNS
for b in "${FIG_BENCHES[@]}"; do
  echo "[run_bench] timing $b (baseline) ..." >&2
  out="$(time_bin "$BASE_BUILD/bench/$b")"
  BEFORE[$b]="${out%%|*}"; BEFORE_RUNS[$b]="${out##*|}"
  echo "[run_bench] timing $b (current) ..." >&2
  out="$(time_bin "$CUR_BUILD/bench/$b")"
  AFTER[$b]="${out%%|*}"; AFTER_RUNS[$b]="${out##*|}"
done

# Each kernel runs in its own process (bench_kernels --kernel=NAME), so
# adding or reordering kernels cannot move another kernel's timing. The
# baseline and current binaries alternate per kernel, PAIRS times, so
# drift on a shared host lands on both sides; each tree's runs of a kernel
# merge into one median.
echo "[run_bench] running kernel micro-benchmarks ..." >&2
mapfile -t KERNELS < <("$CUR_BUILD/bench/bench_kernels" --list)
for tree in "$BASE_BUILD" "$CUR_BUILD"; do
  rm -rf "$tree/kernels"
  mkdir -p "$tree/kernels"
done
for k in "${KERNELS[@]}"; do
  echo "[run_bench]   $k" >&2
  for p in $(seq "$PAIRS"); do
    for tree in "$BASE_BUILD" "$CUR_BUILD"; do
      "$tree/bench/bench_kernels" --kernel="$k" "$tree/kernels/$k.$p.json" \
        2> /dev/null
    done
  done
done
for tree in "$BASE_BUILD" "$CUR_BUILD"; do
  python3 - "$tree/kernels" "$tree/kernels.json" "${KERNELS[@]}" <<'PY'
import glob, json, os, statistics, sys

parts, out_path, names = sys.argv[1], sys.argv[2], sys.argv[3:]
merged = []
for name in names:
    runs, units = [], {}
    for path in sorted(glob.glob(os.path.join(parts, name + ".*.json"))):
        with open(path) as f:
            (b,) = json.load(f)["benchmarks"]
        runs += b["runs_ms"]
        for unit in ("ns_per_edge", "ns_per_decision", "ns_per_line"):
            if b.get(unit):  # the work per run behind the rate
                units[unit] = b["median_ms"] * 1e6 / b[unit]
    median = statistics.median(runs)
    entry = {"name": name, "median_ms": round(median, 3), "runs_ms": runs}
    for unit, work in units.items():
        entry[unit] = round(median * 1e6 / work, 3)
    merged.append(entry)
with open(out_path, "w") as f:
    json.dump({"median_of": len(runs), "benchmarks": merged}, f, indent=2)
PY
done

echo "[run_bench] running vtree-shape bench (current tree only) ..." >&2
"$CUR_BUILD/bench/bench_vtree_shapes" "$CUR_BUILD/vtree_shapes.json" \
  2> /dev/null

# Machine fingerprint for the history record: history lines compare only
# against lines with the same fingerprint.
CPU_MODEL="$(grep -m1 '^model name' /proc/cpuinfo 2> /dev/null | cut -d: -f2- |
  sed 's/^ *//' || true)"
[[ -n "$CPU_MODEL" ]] || CPU_MODEL="$(uname -m)"
CXX_BIN="$(grep -m1 '^CMAKE_CXX_COMPILER:' "$CUR_BUILD/CMakeCache.txt" | cut -d= -f2-)"
CXX_VERSION="$("$CXX_BIN" --version | head -1)"

SUITES_TSV="$CUR_BUILD/suites.tsv"
: > "$SUITES_TSV"
for b in "${FIG_BENCHES[@]}"; do
  printf '%s\t%s\t%s\t%s\t%s\n' \
    "$b" "${BEFORE[$b]}" "${AFTER[$b]}" "${BEFORE_RUNS[$b]}" "${AFTER_RUNS[$b]}" \
    >> "$SUITES_TSV"
done

python3 - "$BASE_SHA" "$CUR_SHA" "$SUITES_TSV" \
  "$BASE_BUILD/kernels.json" "$CUR_BUILD/kernels.json" \
  "$ROOT/BENCH_kernels.json" "$CUR_BUILD/vtree_shapes.json" \
  "$ROOT/BENCH_history.jsonl" "$CPU_MODEL" "$(nproc)" "$CXX_VERSION" <<'PY'
import datetime, json, statistics, sys

base_sha, cur_sha, suites_tsv, base_kernels, cur_kernels, out_path = sys.argv[1:7]
vtree_shapes_path, history_path, cpu, nproc, compiler = sys.argv[7:12]
suites = {}
for line in open(suites_tsv):
    name, before, after, bruns, aruns = line.strip().split("\t")
    before, after = float(before), float(after)
    suites[name] = {
        "before_ms": before,
        "after_ms": after,
        "speedup": round(before / after, 2) if after > 0 else None,
        "before_runs_ms": [float(x) for x in bruns.split(",")],
        "after_runs_ms": [float(x) for x in aruns.split(",")],
    }

def load(path):
    with open(path) as f:
        return {b["name"]: b for b in json.load(f)["benchmarks"]}

kb, kc = load(base_kernels), load(cur_kernels)
kernels = {}
for name in kb:
    before, after = kb[name]["median_ms"], kc[name]["median_ms"]
    kernels[name] = {
        "before_ms": before,
        "after_ms": after,
        "speedup": round(before / after, 2) if after > 0 else None,
        "before_runs_ms": kb[name]["runs_ms"],
        "after_runs_ms": kc[name]["runs_ms"],
    }
    for unit in ("ns_per_edge", "ns_per_decision", "ns_per_line"):
        if unit in kc[name]:
            kernels[name]["before_" + unit] = kb[name].get(unit)
            kernels[name]["after_" + unit] = kc[name][unit]

with open(vtree_shapes_path) as f:
    vtree_shapes = json.load(f)

report = {
    "generated_by": "tools/run_bench.sh",
    "build_type": "Release",
    "median_of": 5,
    "kernel_median_of": json.load(open(cur_kernels))["median_of"],
    "baseline_ref": base_sha,
    "current_ref": cur_sha,
    "suites": suites,
    "kernels": kernels,
    "vtree_shapes": vtree_shapes,
}
with open(out_path, "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")
print(f"[run_bench] wrote {out_path}")

def summary(entries):
    out = {}
    for name, k in entries.items():
        runs = k["runs_ms"]
        median = statistics.median(runs)
        out[name] = {
            "median_ms": round(median, 4),
            "mad_ms": round(statistics.median(abs(x - median) for x in runs), 4),
            "runs": len(runs),
        }
    return out

record = {
    "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    "baseline_ref": base_sha,
    "current_ref": cur_sha,
    "machine": {"cpu": cpu, "nproc": int(nproc), "compiler": compiler},
    "build_type": "Release",
    "kernels": summary(kc),
    "baseline_kernels": summary(kb),
}
with open(history_path, "a") as f:
    f.write(json.dumps(record, sort_keys=True) + "\n")
print(f"[run_bench] appended a record to {history_path}")
for name, s in {**suites, **kernels}.items():
    print(f"  {name:32s} {s['before_ms']:10.3f} -> {s['after_ms']:10.3f} ms"
          f"   x{s['speedup']}")
print("[run_bench] vtree shapes (SDD size: right-linear -> minfill):")
for fam in vtree_shapes["families"]:
    r, m = fam["right"], fam["minfill"]
    ratio = r["size"] / m["size"] if m["size"] else float("nan")
    print(f"  {fam['family']:32s} width<={fam['forecast_width']:3d}"
          f"  size {r['size']:7d} -> {m['size']:7d} (x{ratio:.2f})"
          f"  ms {r['median_ms']:.3f} -> {m['median_ms']:.3f}")
print("[run_bench] vtree minimize (same seeded search, in-place vs recompile):")
for fam in vtree_shapes["families"]:
    ip, rc = fam.get("minimize_inplace"), fam.get("minimize_recompile")
    if not ip or not rc:
        continue
    speedup = rc["median_ms"] / ip["median_ms"] if ip["median_ms"] else float("inf")
    print(f"  {fam['family']:32s} size {ip['size']:7d} vs {rc['size']:7d}"
          f"  ms {ip['median_ms']:9.3f} vs {rc['median_ms']:9.3f}"
          f"  (x{speedup:.1f} faster in place)")
PY
