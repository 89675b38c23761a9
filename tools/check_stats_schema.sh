#!/usr/bin/env bash
# Validates the machine-readable stats dump against the committed schema.
#
# Runs `kc_cli <cnf> --wmc --stats=json`, extracts the JSON object from the
# output (kc_cli prints human-readable "c ..." lines first; the dump starts
# at the first line that is exactly "{"), and checks it against
# tools/stats_schema.json with a small stdlib-only validator (no jsonschema
# dependency). ctest runs this as check_stats_schema in every build, so the
# schema and RenderJson can only change together, deliberately.
#
# Usage: tools/check_stats_schema.sh [kc_cli_binary [file.cnf]]
#   kc_cli_binary defaults to the first of build/examples/kc_cli,
#   build-release-bench/examples/kc_cli that exists; without a CNF a tiny
#   satisfiable instance is generated in a temp file.

set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
SCHEMA="$ROOT/tools/stats_schema.json"

BIN="${1:-}"
if [[ -z "$BIN" ]]; then
  for candidate in "$ROOT/build/examples/kc_cli" \
                   "$ROOT/build-release-bench/examples/kc_cli"; do
    if [[ -x "$candidate" ]]; then BIN="$candidate"; break; fi
  done
fi
if [[ -z "$BIN" || ! -x "$BIN" ]]; then
  echo "check_stats_schema: kc_cli binary not found (build first)" >&2
  exit 1
fi

CNF="${2:-}"
TMP_CNF=""
if [[ -z "$CNF" ]]; then
  TMP_CNF="$(mktemp --suffix=.cnf)"
  printf 'p cnf 4 3\n1 2 0\n-1 3 0\n2 -3 4 0\n' > "$TMP_CNF"
  CNF="$TMP_CNF"
fi
OUT_FILE="$(mktemp)"
cleanup() {
  if [[ -n "$TMP_CNF" ]]; then rm -f "$TMP_CNF"; fi
  rm -f "$OUT_FILE"
}
trap cleanup EXIT

"$BIN" "$CNF" --wmc --stats=json > "$OUT_FILE"

# The program arrives on stdin (heredoc), so the stats travel by file.
python3 - "$SCHEMA" "$OUT_FILE" <<'PY'
import json
import sys

schema = json.load(open(sys.argv[1]))

# Everything before the JSON dump is human-readable "c ..." reporting; the
# dump starts at the first line that is exactly "{".
lines = open(sys.argv[2]).read().splitlines()
try:
    start = next(i for i, l in enumerate(lines) if l.strip() == "{")
except StopIteration:
    sys.exit("check_stats_schema: no JSON object found in kc_cli output")
try:
    data = json.loads("\n".join(lines[start:]))
except json.JSONDecodeError as e:
    sys.exit(f"check_stats_schema: stats dump is not valid JSON: {e}")


def fail(path, msg):
    sys.exit(f"check_stats_schema: {path or '$'}: {msg}")


def check(schema, data, path=""):
    """Validates the JSON-Schema subset stats_schema.json uses."""
    t = schema.get("type")
    if t == "integer":
        if not isinstance(data, int) or isinstance(data, bool):
            fail(path, f"expected integer, got {type(data).__name__}")
        if "minimum" in schema and data < schema["minimum"]:
            fail(path, f"{data} below minimum {schema['minimum']}")
        if "enum" in schema and data not in schema["enum"]:
            fail(path, f"{data} not in enum {schema['enum']}")
    elif t == "boolean":
        if not isinstance(data, bool):
            fail(path, f"expected boolean, got {type(data).__name__}")
    elif t == "string":
        if not isinstance(data, str):
            fail(path, f"expected string, got {type(data).__name__}")
    elif t == "array":
        if not isinstance(data, list):
            fail(path, f"expected array, got {type(data).__name__}")
        for i, item in enumerate(data):
            check(schema.get("items", {}), item, f"{path}[{i}]")
    elif t == "object":
        if not isinstance(data, dict):
            fail(path, f"expected object, got {type(data).__name__}")
        props = schema.get("properties", {})
        for key in schema.get("required", []):
            if key not in data:
                fail(path, f"missing required key '{key}'")
        extra = schema.get("additionalProperties", True)
        for key, value in data.items():
            child = f"{path}.{key}" if path else key
            if key in props:
                check(props[key], value, child)
            elif isinstance(extra, dict):
                check(extra, value, child)
            elif extra is False:
                fail(path, f"unexpected key '{key}'")
    elif t is not None:
        fail(path, f"schema type '{t}' not supported by this validator")


check(schema, data)
print(
    "check_stats_schema: OK "
    f"({len(data['counters'])} counters, {len(data['gauges'])} gauges, "
    f"{len(data['histograms'])} histograms, {len(data['spans'])} spans)"
)
PY

# Second pass: a --certify run must surface the certification metrics
# (certify.checks / traces_emitted / trace_bytes counters and the
# certify.check_us histogram) and still validate against the schema.
CERT_OUT="$(mktemp)"
trap 'cleanup; rm -f "$CERT_OUT"' EXIT
"$BIN" "$CNF" --certify --stats=json > "$CERT_OUT"

python3 - "$SCHEMA" "$CERT_OUT" <<'PY'
import json
import sys

lines = open(sys.argv[2]).read().splitlines()
start = next(i for i, l in enumerate(lines) if l.strip() == "{")
data = json.loads("\n".join(lines[start:]))

counters = data["counters"]
for key in ("certify.checks", "certify.traces_emitted", "certify.trace_bytes"):
    if counters.get(key, 0) < 1:
        sys.exit(f"check_stats_schema: --certify run missing counter {key}")
if "certify.check_us" not in data["histograms"]:
    sys.exit("check_stats_schema: --certify run missing certify.check_us histogram")
print("check_stats_schema: OK (certify metrics present)")
PY

# Third pass: the serving daemon's stats endpoint speaks the same schema.
# Boot tbc_serve on a private unix socket, issue one real compile+count so
# the serve.* instruments fire, fetch --op=stats, and validate the dump
# (which arrives as a bare JSON object, no "c ..." preamble).
SERVE_BIN="$(dirname "$BIN")/tbc_serve"
CLIENT_BIN="$(dirname "$BIN")/tbc_client"
if [[ -x "$SERVE_BIN" && -x "$CLIENT_BIN" ]]; then
  SOCK="$(mktemp -u /tmp/tbc_stats_XXXXXX.sock)"
  SERVE_OUT="$(mktemp)"
  "$SERVE_BIN" --listen="unix:$SOCK" >/dev/null 2>&1 &
  SERVE_PID=$!
  trap 'cleanup; rm -f "$CERT_OUT" "$SERVE_OUT" "$SOCK"; kill "$SERVE_PID" 2>/dev/null' EXIT
  for _ in $(seq 1 100); do
    [[ -S "$SOCK" ]] && break
    sleep 0.05
  done
  "$CLIENT_BIN" --connect="unix:$SOCK" --op=count "$CNF" >/dev/null
  "$CLIENT_BIN" --connect="unix:$SOCK" --op=stats > "$SERVE_OUT"
  kill -TERM "$SERVE_PID" 2>/dev/null
  wait "$SERVE_PID" 2>/dev/null || true

  python3 - "$SCHEMA" "$SERVE_OUT" <<'PY'
import json
import sys

schema = json.load(open(sys.argv[1]))
lines = open(sys.argv[2]).read().splitlines()
start = next(i for i, l in enumerate(lines) if l.strip() == "{")
data = json.loads("\n".join(lines[start:]))


def fail(path, msg):
    sys.exit(f"check_stats_schema: serve: {path or '$'}: {msg}")


def check(schema, data, path=""):
    t = schema.get("type")
    if t == "integer":
        if not isinstance(data, int) or isinstance(data, bool):
            fail(path, f"expected integer, got {type(data).__name__}")
        if "minimum" in schema and data < schema["minimum"]:
            fail(path, f"{data} below minimum {schema['minimum']}")
        if "enum" in schema and data not in schema["enum"]:
            fail(path, f"{data} not in enum {schema['enum']}")
    elif t == "boolean":
        if not isinstance(data, bool):
            fail(path, f"expected boolean, got {type(data).__name__}")
    elif t == "string":
        if not isinstance(data, str):
            fail(path, f"expected string, got {type(data).__name__}")
    elif t == "array":
        if not isinstance(data, list):
            fail(path, f"expected array, got {type(data).__name__}")
        for i, item in enumerate(data):
            check(schema.get("items", {}), item, f"{path}[{i}]")
    elif t == "object":
        if not isinstance(data, dict):
            fail(path, f"expected object, got {type(data).__name__}")
        props = schema.get("properties", {})
        for key in schema.get("required", []):
            if key not in data:
                fail(path, f"missing required key '{key}'")
        extra = schema.get("additionalProperties", True)
        for key, value in data.items():
            child = f"{path}.{key}" if path else key
            if key in props:
                check(props[key], value, child)
            elif isinstance(extra, dict):
                check(extra, value, child)
            elif extra is False:
                fail(path, f"unexpected key '{key}'")
    elif t is not None:
        fail(path, f"schema type '{t}' not supported by this validator")


check(schema, data)
counters = data["counters"]
for key in ("serve.connections.accepted", "serve.requests.accepted",
            "serve.requests.ok"):
    if counters.get(key, 0) < 1:
        sys.exit(f"check_stats_schema: serve stats missing counter {key}")
print("check_stats_schema: OK (serve.* counters present)")
PY
else
  echo "check_stats_schema: note: tbc_serve/tbc_client not built, serve pass skipped"
fi

# Fourth pass: a structure-driven compile (--vtree=minfill) must surface
# the analysis.structure.* instruments — the runs/orders_tried counters and
# the best_width histogram — and still validate against the schema.
STRUCT_OUT="$(mktemp)"
trap 'cleanup; rm -f "$CERT_OUT" "$STRUCT_OUT" "${SERVE_OUT:-}" "${SOCK:-}"' EXIT
"$BIN" "$CNF" --target=sdd --vtree=minfill --stats=json > "$STRUCT_OUT"

python3 - "$SCHEMA" "$STRUCT_OUT" <<'PY'
import json
import sys

lines = open(sys.argv[2]).read().splitlines()
start = next(i for i, l in enumerate(lines) if l.strip() == "{")
data = json.loads("\n".join(lines[start:]))

counters = data["counters"]
for key in ("analysis.structure.runs", "analysis.structure.orders_tried"):
    if counters.get(key, 0) < 1:
        sys.exit(f"check_stats_schema: --vtree=minfill run missing counter {key}")
if "analysis.structure.best_width" not in data["histograms"]:
    sys.exit("check_stats_schema: --vtree=minfill run missing "
             "analysis.structure.best_width histogram")
print("check_stats_schema: OK (analysis.structure.* metrics present)")
PY

# Fifth pass: a minimizing SDD run must surface the sdd.minimize.*
# instruments pinned in the schema's definitions block — the counter and
# histogram names live in stats_schema.json so a rename fails CI here.
# The instance is big enough (20 vars at clause density 3) that the
# aggressive auto-trigger fires during compilation on top of the explicit
# --minimize search.
MIN_CNF="$(mktemp --suffix=.cnf)"
MIN_OUT="$(mktemp)"
trap 'cleanup; rm -f "$CERT_OUT" "$STRUCT_OUT" "$MIN_CNF" "$MIN_OUT" \
     "${SERVE_OUT:-}" "${SOCK:-}"' EXIT
python3 - "$MIN_CNF" <<'PY'
import random, sys
random.seed(3)
n, m = 20, 60
with open(sys.argv[1], "w") as f:
    f.write(f"p cnf {n} {m}\n")
    for _ in range(m):
        vs = random.sample(range(1, n + 1), 3)
        f.write(" ".join(str(v if random.random() < 0.5 else -v) for v in vs) + " 0\n")
PY
"$BIN" "$MIN_CNF" --target=sdd --minimize=200 --sdd-minimize=aggressive \
  --sdd-minimize-threshold=1.1 --stats=json > "$MIN_OUT"

python3 - "$SCHEMA" "$MIN_OUT" <<'PY'
import json
import sys

schema = json.load(open(sys.argv[1]))
pinned = schema["definitions"]["sddMinimizeInstruments"]
lines = open(sys.argv[2]).read().splitlines()
start = next(i for i, l in enumerate(lines) if l.strip() == "{")
data = json.loads("\n".join(lines[start:]))

counters = data["counters"]
for key in pinned["requiredCounters"]:
    if counters.get(key, 0) < 1:
        sys.exit(f"check_stats_schema: minimizing run missing counter {key}")
for key in pinned["requiredHistograms"]:
    if key not in data["histograms"]:
        sys.exit(f"check_stats_schema: minimizing run missing histogram {key}")
# Reserved names are event-conditional; just make sure nothing minted a
# name outside the pinned set (a rename would land here).
known = set(pinned["requiredCounters"]) | set(pinned["reservedCounters"])
stray = [k for k in counters
         if k.startswith("sdd.minimize.") and k not in known]
if stray:
    sys.exit(f"check_stats_schema: unpinned sdd.minimize counters: {stray}")
print("check_stats_schema: OK (sdd.minimize.* instruments present)")
PY

# Sixth pass: the persistent circuit store's instruments, pinned in the
# schema's storeInstruments block. kc_cli --save-circuit then
# --load-circuit must tick store.writes / store.opens; a daemon restart
# over a shared --store-dir must tick serve.store.spills in the first
# process and serve.store.restores / serve.store.hits — with ZERO cache
# misses — in the second. A rename of any store counter fails here.
STORE_TBC="$(mktemp -u --suffix=.tbc)"
SAVE_OUT="$(mktemp)"
LOAD_OUT="$(mktemp)"
STORE_DIR="$(mktemp -d)"
trap 'cleanup; rm -f "$CERT_OUT" "$STRUCT_OUT" "$MIN_CNF" "$MIN_OUT" \
     "$STORE_TBC" "$SAVE_OUT" "$LOAD_OUT" "${SERVE_OUT:-}" "${SOCK:-}"; \
     rm -rf "$STORE_DIR"' EXIT
"$BIN" "$CNF" --save-circuit="$STORE_TBC" --stats=json > "$SAVE_OUT"
"$BIN" --load-circuit="$STORE_TBC" --stats=json > "$LOAD_OUT"

python3 - "$SCHEMA" "$SAVE_OUT" "$LOAD_OUT" <<'PY'
import json
import sys

schema = json.load(open(sys.argv[1]))
pinned = schema["definitions"]["storeInstruments"]

def counters_of(path):
    lines = open(path).read().splitlines()
    start = next(i for i, l in enumerate(lines) if l.strip() == "{")
    return json.loads("\n".join(lines[start:]))["counters"]

save, load = counters_of(sys.argv[2]), counters_of(sys.argv[3])
if save.get("store.writes", 0) < 1:
    sys.exit("check_stats_schema: --save-circuit run missing store.writes")
if load.get("store.opens", 0) < 1:
    sys.exit("check_stats_schema: --load-circuit run missing store.opens")
known = set()
for group in ("cliRequiredCounters", "serveSpillCounters",
              "serveRestoreCounters", "reservedCounters"):
    known |= set(pinned[group])
for name, counters in (("save", save), ("load", load)):
    stray = [k for k in counters
             if (k.startswith("store.") or k.startswith("serve.store."))
             and k not in known]
    if stray:
        sys.exit(f"check_stats_schema: unpinned store counters in {name}: {stray}")
print("check_stats_schema: OK (store.* cli instruments present)")
PY

if [[ -x "$SERVE_BIN" && -x "$CLIENT_BIN" ]]; then
  SOCK2="$(mktemp -u /tmp/tbc_store_XXXXXX.sock)"
  WARM1_OUT="$(mktemp)"
  WARM2_OUT="$(mktemp)"
  trap 'cleanup; rm -f "$CERT_OUT" "$STRUCT_OUT" "$MIN_CNF" "$MIN_OUT" \
       "$STORE_TBC" "$SAVE_OUT" "$LOAD_OUT" "$WARM1_OUT" "$WARM2_OUT" \
       "${SERVE_OUT:-}" "${SOCK:-}" "$SOCK2"; rm -rf "$STORE_DIR"' EXIT

  # First daemon: compile once (spill), capture stats, terminate.
  "$SERVE_BIN" --listen="unix:$SOCK2" --store-dir="$STORE_DIR" >/dev/null 2>&1 &
  PID=$!
  for _ in $(seq 1 100); do [[ -S "$SOCK2" ]] && break; sleep 0.05; done
  "$CLIENT_BIN" --connect="unix:$SOCK2" --op=count "$CNF" >/dev/null
  "$CLIENT_BIN" --connect="unix:$SOCK2" --op=stats > "$WARM1_OUT"
  kill -TERM "$PID" 2>/dev/null; wait "$PID" 2>/dev/null || true
  rm -f "$SOCK2"

  # Second daemon over the same store dir: the count must be answered
  # from the warm-started artifact, with zero compile activity.
  "$SERVE_BIN" --listen="unix:$SOCK2" --store-dir="$STORE_DIR" >/dev/null 2>&1 &
  PID=$!
  for _ in $(seq 1 100); do [[ -S "$SOCK2" ]] && break; sleep 0.05; done
  "$CLIENT_BIN" --connect="unix:$SOCK2" --op=count "$CNF" >/dev/null
  "$CLIENT_BIN" --connect="unix:$SOCK2" --op=stats > "$WARM2_OUT"
  kill -TERM "$PID" 2>/dev/null; wait "$PID" 2>/dev/null || true

  python3 - "$SCHEMA" "$WARM1_OUT" "$WARM2_OUT" <<'PY'
import json
import sys

schema = json.load(open(sys.argv[1]))
pinned = schema["definitions"]["storeInstruments"]

def counters_of(path):
    lines = open(path).read().splitlines()
    start = next(i for i, l in enumerate(lines) if l.strip() == "{")
    return json.loads("\n".join(lines[start:]))["counters"]

first, second = counters_of(sys.argv[2]), counters_of(sys.argv[3])
for key in pinned["serveSpillCounters"]:
    if first.get(key, 0) < 1:
        sys.exit(f"check_stats_schema: first daemon missing counter {key}")
for key in pinned["serveRestoreCounters"]:
    if second.get(key, 0) < 1:
        sys.exit(f"check_stats_schema: restarted daemon missing counter {key}")
# The restart contract itself: the second daemon never compiled.
if second.get("serve.cache.misses", 0) != 0:
    sys.exit("check_stats_schema: restarted daemon saw a cache miss "
             f"({second['serve.cache.misses']}) — warm start failed")
print("check_stats_schema: OK (serve.store.* restart contract holds)")
PY
else
  echo "check_stats_schema: note: tbc_serve/tbc_client not built, store restart pass skipped"
fi
